"""The sharded fleet's coordinator, driven in-process.

:class:`~repro.experiments.sharded.ShardCoordinator` is what
``run_fleet_sharded`` hands ``run_sharded`` as hooks.  These tests call
those hooks directly with hand-built barrier messages, so both ways a
shard's slice runs again (a respawn, the post-run replay of a lost
shard) run in milliseconds without spawning a worker.
"""

import importlib

import pytest

from repro.experiments import sharded as sharded_module
from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet_sharded
from repro.experiments.sharded import (
    ImageAppSpec,
    ShardCoordinator,
    ShardFleetSpec,
)
from repro.fleet import CheckpointConfig
from repro.fleet.checkpoint import (
    SessionCheckpoint,
    ShardCheckpoint,
    SyncOffer,
)
from repro.fleet.sharding import ShardError, assign_shards
from repro.predictors.shared import SharedTransitionPrior
from repro.workloads.mouse import MouseTraceGenerator

APP = ImageAppSpec(rows=8, cols=8)
SESSIONS = 12


@pytest.fixture(scope="module")
def traces():
    layout = APP.build().layout
    return [
        MouseTraceGenerator(layout, seed=100 + i).generate(duration_s=4.0)
        for i in range(SESSIONS)
    ]


def coordinator(traces, num_shards, predictor="kalman", checkpoint=None, **kw):
    fleet_env = FleetEnvironment(
        num_sessions=len(traces), env=DEFAULT_ENV, checkpoint=checkpoint
    )
    spec = ShardFleetSpec(
        app_spec=APP,
        traces=list(traces),
        fleet_env=fleet_env,
        predictor=predictor,
        shard=0,
        num_shards=num_shards,
    )
    return ShardCoordinator(spec, 1.0, **kw)


def shard_checkpoint(shard, num_shards, round_index, sessions, at_s=1.0):
    return ShardCheckpoint(
        shard=shard,
        num_shards=num_shards,
        round_index=round_index,
        sim_time_s=at_s,
        n=APP.rows * APP.cols,
        sessions=tuple(
            SessionCheckpoint(i, requests_seen=2, blocks_received=0, blocks_sent=0,
                              bytes_sent=0, cache_digest=0, rng_digest=0)
            for i in sessions
        ),
    )


def test_task_entry_resolves_to_the_worker(traces):
    coord = coordinator(traces, 2)
    try:
        module, _, name = coord.task(0).entry.partition(":")
        assert callable(getattr(importlib.import_module(module), name))
    finally:
        coord.close()


def test_on_round_folds_every_delta_and_stores_every_checkpoint(traces):
    coord = coordinator(
        traces, 2, predictor="shared-markov",
        checkpoint=CheckpointConfig(cadence_rounds=1),
    )
    try:
        offers, expected = [], SharedTransitionPrior(APP.rows * APP.cols)
        for shard, moves in enumerate([[(1, 2), (2, 3)], [(1, 2), (5, 6)]]):
            local = SharedTransitionPrior(APP.rows * APP.cols)
            local.enable_sharding(f"shard{shard}")
            for prev, nxt in moves:
                local.observe(prev, nxt)
            delta = local.delta_since()
            expected.merge_delta(delta)
            offers.append(SyncOffer(delta, shard_checkpoint(shard, 2, 0, [shard])))
        offers.append(SyncOffer())  # a liveness-only offer changes nothing
        coord.on_round(0, dict(enumerate(offers)))
        assert coord.prior.snapshot() == expected.snapshot()
        assert coord.merged == 4
        for shard in (0, 1):
            assert coord.store.latest(shard) is offers[shard].checkpoint
    finally:
        coord.close()


def test_respawn_task_restores_from_the_latest_checkpoint(traces):
    coord = coordinator(traces, 3, checkpoint=CheckpointConfig(cadence_rounds=1))
    try:
        owned = assign_shards(range(SESSIONS), 3)
        coord.on_round(
            0, {k: SyncOffer(checkpoint=shard_checkpoint(k, 3, 0, owned[k])) for k in range(3)}
        )

        spec = coord.respawn(2, 3).spec
        assert (spec.attempt, spec.first_round) == (1, 3)
        assert spec.sync_points == coord.sync_points[3:]
        assert spec.restore is coord.store.latest(2)
        # The plan-wide spec is never touched.
        assert coord.spec.restore is None
    finally:
        coord.close()


def test_replacement_replays_the_deltas_its_predecessor_merged(traces):
    """A replacement warms from the run's initial prior, not the
    aggregate, and gets every earlier round's peer deltas in the order
    its predecessor merged them — never its own, never an empty one."""
    coord = coordinator(traces, 3, predictor="shared-markov")
    try:
        deltas = {}
        for r in range(2):
            offers = {}
            for k in (2, 0, 1):  # the order the workers received them
                local = SharedTransitionPrior(APP.rows * APP.cols)
                local.enable_sharding(f"shard{k}")
                if (r, k) != (1, 2):
                    local.observe(r, k + 10)
                deltas[r, k] = local.delta_since()
                offers[k] = SyncOffer(None if (r, k) == (1, 0) else deltas[r, k])
            coord.on_round(r, offers)

        spec = coord.respawn(1, 2).spec
        assert spec.shared_prior_path == coord.warm_path
        assert spec.replay_log == (
            (coord.sync_points[0], (deltas[0, 2], deltas[0, 0])),
            (coord.sync_points[1], ()),
        )
        assert coord.task(0).spec.replay_log == ()
        # A lost shard's replay runs every round.
        assert len(coord.task(1, len(coord.log)).spec.replay_log) == 2
    finally:
        coord.close()


def test_reabsorb_retries_lost_shards_but_never_hides_bugs(traces, monkeypatch):
    coord = coordinator(traces, 2, checkpoint=CheckpointConfig(cadence_rounds=1))
    try:
        coord.recovery.lost_shards.append(1)
        ran = []

        def still_lost(tasks, **kw):
            ran.append(tasks)
            raise ShardError(1, "died again")

        monkeypatch.setattr(sharded_module, "run_sharded", still_lost)
        shards = [{"ok": True}, None]
        coord.reabsorb(shards, timeout_s=1.0)
        assert shards[1] is None and coord.reabsorbed == []
        (salvage,) = ran[0]
        assert (salvage.shard, salvage.num_shards) == (0, 1)
        assert salvage.spec.shard == 1 and salvage.spec.sync_points == ()

        def broken(tasks, **kw):
            raise TypeError("a bug, not a lost shard")

        monkeypatch.setattr(sharded_module, "run_sharded", broken)
        with pytest.raises(TypeError):
            coord.reabsorb(shards, timeout_s=1.0)
    finally:
        coord.close()


def test_negative_sync_interval_is_rejected(traces):
    with pytest.raises(ValueError, match="sync_interval_s"):
        run_fleet_sharded(
            APP, traces, FleetEnvironment(num_sessions=SESSIONS, env=DEFAULT_ENV),
            num_shards=2, predictor="shared-markov", sync_interval_s=-1.0,
        )
