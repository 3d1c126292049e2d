"""The worker half of a sharded fleet run: one process's slice.

A spawned worker calls :func:`run_shard` with the
:class:`~repro.experiments.sharded.ShardFleetSpec` its task carries.
:class:`ShardWorker` wraps the ordinary
:func:`~repro.experiments.runner.run_fleet` with a route that keeps only
the sessions this shard owns and resources scaled to the owned share —
bandwidth, admission cap, backend budget and expected population all
scale by ``owned/total``, so each *session's* slice matches the
unsharded fleet's — and a ``run_driver`` that pauses at every sync barrier
to offer a :class:`~repro.fleet.checkpoint.SyncOffer` and merge the prior
deltas in the other shards' offers.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from typing import Optional

from repro.fleet.checkpoint import (
    FleetCheckpoint,
    ShardCheckpoint,
    SyncOffer,
    capture_shard,
)
from repro.fleet.sharding import ShardChannel, assign_shards

from .runner import run_fleet
from .sharded import ShardFleetSpec

__all__ = ["ShardWorker", "run_shard"]


def run_shard(spec: ShardFleetSpec, channel: ShardChannel) -> dict:
    """Entry point of :class:`~repro.experiments.sharded.ShardCoordinator`'s tasks."""
    return ShardWorker(spec, channel).run()


class ShardWorker:
    """One shard's fleet, run from barrier to barrier.

    :meth:`run` returns the raw material the coordinator pools: outcome
    streams, fairness samples, counter snapshots, the shard's final
    prior contribution, and checkpoint and CPU accounting.
    """

    def __init__(self, spec: ShardFleetSpec, channel: ShardChannel) -> None:
        self.spec = spec
        self.channel = channel
        self.n = spec.app_spec.rows * spec.app_spec.cols
        # run_fleet hands these to _drive.
        self.sim = self.fleet = self.prior = None
        self.sent_vv: dict[int, int] = {}
        self.cpu_run_s = self.wall_run_s = self.checkpoint_cpu_s = 0.0
        self.checkpoints_taken = 0
        self.final_checkpoint: Optional[ShardCheckpoint] = None
        self.restore_verified: Optional[bool] = None
        self.resumed_sessions = 0
        self.drained = False

    def run(self) -> dict:
        spec = self.spec
        total = spec.fleet_env.num_sessions
        owned = set(assign_shards(range(total), spec.num_shards)[spec.shard])
        share = len(owned) / total
        # A shard the hash left empty still runs (it must show up at every
        # sync barrier), just over an epsilon link nobody will use.  The
        # max() is exact at share=1.0, preserving W=1 bit-identity.
        env, arrival = spec.fleet_env.env, spec.fleet_env.arrival
        scaled = {"env": env.with_bandwidth(env.bandwidth_bytes_per_s * max(share, 1e-9))}
        if arrival is not None and arrival.max_concurrent is not None:
            scaled["arrival"] = replace(
                arrival, max_concurrent=max(1, math.ceil(arrival.max_concurrent * share))
            )
        if spec.fleet_env.backend_concurrency is not None:
            scaled["backend_concurrency"] = max(
                1, math.ceil(spec.fleet_env.backend_concurrency * share)
            )
        expected_total = (
            float(total) if arrival is None else arrival.expected_concurrency(total)
        )
        result = run_fleet(
            spec.app_spec.build(),
            spec.traces,
            replace(spec.fleet_env, **scaled),
            predictor=spec.predictor,
            drain_s=spec.drain_s,
            seed=spec.seed,
            cohort_width_s=spec.cohort_width_s,
            early_k=spec.early_k,
            shared_prior=spec.shared_prior_path,
            session_route=owned.__contains__,
            expected_sessions=expected_total * share,
            run_driver=self._drive,
        )
        fleet, prior, manager = self.fleet, self.prior, self.fleet.manager
        return {
            "diagnostics": result.diagnostics,
            "outcomes_by_session": fleet.outcomes_by_session(),
            "session_indices": list(fleet.session_indices),
            "fairness_samples": fleet.fairness_samples(),
            "arrival_times": manager.arrival_times() if manager else None,
            "session_labels": (
                [str(r.index) for r in manager.admitted_records] if manager else None
            ),
            "prior_delta": prior.delta_since() if prior is not None else None,
            "num_sessions": len(fleet.sessions),
            "timing": {"cpu_run_s": self.cpu_run_s, "wall_run_s": self.wall_run_s},
            "drained": self.drained,
            "resumed_sessions": self.resumed_sessions,
            "restore_verified": self.restore_verified,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_cpu_s": self.checkpoint_cpu_s,
            "final_checkpoint": self.final_checkpoint,
        }

    def _drive(self, sim, until: float, fleet, prior) -> None:
        """``run_fleet``'s ``run_driver``: the run, cut at the sync barriers."""
        self.sim, self.fleet, self.prior = sim, fleet, prior
        spec = self.spec
        if prior is not None:
            prior.enable_sharding(f"shard{spec.shard}")
        if spec.resume_from is not None:
            self._resume(spec.resume_from)
        wall_start = time.perf_counter()
        self._replay_predecessor()
        # Injected worker crash: the original worker (attempt 0) dies hard
        # — no cleanup, no error message, like kill -9 — right before its
        # scheduled barrier, so the coordinator sees a mid-protocol death.
        chaos = spec.fleet_env.chaos
        crash_at = None
        if chaos is not None and spec.attempt == 0:
            crash_at = chaos.crash_round(spec.shard)
        rounds_run = 0
        for round_index, point in enumerate(spec.sync_points, spec.first_round):
            if point >= until:
                break
            self._run_to(point)
            if round_index == crash_at:
                os._exit(17)
            rounds_run += 1
            self._barrier(round_index)
            if round_index == spec.drain_after_round:
                self.drained = True
                break
        if not self.drained:
            self._run_to(until)
        if crash_at is not None and crash_at >= rounds_run:
            # Fewer barriers than the schedule assumed: crash at the
            # latest possible point instead (before the result ships).
            os._exit(17)
        checkpoint = spec.fleet_env.checkpoint
        if checkpoint is not None and checkpoint.captures:
            # A final capture keeps --checkpoint-out as fresh as the run.
            final_round = spec.first_round + max(rounds_run - 1, 0)
            self.final_checkpoint = self._capture(final_round, sim.now)
        self.wall_run_s = time.perf_counter() - wall_start

    def _run_to(self, t: float) -> None:
        cpu_start = time.process_time()
        self.sim.run(until=t)
        self.cpu_run_s += time.process_time() - cpu_start

    def _barrier(self, round_index: int) -> None:
        """Offer this round's :class:`SyncOffer` — a checkpoint when
        :meth:`CheckpointConfig.due`, the prior delta — then merge the
        peers' prior deltas."""
        prior = self.prior
        checkpoint = None
        config = self.spec.fleet_env.checkpoint
        if config is not None and config.due(round_index):
            checkpoint = self._capture(round_index, self.sim.now)
        delta = None
        if prior is not None:
            delta = prior.delta_since(self.sent_vv)
            self.sent_vv = prior.local_version_vector()
        peers = self.channel.exchange(SyncOffer(delta, checkpoint))
        if prior is not None:
            for offer in peers:
                if offer.delta:
                    prior.merge_delta(offer.delta)

    def _resume(self, path: str) -> None:
        """``--checkpoint-in``: count our checkpointed sessions as resumed.

        A resume is a re-run: every worker boots at round 0 and replays
        the run with live peers, whose barrier deltas arrive when the
        clean run had them.  Nothing from the bundle's stored prior
        contributions is merged — the peers' drain-time deltas hold rows
        they learn only later, and merging them at t = 0 changed the
        run under ``shared-markov``.
        """
        own = FleetCheckpoint.load(path, n=self.n).shards.get(self.spec.shard)
        if own is not None:
            self.resumed_sessions = len(own.sessions)

    def _replay_predecessor(self) -> None:
        """Redo what this shard's earlier worker did at the barriers
        before the round this one starts at (a respawn, or the post-run
        replay of a lost shard).  At each, in order: re-capture the
        restore checkpoint if it was taken there, to verify the replay
        against its digests, then merge the peer deltas the predecessor
        merged there.
        """
        restore = self.spec.restore
        for round_index, (at_s, deltas) in enumerate(self.spec.replay_log):
            self._run_to(at_s)
            if restore is not None and restore.round_index == round_index:
                ours = self._capture(round_index, at_s, counted=False)
                self.restore_verified = ours.digest() == restore.digest()
            for delta in deltas:
                self.prior.merge_delta(delta)

    def _capture(
        self, round_index: int, at_s: float, counted: bool = True
    ) -> ShardCheckpoint:
        """Snapshot the shard; a restore check (``counted=False``) costs
        checkpoint CPU but is not a checkpoint taken."""
        cpu_start = time.process_time()
        ckpt = capture_shard(
            self.fleet,
            self.prior,
            shard=self.spec.shard,
            num_shards=self.spec.num_shards,
            round_index=round_index,
            sim_time_s=at_s,
            n=self.n,
        )
        self.checkpoint_cpu_s += time.process_time() - cpu_start
        if counted:
            self.checkpoints_taken += 1
        return ckpt
