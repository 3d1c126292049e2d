"""Durable sessions: shard checkpoint/restore contracts.

Three layers of guarantees, strongest last:

* **Format round-trip** (hypothesis): an arbitrary generated
  :class:`FleetCheckpoint` survives save→load bit-identically — every
  digest, every session entry, every prior-delta cell — and corrupt /
  truncated / wrong-universe files are rejected fail-fast with
  distinct, actionable errors (mirroring
  :meth:`SharedTransitionPrior.load`).
* **Inertness**: a cadence-0 pathless :class:`CheckpointConfig` is
  invisible — the sharded runner's results are bit-identical to a run
  with no checkpoint config at all (timing floats excluded).
* **The acceptance gate**: a worker-crash run with checkpointing on
  reports ``sessions_lost == 0`` and ``sessions_resumed >= 1``, the
  respawned shard restores in place with a *verified* digest match,
  and the pooled summary is bit-identical to an uninterrupted run of
  the same seed.  Drain → ``--checkpoint-out`` → ``--checkpoint-in``
  completes the lifecycle.
"""

import dataclasses
import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig
from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet_sharded
from repro.fleet import (
    CheckpointConfig,
    CheckpointStore,
    FleetCheckpoint,
    SessionCheckpoint,
    ShardCheckpoint,
)
from repro.fleet.checkpoint import SyncOffer
from repro.predictors.shared import PriorDelta
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator


def small_fleet(num_sessions=6, trace_duration_s=3.0, chaos=None, checkpoint=None):
    app = ImageExplorationApp(rows=8, cols=8)
    traces = [
        MouseTraceGenerator(app.layout, seed=100 + i).generate(
            duration_s=trace_duration_s
        )
        for i in range(num_sessions)
    ]
    fleet_env = FleetEnvironment(
        num_sessions=num_sessions,
        env=DEFAULT_ENV,
        chaos=chaos,
        checkpoint=checkpoint,
    )
    return app, traces, fleet_env


def strip_sharding(result):
    diagnostics = dict(result.diagnostics)
    diagnostics.pop("sharding")
    return dataclasses.replace(result, diagnostics=diagnostics)


# -- strategies -------------------------------------------------------

counts = st.integers(min_value=0, max_value=2**31 - 1)

session_checkpoints = st.builds(
    SessionCheckpoint,
    index=st.integers(min_value=0, max_value=1023),
    requests_seen=counts,
    blocks_received=counts,
    blocks_sent=counts,
    bytes_sent=counts,
    cache_digest=counts,
    rng_digest=counts,
)


@st.composite
def shard_checkpoints(draw, n=64):
    num_shards = draw(st.integers(min_value=1, max_value=8))
    shard = draw(st.integers(min_value=0, max_value=num_shards - 1))
    sessions = draw(st.lists(session_checkpoints, max_size=6))
    prior = None
    if draw(st.booleans()):
        cells = draw(
            st.dictionaries(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                st.integers(min_value=1, max_value=1000),
                max_size=8,
            )
        )
        rows: dict[str, dict[str, int]] = {}
        mass: dict[str, int] = {}
        for (p, q), c in cells.items():
            rows.setdefault(str(p), {})[str(q)] = c
            mass[str(p)] = mass.get(str(p), 0) + c
        prior = {
            "origin": f"shard-{shard}",
            "n": n,
            "rows": rows,
            "row_mass": mass,
        }
    return ShardCheckpoint(
        shard=shard,
        num_shards=num_shards,
        round_index=draw(st.integers(min_value=0, max_value=500)),
        sim_time_s=draw(
            st.floats(min_value=0, max_value=1e6, allow_nan=False)
        ),
        n=n,
        sessions=tuple(sessions),
        prior_delta=prior,
    )


@st.composite
def fleet_checkpoints(draw, n=64):
    num_shards = draw(st.integers(min_value=1, max_value=4))
    shards = {}
    for k in range(num_shards):
        if draw(st.booleans()):
            ckpt = draw(shard_checkpoints(n=n))
            shards[k] = dataclasses.replace(
                ckpt, shard=k, num_shards=num_shards
            )
    return FleetCheckpoint(
        n=n,
        num_shards=num_shards,
        sync_interval_s=draw(
            st.floats(min_value=0.01, max_value=60, allow_nan=False)
        ),
        drained_at_round=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=500))
        ),
        shards=shards,
    )


class TestSaveLoadRoundTrip:
    @given(bundle=fleet_checkpoints())
    def test_save_load_is_bit_identical(self, bundle, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("ckpt") / "fleet.json")
        bundle.save(path)
        loaded = FleetCheckpoint.load(path, n=bundle.n)
        assert loaded == bundle
        # digest equality per shard is the resume-verification currency
        for k, ckpt in bundle.shards.items():
            assert loaded.shards[k].digest() == ckpt.digest()

    @given(ckpt=shard_checkpoints())
    def test_shard_payload_round_trip(self, ckpt):
        assert ShardCheckpoint.from_payload(ckpt.to_payload()) == ckpt

    @given(ckpt=shard_checkpoints())
    def test_prior_delta_reconstructs(self, ckpt):
        delta = ckpt.prior_delta_object()
        if ckpt.prior_delta is None:
            assert delta is None
        else:
            assert delta.n == ckpt.n
            total = sum(
                c for row in delta.rows.values() for c in row.values()
            )
            assert total == sum(delta.row_mass.values())


class TestLoadFailsFast:
    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json{")
        with pytest.raises(ValueError, match="is not a saved checkpoint"):
            FleetCheckpoint.load(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="is not a saved checkpoint"):
            FleetCheckpoint.load(str(path))

    def test_unsupported_version(self, tmp_path):
        bundle = FleetCheckpoint(n=64, num_shards=1, sync_interval_s=1.0)
        path = tmp_path / "v999.json"
        bundle.save(str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format v999 unsupported"):
            FleetCheckpoint.load(str(path))

    def test_wrong_universe(self, tmp_path):
        bundle = FleetCheckpoint(n=64, num_shards=1, sync_interval_s=1.0)
        path = tmp_path / "wrong_n.json"
        bundle.save(str(path))
        with pytest.raises(ValueError, match="over 64 requests, expected 144"):
            FleetCheckpoint.load(str(path), n=144)

    def test_truncated_file(self, tmp_path):
        bundle = FleetCheckpoint(n=64, num_shards=1, sync_interval_s=1.0)
        path = tmp_path / "truncated.json"
        bundle.save(str(path))
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="is not a saved checkpoint"):
            FleetCheckpoint.load(str(path))

    def test_shards_not_an_object(self, tmp_path):
        bundle = FleetCheckpoint(n=64, num_shards=1, sync_interval_s=1.0)
        path = tmp_path / "shards_list.json"
        bundle.save(str(path))
        payload = json.loads(path.read_text())
        payload["shards"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shards is not an object"):
            FleetCheckpoint.load(str(path))

    @given(
        bundle=fleet_checkpoints(),
        key=st.sampled_from(
            ["index", "requests_seen", "cache_digest", "rng_digest"]
        ),
    )
    @settings(max_examples=10)
    def test_corrupt_session_entry_rejected(
        self, bundle, key, tmp_path_factory
    ):
        populated = [
            k for k, c in bundle.shards.items() if c.sessions
        ]
        if not populated:
            return
        path = str(tmp_path_factory.mktemp("ckpt") / "corrupt.json")
        bundle.save(path)
        with open(path) as fh:
            payload = json.load(fh)
        shard_payload = payload["shards"][str(populated[0])]
        shard_payload["sessions"][0][key] = -1
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError, match="corrupt"):
            FleetCheckpoint.load(path)

    def test_shard_slot_mismatch_rejected(self, tmp_path):
        ckpt = ShardCheckpoint(
            shard=0, num_shards=2, round_index=0, sim_time_s=0.0,
            n=64, sessions=(),
        )
        bundle = FleetCheckpoint(
            n=64, num_shards=2, sync_interval_s=1.0, shards={1: ckpt}
        )
        path = tmp_path / "slot.json"
        bundle.save(str(path))
        with pytest.raises(ValueError, match="claims shard 0"):
            FleetCheckpoint.load(str(path))

    @pytest.mark.parametrize(
        "bad",
        [
            {"rows": {"0": {"999": 3}}},  # next-request out of universe
            {"rows": []},
            {"rows": {"1": [2]}},
            {"row_mass": []},
            {"n": [4]},
            {"rows": {"0": {"1": [3]}}},
        ],
        ids=[
            "out-of-universe", "rows-list", "row-list", "row-mass-list",
            "n-list", "count-list",
        ],
    )
    def test_corrupt_prior_entry_rejected(self, tmp_path, bad):
        ckpt = ShardCheckpoint(
            shard=0, num_shards=1, round_index=0, sim_time_s=0.0, n=64,
            sessions=(),
            prior_delta={
                "origin": "shard-0", "n": 64,
                "rows": {"0": {"1": 3}},
                "row_mass": {"0": 3},
                **bad,
            },
        )
        bundle = FleetCheckpoint(
            n=64, num_shards=1, sync_interval_s=1.0, shards={0: ckpt}
        )
        path = tmp_path / "prior.json"
        bundle.save(str(path))
        with pytest.raises(ValueError, match="corrupt checkpoint prior"):
            FleetCheckpoint.load(str(path))


class TestConfigAndStore:
    def test_inert_detection(self):
        assert CheckpointConfig().is_inert
        assert not CheckpointConfig(cadence_rounds=1).is_inert
        assert not CheckpointConfig(out_path="x.json").is_inert
        assert not CheckpointConfig(in_path="x.json").is_inert

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            CheckpointConfig(cadence_rounds=-1)

    def test_cadence_due(self):
        cfg = CheckpointConfig(cadence_rounds=3)
        assert [cfg.due(r) for r in range(6)] == [
            False, False, True, False, False, True,
        ]

    def test_path_only_config_captures_every_round(self):
        cfg = CheckpointConfig(out_path="x.json")
        assert cfg.captures
        assert all(cfg.due(r) for r in range(4))

    def test_store_keeps_latest_round(self):
        store = CheckpointStore()
        mk = lambda r: ShardCheckpoint(
            shard=0, num_shards=1, round_index=r, sim_time_s=float(r),
            n=64, sessions=(),
        )
        store.put(mk(3))
        store.put(mk(1))  # stale: must not regress
        assert store.latest(0).round_index == 3
        assert store.taken == 2
        assert store.last_rounds(2) == [3, None]
        assert store.ages(2, final_round=5) == [2, None]

    def test_sync_offer_pickle_round_trip(self):
        ckpt = ShardCheckpoint(
            shard=0, num_shards=1, round_index=0, sim_time_s=0.0,
            n=64, sessions=(),
        )
        delta = PriorDelta("shard0", 64, rows={1: {2: 3}}, row_mass={1: 3})
        offer = SyncOffer(delta, ckpt)
        assert pickle.loads(pickle.dumps(offer)) == offer
        assert SyncOffer() == (None, None)


class TestInertCheckpointIsInvisible:
    def test_inert_config_is_bit_identical_to_no_config(self):
        app, traces, fleet_env = small_fleet()
        baseline = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            timeout_s=120.0,
        )
        app, traces, fleet_env = small_fleet(checkpoint=CheckpointConfig())
        wrapped = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            timeout_s=120.0,
        )
        # Timing floats in the sharding block are measurements, not
        # behavior; everything else must match exactly.
        assert strip_sharding(
            dataclasses.replace(wrapped, fleet_env=baseline.fleet_env)
        ) == strip_sharding(baseline)


class TestCrashRecoveryGate:
    def test_crash_with_checkpointing_resumes_bit_identically(self):
        """The PR's acceptance gate: worker-crash + checkpointing →
        nothing lost, ≥1 session resumed in place, restore digest
        verified, and the pooled report bit-identical to the same seed
        run uninterrupted."""
        app, traces, fleet_env = small_fleet(
            chaos=ChaosConfig.parse("worker-crash:1"),
            checkpoint=CheckpointConfig(cadence_rounds=1),
        )
        faulted = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        sharding = faulted.diagnostics["sharding"]
        assert sharding["sessions_lost"] == 0
        assert sharding["sessions_resumed"] >= 1
        assert sharding["shards_recovered"] == 1
        assert sharding["restore_verified"] is True
        assert sharding["restarts_by_shard"] == [1, 0]
        assert sharding["checkpoints_taken"] >= 1

        app, traces, fleet_env = small_fleet()
        clean = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        assert faulted.summary == clean.summary
        assert faulted.session_labels == clean.session_labels
        faulted_d = dict(faulted.diagnostics)
        clean_d = dict(clean.diagnostics)
        faulted_d.pop("sharding"), clean_d.pop("sharding")
        faulted_d.pop("chaos", None), clean_d.pop("chaos", None)
        assert faulted_d == clean_d

    def test_report_carries_staleness_columns(self):
        app, traces, fleet_env = small_fleet(
            checkpoint=CheckpointConfig(cadence_rounds=2),
        )
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        sharding = result.diagnostics["sharding"]
        assert sharding["sessions_resumed"] == 0
        assert sharding["restarts_by_shard"] == [0, 0]
        assert len(sharding["last_checkpoint_round"]) == 2
        assert all(
            age is not None and age >= 0
            for age in sharding["checkpoint_age_rounds"]
        )


class TestDrainRestoreLifecycle:
    def test_drain_writes_bundle_and_resume_completes(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt.json")
        app, traces, fleet_env = small_fleet(
            chaos=ChaosConfig.parse("drain:1"),
            checkpoint=CheckpointConfig(cadence_rounds=1, out_path=path),
        )
        drained = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        sharding = drained.diagnostics["sharding"]
        assert sharding["drained_at_round"] == 1
        assert sharding["sync_rounds"] == 2  # truncated at the drain
        assert os.path.exists(path)
        bundle = FleetCheckpoint.load(path, n=64)
        assert bundle.drained_at_round == 1
        assert sorted(bundle.shards) == [0, 1]
        assert sum(len(c.sessions) for c in bundle.shards.values()) == 6

        app, traces, fleet_env = small_fleet(
            checkpoint=CheckpointConfig(cadence_rounds=1, in_path=path),
        )
        resumed = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        sharding = resumed.diagnostics["sharding"]
        assert sharding["sessions_resumed"] == 6
        assert sharding["sessions_lost"] == 0
        assert resumed.summary is not None
        assert len(resumed.summary.per_session) == 6

        # the resumed fleet pools exactly the crowd prior an
        # uninterrupted run would have accumulated (CRDT dedup exact)
        app, traces, fleet_env = small_fleet()
        clean = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        assert (
            resumed.diagnostics["shared_prior"]
            == clean.diagnostics["shared_prior"]
        )

    @pytest.mark.parametrize("predictor", ["shared-markov", "kalman"])
    def test_resume_after_late_drain_is_the_clean_run(self, tmp_path, predictor):
        """A resume re-runs the fleet from round 0 with live peers, so
        after a drain at round 3 it reproduces the un-drained run —
        under the crowd prior too, whose peer rows must arrive at the
        barriers where the clean run learnt them, not all at t = 0."""
        path = str(tmp_path / "fleet.ckpt.json")
        run = dict(
            num_shards=2, predictor=predictor, sync_interval_s=0.5, timeout_s=120.0
        )
        app, traces, fleet_env = small_fleet(
            chaos=ChaosConfig.parse("drain:3"),
            checkpoint=CheckpointConfig(cadence_rounds=1, out_path=path),
        )
        drained = run_fleet_sharded(app, traces, fleet_env, **run)
        assert drained.diagnostics["sharding"]["drained_at_round"] == 3

        app, traces, fleet_env = small_fleet(
            checkpoint=CheckpointConfig(cadence_rounds=1, in_path=path),
        )
        resumed_prior = tmp_path / "resumed.npz"
        resumed = run_fleet_sharded(
            app, traces, fleet_env, prior_out=resumed_prior, **run
        )
        assert resumed.diagnostics["sharding"]["sessions_resumed"] == 6

        app, traces, fleet_env = small_fleet()
        clean_prior = tmp_path / "clean.npz"
        clean = run_fleet_sharded(app, traces, fleet_env, prior_out=clean_prior, **run)
        assert resumed.summary == clean.summary
        assert resumed.session_labels == clean.session_labels
        assert strip_sharding(resumed).diagnostics == strip_sharding(clean).diagnostics
        if predictor == "shared-markov":  # the pooled counts, not just their totals
            assert resumed_prior.read_bytes() == clean_prior.read_bytes()

    def test_resume_wrong_shard_count_rejected(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt.json")
        FleetCheckpoint(n=64, num_shards=4, sync_interval_s=1.0).save(path)
        app, traces, fleet_env = small_fleet(
            checkpoint=CheckpointConfig(cadence_rounds=1, in_path=path),
        )
        with pytest.raises(ValueError, match="taken with 4 shards"):
            run_fleet_sharded(
                app, traces, fleet_env, num_shards=2, predictor="kalman",
                sync_interval_s=1.0, timeout_s=120.0,
            )
