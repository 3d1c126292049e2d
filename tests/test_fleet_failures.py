"""Fault injection through the fleet paths: degraded, never crashed.

The chaos harness (repro.chaos) threads backend errors, latency
spikes, link outages, and worker crash schedules
through ``FleetConfig`` into both the in-process churning fleet and
the multiprocess sharded fleet.  These tests pin the two contracts the
harness exists to prove:

* every fault schedule *degrades* the run — fewer bytes, later
  upcalls, shed arrivals — while the run still completes and conserves
  its sessions;
* an inert ``ChaosConfig`` is invisible: the wrapped paths are
  bit-identical to a run with no chaos config at all.
"""

import dataclasses

import pytest

from repro.chaos import ChaosConfig
from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet, run_fleet_sharded
from repro.fleet import ArrivalConfig
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator


def small_fleet(num_sessions=4, trace_duration_s=3.0, arrival=None, chaos=None):
    app = ImageExplorationApp(rows=8, cols=8)
    traces = [
        MouseTraceGenerator(app.layout, seed=100 + i).generate(
            duration_s=trace_duration_s
        )
        for i in range(num_sessions)
    ]
    fleet_env = FleetEnvironment(
        num_sessions=num_sessions, env=DEFAULT_ENV, arrival=arrival, chaos=chaos
    )
    return app, traces, fleet_env


class TestInertChaosIsInvisible:
    def test_inert_config_is_bit_identical_to_no_config(self):
        app, traces, fleet_env = small_fleet()
        baseline = run_fleet(app, traces, fleet_env, predictor="kalman")
        app, traces, fleet_env = small_fleet(chaos=ChaosConfig())
        wrapped = run_fleet(app, traces, fleet_env, predictor="kalman")
        # The config objects differ by construction (None vs inert);
        # everything the run *produced* must not.
        assert dataclasses.replace(
            wrapped, fleet_env=baseline.fleet_env
        ) == baseline


class TestChurningFleetUnderFaults:
    def test_spikes_and_outage_degrade_not_crash(self):
        arrival = ArrivalConfig(
            rate_per_s=1.5, mean_dwell_s=2.0, max_concurrent=3, seed=11
        )
        chaos = ChaosConfig(
            backend_spike_rate=0.25, backend_spike_s=0.2,
            link_outages=((1.0, 2.0),),
        )
        app, traces, fleet_env = small_fleet(
            num_sessions=5, arrival=arrival, chaos=chaos
        )
        result = run_fleet(app, traces, fleet_env, predictor="kalman")
        d = result.diagnostics
        assert d["chaos"]["spikes_injected"] >= 1
        churn = d["churn"]
        assert churn["arrivals"] == 5
        assert churn["admitted"] + churn["rejected"] == 5
        assert result.summary is not None  # somebody was served end-to-end

    def test_outage_costs_bytes(self):
        app, traces, fleet_env = small_fleet()
        clean = run_fleet(app, traces, fleet_env, predictor="kalman")
        app, traces, fleet_env = small_fleet(
            chaos=ChaosConfig(link_outages=((0.5, 2.5),))
        )
        faulted = run_fleet(app, traces, fleet_env, predictor="kalman")
        assert (
            faulted.diagnostics["bytes_sent"] < clean.diagnostics["bytes_sent"]
        )

    def test_backend_errors_are_absorbed_by_retries(self):
        chaos = ChaosConfig(backend_error_rate=0.1, seed=3)
        app, traces, fleet_env = small_fleet(chaos=chaos)
        result = run_fleet(app, traces, fleet_env, predictor="kalman")
        snap = result.diagnostics["chaos"]
        assert snap["errors_injected"] > 0
        assert snap["retries_scheduled"] > 0
        assert result.diagnostics["sessions"] == 4


class TestShardedFleetUnderFaults:
    def test_backend_errors_pool_across_shards(self):
        chaos = ChaosConfig(backend_error_rate=0.05, seed=1)
        app, traces, fleet_env = small_fleet(num_sessions=6, chaos=chaos)
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            timeout_s=120.0,
        )
        d = result.diagnostics
        assert d["sessions"] == 6
        assert d["chaos"]["errors_injected"] > 0
        assert d["chaos"]["fetches_abandoned"] == 0
        assert d["sharding"]["shards_lost"] == 0
        assert d["sharding"]["sessions_lost"] == 0

    def test_mid_run_worker_crash_recovers(self):
        """The acceptance gate: a worker killed mid-run is respawned
        from the last sync round and the pooled report still covers
        every session — shards_recovered == 1, nothing lost."""
        chaos = ChaosConfig.parse("worker-crash:1,backend-err:0.05")
        app, traces, fleet_env = small_fleet(num_sessions=6, chaos=chaos)
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="kalman",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        d = result.diagnostics
        sharding = d["sharding"]
        assert sharding["shards_recovered"] == 1
        assert sharding["shards_lost"] == 0
        assert sharding["sessions_lost"] == 0
        assert sharding["restarts"] >= 1
        assert d["sessions"] == 6
        assert result.summary is not None
        assert len(result.summary.per_session) == 6
        assert sorted(int(l) for l in result.session_labels) == list(range(6))

    def test_crash_recovery_preserves_crowd_prior_pooling(self):
        """Recovery under shared-markov: the respawned worker re-enters
        the CRDT exchange and the pooled prior still aggregates every
        shard's contribution without double counting."""
        chaos = ChaosConfig.parse("worker-crash:0@1")
        app, traces, fleet_env = small_fleet(num_sessions=6, chaos=chaos)
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, timeout_s=120.0,
        )
        d = result.diagnostics
        assert d["sharding"]["shards_recovered"] == 1
        assert d["sharding"]["shards_lost"] == 0
        assert d["shared_prior"]["transitions_observed"] > 0
        assert d["sessions"] == 6
