"""Tests for the end-to-end experiment runners.

These use tiny applications and short traces so the whole file runs in
seconds while still exercising every driver end to end.
"""

import pytest

from repro.experiments.configs import DEFAULT_ENV, EnvironmentConfig, FleetEnvironment
from repro.experiments.runner import (
    extend_with_pause,
    run_classic,
    run_convergence,
    run_falcon,
    run_fleet,
    run_image_system,
    run_khameleon,
)
from repro.workloads.falcon import FalconApp, FalconTraceGenerator
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator


@pytest.fixture(scope="module")
def app():
    return ImageExplorationApp(rows=8, cols=8)


@pytest.fixture(scope="module")
def trace(app):
    return MouseTraceGenerator(app.layout, seed=3).generate(duration_s=8.0)


@pytest.fixture(scope="module")
def khameleon_result(app, trace):
    return run_khameleon(app, trace, DEFAULT_ENV)


@pytest.fixture(scope="module")
def baseline_result(app, trace):
    return run_classic(app, trace, DEFAULT_ENV)


class TestRunKhameleon:
    def test_every_trace_request_has_an_outcome(self, khameleon_result, trace):
        assert khameleon_result.summary.num_requests == trace.num_requests

    def test_pushes_blocks_and_reports_overpush(self, khameleon_result):
        assert khameleon_result.blocks_pushed > 0
        assert khameleon_result.bytes_pushed > 0
        assert 0.0 <= khameleon_result.overpush <= 1.0

    def test_server_received_predictions(self, khameleon_result):
        assert khameleon_result.extras["states_received"] > 5

    def test_deterministic(self, app, trace):
        a = run_khameleon(app, trace, DEFAULT_ENV, seed=4)
        b = run_khameleon(app, trace, DEFAULT_ENV, seed=4)
        assert a.summary.as_dict() == b.summary.as_dict()

    def test_nonprogressive_variant_has_full_utility(self, app, trace):
        result = run_khameleon(app, trace, DEFAULT_ENV, progressive=False)
        assert result.system == "predictor"
        served = [o for o in result.outcomes if o.served]
        assert served
        assert all(o.utility_at_upcall == 1.0 for o in served)


class TestRunClassic:
    def test_all_requests_resolve_after_drain(self, baseline_result):
        s = baseline_result.summary
        assert s.num_unanswered == 0  # classic runs drain to quiescence
        assert s.num_served + s.num_preempted == s.num_requests

    def test_baseline_full_quality(self, baseline_result):
        served = [o for o in baseline_result.outcomes if o.served]
        assert all(o.utility_at_upcall == 1.0 for o in served)

    def test_progressive_variant_lower_quality(self, app, trace):
        result = run_classic(app, trace, DEFAULT_ENV, variant="first_block")
        assert result.system == "progressive"
        served = [o for o in result.outcomes if o.served and not o.cache_hit]
        assert served
        assert all(o.utility_at_upcall < 1.0 for o in served)

    def test_acc_names_and_overpush(self, app, trace):
        result = run_classic(app, trace, DEFAULT_ENV, acc=(0.8, 5))
        assert result.system == "acc-0.8-5"
        assert result.overpush is not None


class TestHeadlineComparison:
    def test_khameleon_beats_baseline_on_latency(
        self, khameleon_result, baseline_result
    ):
        """The paper's core claim, at miniature scale: orders of
        magnitude lower response latency."""
        assert (
            khameleon_result.summary.mean_latency_s
            < baseline_result.summary.mean_latency_s / 5.0
        )

    def test_khameleon_beats_baseline_on_hits(
        self, khameleon_result, baseline_result
    ):
        assert (
            khameleon_result.summary.cache_hit_rate
            > baseline_result.summary.cache_hit_rate
        )


class TestDispatch:
    def test_known_names(self, app, trace):
        result = run_image_system("khameleon-uniform", app, trace, DEFAULT_ENV)
        assert result.system == "khameleon-uniform"

    def test_acc_spec_parsing(self, app, trace):
        result = run_image_system("acc-0.8-1", app, trace, DEFAULT_ENV)
        assert result.system == "acc-0.8-1"

    def test_bad_acc_spec(self, app, trace):
        with pytest.raises(ValueError):
            run_image_system("acc-5", app, trace, DEFAULT_ENV)

    def test_unknown_system(self, app, trace):
        with pytest.raises(ValueError):
            run_image_system("magic", app, trace, DEFAULT_ENV)


class TestPauseAndConvergence:
    def test_extend_with_pause_holds_position(self, trace):
        paused = extend_with_pause(trace, pause_s=4.0, hold_s=2.0)
        tail = [e for e in paused.events if e.time_s > 4.0]
        assert tail
        assert len({(e.x, e.y) for e in tail}) == 1
        assert all(e.request is None for e in tail)
        assert paused.duration_s <= 6.0

    def test_convergence_curve_monotone(self, app, trace):
        points = (0.1, 0.5, 1.0, 2.0, 4.0)
        curve = run_convergence(
            app, trace, DEFAULT_ENV, "khameleon", pause_s=5.0, hold_s=5.0,
            sample_points=points,
        )
        utilities = [u for _t, u in curve]
        assert all(b >= a for a, b in zip(utilities, utilities[1:]))
        assert utilities[-1] > 0.0

    def test_extend_with_pause_validation(self, trace):
        with pytest.raises(ValueError):
            extend_with_pause(trace, pause_s=1.0, hold_s=0.0)


class TestRunFalcon:
    def test_small_session_end_to_end(self):
        app = FalconApp(blocks_per_response=2)
        trace = FalconTraceGenerator(app, seed=1).generate(duration_s=40.0)
        result = run_falcon(app, trace, DEFAULT_ENV, db_scale="small")
        assert result.summary.num_requests == trace.num_requests
        assert result.extras["queries_executed"] > 0

    def test_backend_kind_validation(self):
        app = FalconApp()
        trace = FalconTraceGenerator(app, seed=1).generate(duration_s=20.0)
        with pytest.raises(ValueError):
            run_falcon(app, trace, DEFAULT_ENV, backend_kind="oracle")

    def test_scalable_not_slower_than_postgres(self):
        app = FalconApp(blocks_per_response=2)
        trace = FalconTraceGenerator(app, seed=6).generate(duration_s=60.0)
        pg = run_falcon(app, trace, DEFAULT_ENV, backend_kind="postgres")
        sc = run_falcon(app, trace, DEFAULT_ENV, backend_kind="scalable")
        assert (
            sc.summary.mean_latency_s
            <= pg.summary.mean_latency_s * 1.5
        )


class TestRunFleet:
    @pytest.fixture(scope="class")
    def fleet_result(self, app):
        traces = [
            MouseTraceGenerator(app.layout, seed=50 + i).generate(duration_s=6.0)
            for i in range(3)
        ]
        fleet_env = FleetEnvironment(num_sessions=3, env=DEFAULT_ENV)
        return run_fleet(app, traces, fleet_env, predictor="kalman")

    def test_every_session_is_measured(self, fleet_result):
        assert fleet_result.summary.num_sessions == 3
        assert all(s is not None for s in fleet_result.summary.per_session)
        per_session_total = sum(
            s.num_requests for s in fleet_result.summary.per_session
        )
        assert fleet_result.summary.aggregate.num_requests == per_session_total

    def test_sharing_diagnostics_reported(self, fleet_result):
        d = fleet_result.diagnostics
        assert d["sessions"] == 3
        assert d["blocks_sent"] > 0
        assert 0.0 < d["link_fairness"] <= 1.0
        assert 0.0 <= d["shared_hit_rate"] <= 1.0

    def test_rows_include_fleet_aggregate(self, fleet_result):
        rows = fleet_result.rows()
        assert rows[-1]["session"] == "fleet"
        agg = fleet_result.aggregate_row()
        assert agg["sessions"] == 3
        assert "link_fairness" in agg

    def test_trace_count_must_match_sessions(self, app):
        traces = [MouseTraceGenerator(app.layout, seed=1).generate(duration_s=2.0)]
        with pytest.raises(ValueError):
            run_fleet(app, traces, FleetEnvironment(num_sessions=2, env=DEFAULT_ENV))

    def test_deterministic(self, app):
        traces = [
            MouseTraceGenerator(app.layout, seed=60 + i).generate(duration_s=4.0)
            for i in range(2)
        ]
        fleet_env = FleetEnvironment(num_sessions=2, env=DEFAULT_ENV)
        a = run_fleet(app, traces, fleet_env, seed=4)
        b = run_fleet(app, traces, fleet_env, seed=4)
        assert a.summary.aggregate.as_dict() == b.summary.aggregate.as_dict()
        assert a.diagnostics == b.diagnostics


    def test_default_drain_survives_a_trace_that_ends_mid_saccade(self):
        """Trace 65 of this corpus stops while the pointer is moving; fed
        no more samples the Kalman filter extrapolates off the 12x12
        layout through the 3 s drain, its far horizons cover every cell
        and its nearest one none — the decode must stay a distribution
        (it raised "each horizon must sum to 1")."""
        small = ImageExplorationApp(rows=12, cols=12)
        generator = MouseTraceGenerator(small.layout, seed=2)
        traces = [generator.generate(5.0, trace_id=i) for i in (64, 65)]
        fleet_env = FleetEnvironment(
            num_sessions=2, env=DEFAULT_ENV.with_bandwidth(2 * 500_000)
        )
        result = run_fleet(small, traces, fleet_env)  # drain_s left at its default
        assert result.summary.num_sessions == 2
        assert result.diagnostics["blocks_sent"] > 0


class TestRunFleetChurn:
    @pytest.fixture(scope="class")
    def churn_result(self, app):
        from repro.fleet import ArrivalConfig

        traces = [
            MouseTraceGenerator(app.layout, seed=50 + i).generate(duration_s=5.0)
            for i in range(5)
        ]
        # Dwell-free cap of 1: the first arrival is admitted and stays,
        # so some later user is rejected — admission order then differs
        # from plan order for nobody, but admitted indices are sparse.
        fleet_env = FleetEnvironment(
            num_sessions=5,
            env=DEFAULT_ENV,
            arrival=ArrivalConfig(
                rate_per_s=1.0, mean_dwell_s=2.0, dwell_sigma=0.0,
                max_concurrent=2, seed=9,
            ),
        )
        return run_fleet(app, traces, fleet_env, predictor="kalman")

    def test_churn_diagnostics_and_cohorts(self, churn_result):
        churn = churn_result.diagnostics["churn"]
        assert churn["arrivals"] == 5
        assert churn["admitted"] + churn["rejected"] == 5
        assert churn_result.cohorts  # per-cohort latency is reported
        assert "early_hit_rate" in churn_result.diagnostics

    def test_session_rows_are_labeled_by_plan_index(self, churn_result):
        """With rejections, admitted sessions are a sparse subset of the
        planned users; rows must name the *user*, not the list slot,
        so they stay joinable against traces/weights."""
        churn = churn_result.diagnostics["churn"]
        assert churn["rejected"] >= 1  # the scenario really rejects
        labels = churn_result.session_labels
        assert labels is not None
        assert len(labels) == churn["admitted"]
        assert labels == sorted(labels, key=int)
        assert set(labels) < {str(i) for i in range(5)}
        row_labels = [r["session"] for r in churn_result.rows()[:-1]]
        # Rows carry the plan labels (empty sessions are skipped).
        assert set(row_labels) <= set(labels)
        # At least one admitted user is NOT at their list position.
        assert labels != [str(i) for i in range(len(labels))]
