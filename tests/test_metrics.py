"""Tests for the metrics collector and report formatting."""

import pytest

from repro.core.cache_manager import RequestOutcome, Upcall
from repro.metrics.collector import collect, convergence_curve, overpush_rate
from repro.metrics.report import format_table


def outcome(
    request=0, ts=0, registered=0.0, served=None, hit=False, preempted=False,
    utility=0.0, blocks=0,
):
    o = RequestOutcome(request=request, logical_ts=ts, registered_at=registered)
    o.cache_hit = hit
    o.preempted = preempted
    if served is not None:
        o.served_at = served
        o.utility_at_upcall = utility
        o.blocks_at_upcall = blocks
    return o


class TestCollect:
    def test_basic_aggregation(self):
        outcomes = [
            outcome(ts=0, registered=0.0, served=0.010, hit=True, utility=0.8, blocks=4),
            outcome(ts=1, registered=1.0, served=1.200, hit=False, utility=1.0, blocks=8),
            outcome(ts=2, registered=2.0, preempted=True),
            outcome(ts=3, registered=3.0),  # unanswered
        ]
        s = collect(outcomes)
        assert s.num_requests == 4
        assert s.num_served == 2
        assert s.num_preempted == 1
        assert s.num_unanswered == 1
        assert s.preempted_rate == 0.25
        # Hits over served + unanswered (preempted excluded).
        assert s.cache_hit_rate == pytest.approx(1 / 3)
        assert s.mean_latency_s == pytest.approx((0.010 + 0.200) / 2)
        assert s.mean_utility == pytest.approx(0.9)

    def test_all_preempted(self):
        s = collect([outcome(ts=i, preempted=True) for i in range(3)])
        assert s.preempted_rate == 1.0
        assert s.mean_latency_s == 0.0
        assert s.mean_utility == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collect([])

    def test_log_latency(self):
        s = collect([outcome(served=1.0)])  # 1000 ms
        assert s.log10_latency_ms == pytest.approx(3.0)

    def test_as_dict_percentages(self):
        s = collect([outcome(served=0.5, hit=True)])
        d = s.as_dict()
        assert d["cache_hit_%"] == 100.0
        assert d["latency_ms"] == pytest.approx(500.0)


class TestConvergence:
    def test_step_function_sampling(self):
        o = outcome(registered=10.0, served=10.1, utility=0.3, blocks=3)
        o.improvements = [
            Upcall(request=0, logical_ts=0, time_s=10.5, blocks_available=6,
                   utility=0.6, is_improvement=True),
            Upcall(request=0, logical_ts=0, time_s=11.0, blocks_available=10,
                   utility=1.0, is_improvement=True),
        ]
        curve = convergence_curve(o, horizon_s=2.0, points=[0.05, 0.2, 0.6, 1.5])
        assert curve == [(0.05, 0.0), (0.2, 0.3), (0.6, 0.6), (1.5, 1.0)]

    def test_unserved_outcome_is_flat_zero(self):
        o = outcome()
        curve = convergence_curve(o, horizon_s=1.0, points=[0.1, 0.5])
        assert curve == [(0.1, 0.0), (0.5, 0.0)]

    def test_horizon_truncates(self):
        o = outcome(registered=0.0, served=0.1, utility=1.0)
        curve = convergence_curve(o, horizon_s=0.5, points=[0.2, 0.9])
        assert curve == [(0.2, 1.0)]


class TestOverpush:
    def test_counts_peak_blocks_per_outcome(self):
        o = outcome(served=0.1, utility=0.5, blocks=3)
        o.improvements = [
            Upcall(request=0, logical_ts=0, time_s=0.2, blocks_available=7,
                   utility=0.9, is_improvement=True)
        ]
        # 7 of 10 pushed blocks were used.
        assert overpush_rate(10, [o]) == pytest.approx(0.3)

    def test_none_for_no_pushes(self):
        assert overpush_rate(0, []) is None

    def test_clamped_at_zero(self):
        o = outcome(served=0.1, blocks=10)
        assert overpush_rate(5, [o]) == 0.0


class TestReport:
    def test_table_alignment_and_missing_cells(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
        assert len(lines) == 5

    def test_empty_table(self):
        assert "(no rows)" in format_table([])

class TestChurnMetrics:
    def test_collect_cohorts_groups_by_arrival_bucket(self):
        from repro.metrics.fleet import collect_cohorts

        streams = [
            [outcome(ts=0, registered=0.1, served=0.2, utility=0.5)],
            [outcome(ts=0, registered=1.0, served=1.1, utility=0.7)],
            [outcome(ts=0, registered=11.0, served=11.4, utility=0.9)],
        ]
        cohorts = collect_cohorts(streams, [0.0, 2.0, 10.5], cohort_width_s=5.0)
        assert [c.cohort_start_s for c in cohorts] == [0.0, 10.0]
        assert [c.num_sessions for c in cohorts] == [2, 1]
        assert cohorts[0].summary.num_requests == 2
        assert cohorts[1].summary.mean_utility == pytest.approx(0.9)
        row = cohorts[0].row(system="x")
        assert row["cohort_s"] == 0.0 and row["sessions"] == 2
        assert "latency_ms" in row

    def test_collect_cohorts_empty_cohort_has_no_summary(self):
        from repro.metrics.fleet import collect_cohorts

        cohorts = collect_cohorts([[]], [0.0], cohort_width_s=1.0)
        assert cohorts[0].summary is None
        assert "latency_ms" not in cohorts[0].row()

    def test_collect_cohorts_validation(self):
        from repro.metrics.fleet import collect_cohorts

        with pytest.raises(ValueError):
            collect_cohorts([[]], [0.0, 1.0], cohort_width_s=1.0)
        with pytest.raises(ValueError):
            collect_cohorts([[]], [0.0], cohort_width_s=0.0)

    def test_early_hit_rate_counts_first_k_registrations(self):
        from repro.metrics.fleet import early_hit_rate

        outcomes = [
            outcome(ts=0, hit=False, served=0.1),
            outcome(ts=1, hit=True, served=0.2),
            outcome(ts=2, hit=True, served=0.3),
            outcome(ts=3, hit=True, served=0.4),  # beyond first_k
        ]
        assert early_hit_rate(outcomes, first_k=3) == pytest.approx(2 / 3)

    def test_early_hit_rate_skips_preempted(self):
        from repro.metrics.fleet import early_hit_rate

        outcomes = [
            outcome(ts=0, preempted=True),
            outcome(ts=1, hit=True, served=0.2),
        ]
        assert early_hit_rate(outcomes, first_k=2) == 1.0
        assert early_hit_rate([outcome(ts=0, preempted=True)], first_k=2) == 0.0
        with pytest.raises(ValueError):
            early_hit_rate(outcomes, first_k=0)
