"""Tests for the per-figure sweep drivers (tiny scales)."""

import pytest

from repro.experiments.configs import ImageExperimentScale
from repro.experiments.figures import (
    fig3_utility_curves,
    fig15_ilp_runtime,
    fig16_greedy_runtime,
    fig17_greedy_vs_ilp,
    fig6_bandwidth_cache,
)

TINY = ImageExperimentScale(rows=6, cols=6, trace_duration_s=4.0, num_traces=1)


class TestScale:
    def test_paper_scale_matches_paper(self):
        paper = ImageExperimentScale.paper()
        assert paper.rows * paper.cols == 10_000
        assert paper.trace_duration_s == 180.0
        assert paper.num_traces == 14

    def test_build(self):
        app, traces = TINY.build()
        assert app.num_requests == 36
        assert len(traces) == 1


class TestFig3:
    def test_rows_and_endpoints(self):
        rows = fig3_utility_curves(samples=11)
        assert len(rows) == 11
        assert rows[0]["image_utility"] == 0.0
        assert rows[-1]["vis_utility"] == 1.0


class TestFig6Driver:
    def test_tiny_sweep_has_row_per_cell(self):
        rows = fig6_bandwidth_cache(
            scale=TINY,
            bandwidths=(5_625_000.0,),
            caches=(10_000_000,),
            systems=("khameleon", "baseline"),
        )
        assert len(rows) == 2
        systems = {r["system"] for r in rows}
        assert systems == {"khameleon", "baseline"}
        for row in rows:
            assert row["bandwidth_mbps"] == pytest.approx(5.625)
            assert 0.0 <= row["cache_hit_%"] <= 100.0


class TestSchedulerMicrobenchDrivers:
    def test_fig15_rows(self):
        rows = fig15_ilp_runtime(
            num_requests=(5,), cache_blocks=(10,), blocks_per_request=(5,)
        )
        assert len(rows) == 1
        assert rows[0]["optimal"]
        assert rows[0]["runtime_ms"] > 0

    def test_fig16_rows_fill_batches(self):
        rows = fig16_greedy_runtime(
            num_requests=(100,), cache_blocks=(50,), blocks_per_request=(10,)
        )
        assert rows[0]["blocks_scheduled"] == 50
        assert 0.0 < rows[0]["materialized_frac"] <= 1.0

    def test_fig17_greedy_close_to_ilp(self):
        rows = fig17_greedy_vs_ilp(num_requests=(5,), cache_blocks=10,
                                   blocks_per_request=5)
        row = rows[0]
        assert row["ilp_utility"] >= row["greedy_utility"] * 0.95
        assert row["greedy_ms"] < row["ilp_ms"]
