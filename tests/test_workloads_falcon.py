"""Tests for the Falcon port: app, backend, and trace generator."""

import numpy as np
import pytest

from repro.backends.database import RangeFilter
from repro.encoding.rowsample import decode_prefix
from repro.sim.engine import Simulator
from repro.workloads.falcon import (
    FalconApp,
    FalconTrace,
    FalconTraceGenerator,
    SelectionEvent,
)


@pytest.fixture()
def app() -> FalconApp:
    return FalconApp(blocks_per_response=2)


class TestFalconApp:
    def test_six_linked_charts(self, app):
        assert app.num_requests == 6
        assert app.queries_per_request == 5
        assert app.num_blocks == [2] * 6

    def test_queries_exclude_hovered_and_target_filters(self, app):
        """Hovering chart 0: five queries, none over chart 0's column;
        each target's filters exclude both its own and chart 0's
        selection (the slice's free dimensions)."""
        queries = app.queries_for(0)
        assert len(queries) == 5
        hovered_col = app.charts[0].column
        targets = [t for t in range(6) if t != 0]
        for target, q in zip(targets, queries):
            assert q.column == app.charts[target].column
            filter_cols = {f.column for f in q.filters}
            assert q.column not in filter_cols
            assert hovered_col not in filter_cols
            # The other four charts' selections are applied.
            assert len(q.filters) == 4

    def test_selection_change_bumps_version(self, app):
        v0 = app.selection_version
        app.set_selection(1, RangeFilter(app.charts[1].column, 0.0, 10.0))
        assert app.selection_version == v0 + 1

    def test_apply_selection_event(self, app):
        event = SelectionEvent(time_s=1.0, chart=2, lo=5.0, hi=50.0)
        app.apply_selection(event)
        f = app.selections[2]
        assert f is not None and (f.lo, f.hi) == (5.0, 50.0)

    def test_max_concurrent_requests(self, app):
        # 15 concurrent queries / 5 queries per request = 3 requests.
        assert app.max_concurrent_requests == 3

    def test_rejects_single_chart(self):
        from repro.workloads.flights import FLIGHT_CHARTS

        with pytest.raises(ValueError):
            FalconApp(charts=FLIGHT_CHARTS[:1])

    def test_unknown_db_scale_rejected(self, app):
        with pytest.raises(ValueError):
            app.make_db(Simulator(), scale="huge")


class TestFalconBackend:
    def test_fetch_runs_five_queries_and_encodes(self, app):
        sim = Simulator()
        db = app.make_db(sim, scale="small")
        backend = app.make_backend(sim, db)
        got = []
        backend.fetch(0, got.append)
        sim.run()
        assert len(got) == 1
        assert got[0].num_blocks == 2
        assert db.queries_executed == 5
        # Decoded rows carry (bin, count, target-chart) triples for the
        # five non-hovered charts.
        rows = decode_prefix(got[0].blocks)
        assert rows.shape[1] == 3
        assert set(np.unique(rows[:, 2])) == {1, 2, 3, 4, 5}

    def test_concurrent_fetches_share_inflight(self, app):
        sim = Simulator()
        db = app.make_db(sim, scale="small")
        backend = app.make_backend(sim, db)
        got = []
        backend.fetch(3, got.append)
        backend.fetch(3, got.append)  # piggybacks; no duplicate queries
        sim.run()
        assert len(got) == 2
        assert db.queries_executed == 5

    def test_piggyback_is_counted(self, app):
        """Falcon fetches go through the base bookkeeping, so a joined
        in-flight fetch counts as a shared hit like any backend's."""
        sim = Simulator()
        backend = app.make_backend(sim, app.make_db(sim, scale="small"))
        backend.fetch(3, lambda r: None)
        backend.fetch(3, lambda r: None)
        sim.run()
        stats = backend.stats.snapshot()
        assert stats["fetches_started"] == stats["fetches_completed"] == 1
        assert stats["piggybacked"] == 1
        assert backend.stats.shared_hits == 1

    def test_cached_fetch_is_free(self, app):
        sim = Simulator()
        db = app.make_db(sim, scale="small")
        backend = app.make_backend(sim, db)
        backend.fetch(1, lambda r: None)
        sim.run()
        before = db.queries_executed
        backend.fetch(1, lambda r: None)
        sim.run()
        assert db.queries_executed == before

    def test_selection_change_invalidates_response_cache(self, app):
        sim = Simulator()
        db = app.make_db(sim, scale="small")
        backend = app.make_backend(sim, db)
        backend.fetch(1, lambda r: None)
        sim.run()
        app.set_selection(0, RangeFilter(app.charts[0].column, 0.0, 100.0))
        backend.fetch(1, lambda r: None)
        sim.run()
        assert db.queries_executed == 10  # recomputed after invalidation

    def test_results_reflect_current_selections(self, app):
        """The backend computes real histograms: narrowing a selection
        shrinks the counts other charts see."""
        sim = Simulator()
        db = app.make_db(sim, scale="small")
        backend = app.make_backend(sim, db)
        got = []
        backend.fetch(0, got.append)
        sim.run()
        wide = decode_prefix(got[0].blocks)
        spec = app.charts[1]
        app.set_selection(1, RangeFilter(spec.column, spec.domain[0], spec.domain[0] + 1e-6))
        got.clear()
        backend.fetch(0, got.append)
        sim.run()
        narrow = decode_prefix(got[0].blocks)
        # Chart 2's slice is filtered by chart 1's selection.
        wide_c2 = wide[wide[:, 2] == 2][:, 1].sum()
        narrow_c2 = narrow[narrow[:, 2] == 2][:, 1].sum()
        assert narrow_c2 < wide_c2


class TestFalconTraceGenerator:
    def test_generates_falcon_trace(self, app):
        trace = FalconTraceGenerator(app, seed=1).generate(60.0)
        assert isinstance(trace, FalconTrace)
        assert trace.duration_s <= 60.0
        assert trace.num_requests >= 1

    def test_requests_are_chart_entries(self, app):
        trace = FalconTraceGenerator(app, seed=2).generate(120.0)
        for e in trace.interaction.requests():
            assert app.layout.request_at(e.x, e.y) == e.request

    def test_consecutive_requests_differ(self, app):
        trace = FalconTraceGenerator(app, seed=3).generate(120.0)
        ids = [e.request for e in trace.interaction.requests()]
        assert all(a != b for a, b in zip(ids, ids[1:]))

    def test_selections_are_valid_subranges(self, app):
        trace = FalconTraceGenerator(app, seed=4).generate(120.0)
        assert trace.selections, "long brushes should commit selections"
        for sel in trace.selections:
            lo_d, hi_d = app.charts[sel.chart].domain
            assert lo_d <= sel.lo < sel.hi <= hi_d
            assert 0.0 <= sel.time_s <= trace.duration_s

    def test_deterministic(self, app):
        a = FalconTraceGenerator(app, seed=5).generate(30.0)
        b = FalconTraceGenerator(app, seed=5).generate(30.0)
        assert len(a.interaction.events) == len(b.interaction.events)
        assert a.selections == b.selections
