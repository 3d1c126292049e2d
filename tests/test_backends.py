"""Tests for backends: fetch semantics, database, scalable sim, throttle."""

import numpy as np
import pytest

from repro.backends import (
    ColumnTable,
    FileSystemBackend,
    HistogramQuery,
    RangeFilter,
    ScalableSQLDatabase,
    SimulatedSQLDatabase,
)
from repro.core.throttle import BackendThrottle
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.sim import Simulator


def make_fs_backend(sim, delay=0.075, images=4):
    assets = {
        i: ImageAsset(image_id=i, size_bytes=150_000) for i in range(images)
    }
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=50_000)
    return FileSystemBackend(sim, encoder, fetch_delay_s=delay)


class TestFileSystemBackend:
    def test_fetch_completes_after_delay(self):
        sim = Simulator()
        backend = make_fs_backend(sim, delay=0.075)
        done = []
        backend.fetch(1, lambda r: done.append((r.request, sim.now)))
        sim.run()
        assert done == [(1, pytest.approx(0.075))]

    def test_second_fetch_hits_cache(self):
        sim = Simulator()
        backend = make_fs_backend(sim)
        backend.fetch(1, lambda r: None)
        sim.run()
        done = []
        backend.fetch(1, lambda r: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.075)]  # immediate (same instant)
        assert backend.stats.cache_hits == 1

    def test_concurrent_fetch_same_request_piggybacks(self):
        sim = Simulator()
        backend = make_fs_backend(sim)
        done = []
        backend.fetch(1, lambda r: done.append("a"))
        backend.fetch(1, lambda r: done.append("b"))
        sim.run()
        assert sorted(done) == ["a", "b"]
        assert backend.stats.fetches_started == 1

    def test_active_requests_tracked(self):
        sim = Simulator()
        backend = make_fs_backend(sim)
        backend.fetch(0, lambda r: None)
        backend.fetch(1, lambda r: None)
        assert backend.active_requests == 2
        sim.run()
        assert backend.active_requests == 0
        assert backend.stats.peak_concurrency == 2

    def test_evict_forces_refetch(self):
        sim = Simulator()
        backend = make_fs_backend(sim)
        backend.fetch(1, lambda r: None)
        sim.run()
        backend.evict(1)
        assert not backend.is_cached(1)

    def test_unbounded_scalability(self):
        sim = Simulator()
        assert make_fs_backend(sim).scalable_concurrency is None


def flights_table(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    return ColumnTable(
        {
            "dep_delay": rng.gamma(2.0, 15.0, n) - 10.0,
            "arr_delay": rng.gamma(2.0, 18.0, n) - 12.0,
            "distance": rng.uniform(100, 3000, n),
        }
    )


class TestColumnTable:
    def test_histogram_matches_numpy_reference(self):
        table = flights_table()
        q = HistogramQuery("dep_delay", bins=20, domain=(-10, 190))
        counts = table.histogram(q)
        expected, _ = np.histogram(
            table.column("dep_delay"), bins=20, range=(-10, 190)
        )
        assert np.array_equal(counts, expected)

    def test_filtered_histogram(self):
        table = flights_table()
        q = HistogramQuery(
            "dep_delay",
            bins=10,
            domain=(-10, 190),
            filters=(RangeFilter("distance", 100, 500),),
        )
        counts = table.histogram(q)
        mask = (table.column("distance") >= 100) & (table.column("distance") < 500)
        expected, _ = np.histogram(
            table.column("dep_delay")[mask], bins=10, range=(-10, 190)
        )
        assert np.array_equal(counts, expected)

    def test_conjunction_of_filters(self):
        table = flights_table()
        filters = (
            RangeFilter("distance", 100, 500),
            RangeFilter("arr_delay", 0, 50),
        )
        q = HistogramQuery("dep_delay", bins=5, domain=(-10, 190), filters=filters)
        mask = table.mask(filters)
        assert table.histogram(q).sum() == np.count_nonzero(
            mask
            & (table.column("dep_delay") >= -10)
            & (table.column("dep_delay") <= 190)
        )

    def test_histogram_rows_format(self):
        table = flights_table()
        q = HistogramQuery("distance", bins=8, domain=(0, 3000))
        rows = table.histogram_rows(q)
        assert rows.shape == (8, 2)
        assert np.array_equal(rows[:, 0], np.arange(8))

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnTable({"a": np.zeros(3), "b": np.zeros(4)})

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            flights_table().column("nope")

    def test_query_validation(self):
        with pytest.raises(ValueError):
            HistogramQuery("x", bins=0, domain=(0, 1))
        with pytest.raises(ValueError):
            HistogramQuery("x", bins=5, domain=(1, 1))
        with pytest.raises(ValueError):
            RangeFilter("x", 5, 5)


class TestSimulatedSQLDatabase:
    def test_isolated_latency_within_jitter_band(self):
        sim = Simulator()
        db = SimulatedSQLDatabase(sim, flights_table(), base_latency_s=0.8, jitter=0.25)
        q = HistogramQuery("dep_delay", bins=10, domain=(-10, 190))
        lat = db.isolated_latency_s(q)
        assert 0.8 * 0.875 <= lat <= 0.8 * 1.125

    def test_isolated_latency_deterministic(self):
        sim = Simulator()
        db = SimulatedSQLDatabase(sim, flights_table(), base_latency_s=0.8)
        q = HistogramQuery("dep_delay", bins=10, domain=(-10, 190))
        assert db.isolated_latency_s(q) == db.isolated_latency_s(q)

    def test_execute_returns_correct_rows(self):
        sim = Simulator()
        table = flights_table()
        db = SimulatedSQLDatabase(sim, table, base_latency_s=0.1)
        q = HistogramQuery("distance", bins=6, domain=(0, 3000))
        results = []
        db.execute(q, results.append)
        sim.run()
        assert np.array_equal(results[0], table.histogram_rows(q))

    def test_concurrency_degradation(self):
        """Queries beyond the limit take proportionally longer."""
        sim = Simulator()
        db = SimulatedSQLDatabase(
            sim, flights_table(), base_latency_s=0.5, concurrency_limit=2, jitter=0.0
        )
        q = HistogramQuery("distance", bins=4, domain=(0, 3000))
        lat1 = db.current_latency_s(q)
        db.execute(q, lambda r: None)
        db.execute(q, lambda r: None)
        lat3 = db.current_latency_s(q)  # third concurrent query
        assert lat1 == pytest.approx(0.5)
        assert lat3 == pytest.approx(0.5 * 1.5)

    def test_active_count_recovers(self):
        sim = Simulator()
        db = SimulatedSQLDatabase(sim, flights_table(), base_latency_s=0.1)
        q = HistogramQuery("distance", bins=4, domain=(0, 3000))
        db.execute(q, lambda r: None)
        assert db.active_queries == 1
        sim.run()
        assert db.active_queries == 0


class TestScalableSQLDatabase:
    def test_no_concurrency_degradation(self):
        sim = Simulator()
        db = ScalableSQLDatabase(sim, flights_table(), base_latency_s=0.5, jitter=0.0)
        q1 = HistogramQuery("distance", bins=4, domain=(0, 3000))
        q2 = HistogramQuery("dep_delay", bins=4, domain=(-10, 190))
        done = []
        db.execute(q1, lambda r: done.append(sim.now))
        db.execute(q2, lambda r: done.append(sim.now))
        sim.run()
        assert all(t == pytest.approx(0.5) for t in done)

    def test_repeat_query_served_from_cache_instantly(self):
        sim = Simulator()
        db = ScalableSQLDatabase(sim, flights_table(), base_latency_s=0.5)
        q = HistogramQuery("distance", bins=4, domain=(0, 3000))
        db.execute(q, lambda r: None)
        sim.run()
        t0 = sim.now
        done = []
        db.execute(q, lambda r: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(t0)]
        assert db.result_cache_hits == 1

    def test_matches_postgres_isolated_latency(self):
        """Same per-query latency model as the simulated PostgreSQL."""
        sim = Simulator()
        table = flights_table()
        pg = SimulatedSQLDatabase(sim, table, base_latency_s=0.8, seed=3)
        sc = ScalableSQLDatabase(sim, table, base_latency_s=0.8, seed=3)
        q = HistogramQuery("arr_delay", bins=12, domain=(-12, 200))
        assert sc.isolated_latency_s(q) == pytest.approx(pg.isolated_latency_s(q))


class TestThrottle:
    def test_stateful_throttle_tracks_live_load(self):
        active = [0]
        throttle = BackendThrottle(capacity=3, active=lambda: active[0])
        assert throttle.available_slots == 3
        active[0] = 2
        assert throttle.available_slots == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendThrottle(0, lambda: 0)
