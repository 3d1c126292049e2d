"""Tests for backends: fetch semantics, database, scalable sim, throttle."""

import numpy as np
import pytest

from repro.backends import (
    ColumnTable,
    FileSystemBackend,
    HistogramQuery,
    KeyValueBackend,
    RangeFilter,
    ScalableSQLDatabase,
    SimulatedSQLDatabase,
)
from repro.core.throttle import (
    BackendThrottle,
    WeightedBackendThrottle,
    throttle_schedule,
)
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


class TestKeyValueBackend:
    def test_value_passed_to_encoder(self):
        from repro.encoding import SingleBlockEncoder

        sim = Simulator()
        backend = KeyValueBackend(
            sim,
            SingleBlockEncoder(size_of=lambda r: 100),
            value_of=lambda r: f"value-{r}",
            get_latency_s=0.002,
        )
        done = []
        backend.fetch(3, lambda r: done.append(r.blocks[0].payload))
        sim.run()
        assert done == ["value-3"]
        assert sim.now == pytest.approx(0.002)


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
    def test_admits_within_budget(self):
        schedule = [(r, b) for r, b in [(1, 0), (2, 0), (1, 1), (3, 0)]]
        admitted, deferred = throttle_schedule(
            schedule, lambda it: it[0], lambda r: False, available_slots=2
        )
        assert admitted == [(1, 0), (2, 0), (1, 1)]
        assert deferred == [(3, 0)]

    def test_materialized_requests_bypass_budget(self):
        schedule = [(1, 0), (2, 0), (3, 0)]
        admitted, deferred = throttle_schedule(
            schedule, lambda it: it[0], lambda r: r == 3, available_slots=1
        )
        assert admitted == [(1, 0), (3, 0)]
        assert deferred == [(2, 0)]

    def test_zero_budget_defers_all_new(self):
        schedule = [(1, 0), (2, 0)]
        admitted, deferred = throttle_schedule(
            schedule, lambda it: it[0], lambda r: False, available_slots=0
        )
        assert admitted == []
        assert deferred == schedule

    def test_stateful_throttle_tracks_live_load(self):
        active = [0]
        throttle = BackendThrottle(capacity=3, active=lambda: active[0])
        assert throttle.available_slots == 3
        active[0] = 2
        assert throttle.available_slots == 1
        admitted, deferred = throttle.apply(
            [(1, 0), (2, 0)], lambda it: it[0], lambda r: False
        )
        assert len(admitted) == 1
        assert throttle.deferred_blocks == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendThrottle(0, lambda: 0)
        with pytest.raises(ValueError):
            throttle_schedule([], lambda it: 0, lambda r: False, -1)

    def test_global_throttle_charge_is_a_noop(self):
        throttle = BackendThrottle(capacity=2, active=lambda: 0)
        throttle.charge(7)
        assert throttle.available_slots == 2


class TestWeightedThrottle:
    def test_shares_split_by_weight(self):
        """A weight-2 session owns ~2x the speculation slots (§5.4)."""
        inflight = set()
        throttle = WeightedBackendThrottle(6, is_inflight=inflight.__contains__)
        heavy = throttle.attach(2.0, label="heavy")
        light = throttle.attach(1.0, label="light")
        assert heavy.slot_share == 4
        assert light.slot_share == 2
        assert heavy.available_slots == 2 * light.available_slots

    def test_contention_admits_by_weight(self):
        """Under contention each session fills exactly its own slice."""
        inflight = set()
        throttle = WeightedBackendThrottle(6, is_inflight=inflight.__contains__)
        heavy = throttle.attach(2.0)
        light = throttle.attach(1.0)
        request = iter(range(100))

        def fill(share):
            admitted = 0
            while share.available_slots > 0:
                r = next(request)
                share.charge(r)
                inflight.add(r)  # fetch starts and stays in flight
                admitted += 1
            return admitted

        assert fill(heavy) == 4
        assert fill(light) == 2
        # Saturated: neither admits another new request.
        assert heavy.available_slots == 0
        assert light.available_slots == 0

    def test_charges_expire_when_fetches_complete(self):
        inflight = {1, 2}
        throttle = WeightedBackendThrottle(4, is_inflight=inflight.__contains__)
        share = throttle.attach(1.0)
        share.charge(1)
        share.charge(2)
        assert share.available_slots == 2
        inflight.discard(1)  # backend finished request 1
        assert share.active_requests == 1
        assert share.available_slots == 3

    def test_detach_returns_share_to_survivors(self):
        inflight = set()
        throttle = WeightedBackendThrottle(6, is_inflight=inflight.__contains__)
        a = throttle.attach(1.0)
        b = throttle.attach(1.0)
        assert a.slot_share == 3
        throttle.detach(b)
        assert a.slot_share == 6
        throttle.detach(b)  # idempotent
        assert throttle.attached == 1

    def test_global_headroom_caps_slices_during_churn(self):
        """Around attach/detach the slices alone can transiently exceed
        C (a leaver's fetches still draining, a newcomer's fresh slice);
        the live global headroom keeps the hard §5.4 budget intact."""
        inflight = set()
        active = [0]
        throttle = WeightedBackendThrottle(
            5, is_inflight=inflight.__contains__, active=lambda: active[0]
        )
        lone = throttle.attach(1.0)
        # The lone tenant filled the whole budget ...
        for r in range(5):
            lone.charge(r)
            inflight.add(r)
        active[0] = 5
        # ... then a second tenant attaches: its slice says 2, but the
        # backend is already processing C requests.
        late = throttle.attach(1.0)
        assert late.slot_share == 2
        assert late.available_slots == 0
        # Slots open up only as the backend actually drains.
        active[0] = 4
        assert late.available_slots == 1

    def test_slices_sum_to_capacity(self):
        """Largest-remainder apportionment: no slot stranded, none
        double-counted, even when quotas don't divide evenly."""
        throttle = WeightedBackendThrottle(5, is_inflight=lambda r: False)
        a = throttle.attach(1.0)
        b = throttle.attach(1.0)
        assert a.slot_share + b.slot_share == 5
        assert a.slot_share == 3  # attach order breaks the remainder tie
        c = throttle.attach(1.0)
        assert a.slot_share + b.slot_share + c.slot_share == 5
        throttle.detach(a)
        assert b.slot_share + c.slot_share == 5

    def test_minimum_one_slot_per_tenant(self):
        """Low-weight tenants keep a speculation floor of one slot."""
        throttle = WeightedBackendThrottle(2, is_inflight=lambda r: False)
        throttle.attach(100.0)
        tiny = throttle.attach(0.01)
        assert tiny.slot_share == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedBackendThrottle(0, is_inflight=lambda r: False)
        throttle = WeightedBackendThrottle(2, is_inflight=lambda r: False)
        with pytest.raises(ValueError):
            throttle.attach(0.0)
