"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_before_now_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek() == 2.0


class TestRunUntil:
    def test_run_until_stops_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_for_advances_relative(self):
        sim = Simulator()
        sim.run_for(2.0)
        sim.run_for(3.0)
        assert sim.now == 5.0

    def test_run_for_negative_raises(self):
        with pytest.raises(SimulationError):
            Simulator().run_for(-1.0)

    def test_run_until_boundary_event_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]


class TestPeriodicTask:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(0.5, lambda: times.append(sim.now))
        sim.run(until=2.0)
        assert times == [0.5, 1.0, 1.5, 2.0]

    def test_custom_start(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now), start=0.25)
        sim.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_cancel_stops_repetition(self):
        sim = Simulator()
        times = []
        task = sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=2.0)
        task.cancel()
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        count = []
        task = sim.every(1.0, lambda: (count.append(1), task.cancel()))
        sim.run(until=5.0)
        assert len(count) == 1

    def test_nonpositive_interval_raises(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_property_events_fire_in_nondecreasing_time(delays):
    """Whatever the scheduling order, firing times are sorted."""
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
    cutoff=st.floats(min_value=0.0, max_value=100.0),
)
def test_property_run_until_is_a_clean_partition(delays, cutoff):
    """run(until=c) fires exactly the events with time <= c."""
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, fired.append, d)
    sim.run(until=cutoff)
    assert sorted(fired) == sorted(d for d in delays if d <= cutoff)


class TestHeapCompaction:
    def test_churny_preemption_does_not_grow_heap_unboundedly(self):
        """Schedule-then-cancel loops (sender preemption under churn)
        leave cancelled entries in the heap; compaction must bound the
        garbage at ~2x the live population instead of letting it grow
        with the number of preemptions."""
        sim = Simulator()
        live = [sim.schedule(1e6 + i, lambda: None) for i in range(100)]
        for round_ in range(200):
            handles = [sim.schedule(10.0 + round_, lambda: None) for _ in range(50)]
            for h in handles:
                h.cancel()
        assert sim.pending_events == 100
        assert len(sim._heap) <= 2 * 100 + 1
        assert sim.heap_compactions > 0
        # Live events are untouched by compaction.
        sim.run()
        assert sim.now == 1e6 + 99
        assert not any(h.cancelled for h in live)

    def test_compaction_preserves_fifo_tie_order(self):
        sim = Simulator()
        fired = []
        keep = [sim.schedule(5.0, fired.append, i) for i in range(40)]
        doomed = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        for h in doomed:
            h.cancel()
        assert sim.heap_compactions > 0
        sim.run()
        assert fired == list(range(40))
        assert keep[0].time == 5.0

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim.heap_compactions == 0

    def test_cancel_after_pop_does_not_corrupt_count(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        h.cancel()  # no-op: already fired
        assert sim._cancelled_pending == 0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        a.cancel()
        assert sim.pending_events == 1


class TestNonNumericTimes:
    """``not time >= now`` rejects NaN, which ``time < now`` let through
    to fire ahead of every earlier event."""

    @pytest.mark.parametrize("delay", [float("nan"), -float("inf")])
    def test_schedule_rejects_nan_and_past_delays(self, delay):
        with pytest.raises(SimulationError):
            Simulator().schedule(delay, lambda: None)

    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.5, fired.append, "half")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "nan")
        sim.schedule_at(1.0, fired.append, "one")
        sim.run()
        assert fired == ["half", "one"]

    def test_series_rejects_a_nan_first_time(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_series(iter([float("nan")]), 1)

    def test_series_rejects_a_nan_later_time(self):
        sim = Simulator()
        sim.schedule_series(iter([0.5, float("nan")]), 2)
        with pytest.raises(SimulationError):
            sim.run()


def series(times, fired, tag):
    """Steps firing ``fired.append((tag, k))`` at ``times[k]``."""
    for k, time in enumerate(times):
        yield time
        fired.append((tag, k))


class TestSeries:
    def test_events_fire_in_order_and_are_counted(self):
        sim = Simulator()
        fired = []
        sim.schedule_series(series([0.5, 0.5, 1.0], fired, "s"), 3)
        assert sim.pending_events == 3 and len(sim._heap) == 1
        sim.run()
        assert fired == [("s", 0), ("s", 1), ("s", 2)]
        assert sim.events_processed == 3 and sim.pending_events == 0
        assert sim.now == 1.0

    def test_ties_follow_the_reserved_sequence_numbers(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "before")
        sim.schedule_series(series([1.0, 1.0], fired, "a"), 2)
        sim.schedule_series(series([0.0, 1.0], fired, "b"), 2)
        sim.schedule_at(1.0, fired.append, "after")
        sim.run()
        assert fired == [("b", 0), "before", ("a", 0), ("a", 1), ("b", 1), "after"]

    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), max_size=8),
    )
    def test_pop_order_equals_scheduling_every_event(self, gap_lists, others):
        def play(streamed):
            sim = Simulator()
            fired = []
            for i, at in enumerate(others):
                sim.schedule_at(at, fired.append, ("other", i))
            for tag, gaps in enumerate(gap_lists):
                times = [sum(gaps[: k + 1]) for k in range(len(gaps))]
                if streamed:
                    sim.schedule_series(series(times, fired, tag), len(times))
                else:
                    for k, at in enumerate(times):
                        sim.schedule_at(at, fired.append, (tag, k))
            sim.run()
            return fired, sim.events_processed

        assert play(streamed=True) == play(streamed=False)

    def test_pending_counts_the_rest_of_the_series_while_an_event_fires(self):
        sim = Simulator()
        seen = []

        def steps():
            for _ in range(4):
                yield 1.0
                seen.append(sim.pending_events)

        sim.schedule_series(steps(), 4)
        sim.run()
        assert seen == [3, 2, 1, 0]

    def test_compaction_keeps_series(self):
        sim = Simulator()
        fired = []
        sim.schedule_series(series([1.0, 2.0], fired, "s"), 2)
        for _ in range(2 * Simulator.COMPACT_MIN_SIZE):
            sim.schedule(0.5, fired.append, "dead").cancel()
        assert sim.heap_compactions > 0
        assert sim.pending_events == 2
        sim.run()
        assert fired == [("s", 0), ("s", 1)]

    def test_count_must_match_the_steps(self):
        short = Simulator()
        short.schedule_series(iter([0.0]), 2)
        with pytest.raises(SimulationError, match="short"):
            short.run()
        long = Simulator()
        long.schedule_series(iter([0.0, 1.0]), 1)
        with pytest.raises(SimulationError, match="more"):
            long.run()
        with pytest.raises(SimulationError):
            Simulator().schedule_series(iter([]), 1)

    def test_times_must_not_decrease(self):
        sim = Simulator()
        sim.schedule_series(iter([1.0, 0.5]), 2)
        with pytest.raises(SimulationError):
            sim.run()

    def test_series_cannot_start_in_the_past(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.schedule_series(iter([0.5]), 1)

    def test_run_until_pauses_inside_a_series(self):
        sim = Simulator()
        fired = []
        sim.schedule_series(series([0.5, 1.5, 2.5], fired, "s"), 3)
        sim.run(until=1.0)
        assert fired == [("s", 0)] and sim.pending_events == 2
        assert sim.peek() == 1.5
        sim.run()
        assert fired == [("s", 0), ("s", 1), ("s", 2)]
