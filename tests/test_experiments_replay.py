"""Trace replay as a series: the same events, in the same order, as eager.

``runner._replay`` schedules a trace as one simulator series that holds
a single heap entry and builds each ``MouseEvent`` when its sample
fires.  The replay it replaced pushed every event of the trace at call
time; it lives on here as the oracle.  Every case runs twice, once per
replay, and the two runs must log the same callbacks at the same
instants with the same ``events_processed`` / ``pending_events``, and
end each ``run(until=...)`` chunk on the same clock and counters.

Cases mix the things that decide pop order: repeated timestamps inside
a trace, other events at the same instants scheduled before and after
the replay call, several traces, the ordinal-position hook, a trace
admitted mid-run at an offset (churn admission), chunked runs, and a
burst of cancellations large enough to compact the heap.
"""

import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.configs import FleetEnvironment
from repro.predictors.base import MouseEvent
from repro.sim.engine import Simulator
from repro.workloads import trace as trace_module
from repro.workloads.mouse import MouseTraceGenerator
from repro.workloads.trace import InteractionTrace, TraceEvent


def eager_replay(sim, trace, observe, request, on_request_position=None, offset_s=0.0):
    """The oracle: every event of the trace pushed at call time."""
    position = 0
    for event in trace.events:
        sim.schedule_at(offset_s + event.time_s, observe, MouseEvent(event.x, event.y))
        if event.request is not None:
            sim.schedule_at(offset_s + event.time_s, request, event.request)
            if on_request_position is not None:
                sim.schedule_at(offset_s + event.time_s, on_request_position, position)
            position += 1


# Quarter-second steps are exact in binary, so traces, other events and
# offsets land on the same instants and tie.
instants = st.integers(0, 16).map(lambda k: k * 0.25)
traces = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.25, 0.5]), st.booleans()),
    min_size=1,
    max_size=20,
).map(
    lambda rows: InteractionTrace(
        [
            TraceEvent(sum(dt for dt, _ in rows[: i + 1]), float(i), -float(i), i if hit else None)
            for i, (_dt, hit) in enumerate(rows)
        ]
    )
)


@dataclass
class Case:
    traces: list
    before: list
    after: list
    hook: bool
    late: Optional[tuple]  # (admission instant, trace index)
    burst: Optional[float]  # instant of a schedule-and-cancel burst
    untils: list


@st.composite
def cases(draw):
    plan = draw(st.lists(traces, min_size=1, max_size=3))
    late = draw(st.none() | st.tuples(instants, st.integers(0, len(plan) - 1)))
    return Case(
        traces=plan,
        before=draw(st.lists(instants, max_size=6)),
        after=draw(st.lists(instants, max_size=6)),
        hook=draw(st.booleans()),
        late=late,
        burst=draw(st.none() | instants),
        untils=sorted(draw(st.lists(instants, max_size=4))),
    )


#: Enough cancelled events to cross the simulator's compaction threshold.
BURST = 2 * Simulator.COMPACT_MIN_SIZE


def play(replay, case):
    sim = Simulator()
    log = []

    def note(*what):
        log.append((sim.now, sim.events_processed, sim.pending_events, *what))

    def replay_trace(k, tag, offset_s=0.0):
        replay(
            sim,
            case.traces[k],
            lambda event: note(tag, k, "observe", event.x, event.y),
            lambda request: note(tag, k, "request", request),
            (lambda position: note(tag, k, "position", position)) if case.hook else None,
            offset_s=offset_s,
        )

    def burst():
        note("burst")
        handles = [sim.schedule(0.25 * (i % 5), note, "dead") for i in range(BURST)]
        for handle in handles:
            handle.cancel()

    for i, at in enumerate(case.before):
        sim.schedule_at(at, note, "before", i)
    for k in range(len(case.traces)):
        replay_trace(k, "trace")
    for i, at in enumerate(case.after):
        sim.schedule_at(at, note, "after", i)
    if case.late is not None:
        at, k = case.late
        sim.schedule_at(at, lambda: replay_trace(k, "late", offset_s=sim.now))
    if case.burst is not None:
        sim.schedule_at(case.burst, burst)

    chunks = []
    for until in case.untils:
        sim.run(until=until)
        chunks.append((sim.now, sim.events_processed, sim.pending_events))
    sim.run()
    chunks.append((sim.now, sim.events_processed, sim.pending_events))
    return log, chunks, sim.heap_compactions


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(
    case=Case(
        traces=[
            InteractionTrace(
                [TraceEvent(0.0, 0.0, 0.0, 1), TraceEvent(0.0, 1.0, 1.0, None), TraceEvent(0.5, 2.0, 2.0, 2)]
            )
        ],
        before=[0.0, 0.5],
        after=[0.0, 0.5],
        hook=True,
        late=(0.25, 0),
        burst=0.25,
        untils=[0.0, 0.25, 0.5],
    )
)
def test_streamed_replay_matches_the_eager_oracle(case):
    log, chunks, compactions = play(runner._replay, case)
    want_log, want_chunks, _ = play(eager_replay, case)
    assert log == want_log
    assert chunks == want_chunks
    if case.burst is not None:
        assert compactions >= 1  # the burst really compacted the streamed heap


def test_a_trace_holds_one_heap_entry_whatever_its_length():
    trace = MouseTraceGenerator(runner.ImageAppSpec(rows=4, cols=4).build().layout, seed=3).generate(
        duration_s=2.0
    )
    sim = Simulator()
    runner._replay(sim, trace, lambda event: None, lambda request: None)
    assert len(sim._heap) == 1
    assert sim.pending_events == len(trace.events) + trace.num_requests


def test_sharded_worker_replays_its_traces_without_building_trace_events(monkeypatch):
    """The spec a shard worker unpickles, replayed as the worker does:
    no ``TraceEvent`` is built between the pickle and the last event."""
    app_spec = runner.ImageAppSpec(rows=4, cols=4)
    generator = MouseTraceGenerator(app_spec.build().layout, seed=5)
    plan = [
        runner.extend_with_pause(generator.generate(duration_s=1.5, trace_id=i), 1.5, 0.5)
        for i in range(4)
    ]
    spec = runner.ShardFleetSpec(
        app_spec=app_spec,
        traces=plan,
        fleet_env=FleetEnvironment(num_sessions=len(plan)),
        predictor="kalman",
        shard=0,
        num_shards=2,
    )
    blob = pickle.dumps(spec)

    built = []

    class CountingTraceEvent(TraceEvent):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trace_module, "TraceEvent", CountingTraceEvent)
    loaded = pickle.loads(blob)
    sim = Simulator()
    fired = []
    for trace in loaded.traces:
        runner._replay(sim, trace, fired.append, fired.append)
    sim.run(until=max(trace.duration_s for trace in loaded.traces))
    assert built == []
    assert len(fired) == sum(len(t.columns[0]) + t.num_requests for t in loaded.traces)
    # The stand-in is wired in: the event view does build through it.
    assert len(loaded.traces[0].events) == len(built) > 0


@pytest.mark.parametrize("offset_s", [0.0, 1.25])
def test_series_events_are_counted_one_by_one(offset_s):
    trace = InteractionTrace(
        [TraceEvent(0.0, 0.0, 0.0, 7), TraceEvent(0.5, 1.0, 1.0, None), TraceEvent(0.5, 2.0, 2.0, 8)]
    )
    sim = Simulator()
    seen = []
    runner._replay(sim, trace, seen.append, seen.append, seen.append, offset_s=offset_s)
    assert sim.pending_events == 7
    sim.run()
    assert sim.events_processed == 7 and sim.pending_events == 0
    assert sim.now == offset_s + 0.5
    assert seen == [MouseEvent(0.0, 0.0), 7, 0, MouseEvent(1.0, 1.0), MouseEvent(2.0, 2.0), 8, 1]
