"""InteractionTrace pickling: four columns out, the same trace back.

A sharded fleet pickles every trace into every worker's task, so the
trace pickles as its name plus the time / x / y / request columns and
is rebuilt through its constructor.  The round trip must give back
equal events and equal derived caches, and the caches themselves must
not travel.

The trace is stored as those columns: the event view, the point queries
and the transforms agree whether it was built from events or columns,
and times must be finite and non-decreasing.
"""

import pickle
import pickletools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.workloads.trace import InteractionTrace, TraceEvent

coords = st.floats(allow_nan=False, allow_infinity=False, width=64)
# dt = 0 repeats a timestamp; requests mix movement samples with ids.
rows = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        coords,
        coords,
        st.one_of(st.none(), st.integers(-(2**40), 2**40)),
    ),
    min_size=1,
    max_size=60,
)


def make_trace(name, rows):
    events = []
    t = 0.0
    for dt, x, y, request in rows:
        t += dt
        events.append(TraceEvent(t, x, y, request))
    return InteractionTrace(events, name=name)


def string_constants(blob):
    return {arg for _op, arg, _pos in pickletools.genops(blob) if isinstance(arg, str)}


@given(name=st.text(max_size=12), rows=rows)
@example(name="mosaïque-ユーザー-🖱", rows=[(0.0, 1.5, -2.0, 7)])
@example(name="", rows=[(0.0, 0.0, 0.0, None), (0.0, 3.0, 4.0, 0), (0.0, 3.0, 4.0, None)])
def test_pickle_round_trip_rebuilds_the_trace(name, rows):
    trace = make_trace(name, rows)
    blob = pickle.dumps(trace)
    back = pickle.loads(blob)
    assert back.name == trace.name
    assert back.events == trace.events
    assert back.num_requests == trace.num_requests
    assert back._request_times == trace._request_times
    # Only the rebuild target and the name travel as strings: no
    # TraceEvent class, no cache attribute names.
    assert string_constants(blob) <= {
        "repro.workloads.trace",
        "_trace_from_columns",
        name,
    }


# -- columns: construction, the event view, validation --------------------


@given(name=st.text(max_size=12), rows=rows)
def test_columns_and_events_describe_the_same_trace(name, rows):
    trace = make_trace(name, rows)
    columns = InteractionTrace.from_columns(*trace.columns, name=name)
    assert columns == trace
    assert columns._events is None  # the event view is built on first read
    assert columns.events == trace.events
    assert columns.requests() == trace.requests()
    assert (columns.duration_s, columns.num_requests) == (trace.duration_s, trace.num_requests)
    for t in {0.0, trace.duration_s / 2, trace.duration_s, trace.duration_s + 1.0}:
        assert columns.position_at(t) == trace.position_at(t)
        assert columns.request_active_at(t) == trace.request_active_at(t)
        assert columns.next_request_after(t) == trace.next_request_after(t)


def test_point_queries_read_the_columns():
    trace = InteractionTrace(
        [
            TraceEvent(0.0, 0.0, 0.0, 3),
            TraceEvent(1.0, 10.0, 20.0),
            TraceEvent(1.0, 12.0, 22.0, 4),
            TraceEvent(3.0, 16.0, 26.0),
        ]
    )
    assert trace.position_at(-1.0) == (0.0, 0.0)
    assert trace.position_at(0.5) == (5.0, 10.0)
    assert trace.position_at(1.0) == (12.0, 22.0)
    assert trace.position_at(2.0) == (14.0, 24.0)
    assert trace.position_at(9.0) == (16.0, 26.0)
    assert trace.request_active_at(0.9) == 3
    assert trace.request_active_at(1.0) == 4
    assert trace.next_request_after(0.0) == TraceEvent(1.0, 12.0, 22.0, 4)
    assert trace.next_request_after(1.0) is None
    assert list(trace.think_times_s()) == [1.0]


@pytest.mark.parametrize(
    "times",
    [
        [float("nan")],
        [0.0, float("nan"), 1.0],
        [0.0, 1.0, float("nan")],
        [float("nan"), 0.0],
        [0.0, float("inf")],
        [-float("inf"), 0.0],
        [1.0, 0.5],
    ],
)
def test_times_must_be_finite_and_ordered(times):
    events = [TraceEvent(t, 0.0, 0.0) for t in times]
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        InteractionTrace(events)
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        InteractionTrace.from_columns(times, [0.0] * len(times), [0.0] * len(times), [None] * len(times))


def test_columns_must_line_up():
    with pytest.raises(ValueError, match="equal lengths"):
        InteractionTrace.from_columns([0.0, 1.0], [0.0], [0.0, 1.0], [None, None])
    with pytest.raises(ValueError, match="at least one"):
        InteractionTrace.from_columns([], [], [], [])


def test_transforms_keep_columns():
    trace = make_trace("t", [(0.0, 1.0, 2.0, 5), (0.5, 3.0, 4.0, None), (0.5, 5.0, 6.0, 6)])
    assert trace.truncated(0.5).events == trace.events[:2]
    assert trace.shifted(2.0).columns[0] == [2.0, 2.5, 3.0]
    assert trace.shifted(2.0).columns[1:] == trace.columns[1:]
    assert InteractionTrace.from_json(trace.to_json()) == trace
