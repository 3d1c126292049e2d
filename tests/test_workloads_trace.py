"""InteractionTrace pickling: four columns out, the same trace back.

A sharded fleet pickles every trace into every worker's task, so the
trace pickles as its name plus the time / x / y / request columns and
is rebuilt through its constructor.  The round trip must give back
equal events and equal derived caches, and the caches themselves must
not travel.
"""

import pickle
import pickletools

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
