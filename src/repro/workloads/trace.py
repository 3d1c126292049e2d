"""Interaction traces (§6.1).

A trace is a time-ordered sequence of interaction events — mouse
samples, some of which trigger requests.  The experiments replay traces
against each system under test; the Oracle predictor reads the same
trace to look up the future.

The paper's image-application traces were collected from 14 graduate
students over 3 minutes each (≈ 20 ms mean think time, bursts up to 32
requests/s); its Falcon traces came from a published benchmark [7].
Neither dataset is redistributable, so :mod:`repro.workloads.mouse`
and :mod:`repro.workloads.falcon` generate statistically similar
traces (see DESIGN.md §2); this module defines the common structure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["TraceEvent", "InteractionTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One interaction sample.

    ``request`` is set when this event triggers a request (the mouse
    entered a new thumbnail / hovered a new chart); pure movement
    samples have ``request=None``.
    """

    time_s: float
    x: float
    y: float
    request: Optional[int] = None


class InteractionTrace:
    """A replayable, queryable event sequence, stored as columns.

    The trace keeps four parallel lists — time, x, y and request (an id,
    or ``None`` for a movement sample) — because replay, the point
    queries and pickling all read one column at a time, and a sharded
    or paper-scale run holds tens of thousands of samples.  ``events``
    is a view of one :class:`TraceEvent` per sample, built the first
    time something reads it; a trace built from events keeps only the
    columns.  Times must be finite and non-decreasing.
    """

    def __init__(self, events: Sequence[TraceEvent], name: str = "trace") -> None:
        self._set_columns(
            name,
            [e.time_s for e in events],
            [e.x for e in events],
            [e.y for e in events],
            [e.request for e in events],
        )

    @classmethod
    def from_columns(
        cls,
        times: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        requests: Sequence[Optional[int]],
        name: str = "trace",
    ) -> "InteractionTrace":
        """A trace from its four columns, without building any event."""
        trace = cls.__new__(cls)
        trace._set_columns(name, list(times), list(xs), list(ys), list(requests))
        return trace

    def _set_columns(
        self,
        name: str,
        times: list[float],
        xs: list[float],
        ys: list[float],
        requests: list[Optional[int]],
    ) -> None:
        if not times:
            raise ValueError("trace must contain at least one event")
        if not len(xs) == len(ys) == len(requests) == len(times):
            raise ValueError("trace columns must have equal lengths")
        # ``<=`` is False against NaN, so the order check also rejects a
        # NaN anywhere but in a one-event trace; sorted, every time is
        # finite once the first and the last are.
        if not (
            all(map(operator.le, times, itertools.islice(times, 1, None)))
            and math.isfinite(times[0])
            and math.isfinite(times[-1])
        ):
            raise ValueError("event times must be finite and non-decreasing")
        self.name = name
        self._times = times
        self._xs = xs
        self._ys = ys
        self._requests = requests
        self.num_requests = len(requests) - requests.count(None)
        self._events: Optional[list[TraceEvent]] = None

    # -- bulk views ----------------------------------------------------

    @property
    def columns(
        self,
    ) -> tuple[list[float], list[float], list[float], list[Optional[int]]]:
        """The ``(times, xs, ys, requests)`` lists, one entry per sample.

        Shared with the trace, not copied: read them, never mutate them.
        """
        return self._times, self._xs, self._ys, self._requests

    @property
    def events(self) -> list[TraceEvent]:
        """One :class:`TraceEvent` per sample, built on first read."""
        if self._events is None:
            self._events = list(
                map(TraceEvent, self._times, self._xs, self._ys, self._requests)
            )
        return self._events

    @property
    def duration_s(self) -> float:
        return self._times[-1]

    def _event(self, row: int) -> TraceEvent:
        return TraceEvent(
            self._times[row], self._xs[row], self._ys[row], self._requests[row]
        )

    @functools.cached_property
    def _request_rows(self) -> list[int]:
        """Row of every request-bearing sample (built on first query)."""
        return [i for i, r in enumerate(self._requests) if r is not None]

    @functools.cached_property
    def _request_times(self) -> list[float]:
        times = self._times
        return [times[i] for i in self._request_rows]

    def requests(self) -> list[TraceEvent]:
        """The request-bearing events, in order."""
        return [self._event(i) for i in self._request_rows]

    def think_times_s(self) -> np.ndarray:
        """Gaps between consecutive requests (the Fig. 5 distribution)."""
        if self.num_requests < 2:
            return np.empty(0)
        return np.diff(np.asarray(self._request_times))

    # -- point queries (oracle support) ---------------------------------

    def position_at(self, time_s: float) -> tuple[float, float]:
        """Mouse position at ``time_s`` (linear interpolation, clamped)."""
        times, xs, ys = self._times, self._xs, self._ys
        idx = bisect.bisect_right(times, time_s)
        if idx <= 0:
            return xs[0], ys[0]
        if idx >= len(times):
            return xs[-1], ys[-1]
        ta, tb = times[idx - 1], times[idx]
        if tb == ta:
            return xs[idx], ys[idx]
        w = (time_s - ta) / (tb - ta)
        xa, ya = xs[idx - 1], ys[idx - 1]
        return xa + w * (xs[idx] - xa), ya + w * (ys[idx] - ya)

    def request_active_at(self, time_s: float) -> Optional[int]:
        """Most recent request at or before ``time_s`` (oracle lookup)."""
        idx = bisect.bisect_right(self._request_times, time_s)
        if idx <= 0:
            return None
        return self._requests[self._request_rows[idx - 1]]

    def next_request_after(self, time_s: float) -> Optional[TraceEvent]:
        """First request event strictly after ``time_s``."""
        idx = bisect.bisect_right(self._request_times, time_s)
        if idx >= self.num_requests:
            return None
        return self._event(self._request_rows[idx])

    # -- transforms ------------------------------------------------------

    def truncated(self, duration_s: float) -> "InteractionTrace":
        """Prefix of the trace up to ``duration_s``."""
        kept = bisect.bisect_right(self._times, duration_s)
        if not kept:
            raise ValueError("truncation removed every event")
        return InteractionTrace.from_columns(
            *(column[:kept] for column in self.columns),
            name=f"{self.name}[:{duration_s}s]",
        )

    def shifted(self, offset_s: float) -> "InteractionTrace":
        """The same interaction re-based ``offset_s`` later on the clock.

        Churn fleets replay a user's trace from their arrival instant;
        a *time-indexed* reader of the same trace (the Oracle predictor
        queries ``position_at`` by absolute simulator time) must see
        the timeline the replay actually uses, or it would read the
        user's future from the wrong point in their session.
        """
        if offset_s == 0.0:
            return self
        if offset_s < 0:
            raise ValueError("shift offset must be non-negative")
        return InteractionTrace.from_columns(
            [t + offset_s for t in self._times],
            self._xs,
            self._ys,
            self._requests,
            name=f"{self.name}+{offset_s:g}s",
        )

    # -- comparison and serialization --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionTrace):
            return NotImplemented
        return self.name == other.name and self.columns == other.columns

    def __repr__(self) -> str:
        return (
            f"InteractionTrace(name={self.name!r}, {len(self._times)} events, "
            f"{self.num_requests} requests, {self.duration_s:g} s)"
        )

    def __reduce__(self):
        """Pickle as the name plus the four columns.

        A sharded fleet ships every trace to every worker; one dataclass
        per event would double the bytes and cost most of the dump time.
        Loading goes through :meth:`from_columns`, so it builds no event.
        """
        return (_trace_from_columns, (self.name, *self.columns))

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "events": [list(row) for row in zip(*self.columns)]}
        )

    @classmethod
    def from_json(cls, payload: str) -> "InteractionTrace":
        data = json.loads(payload)
        events = [
            TraceEvent(time_s=t, x=x, y=y, request=r)
            for t, x, y, r in data["events"]
        ]
        return cls(events, name=data.get("name", "trace"))


def _trace_from_columns(
    name: str,
    times: list[float],
    xs: list[float],
    ys: list[float],
    requests: list[Optional[int]],
) -> InteractionTrace:
    """Unpickle target of :meth:`InteractionTrace.__reduce__`."""
    return InteractionTrace.from_columns(times, xs, ys, requests, name=name)
