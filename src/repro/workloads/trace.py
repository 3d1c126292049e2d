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
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

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


@dataclass
class InteractionTrace:
    """A replayable, queryable event sequence."""

    events: list[TraceEvent]
    name: str = "trace"

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("trace must contain at least one event")
        times = [e.time_s for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("events must be time-ordered")
        self._times = times
        self._request_events = [e for e in self.events if e.request is not None]
        self._request_times = [e.time_s for e in self._request_events]

    # -- bulk views ----------------------------------------------------

    @property
    def duration_s(self) -> float:
        return self.events[-1].time_s

    @property
    def num_requests(self) -> int:
        return len(self._request_events)

    def requests(self) -> list[TraceEvent]:
        """The request-bearing events, in order."""
        return list(self._request_events)

    def think_times_s(self) -> np.ndarray:
        """Gaps between consecutive requests (the Fig. 5 distribution)."""
        if len(self._request_times) < 2:
            return np.empty(0)
        return np.diff(np.asarray(self._request_times))

    # -- point queries (oracle support) ---------------------------------

    def position_at(self, time_s: float) -> tuple[float, float]:
        """Mouse position at ``time_s`` (linear interpolation, clamped)."""
        idx = bisect.bisect_right(self._times, time_s)
        if idx <= 0:
            first = self.events[0]
            return first.x, first.y
        if idx >= len(self.events):
            last = self.events[-1]
            return last.x, last.y
        a, b = self.events[idx - 1], self.events[idx]
        if b.time_s == a.time_s:
            return b.x, b.y
        w = (time_s - a.time_s) / (b.time_s - a.time_s)
        return a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)

    def request_active_at(self, time_s: float) -> Optional[int]:
        """Most recent request at or before ``time_s`` (oracle lookup)."""
        idx = bisect.bisect_right(self._request_times, time_s)
        if idx <= 0:
            return None
        return self._request_events[idx - 1].request

    def next_request_after(self, time_s: float) -> Optional[TraceEvent]:
        """First request event strictly after ``time_s``."""
        idx = bisect.bisect_right(self._request_times, time_s)
        if idx >= len(self._request_events):
            return None
        return self._request_events[idx]

    # -- transforms ------------------------------------------------------

    def truncated(self, duration_s: float) -> "InteractionTrace":
        """Prefix of the trace up to ``duration_s``."""
        kept = [e for e in self.events if e.time_s <= duration_s]
        if not kept:
            raise ValueError("truncation removed every event")
        return InteractionTrace(kept, name=f"{self.name}[:{duration_s}s]")

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
        events = [
            TraceEvent(e.time_s + offset_s, e.x, e.y, e.request)
            for e in self.events
        ]
        return InteractionTrace(events, name=f"{self.name}+{offset_s:g}s")

    # -- serialization ----------------------------------------------------

    def __reduce__(self):
        """Pickle as the name plus four columns, not one object per event.

        A sharded fleet ships every trace to every worker; per-event
        dataclasses and the derived ``_times`` / ``_request_events``
        caches double the bytes and cost most of the dump time.  The
        constructor rebuilds events and caches on load.
        """
        return (
            _trace_from_columns,
            (
                self.name,
                [e.time_s for e in self.events],
                [e.x for e in self.events],
                [e.y for e in self.events],
                [e.request for e in self.events],
            ),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "events": [
                    [e.time_s, e.x, e.y, e.request] for e in self.events
                ],
            }
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
    return InteractionTrace(
        [TraceEvent(*row) for row in zip(times, xs, ys, requests)], name=name
    )
