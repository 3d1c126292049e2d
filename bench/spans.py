"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` wraps plain (synchronous) callables.  Every call
appends one span to four flat arrays — name id, start, end, parent —
and nothing else happens on the hot path: no I/O, no allocation beyond
the array growth.  Spans nest by call stack, so the span that *caused*
a span is simply the one open when it started.  :meth:`Tracer.fold`
turns the raw arrays into a :class:`SpanTable` (calls, total and self
time per name) and empties them, which keeps memory bounded across
iterations; the table is what gets written out when the run ends.

Self time is a span's duration minus the part of it covered by its
direct children, so the self times of a root span and all of its
descendants add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = ["SpanTable", "Tracer", "self_times", "install"]


def self_times(start, end, parent) -> np.ndarray:
    """Per-span self time: duration minus the direct children's durations."""
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children.astype(np.int64)


class SpanTable:
    """Per-name aggregate of folded spans (all times in nanoseconds)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: Individual durations, kept only for the names a metric needs
        #: a percentile of.
        self.samples_ns: dict[str, list[int]] = {}
        #: What the probes of probed spans returned, one value per call.
        self.values: dict[str, list[float]] = {}

    def merge(self, other: "SpanTable") -> None:
        for name, count in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + count
            self.total_ns[name] = self.total_ns.get(name, 0) + other.total_ns[name]
            self.self_ns[name] = self.self_ns.get(name, 0) + other.self_ns[name]
        for name, samples in other.samples_ns.items():
            self.samples_ns.setdefault(name, []).extend(samples)
        for name, values in other.values.items():
            self.values.setdefault(name, []).extend(values)

    # -- queries (0 for a name that never ran) -------------------------

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns.get(n, 0) for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span named ``<layer>.<something>``."""
        prefix = layer + "."
        return sum(v for n, v in self.self_ns.items() if n.startswith(prefix)) / 1e9

    def spans(self) -> int:
        return sum(self.calls.values())

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "samples_ns": self.samples_ns,
            "values": self.values,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SpanTable":
        table = cls()
        table.calls = dict(payload["calls"])
        table.total_ns = dict(payload["total_ns"])
        table.self_ns = dict(payload["self_ns"])
        table.samples_ns = {k: list(v) for k, v in payload["samples_ns"].items()}
        table.values = {k: list(v) for k, v in payload["values"].items()}
        return table

    def rows(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_ms, self_ms)`` sorted by self time."""
        return sorted(
            (
                (n, self.calls[n], self.total_ns[n] / 1e6, self.self_ns[n] / 1e6)
                for n in self.calls
            ),
            key=lambda row: -row[3],
        )


class Tracer:
    """Records spans around wrapped callables (see module docstring)."""

    def __init__(self, keep_samples: Iterable[str] = ()) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._keep = frozenset(keep_samples)
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: list[int] = []
        self._values: dict[str, list[float]] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call.

        ``probe(first_argument, result)``, if given, runs after each
        call (outside the span) and its value is kept — a count or a
        reading taken at the boundary where the work happens.
        """
        name_id = self._intern(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        if probe is None:
            return traced
        values = self._values.setdefault(name, [])

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = traced(*args, **kwargs)
            values.append(probe(args[0], result))
            return result

        return probed

    def fold(self) -> SpanTable:
        """Aggregate the recorded spans into a table and forget them.

        Call between units of work, when no wrapped call is running.
        """
        table = SpanTable()
        if len(self._start):
            name = np.array(self._name, dtype=np.int64)
            start = np.array(self._start, dtype=np.int64)
            end = np.array(self._end, dtype=np.int64)
            own = self_times(start, end, self._parent)
            duration = end - start
            k = len(self.names)
            calls = np.bincount(name, minlength=k)
            total = np.bincount(name, weights=duration, minlength=k)
            self_total = np.bincount(name, weights=own, minlength=k)
            for i, label in enumerate(self.names):
                if calls[i]:
                    table.calls[label] = int(calls[i])
                    table.total_ns[label] = int(total[i])
                    table.self_ns[label] = int(self_total[i])
                    if label in self._keep:
                        table.samples_ns[label] = duration[name == i].tolist()
        for buffer in (self._name, self._start, self._end, self._parent):
            del buffer[:]
        for name, values in self._values.items():
            if values:
                table.values[name] = list(values)
                del values[:]
        return table


def _resolve(target: str):
    """``"pkg.module:Owner.attr"`` → ``(owner_object, attr_name)``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, table: Iterable[tuple]) -> Callable[[], None]:
    """Wrap every ``(span_name, target[, probe])`` of ``table``; return the undo.

    A target that no longer resolves is reported on stderr and skipped:
    its metrics then read 0, which a reader of the layer table sees,
    and a later refactor under ``src/`` cannot break the benchmark run.
    """
    undo: list[tuple[object, str, object]] = []
    for span_name, target, *rest in table:
        probe = rest[0] if rest else None
        try:
            owner, attr = _resolve(target)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            print(f"bench: span target {target!r} not found, skipped", file=sys.stderr)
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: object = type(raw)(tracer.wrap(span_name, raw.__func__, probe))
        else:
            wrapped = tracer.wrap(span_name, raw, probe)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall
