"""Discrete-event simulation engine.

All Khameleon *experiments* in this reproduction run on a single
virtual clock instead of wall-clock asyncio.  The paper's prototype
measured a TypeScript client and Rust server over emulated networks; in
Python, wall-clock scheduling jitter would swamp the millisecond-scale
effects the paper studies (see DESIGN.md §2).  A discrete-event
simulator gives deterministic, reproducible timing at any bandwidth.

:class:`Simulator` is one of the two drivers of the
:class:`repro.clock.Clock` protocol — the time/scheduling seam every
component depends on.  The other driver, :class:`repro.clock.WallClock`,
runs the identical stack on asyncio real time behind ``python -m repro
serve``.  Components never import this module for the clock; they take
a ``Clock`` and the harness decides which driver to hand them.

Time is measured in **seconds** as floats.  Events scheduled for the
same instant fire in FIFO order of scheduling (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic.
A time that is not ``>= now`` — the past, or NaN — is rejected.

A *series* (:meth:`Simulator.schedule_series`) is a run of events in
non-decreasing time order that occupies one heap entry instead of one
per event: a replayed interaction trace is thousands of mouse samples,
and only the next one needs to be in the heap.  The series FIFO rule:
at call time a series of ``count`` events reserves ``count`` consecutive
sequence numbers, and its ``k``-th event fires under the ``k``-th of
them.  Its events therefore pop in exactly the ``(time, seq)`` order
they would have if each had been scheduled with :meth:`schedule_at` at
the call — after events scheduled before the call at the same instant,
before events scheduled after it, and in the series' own order among
themselves.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(1.5, fired.append, "a")
>>> sim.schedule(0.5, fired.append, "b")  # doctest: +ELLIPSIS
<repro.sim.engine.EventHandle object at ...>
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
1.5
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator, Optional

from repro.clock import ClockError

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(ClockError):
    """Raised for invalid uses of the simulator (e.g., scheduling in the past).

    Subclasses :class:`repro.clock.ClockError` so driver-agnostic code
    can catch scheduling misuse without knowing which clock it runs on.
    """


class EventHandle:
    """A cancellable reference to a scheduled event.

    Returned by :meth:`Simulator.schedule`; call :meth:`cancel` to
    prevent the callback from firing.  Cancelling an event that already
    fired is a harmless no-op.
    """

    __slots__ = ("time", "_callback", "_args", "_cancelled", "_sim", "_popped")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._sim = sim
        self._popped = False

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references so cancelled events don't pin large objects
        # while they wait to be popped from the heap.
        self._callback = None
        self._args = ()
        # Cancelled entries stay in the heap until popped (lazy
        # cancellation); tell the simulator so it can compact when the
        # dead fraction gets large.
        if self._sim is not None and not self._popped:
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        if not self._cancelled:
            self._callback(*self._args)


class _Series:
    """The one heap entry of a series: its next event, then the rest.

    Never cancelled, so compaction keeps it and the run loop fires it
    like any :class:`EventHandle`.
    """

    __slots__ = ("_sim", "_steps", "_seq", "_end", "_popped")

    cancelled = False

    def __init__(self, sim: "Simulator", steps: Iterator[float], seq: int, end: int):
        self._sim = sim
        self._steps = steps
        self._seq = seq  # reserved sequence number of the event in the heap
        self._end = end  # one past the last reserved sequence number
        self._popped = False

    def _fire(self) -> None:
        """Fire the popped event, then re-push the series at its next one."""
        sim = self._sim
        time = next(self._steps, None)
        seq = self._seq + 1
        if time is None:
            if seq != self._end:
                raise SimulationError(
                    f"series ended {self._end - seq} events short of its count"
                )
            return
        if seq == self._end:
            raise SimulationError("series yielded more events than its count")
        if not time >= sim._now:
            raise SimulationError(
                f"series event at {time!r} is before the previous one ({sim._now!r})"
            )
        self._seq = seq
        heapq.heappush(sim._heap, (time, seq, self))
        sim._series_backlog -= 1


class Simulator:
    """Event-heap simulator with a virtual clock.

    The simulator is intentionally minimal: components schedule plain
    callbacks.  Higher-level constructs (periodic tasks, links, paced
    senders) are built on top of :meth:`schedule`.
    """

    #: Never compact below this heap size: tiny heaps cost nothing to
    #: scan and would otherwise compact on every other cancellation.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        # Cancelled-but-unpopped entries currently in the heap.  Lazy
        # cancellation leaves them there until they reach the top; under
        # churny preemption (schedule + cancel in a tight loop) that
        # garbage can outgrow the live events unboundedly, so the heap
        # is compacted whenever the cancelled fraction exceeds half.
        self._cancelled_pending = 0
        self.heap_compactions = 0
        # Events of live series beyond the one entry each holds in the heap.
        self._series_backlog = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (diagnostics)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now ({self._now!r})"
            )
        handle = EventHandle(time, callback, args, sim=self)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def schedule_series(self, steps: Iterator[float], count: int) -> None:
        """Schedule the ``count`` events of ``steps`` under one heap entry.

        ``steps`` is an iterator, typically a generator, that yields the
        time of its next event and, when resumed, fires that event (the
        code after its ``yield``) and yields the time of the one after.
        It is advanced once now, for the first time, and once per event
        fired.  Times must be non-decreasing and not before now.  The
        series FIFO rule (module docstring) makes the pop order
        identical to scheduling every event with :meth:`schedule_at`
        here; ``events_processed`` and ``pending_events`` count each
        event.  A series cannot be cancelled.
        """
        if count <= 0:
            return
        time = next(steps, None)
        if time is None:
            raise SimulationError(f"series of count {count} yielded no events")
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule a series at {time!r}, which is before now ({self._now!r})"
            )
        seq = next(self._seq)
        self._seq = itertools.count(seq + count)
        heapq.heappush(self._heap, (time, seq, _Series(self, steps, seq, seq + count)))
        self._series_backlog += count - 1

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events yet to fire, each series event counted."""
        return len(self._heap) - self._cancelled_pending + self._series_backlog

    def _note_cancelled(self) -> None:
        self._cancelled_pending += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and 2 * self._cancelled_pending > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Entries keep their ``(time, seq)`` keys, so the pop order of the
        survivors — including FIFO ties — is unchanged: compaction is
        invisible to the simulation.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self.heap_compactions += 1

    def _pop(self) -> EventHandle:
        """Pop the top entry, maintaining the cancelled-garbage count."""
        handle = heapq.heappop(self._heap)[2]
        handle._popped = True
        if handle.cancelled:
            self._cancelled_pending -= 1
        return handle

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds.

        The first firing happens at ``start`` (absolute time; defaults to
        ``now + interval``).  Returns a :class:`PeriodicTask` whose
        ``cancel()`` stops the repetition.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval!r})")
        task = PeriodicTask(self, interval, callback, args)
        first = self._now + interval if start is None else start
        task._arm(first)
        return task

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the heap is empty or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so back-to-back
        ``run(until=...)`` calls behave like contiguous wall-clock spans.
        """
        while self._heap:
            time = self._heap[0][0]
            if until is not None and time > until:
                break
            handle = self._pop()
            if handle.cancelled:
                continue
            self._now = time
            self._events_processed += 1
            handle._fire()
        if until is not None and until > self._now:
            self._now = until

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` seconds, processing events."""
        if duration < 0:
            raise SimulationError(f"duration must be non-negative (got {duration!r})")
        self.run(until=self._now + duration)

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            self._pop()
        return self._heap[0][0] if self._heap else None


class PeriodicTask:
    """A repeating event created by :meth:`Simulator.every`."""

    __slots__ = ("_sim", "_interval", "_callback", "_args", "_handle", "_cancelled")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[..., Any], args: tuple):
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self._cancelled = False

    def _arm(self, at: float) -> None:
        self._handle = self._sim.schedule_at(at, self._tick)

    def _tick(self) -> None:
        if self._cancelled:
            return
        self._callback(*self._args)
        if not self._cancelled:
            self._arm(self._sim.now + self._interval)

    def cancel(self) -> None:
        """Stop the periodic task (idempotent)."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled
