"""Weighted fair sharing of one downlink across many senders.

A fleet of Khameleon sessions serves many users over one egress pipe.
Each session's sender assumes it owns its link: it keeps the link
"backlogged but bounded" and measures its own receive rate.  Handing
every sender the same :class:`~repro.sim.link.Link` would break both —
the physical FIFO serializes whoever calls ``send`` first, so one
aggressive sender can park megabytes ahead of everyone else and starve
them for seconds.

:class:`SharedDownlink` fixes this with per-sender queues drained onto
the physical link one payload at a time by a weighted fair arbiter
(self-clocked fair queueing at payload granularity, the classic
packet-level approximation of GPS):

* each :class:`FairSharePort` tags arriving payloads with a virtual
  finish time ``max(V, last_tag) + size / weight``;
* whenever the physical link's serializer is free, the arbiter
  dispatches the backlogged payload with the smallest tag and advances
  the virtual clock ``V`` to it.  The backlogged ports' head tags sit
  in a heap, so a dispatch costs O(log P) rather than a scan of all P
  ports.

Over any interval where a set of ports stays backlogged, each receives
capacity proportional to its weight, regardless of how deep the other
queues are.  A port exposes the same ``send`` / ``queue_delay`` surface
as :class:`~repro.sim.link.Link`, so a :class:`~repro.core.sender.Sender`
works unmodified — its pacing loop now sees *its own* backlog at *its
fair share* of the rate, which is what bounds per-session queueing.

Ports support mid-run retirement (:meth:`FairSharePort.close`) for
session churn: a departing session's queued-but-unsent payloads are
dropped, its weight stops counting toward the backlogged total, and the
arbiter continues scheduling the survivors — a retired port must never
stall the virtual clock or strand capacity.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.clock import Clock
from .link import Link

__all__ = ["SharedDownlink", "FairSharePort"]

Deliver = Callable[[Any], None]


class _QueuedPayload:
    __slots__ = ("nbytes", "deliver", "payload", "finish_tag")

    def __init__(self, nbytes: int, deliver: Deliver, payload: Any, finish_tag: float):
        self.nbytes = nbytes
        self.deliver = deliver
        self.payload = payload
        self.finish_tag = finish_tag


class FairSharePort:
    """One sender's view of a :class:`SharedDownlink`.

    Implements the :class:`~repro.sim.link.Link` surface the sender
    uses (``send`` and ``queue_delay``); fairness bookkeeping lives in
    the arbiter.
    """

    def __init__(
        self, shared: "SharedDownlink", weight: float, label: str, order: int
    ) -> None:
        if weight <= 0:
            raise ValueError("port weight must be positive")
        self.shared = shared
        self.weight = weight
        self.label = label
        # Open order: breaks finish-tag ties the way a scan of
        # ``shared.ports`` (kept in open order) would.
        self.order = order
        self._queue: deque[_QueuedPayload] = deque()
        self._queued_bytes = 0
        self._last_tag = 0.0
        self.closed = False
        self.bytes_accepted = 0
        self.bytes_delivered = 0
        self.bytes_dropped = 0
        self.payloads_delivered = 0

    # -- Link surface --------------------------------------------------

    def send(self, nbytes: int, deliver: Deliver, payload: Any = None) -> float:
        """Enqueue ``nbytes`` for fair dispatch; returns an arrival *estimate*.

        Unlike a raw link, the true arrival time depends on competing
        ports' future sends, so the return value is the current
        ``queue_delay``-based estimate (senders ignore it).
        """
        if self.closed:
            raise ValueError(f"port {self.label!r} is retired")
        if nbytes < 0:
            raise ValueError("payload size must be non-negative")
        estimate = self.shared.sim.now + self.queue_delay()
        self.bytes_accepted += nbytes
        self.shared._enqueue(self, nbytes, deliver, payload)
        return estimate + self.shared.link.propagation_delay_s

    def queue_delay(self) -> float:
        """Seconds a byte sent *now* would wait before serialization.

        The port's backlog drains at its fair share of the link rate
        (weight over the backlogged ports' total weight), behind
        whatever is already occupying the physical serializer.  This is
        what the sender's pacing loop compares against ``max_backlog_s``,
        so it must reflect the *per-session* fair rate — not the raw
        link rate — or every sender would over-queue by the same factor
        the link is oversubscribed.
        """
        physical = self.shared.link.queue_delay()
        if self._queued_bytes == 0:
            return physical
        rate = self.shared.rate_hint()
        if rate is None or rate <= 0.0:
            return physical
        share = rate * self.weight / self.shared._backlogged_weight(include=self)
        return physical + self._queued_bytes / share

    def close(self) -> int:
        """Retire this port: drop its backlog and stop competing.

        Called when the owning session departs.  Payloads already handed
        to the physical serializer still deliver (they are on the wire);
        everything still queued here is dropped so it cannot occupy
        capacity a surviving session should get.  Returns the number of
        bytes dropped.  Idempotent.
        """
        if self.closed:
            return 0
        self.closed = True
        dropped = self._queued_bytes
        self._queue.clear()
        self._queued_bytes = 0
        self.bytes_dropped += dropped
        self.shared._retire(self)
        return dropped

    # -- introspection -------------------------------------------------

    @property
    def backlog_bytes(self) -> int:
        """Bytes enqueued at this port, not yet on the physical link."""
        return self._queued_bytes

    def _on_delivered(self, nbytes: int) -> None:
        self.bytes_delivered += nbytes
        self.payloads_delivered += 1


class SharedDownlink:
    """Weighted fair arbiter multiplexing ports onto one physical link.

    Parameters
    ----------
    sim:
        The shared simulator clock.
    link:
        The physical downlink (fixed-rate or trace-driven).  The arbiter
        keeps at most one payload in its serializer at a time, so the
        physical FIFO never reorders the fair schedule.
    """

    def __init__(self, sim: Clock, link: Link) -> None:
        self.sim = sim
        self.link = link
        self.ports: list[FairSharePort] = []
        self._vtime = 0.0
        self._wire_wait = None  # pending dispatch event, if any
        # One (head finish tag, open order, port) entry per backlogged
        # port; a closed port's entry is dropped when it surfaces.
        self._heads: list[tuple[float, int, FairSharePort]] = []
        self._observed_rate: Optional[float] = None
        # Total weight of the backlogged ports, or None when a port's
        # backlog has crossed zero (or the port set changed) since it
        # was last summed; see _backlogged_weight.
        self._backlogged_total: Optional[float] = None
        self.payloads_dispatched = 0
        self.ports_opened = 0
        self.ports_retired = 0
        self.bytes_dropped = 0

    def port(self, weight: float = 1.0, label: Optional[str] = None) -> FairSharePort:
        """Create a new session port with the given fair-share weight."""
        port = FairSharePort(
            self, weight, label or f"port{self.ports_opened}", self.ports_opened
        )
        self.ports.append(port)
        self._backlogged_total = None
        self.ports_opened += 1
        return port

    def _retire(self, port: FairSharePort) -> None:
        """Remove a closed port from arbitration (its backlog is gone)."""
        if port in self.ports:
            self.ports.remove(port)
        self._backlogged_total = None
        self.ports_retired += 1
        self.bytes_dropped += port.bytes_dropped

    def rate_hint(self) -> Optional[float]:
        """Physical serialization rate in bytes/s, best known estimate.

        Fixed-rate links expose it exactly; trace-driven links are
        estimated from observed per-payload serialization times.
        """
        exact = getattr(self.link, "bytes_per_second", None)
        if exact is not None:
            return float(exact)
        return self._observed_rate

    # -- arbiter internals ---------------------------------------------

    def _backlogged_weight(self, include: Optional[FairSharePort] = None) -> float:
        # Senders ask once per block (queue_delay), the set of
        # backlogged ports changes far less often: keep the sum, and
        # re-add in port order so it is the same float every time.
        total = self._backlogged_total
        if total is None:
            total = self._backlogged_total = sum(
                p.weight for p in self.ports if p._queued_bytes > 0
            )
        if include is not None and include._queued_bytes == 0:
            total += include.weight
        return total if total > 0 else (include.weight if include else 1.0)

    def _enqueue(
        self, port: FairSharePort, nbytes: int, deliver: Deliver, payload: Any
    ) -> None:
        tag = max(self._vtime, port._last_tag) + nbytes / port.weight
        port._last_tag = tag
        port._queue.append(_QueuedPayload(nbytes, deliver, payload, tag))
        if len(port._queue) == 1:
            heapq.heappush(self._heads, (tag, port.order, port))
        if port._queued_bytes == 0:
            self._backlogged_total = None
        port._queued_bytes += nbytes
        self._dispatch()

    def _dispatch(self) -> None:
        """Put the smallest-tag head payload on the wire, if it is free.

        Ties go to the earliest-opened port, so popping the heap picks
        exactly the first minimum of a scan over ``self.ports``.
        """
        if self._wire_wait is not None:
            return
        heads = self._heads
        while heads and heads[0][2].closed:
            heapq.heappop(heads)
        if not heads:
            return
        now = self.sim.now
        if self.link.busy_until > now + 1e-12:
            # Serializer occupied: wake up exactly when it frees.
            self._wire_wait = self.sim.schedule_at(
                self.link.busy_until, self._on_wire_free
            )
            return
        port = heapq.heappop(heads)[2]
        item = port._queue.popleft()
        if port._queue:
            heapq.heappush(heads, (port._queue[0].finish_tag, port.order, port))
        port._queued_bytes -= item.nbytes
        if port._queued_bytes == 0:
            self._backlogged_total = None
        self._vtime = max(self._vtime, item.finish_tag)
        self.link.send(item.nbytes, self._deliver, (port, item))
        self.payloads_dispatched += 1
        if item.nbytes > 0:
            elapsed = self.link.busy_until - now
            if elapsed > 0:
                observed = item.nbytes / elapsed
                self._observed_rate = (
                    observed
                    if self._observed_rate is None
                    else 0.8 * self._observed_rate + 0.2 * observed
                )
        self._dispatch()  # arms the wire-free wakeup for the next payload

    def _on_wire_free(self) -> None:
        self._wire_wait = None
        self._dispatch()

    def _deliver(self, handoff: tuple[FairSharePort, _QueuedPayload]) -> None:
        port, item = handoff
        port._on_delivered(item.nbytes)
        item.deliver(item.payload)
