"""Sender thread (§3.3, §5.3.2, §5.4).

The sender reads the scheduler's block sequence, retrieves blocks from
the backend, and places them onto the network at a rate matched to the
bandwidth estimate ("aims to saturate the link" without congesting
it).  Its coordination concerns, from the paper:

* **Pacing** — the sender keeps the link *backlogged but bounded*: it
  transmits whenever the link's queueing delay is below
  ``max_backlog_s`` (modelling a transport that keeps the pipe full
  with a small send buffer).  A saturated link is what makes the
  client's measured receive rate equal true capacity — the §5.4
  observation that bandwidth "can be accurately estimated ... in
  backlogged settings".  Pacing *at* the estimate instead would be
  self-limiting: the client would only ever measure the paced rate, and
  the estimate could never recover upward.  A user-configured bandwidth
  cap (§B.2) adds explicit ``size / cap`` spacing on top.
* **Fetch-ahead** — queue depth buys exactly one thing: backend fetches
  issued early enough that their latency (tens to hundreds of ms)
  overlaps transmission instead of serializing with it.  So the depth
  follows demand.  While some queued request's response is not yet in
  the backend cache the pipeline fills to ``lookahead``, issuing those
  fetches concurrently (the backend dedupes in-flight ones); once
  everything queued is cached it holds only :data:`READY_WINDOW` blocks,
  topped up by one draw per send, so a send never waits on a draw and
  nothing is drawn further ahead than the link will carry.  The draws
  are the same ``schedule_batch`` stream either way — only how far
  ahead of the wire it is read changes.
* **Preemption** (§5.3.2) — when a new prediction arrives, the unsent
  pipeline is handed back to the scheduler
  (:meth:`GreedyScheduler.rollback`) and re-decided; blocks already on
  the wire are not recalled.  Every block handed back was drawn for
  nothing, which is what the short ready window keeps small.
* **Backend throttle** (§5.4) — with a concurrency-limited backend, a
  :class:`~repro.core.throttle.BackendThrottle` caps how many
  *distinct new* requests the pipeline may fetch at once; excess blocks
  are deferred back to the scheduler at the next refresh.
* **Idle** — an empty fill that did not defer means the scheduler is
  exhausted, and its answer changes only with its state.  Every such
  change already re-pumps the sender: a new distribution
  (:meth:`resume`), a rollback (its caller resumes or keeps filling),
  the sender's own send, and a mirror ``clear()``, which the sender's
  evict listener turns into a :meth:`resume`.  Per-request evictions
  fire mid-:meth:`_transmit`, before ``on_sent``, where a pump would
  count the block twice, so the listener ignores them.  A §5.4
  deferral is not exhaustion (a re-draw may land on a response that
  needs no new slot), so it re-draws every :data:`DEFER_RETRY_S`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # backends sit above core
    from repro.backends.base import Backend

from repro.core.blocks import Block, ProgressiveResponse
from repro.core.cache import RingBufferCache
from repro.core.scheduler import ScheduledBlock, Scheduler
from repro.core.throttle import BackendThrottle
from repro.sim.bandwidth import HarmonicMeanEstimator
from repro.clock import Clock
from repro.sim.link import Link

__all__ = ["Sender", "READY_WINDOW"]

#: Pipeline depth while every queued response is already in the backend
#: cache.  Refill-on-send keeps it topped up, so it only has to cover
#: the sends between two pumps; ``lookahead`` below it still caps.
READY_WINDOW = 4

#: Re-draw period after a §5.4 deferral that left the pipeline empty
#: (the one idle state that time, not an event, resolves).
DEFER_RETRY_S = 0.005


class Sender:
    """Paced, pipelined block pusher.

    ``deliver`` receives each :class:`~repro.core.blocks.Block` at the
    client (after link serialization + propagation).
    """

    def __init__(
        self,
        sim: Clock,
        scheduler: Scheduler,
        backend: "Backend",
        link: Link,
        estimator: HarmonicMeanEstimator,
        deliver: Callable[[Block], None],
        mirror: Optional[RingBufferCache] = None,
        throttle: Optional[BackendThrottle] = None,
        lookahead: int = 32,
        max_backlog_s: float = 0.020,
    ) -> None:
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if max_backlog_s <= 0:
            raise ValueError("max backlog must be positive")
        self.sim = sim
        self.scheduler = scheduler
        self.backend = backend
        self.link = link
        self.estimator = estimator
        self.deliver = deliver
        self.mirror = mirror
        self.throttle = throttle
        self.lookahead = lookahead
        self.max_backlog_s = max_backlog_s

        self._pipeline: deque[ScheduledBlock] = deque()
        # Per-request pipeline occupancy, maintained on every append /
        # popleft / clear so _admit's "already holds a slot" membership
        # test is O(1) instead of an O(lookahead) scan.
        self._pipeline_counts: dict[int, int] = {}
        # Queued requests still awaiting the backend: added when a block
        # enters the pipeline uncached, dropped when its fetch completes
        # (or the request leaves the pipeline), so the fill's depth rule
        # is a truth test, not a scan per pump.
        self._awaiting: set[int] = set()
        self._ready_depth = min(lookahead, READY_WINDOW)
        self._next_send_time = 0.0
        self._send_scheduled = False
        self._idle_timer = None
        self._started = False
        if mirror is not None:  # after the scheduler's: it rebuilds first
            mirror.add_evict_listener(self._on_mirror_evict)

        self.blocks_sent = 0
        self.bytes_sent = 0
        self.blocks_deferred = 0
        self.blocks_skipped = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Begin pushing (typically at simulation time zero)."""
        self._started = True
        self._pump()

    def refresh(self) -> None:
        """Re-decide the unsent tail under the scheduler's current
        distribution.  A new prediction goes through
        :meth:`~repro.core.server.KhameleonServer.apply_distribution`,
        which installs it between the two halves of this."""
        blocks = self.take_pipeline()
        if blocks:
            self.scheduler.rollback(blocks)
        self.resume()

    def take_pipeline(self) -> list[ScheduledBlock]:
        """Hand back the unsent pipeline without rescheduling.

        First half of a preemption (§5.3.2): the caller rolls the blocks
        back, installs whatever changed, and calls :meth:`resume`.
        """
        if not self._pipeline:
            return []
        blocks = list(self._pipeline)
        self._pipeline.clear()
        self._pipeline_counts.clear()
        self._awaiting.clear()
        return blocks

    def resume(self) -> None:
        """Restart the fill/send loop after an external preemption."""
        if self._started:
            self._pump()

    def stop(self) -> None:
        """Stop pushing: no further sends; in-flight deliveries land.

        Used at end of experiment so the client cache can quiesce to
        the mirror's state (the mirror records blocks at send time, the
        client at delivery time).
        """
        self._started = False
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    # -- pipeline ------------------------------------------------------

    def _fill_pipeline(self) -> bool:
        """Top the pipeline up to the depth the backend's state calls for.

        The target is ``lookahead`` while a queued request still awaits
        the backend and the ready window otherwise; it is re-read after
        every pull, so an uncached draw landing in a shallow pipeline
        deepens it within the same call.  Each pull is one
        ``schedule_batch`` (bit-identical to a ``next_block`` loop, so
        how the stream is cut into pulls never changes it).

        Applies the §5.4 throttle: a block needing a *new* backend fetch
        is only admitted while backend slots remain; otherwise it — and
        the rest of the freshly drawn window — is rolled back for
        rescheduling and the fill stops (the schedule is ordered —
        skipping ahead would reorder the stream).  Returns whether it
        deferred.
        """
        while True:
            depth = self.lookahead if self._awaiting else self._ready_depth
            want = depth - len(self._pipeline)
            if want <= 0:
                return False
            if self.throttle is not None:
                # A deferral rolls the window's tail back, and rollback
                # cannot cross a batch reset (the reset clears the
                # per-batch counts).  Cap each pull at the scheduler's
                # remaining batch so a window never straddles one; the
                # outer loop keeps filling across the boundary.
                want = min(
                    want, max(1, self.scheduler.C - self.scheduler.position)
                )
            blocks = self.scheduler.schedule_batch(want)
            for i, block in enumerate(blocks):
                if self.throttle is not None and not self._admit(block):
                    self.scheduler.rollback(blocks[i:])
                    self.blocks_deferred += 1
                    return True
                self._append_pipeline(block)
                self._ensure_fetch(block.request)
            if len(blocks) < want:
                return False

    def _append_pipeline(self, block: ScheduledBlock) -> None:
        self._pipeline.append(block)
        counts = self._pipeline_counts
        counts[block.request] = counts.get(block.request, 0) + 1

    def _pop_pipeline_head(self) -> ScheduledBlock:
        block = self._pipeline.popleft()
        counts = self._pipeline_counts
        remaining = counts[block.request] - 1
        if remaining:
            counts[block.request] = remaining
        else:
            del counts[block.request]
            self._awaiting.discard(block.request)
        return block

    def _admit(self, block: ScheduledBlock) -> bool:
        # §5.4: "cached or in flight" counts as materialized — an
        # in-flight fetch already holds its backend slot, so re-admitting
        # the request (e.g. after refresh() cleared the pipeline) must
        # not be deferred or take a second slot.
        return (
            self.backend.is_materialized(block.request)
            or self._pipeline_counts.get(block.request, 0) > 0
            or self.throttle.available_slots > 0
        )

    def _ensure_fetch(self, request: int) -> None:
        if self.backend.is_cached(request):
            # Count the avoided fetch: reuse of a cached response must
            # show up in the backend's hit accounting (it never reaches
            # fetch(), which only sees uncached/in-flight requests).
            self.backend.stats.cache_hits += 1
            return
        self._awaiting.add(request)
        self.backend.fetch(request, self._on_fetched)

    def _on_fetched(self, response: ProgressiveResponse) -> None:
        self._awaiting.discard(response.request)
        self._pump()

    def _pump(self) -> None:
        """Advance: fill the window, then send the head when ready."""
        if not self._started:
            return
        deferred = self._fill_pipeline()
        if not self._pipeline:
            if deferred:
                self._arm_defer_retry()
            return  # exhausted: sleep until a state change re-pumps
        head = self._pipeline[0]
        response = self.backend.cached(head.request)
        if response is None:
            return  # head fetch in flight; _on_fetched re-pumps
        if self._send_scheduled:
            return
        when = max(self.sim.now, self._next_send_time)
        self._send_scheduled = True
        self.sim.schedule_at(when, self._transmit)

    def _transmit(self) -> None:
        self._send_scheduled = False
        if not self._started:
            # stop() cannot cancel an already-scheduled transmit event;
            # honour the "no further sends" contract here instead.
            return
        if not self._pipeline:
            self._pump()
            return
        head = self._pipeline[0]
        response = self.backend.cached(head.request)
        if response is None:
            self._pump()
            return
        if head.index >= response.num_blocks:
            # Scheduler raced ahead of a shrunken response; skip the
            # slot.  The allocation is deliberately NOT rolled back:
            # releasing it would let the scheduler re-draw the same
            # impossible (request, index) forever, while retiring the
            # pending count drives the request's marginal gain to zero
            # after at most its remaining block budget — the sampler
            # then steers elsewhere on its own.  (Unreachable with the
            # built-in backends, whose responses share the GainTable's
            # encoder; counted for visibility.)
            self._pop_pipeline_head()
            self.blocks_skipped += 1
            self._pump()
            return
        # Keep the link backlogged but bounded: defer while the send
        # buffer (link queue) holds more than max_backlog_s of data.
        # The slack tolerance and minimum wait keep float dust from
        # producing a defer too small to advance the virtual clock.
        slack = self.link.queue_delay() - self.max_backlog_s
        if slack > 1e-9:
            self._send_scheduled = True
            self.sim.schedule(max(slack, 1e-6), self._transmit)
            return
        block = response.blocks[head.index]
        self._pop_pipeline_head()
        start = self.sim.now
        self.link.send(block.size_bytes, self._on_delivered, block)
        if self.mirror is not None:
            self.mirror.put(block)
        self.scheduler.on_sent(head)
        self.blocks_sent += 1
        self.bytes_sent += block.size_bytes
        # Explicit rate pacing only under a user-configured cap (§B.2).
        cap = self.estimator.cap_bytes_per_s
        if cap is not None:
            self._next_send_time = start + block.size_bytes / cap
        self._pump()

    def _on_delivered(self, block: Block) -> None:
        self.deliver(block)

    def _on_mirror_evict(self, request: Optional[int]) -> None:
        if request is None:  # a clear: requests may be incomplete again
            self.resume()

    def _arm_defer_retry(self) -> None:
        if self._idle_timer is not None and not self._idle_timer.cancelled:
            return
        self._idle_timer = self.sim.schedule(DEFER_RETRY_S, self._idle_tick)

    def _idle_tick(self) -> None:
        self._idle_timer = None
        self._pump()
