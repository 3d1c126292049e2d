"""Traditional request-response architecture (§3.1, §6.1 baselines).

The pull-based workflow of Figure 2(a): user requests go out over the
uplink, the server fetches the full response from the backend, and the
response contends for the shared downlink with every other in-flight
response.  This module implements that loop over the same simulated
network substrate Khameleon runs on, plus the two §6.1 variants built
from it:

* **Baseline** (``variant="full"``): fetches complete responses.
  Utility is always 1 — at the price of serialization delay and
  congestion when responses queue behind each other.
* **Progressive** (``variant="first_block"``): fetches only block 0 of
  each response.  Utility drops to ``U(1/Nb)`` but transfers shrink by
  ``Nb``× (the Fig. 11 "cache amplification" arm).

Prefetching baselines attach an :class:`~repro.baselines.acc.ACCPrefetcher`
to the session; prefetched responses fill the same LRU cache.

Preemptive-interaction semantics match the Khameleon client: an upcall
for logical timestamp ``T`` drops all pending requests older than ``T``
(§2), and metrics count those as preempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.backends.base import Backend
from repro.core.blocks import ProgressiveResponse
from repro.core.cache import LRUCache
from repro.core.cache_manager import RequestOutcome, Upcall
from repro.core.utility import UtilityFunction
from repro.sim.engine import Simulator
from repro.sim.link import ControlChannel, Link

__all__ = ["ClassicConfig", "ClassicSession", "CachedResponse"]


@dataclass(frozen=True)
class CachedResponse:
    """What the LRU cache stores: a block prefix of a response."""

    request: int
    blocks: int
    total_blocks: int
    size_bytes: int

    @property
    def fraction(self) -> float:
        return self.blocks / self.total_blocks


@dataclass
class ClassicConfig:
    """Knobs for the request-response systems (§6.1 defaults)."""

    cache_bytes: int = 50_000_000
    variant: str = "full"  # "full" | "first_block"

    def __post_init__(self) -> None:
        if self.cache_bytes <= 0:
            raise ValueError("cache must be positive")
        if self.variant not in ("full", "first_block"):
            raise ValueError(f"unknown variant {self.variant!r}")


class ClassicSession:
    """A wired request-response client/server pair.

    The session exposes the same observable surface as
    :class:`~repro.core.session.KhameleonSession` — ``request()``,
    ``outcomes``, upcalls — so the experiment runner and metrics
    collector treat both uniformly.
    """

    def __init__(
        self,
        sim: Simulator,
        backend: Backend,
        utility: UtilityFunction,
        num_blocks_of: Callable[[int], int],
        downlink: Link,
        uplink: ControlChannel,
        config: Optional[ClassicConfig] = None,
        on_upcall: Optional[Callable[[Upcall], None]] = None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        self.utility = utility
        self.num_blocks_of = num_blocks_of
        self.downlink = downlink
        self.uplink = uplink
        self.config = config or ClassicConfig()
        self.on_upcall = on_upcall

        self.cache = LRUCache(self.config.cache_bytes)
        self._next_ts = 0
        self._pending: dict[int, RequestOutcome] = {}  # logical ts -> outcome
        self._outstanding: set[int] = set()  # request ids awaiting a response
        self.outcomes: list[RequestOutcome] = []

        self.requests_sent = 0
        self.prefetches_sent = 0
        self.responses_received = 0
        self.bytes_received = 0
        self._prefetched_unused: set[int] = set()

    # -- application side ----------------------------------------------

    def request(self, request: int) -> RequestOutcome:
        """Register a user request; hit the LRU cache or go to the server."""
        ts = self._next_ts
        self._next_ts += 1
        outcome = RequestOutcome(
            request=request, logical_ts=ts, registered_at=self.sim.now
        )
        self.outcomes.append(outcome)
        self._prefetched_unused.discard(request)
        cached = self.cache.get(request)
        if cached is not None:
            outcome.cache_hit = True
            self._serve(outcome, cached)
        else:
            self._pending[ts] = outcome
            self._send_request(request, prefetch=False)
        return outcome

    def prefetch(self, request: int) -> bool:
        """Issue a speculative fetch; False if cached or already in flight."""
        if self.cache.peek(request) is not None or request in self._outstanding:
            return False
        self._prefetched_unused.add(request)
        self._send_request(request, prefetch=True)
        return True

    @property
    def outstanding(self) -> int:
        """Requests on the wire without a response yet (§6.1 threshold)."""
        return len(self._outstanding)

    # -- request/response loop -------------------------------------------

    def _send_request(self, request: int, prefetch: bool) -> None:
        if request in self._outstanding:
            return  # piggyback on the in-flight fetch
        self._outstanding.add(request)
        if prefetch:
            self.prefetches_sent += 1
        else:
            self.requests_sent += 1
        self.uplink.send(self._server_on_request, request)

    def _server_on_request(self, request: int) -> None:
        """Server endpoint: backend fetch, then stream the response."""
        self.backend.fetch(request, lambda resp: self._server_send(request, resp))

    def _server_send(self, request: int, response: ProgressiveResponse) -> None:
        if self.config.variant == "first_block":
            blocks = 1
        else:
            blocks = response.num_blocks
        nbytes = sum(b.size_bytes for b in response.blocks[:blocks])
        entry = CachedResponse(
            request=request,
            blocks=blocks,
            total_blocks=response.num_blocks,
            size_bytes=nbytes,
        )
        self.downlink.send(nbytes, self._client_on_response, entry)

    def _client_on_response(self, entry: CachedResponse) -> None:
        self.responses_received += 1
        self.bytes_received += entry.size_bytes
        self._outstanding.discard(entry.request)
        self.cache.put(entry.request, entry, entry.size_bytes)
        # Serve the newest pending request for this id (serving preempts
        # the older ones regardless).
        match = None
        for ts in sorted(self._pending, reverse=True):
            if self._pending[ts].request == entry.request:
                match = self._pending[ts]
                break
        if match is not None:
            self._serve(match, entry)

    # -- internals --------------------------------------------------------

    def _serve(self, outcome: RequestOutcome, entry: CachedResponse) -> None:
        now = self.sim.now
        nb = self.num_blocks_of(outcome.request)
        outcome.served_at = now
        outcome.blocks_at_upcall = entry.blocks
        outcome.utility_at_upcall = float(self.utility(min(entry.blocks, nb) / nb))
        self._pending.pop(outcome.logical_ts, None)
        for ts in [t for t in self._pending if t < outcome.logical_ts]:
            self._pending.pop(ts).preempted = True
        if self.on_upcall is not None:
            self.on_upcall(
                Upcall(
                    request=outcome.request,
                    logical_ts=outcome.logical_ts,
                    time_s=now,
                    blocks_available=entry.blocks,
                    utility=outcome.utility_at_upcall,
                )
            )

    # -- metrics hooks ------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def unused_prefetches(self) -> int:
        """Prefetched responses never consumed by a user request."""
        return len(self._prefetched_unused)

    def finalize(self) -> None:
        """Drop still-pending requests at end of run (never served)."""
        self._pending.clear()
