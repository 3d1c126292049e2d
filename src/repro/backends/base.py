"""Backend API (§3.3, §5.4).

A backend is "a file system, a database engine, a connection pool, or
any service that can process requests and return progressively encoded
blocks".  The sender asks a backend for a request's response; the
backend completes asynchronously on the simulator clock, modelling its
processing delay, and the server caches the encoded result so repeat
fetches are free.

Backends report their *scalable concurrency* (§5.4): how many requests
they can process at once without per-request degradation.  File
systems and key-value stores are effectively unbounded; PostgreSQL in
the Falcon experiments degrades beyond ~15 concurrent queries, which
is what the scheduler's throttle heuristic consumes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.clock import Clock
from repro.core.blocks import ProgressiveResponse

__all__ = ["Backend", "BackendFetchError", "BackendStats", "BackendWrapper"]

OnComplete = Callable[[ProgressiveResponse], None]


class BackendFetchError(RuntimeError):
    """A fetch attempt failed before the backend accepted it.

    Raised synchronously from ``fetch`` by fault-injecting wrappers
    (``repro.sim.failures.ErraticBackend``); retry wrappers catch it
    and reschedule on the clock instead of letting it propagate into
    the sender.
    """

    def __init__(self, request: int, message: str = "") -> None:
        super().__init__(message or f"fetch failed for request {request}")
        self.request = request


class BackendStats:
    """Counters shared by all backends (for experiment reporting)."""

    def __init__(self) -> None:
        self.fetches_started = 0
        self.fetches_completed = 0
        self.cache_hits = 0
        self.piggybacked = 0
        self.peak_concurrency = 0

    @property
    def shared_hits(self) -> int:
        """Fetches answered without new backend work (cache + piggyback).

        With several sessions sharing one backend this counts the
        cross-session dedup benefit: a fetch that found the response
        cached, or joined another session's in-flight fetch.
        """
        return self.cache_hits + self.piggybacked

    def snapshot(self) -> dict:
        return {
            "fetches_started": self.fetches_started,
            "fetches_completed": self.fetches_completed,
            "cache_hits": self.cache_hits,
            "piggybacked": self.piggybacked,
            "peak_concurrency": self.peak_concurrency,
        }


class Backend:
    """Base backend: async fetch with a server-side response cache."""

    def __init__(self, sim: Clock) -> None:
        self.sim = sim
        self.stats = BackendStats()
        self._cache: dict[int, ProgressiveResponse] = {}
        self._inflight: dict[int, list[OnComplete]] = {}

    # -- subclass contract -------------------------------------------

    def _produce(self, request: int) -> ProgressiveResponse:
        """Compute/encode the response (synchronously, at completion time)."""
        raise NotImplementedError

    def _delay_s(self, request: int) -> float:
        """Processing delay for ``request`` given current load."""
        raise NotImplementedError

    @property
    def scalable_concurrency(self) -> Optional[int]:
        """Concurrent requests handled without degradation (None = unbounded)."""
        return None

    # -- public API ----------------------------------------------------

    @property
    def active_requests(self) -> int:
        """Requests currently being processed."""
        return len(self._inflight)

    def is_cached(self, request: int) -> bool:
        return request in self._cache

    def is_inflight(self, request: int) -> bool:
        """True while a fetch for ``request`` is being processed."""
        return request in self._inflight

    def is_materialized(self, request: int) -> bool:
        """Cached or in flight — the §5.4 throttle's admission rule."""
        return request in self._cache or request in self._inflight

    def cached(self, request: int) -> Optional[ProgressiveResponse]:
        return self._cache.get(request)

    def fetch(self, request: int, on_complete: OnComplete) -> None:
        """Request the encoded response; completion is asynchronous.

        A cached response completes on the next simulator step (cost 0);
        a fetch already in flight for the same request piggybacks on it
        rather than issuing a duplicate.
        """
        hit = self._cache.get(request)
        if hit is not None:
            self.stats.cache_hits += 1
            self.sim.schedule(0.0, on_complete, hit)
            return
        waiting = self._inflight.get(request)
        if waiting is not None:
            self.stats.piggybacked += 1
            waiting.append(on_complete)
            return
        self._inflight[request] = [on_complete]
        self.stats.fetches_started += 1
        self.stats.peak_concurrency = max(self.stats.peak_concurrency, len(self._inflight))
        self._start(request)

    def _start(self, request: int) -> None:
        """Begin producing ``request``'s response, ending in one
        :meth:`_complete`: by default one delay, then :meth:`_produce`."""
        self.sim.schedule(self._delay_s(request), self._complete, request)

    def _complete(self, request: int, response: Optional[ProgressiveResponse] = None) -> None:
        if response is None:
            response = self._produce(request)
        self._cache[request] = response
        callbacks = self._inflight.pop(request, [])
        self.stats.fetches_completed += 1
        for cb in callbacks:
            cb(response)

    def evict(self, request: int) -> None:
        """Drop a cached response (for bounded server memory tests)."""
        self._cache.pop(request, None)


class BackendWrapper:
    """Delegating base for backends that wrap another backend.

    Implements the full ``Backend`` surface the sender/fleet stack
    consumes (stats, concurrency, cache/in-flight introspection,
    fetch/evict) as pass-throughs, so fault injectors and retry layers
    only override the behavior they change.  Wrappers compose: a
    retry layer can wrap a fault injector wrapping a real backend.
    """

    def __init__(self, inner: "Backend | BackendWrapper") -> None:
        self.inner = inner
        self.sim: Clock = inner.sim

    @property
    def stats(self) -> BackendStats:
        return self.inner.stats

    @property
    def active_requests(self) -> int:
        return self.inner.active_requests

    @property
    def scalable_concurrency(self) -> Optional[int]:
        return self.inner.scalable_concurrency

    def is_cached(self, request: int) -> bool:
        return self.inner.is_cached(request)

    def is_inflight(self, request: int) -> bool:
        return self.inner.is_inflight(request)

    def is_materialized(self, request: int) -> bool:
        return self.inner.is_materialized(request)

    def cached(self, request: int) -> Optional[ProgressiveResponse]:
        return self.inner.cached(request)

    def evict(self, request: int) -> None:
        self.inner.evict(request)

    def fetch(self, request: int, on_complete: OnComplete) -> None:
        self.inner.fetch(request, on_complete)
