"""Deadline/retry/backoff fetch path.

A production backend fails: transient query errors, connection resets,
overload rejections.  :class:`RetryingBackend` wraps any backend and
turns synchronous :class:`BackendFetchError` failures into scheduled
retries with exponential backoff and deterministic jitter, bounded by
an attempt budget and a wall deadline.  It is built purely on the
``Clock`` seam (``sim.now`` / ``sim.schedule``), so the same policy
runs identically under the discrete-event ``Simulator`` and the
asyncio ``WallClock``.

When the budget or deadline is exhausted the fetch is *abandoned*: the
callback never fires, the abandonment is counted, and the rest of the
stack degrades instead of hanging — the sender's pump stalls only
until the next prediction refresh re-requests the block.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.backends.base import BackendFetchError, BackendWrapper, OnComplete

__all__ = ["RetryPolicy", "RetryingBackend"]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how often to retry a failed fetch.

    ``backoff_s(request, attempt)`` is deterministic: the jitter term
    is derived from a crc32 hash of ``(request, attempt)``, not from a
    live RNG, so a simulated run and a wall-clock run of the same
    fault schedule retry at identical offsets.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    deadline_s: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, request: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based) of ``request``."""
        base = self.base_backoff_s * self.backoff_factor ** (attempt - 1)
        base = min(base, self.max_backoff_s)
        if self.jitter == 0.0:
            return base
        digest = zlib.crc32(f"{request}:{attempt}".encode()) & 0xFFFFFFFF
        # Spread in [1 - jitter, 1 + jitter), deterministically.
        spread = 1.0 + self.jitter * (2.0 * (digest / 2**32) - 1.0)
        return base * spread


class RetryingBackend(BackendWrapper):
    """Wraps any backend; retries failed fetches on the clock.

    The wrapped backend signals a transient failure by raising
    :class:`BackendFetchError` from ``fetch``.  Cache hits and
    piggybacked fetches never reach the failure path (the inner
    backend answers them before attempting real work), matching the
    :class:`~repro.backends.faults.ErraticBackend` invariant that
    dedup'd fetches are never failed.
    """

    def __init__(self, inner, policy: RetryPolicy | None = None) -> None:
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self.fetches_failed = 0
        self.retries_scheduled = 0
        self.fetches_abandoned = 0

    def snapshot(self) -> dict:
        return {
            "fetches_failed": self.fetches_failed,
            "retries_scheduled": self.retries_scheduled,
            "fetches_abandoned": self.fetches_abandoned,
        }

    def fetch(self, request: int, on_complete: OnComplete) -> None:
        self._attempt(request, on_complete, attempt=1, started_s=self.sim.now)

    def _attempt(
        self, request: int, on_complete: OnComplete, attempt: int, started_s: float
    ) -> None:
        try:
            self.inner.fetch(request, on_complete)
        except BackendFetchError:
            self.fetches_failed += 1
            if attempt >= self.policy.max_attempts:
                self.fetches_abandoned += 1
                return
            delay = self.policy.backoff_s(request, attempt)
            if self.sim.now + delay - started_s > self.policy.deadline_s:
                self.fetches_abandoned += 1
                return
            self.retries_scheduled += 1
            self.sim.schedule(
                delay, self._attempt, request, on_complete, attempt + 1, started_s
            )
