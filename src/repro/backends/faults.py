"""Backend fault injection for robustness testing.

A production backend sees failed fetches and latency spikes that the
paper's evaluation never does.  :class:`ErraticBackend` injects such
faults around any backend without touching it, so the test suite can
assert that Khameleon *degrades* (lower utility, later upcalls) instead
of deadlocking or crashing: a deterministic fraction of fetches raise
:class:`BackendFetchError` (for :mod:`repro.backends.retry` to absorb)
or suffer a latency spike before being accepted.

All injection decisions are drawn from crc32 hashes of a seed and a
per-fetch counter — deterministic across processes and across the
``Simulator`` / ``WallClock`` drivers, unlike Python's per-process
salted ``hash``.  Link outages live in :mod:`repro.sim.failures`.
"""

from __future__ import annotations

import zlib

from repro.backends.base import Backend, BackendFetchError, BackendWrapper, OnComplete

__all__ = ["ErraticBackend"]


class ErraticBackend(BackendWrapper):
    """Backend wrapper injecting hard errors and latency spikes.

    An injected error *raises* :class:`BackendFetchError` from
    ``fetch`` — the caller is expected to sit behind a
    :class:`~repro.backends.retry.RetryingBackend` that absorbs it.  A
    spiked fetch reaches the inner backend ``spike_s`` late, so it
    completes at ``spike_s`` plus the backend's own delay.  Cached and
    in-flight requests are neither failed nor spiked: the inner backend
    would answer them without new work, so injecting a fault there would
    model one the real system cannot have.

    Draws are deterministic functions of ``(seed, fetch_count)`` via
    crc32, so a given seed yields the same fault schedule in every
    process and under both clock drivers.
    """

    def __init__(
        self,
        inner: Backend | BackendWrapper,
        error_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_s: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if not 0.0 <= spike_rate <= 1.0:
            raise ValueError("spike_rate must be in [0, 1]")
        if spike_s < 0:
            raise ValueError("spike_s must be non-negative")
        super().__init__(inner)
        self.error_rate = error_rate
        self.spike_rate = spike_rate
        self.spike_s = spike_s
        self.seed = seed
        self.errors_injected = 0
        self.spikes_injected = 0
        self._fetch_count = 0

    def _draw(self, label: str, count: int) -> float:
        digest = zlib.crc32(f"{self.seed}:{label}:{count}".encode()) & 0xFFFFFFFF
        return digest / 2**32

    def fetch(self, request: int, on_complete: OnComplete) -> None:
        self._fetch_count += 1
        count = self._fetch_count
        if not self.inner.is_materialized(request):
            if self.error_rate > 0.0 and self._draw("err", count) < self.error_rate:
                self.errors_injected += 1
                raise BackendFetchError(request, f"injected error #{self.errors_injected}")
            if self.spike_rate > 0.0 and self._draw("spike", count) < self.spike_rate:
                self.spikes_injected += 1
                self.sim.schedule(self.spike_s, self.inner.fetch, request, on_complete)
                return
        self.inner.fetch(request, on_complete)
