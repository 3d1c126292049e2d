"""Link failure injection for robustness testing.

The paper's evaluation uses well-behaved links; a production
deployment sees outages.  :class:`OutageLink` wraps any link: during
configured outage windows the link's rate drops to (near) zero,
modelling the zero-delivery periods of real cellular traces at
arbitrary severity, so the test suite can assert that Khameleon
*degrades* (lower utility, later upcalls) instead of deadlocking.
Backend faults live in :mod:`repro.backends.faults`.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.link import Link

__all__ = ["OutageLink"]


class OutageLink(Link):
    """A link whose rate collapses during outage windows.

    ``outages`` is a sequence of ``(start_s, end_s)`` windows.  A
    payload whose serialization would start inside a window is stalled
    to the window's end first — the FIFO queue behind it backs up, and
    queueing delay spikes exactly as on a real dead link.
    """

    def __init__(
        self,
        inner: Link,
        outages: Sequence[tuple[float, float]],
    ) -> None:
        super().__init__(inner.sim, inner.propagation_delay_s)
        for start, end in outages:
            if end <= start:
                raise ValueError(f"empty outage window ({start}, {end})")
        self.inner = inner
        self.outages = tuple(sorted(outages))

    def _stall_until(self, time_s: float) -> float:
        for start, end in self.outages:
            if start <= time_s < end:
                return end
        return time_s

    def _transmit_finish(self, start_s: float, nbytes: int) -> float:
        start_s = self._stall_until(start_s)
        finish = self.inner._transmit_finish(start_s, nbytes)
        # A transfer spanning into an outage resumes after it.
        for begin, end in self.outages:
            if start_s < begin < finish:
                finish += end - begin
        return finish

