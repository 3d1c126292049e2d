"""Backend-scalability throttle (§5.4).

Khameleon assumes scalable backends, but "in cases where the backend
can only scale to a limited number of requests, Khameleon employs a
heuristic to limit the amount of speculation": with a backend that
scales to ``C`` concurrent requests and ``n`` currently processing,
schedules are post-processed so they "do not refer to blocks from more
than ``C - n`` distinct requests" — backend limits are treated the
same way as network constraints.

:class:`BackendThrottle` holds that budget; the
:class:`~repro.core.sender.Sender` applies it while filling its
pipeline: blocks whose responses are already materialized pass through
freely, and a block needing a *new* backend fetch is admitted only
while ``C - n`` is positive — otherwise it and the rest of its window
are rolled back for rescheduling.  A fleet shares one throttle among
all its sessions.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["BackendThrottle"]


class BackendThrottle:
    """Stateful §5.4 throttle bound to a backend's live counters.

    ``capacity`` is the offline-benchmarked scalable concurrency
    (``C``); ``active`` is a callable returning the number of requests
    the backend is currently processing (``n``).
    """

    def __init__(self, capacity: int, active: Callable[[], int]) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._active = active

    @property
    def available_slots(self) -> int:
        return max(0, self.capacity - self._active())
