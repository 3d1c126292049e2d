"""File-system backend (§3.3).

The image application "pre-loads the file system with the blocks for
progressively encoded images": fetching is a fixed, predictable delay
and the store scales to arbitrarily many concurrent reads — the
paper's default backend assumptions (§3.3, "By default, we assume that
retrieving blocks from the backend incurs a predictable delay ...
and that the backend is scalable").

A completed fetch makes the response *available* — its block count and
size are known — and the sender then reads the one block the schedule
names; a block exists once read (:class:`~repro.core.blocks.BlockSequence`),
the way a pre-loaded file system hands out the files that are opened.
"""

from __future__ import annotations

from typing import Optional

from repro.core.blocks import ProgressiveResponse
from repro.encoding.base import ProgressiveEncoder
from repro.clock import Clock

from .base import Backend

__all__ = ["FileSystemBackend"]


class FileSystemBackend(Backend):
    """Pre-encoded responses behind a fixed fetch delay.

    ``encoder.encode(request, None)`` is invoked at completion and
    describes the response; each block is built when the sender reads
    it — equivalent to reading pre-encoded blocks off disk.  The fetch delay
    models the backend-processing share of the experiments' "request
    latency" knob (§6.1 splits request latency into network latency +
    simulated backend processing cost).
    """

    def __init__(
        self,
        sim: Clock,
        encoder: ProgressiveEncoder,
        fetch_delay_s: float = 0.0,
    ) -> None:
        if fetch_delay_s < 0:
            raise ValueError("fetch delay must be non-negative")
        super().__init__(sim)
        self.encoder = encoder
        self.fetch_delay_s = fetch_delay_s

    def _produce(self, request: int) -> ProgressiveResponse:
        return self.encoder.encode(request, None)

    def _delay_s(self, request: int) -> float:
        return self.fetch_delay_s

    @property
    def scalable_concurrency(self) -> Optional[int]:
        return None  # unbounded

