"""Single-block encoder (§3.4).

The "generic default" from the developer walkthrough: each response is
one block, so a traditional full response is a special case of a
progressive one.  Registering just this encoder already buys the
application push-based scheduling — the scheduler sends the full
requested item first and hedges with whole other items.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.blocks import ProgressiveResponse

from .base import ProgressiveEncoder

__all__ = ["SingleBlockEncoder"]


class SingleBlockEncoder(ProgressiveEncoder):
    """Wraps each response in exactly one block.

    ``size_of(request)`` supplies the response's wire size, so the
    sender can account bandwidth exactly as it would for the original
    (non-progressive) application.
    """

    def __init__(self, size_of: Callable[[int], int]) -> None:
        self.size_of = size_of

    def num_blocks(self, request: int) -> int:
        return 1

    def encode(self, request: int, data: Any) -> ProgressiveResponse:
        return self._build(request, 1, int(self.size_of(request)), lambda i: data)
