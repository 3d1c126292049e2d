"""Progressive encoder API (§3.3, §3.4).

An encoder turns an application response into a
:class:`~repro.core.blocks.ProgressiveResponse`: an ordered list of
fixed-size blocks where any prefix renders a lower-quality result.
Block sizes are kept uniform — the paper pads smaller blocks — because
uniform sizes are what make the client ring-buffer cache state a pure
function of the block sequence (and hence mirrorable by the server).

Encoding describes the blocks — how many, how large, what block ``i``
carries — and a block exists once something reads it
(:class:`~repro.core.blocks.BlockSequence`): the scheduler hedges across
far more responses than the link carries, so most encoded responses are
never read past their block count.

Encoders also declare how many blocks a given request will produce
(:meth:`ProgressiveEncoder.num_blocks`) so the scheduler can size its
utility-gain tables without fetching anything.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.blocks import BlockSequence, ProgressiveResponse

__all__ = ["ProgressiveEncoder", "padded_block_count", "split_padded"]


def padded_block_count(total_bytes: int, block_size: int) -> int:
    """``ceil(total/block_size)``, at least 1: blocks needed for
    ``total_bytes`` when the final short block is padded up (§3.3)."""
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return max(1, -(-total_bytes // block_size))


def split_padded(total_bytes: int, block_size: int) -> list[int]:
    """Split ``total_bytes`` into equal padded block sizes.

    Returns :func:`padded_block_count` entries, all equal to
    ``block_size``.
    """
    return [block_size] * padded_block_count(total_bytes, block_size)


class ProgressiveEncoder:
    """Base encoder: application data → progressive block list."""

    def num_blocks(self, request: int) -> int:
        """Block count for ``request`` (known without encoding)."""
        raise NotImplementedError

    def encode(self, request: int, data: Any) -> ProgressiveResponse:
        """Encode ``data`` into blocks for ``request``."""
        raise NotImplementedError

    def _build(
        self,
        request: int,
        count: int,
        size_bytes: int,
        payload_of: Callable[[int], Any],
    ) -> ProgressiveResponse:
        """A response of ``count`` blocks of ``size_bytes`` each, block
        ``i`` carrying ``payload_of(i)`` — called when ``i`` is first read.

        Raises ``ValueError`` for a negative request, ``count < 1`` or a
        non-positive size.
        """
        return ProgressiveResponse(
            request, BlockSequence(request, count, size_bytes, payload_of)
        )
