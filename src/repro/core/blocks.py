"""Progressive response blocks (§3.3).

Khameleon models every response as an ordered list of fixed-size
blocks: any prefix renders a (possibly lower-quality) result, and the
full list renders the complete result.  A single block is a complete —
if coarse — response.  Requests are integers in ``[0, n)``.

A fetch makes a response *available*; the sender then reads the one
block the schedule names (§3.3's image application "pre-loads the file
system with the blocks").  An encoded response therefore carries its
blocks as a :class:`BlockSequence`: block ``i`` comes into existence the
first time it is read, and a response the scheduler hedged on but never
sent costs a descriptor, not ``Nb`` blocks.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence, Union

__all__ = ["Block", "BlockSequence", "ProgressiveResponse"]


@dataclass(frozen=True, slots=True)
class Block:
    """One block of a progressively encoded response.

    ``request`` is the request id, ``index`` the block's position in the
    encoding (0-based: block 0 alone is a renderable coarse response),
    ``size_bytes`` its on-the-wire size (encoders pad short final blocks
    to keep sizes uniform, per §3.3), and ``payload`` opaque application
    data (sampled rows, an image scan, ...).
    """

    request: int
    index: int
    size_bytes: int
    payload: Any = field(default=None, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.request < 0:
            raise ValueError(f"request id must be non-negative (got {self.request})")
        if self.index < 0:
            raise ValueError(f"block index must be non-negative (got {self.index})")
        if self.size_bytes <= 0:
            raise ValueError(f"block size must be positive (got {self.size_bytes})")


class BlockSequence(SequenceABC):
    """Blocks ``0..count-1`` of one request, each built when first read.

    Every block is ``size_bytes`` on the wire (encoders pad, §3.3) and
    carries ``payload_of(index)``.  Reading index ``i`` builds
    ``Block(request, i, size_bytes, payload_of(i))`` once — through
    ``Block.__post_init__`` like any other block — and keeps it, so the
    cache mirror and the link hold the same object.  Reads like a tuple:
    ``len``, int / negative / slice indexing (a slice is a tuple of
    blocks), iteration, and ``==`` against a tuple or another sequence
    of blocks.
    """

    __slots__ = ("request", "size_bytes", "_payload_of", "_built")

    def __init__(
        self,
        request: int,
        count: int,
        size_bytes: int,
        payload_of: Callable[[int], Any],
    ) -> None:
        if request < 0:
            raise ValueError(f"request id must be non-negative (got {request})")
        if count < 1:
            raise ValueError(f"a response needs at least one block (got {count})")
        if size_bytes <= 0:
            raise ValueError(f"block size must be positive (got {size_bytes})")
        self.request = request
        self.size_bytes = size_bytes
        self._payload_of = payload_of
        self._built: list[Optional[Block]] = [None] * count

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i: Union[int, slice]) -> Union[Block, tuple[Block, ...]]:
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self._built)))))
        block = self._built[i]
        if block is None:
            i = range(len(self._built))[i]  # a plain int in [0, count)
            block = self._built[i] = Block(
                self.request, i, self.size_bytes, self._payload_of(i)
            )
        return block

    def __iter__(self) -> Iterator[Block]:
        return map(self.__getitem__, range(len(self._built)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (BlockSequence, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return (
            f"BlockSequence(request={self.request}, count={len(self._built)}, "
            f"size_bytes={self.size_bytes})"
        )


@dataclass(frozen=True, slots=True)
class ProgressiveResponse:
    """A full progressively encoded response: blocks 0..Nb-1 of one request.

    ``blocks`` is a :class:`BlockSequence` for encoded responses (coherent
    by construction) or a hand-built tuple, whose request ids and indices
    are verified here.
    """

    request: int
    blocks: Sequence[Block]

    def __post_init__(self) -> None:
        blocks = self.blocks
        if isinstance(blocks, BlockSequence):
            if blocks.request != self.request:
                raise ValueError(
                    f"blocks belong to request {blocks.request}, not {self.request}"
                )
            return
        if not blocks:
            raise ValueError("a response needs at least one block")
        for i, block in enumerate(blocks):
            if block.request != self.request:
                raise ValueError(
                    f"block {i} belongs to request {block.request}, not {self.request}"
                )
            if block.index != i:
                raise ValueError(f"block at position {i} has index {block.index}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_bytes(self) -> int:
        blocks = self.blocks
        if isinstance(blocks, BlockSequence):
            return len(blocks) * blocks.size_bytes
        return sum(b.size_bytes for b in blocks)

    def prefix(self, k: int) -> tuple[Block, ...]:
        """The first ``k`` blocks (a renderable lower-quality response)."""
        if not 0 <= k <= len(self.blocks):
            raise ValueError(f"prefix length {k} out of range [0, {len(self.blocks)}]")
        return self.blocks[:k]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

