"""Client caches (§3.3).

Khameleon's client cache is a **ring buffer with FIFO replacement**:
the i-th block received from the server goes into slot ``i % C``.  The
paper chooses FIFO deliberately — it is deterministic, so the server-
side scheduler can mirror the client cache's contents exactly without
any coordination (the sender feeds the same sequence into an identical
ring buffer).  Each request's contiguous-prefix length — what
rendering quality and the scheduler's next block index read — is kept
current on every put, eviction and clear, so reading it is a dict
lookup rather than a walk over the request's block indices.

:class:`LRUCache` is the byte-budgeted LRU used by the traditional
prefetching baselines (§6.1), which cache whole responses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, KeysView, Optional

from .blocks import Block

__all__ = ["RingBufferCache", "LRUCache"]


class RingBufferCache:
    """Fixed-capacity block cache with FIFO (ring buffer) replacement.

    Capacity is counted in *blocks* — the paper sizes everything in
    equal blocks so cache state is a pure function of the block arrival
    sequence, which is what lets the server simulate it.
    """

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity_blocks})")
        self.capacity_blocks = capacity_blocks
        self._slots: list[Optional[Block]] = [None] * capacity_blocks
        self._counter = 0
        # request id -> {block index -> slot} for O(1) lookups.
        self._index: dict[int, dict[int, int]] = {}
        # request id -> contiguous-prefix length, kept current by put,
        # eviction and clear so prefix_len is a dict read.
        self._prefix: dict[int, int] = {}
        # Called with the affected request id when a *live* block copy
        # is unlinked by FIFO replacement (its prefix may have shrunk),
        # or with None when the whole cache is cleared.  The scheduler's
        # incrementally-maintained `have` array subscribes here so it
        # never has to re-walk the mirror per allocation.
        self._evict_listeners: list = []

    def add_evict_listener(self, listener) -> None:
        """Register ``listener(request_or_None)`` for live-copy evictions."""
        self._evict_listeners.append(listener)

    # -- mutation ----------------------------------------------------

    def put(self, block: Block) -> Optional[Block]:
        """Insert ``block`` into slot ``counter % C``; return any evictee.

        A duplicate (request, index) pair replaces its older copy's
        index entry — the stale slot is left to age out, matching what a
        real client would do (the old bytes are unreachable).
        """
        slot = self._counter % self.capacity_blocks
        self._counter += 1
        evicted = self._slots[slot]
        unlinked = None
        if evicted is not None:
            by_index = self._index.get(evicted.request)
            # Only unlink if this slot is still the live copy.
            if by_index is not None and by_index.get(evicted.index) == slot:
                del by_index[evicted.index]
                if not by_index:
                    del self._index[evicted.request]
                if evicted.index < self._prefix.get(evicted.request, 0):
                    self._prefix[evicted.request] = evicted.index
                unlinked = evicted.request
        self._slots[slot] = block
        by_index = self._index.setdefault(block.request, {})
        by_index[block.index] = slot
        k = self._prefix.get(block.request, 0)
        if block.index == k:
            while k in by_index:
                k += 1
            self._prefix[block.request] = k
        if unlinked is not None:
            for listener in self._evict_listeners:
                listener(unlinked)
        return evicted

    def clear(self) -> None:
        self._slots = [None] * self.capacity_blocks
        self._index.clear()
        self._prefix.clear()
        self._counter = 0
        for listener in self._evict_listeners:
            listener(None)

    # -- queries -----------------------------------------------------

    @property
    def blocks_received(self) -> int:
        """Total puts so far (drives the slot cursor)."""
        return self._counter

    def has(self, request: int) -> bool:
        """True if >= 1 block for ``request`` is cached (upcall condition)."""
        return request in self._index

    def block_count(self, request: int) -> int:
        """Number of cached blocks for ``request``."""
        return len(self._index.get(request, ()))

    def block_indices(self, request: int) -> set[int]:
        """Set of cached block indices for ``request``."""
        return set(self._index.get(request, ()))

    def prefix_len(self, request: int) -> int:
        """Longest contiguous prefix 0..k-1 present for ``request``.

        Rendering quality is defined over prefixes (§3.3): block 3
        without blocks 0–2 cannot be decoded, so utility is computed
        from the prefix, not the raw count.  Maintained on every
        mutation, so reading it is O(1).
        """
        return self._prefix.get(request, 0)

    def get(self, request: int, index: int) -> Optional[Block]:
        slot = self._index.get(request, {}).get(index)
        return self._slots[slot] if slot is not None else None

    def cached_requests(self) -> KeysView[int]:
        """Live set-like view of the requests holding >= 1 block (no copy)."""
        return self._index.keys()

    def occupancy(self) -> int:
        """Number of occupied slots."""
        return sum(1 for s in self._slots if s is not None)

    def mirror_put(self, request: int, index: int, size_bytes: int = 1) -> Optional[Block]:
        """Server-side convenience: feed the mirror without a payload."""
        return self.put(Block(request=request, index=index, size_bytes=size_bytes))


class LRUCache:
    """Byte-budgeted least-recently-used cache of whole responses.

    Used by the ``Baseline`` and ``ACC-*-*`` comparison systems, which
    fetch and cache complete responses.  ``get`` refreshes recency;
    inserting over budget evicts the least recently used entries.  A
    single entry larger than the whole budget is rejected (returned
    False) rather than silently evicting everything.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bytes})")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._used = 0
        self.evictions = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable) -> Optional[Any]:
        """Value for ``key`` (refreshing recency), or None."""
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def peek(self, key: Hashable) -> Optional[Any]:
        """Value for ``key`` without touching recency."""
        hit = self._entries.get(key)
        return hit[0] if hit is not None else None

    def put(self, key: Hashable, value: Any, size_bytes: int) -> bool:
        """Insert/replace ``key``; evict LRU entries to fit.  False if too big."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if size_bytes > self.capacity_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old[1]
        while self._used + size_bytes > self.capacity_bytes:
            _evicted_key, (_v, sz) = self._entries.popitem(last=False)
            self._used -= sz
            self.evictions += 1
        self._entries[key] = (value, size_bytes)
        self._used += size_bytes
        return True

    def remove(self, key: Hashable) -> bool:
        old = self._entries.pop(key, None)
        if old is None:
            return False
        self._used -= old[1]
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0
