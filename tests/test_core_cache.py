"""Tests for the ring-buffer and LRU caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import Block
from repro.core.cache import LRUCache, RingBufferCache


def blk(request, index, size=10):
    return Block(request=request, index=index, size_bytes=size)


class TestRingBufferCache:
    def test_put_and_lookup(self):
        cache = RingBufferCache(4)
        cache.put(blk(1, 0))
        assert cache.has(1)
        assert cache.block_count(1) == 1
        assert not cache.has(2)

    def test_fifo_eviction_order(self):
        """Slot i % C: the (C+1)-th block overwrites the first."""
        cache = RingBufferCache(2)
        cache.put(blk(1, 0))
        cache.put(blk(2, 0))
        evicted = cache.put(blk(3, 0))
        assert evicted == blk(1, 0)
        assert not cache.has(1)
        assert cache.has(2) and cache.has(3)

    def test_eviction_is_deterministic_function_of_sequence(self):
        """Two caches fed the same sequence agree exactly (server mirror)."""
        a, b = RingBufferCache(5), RingBufferCache(5)
        seq = [blk(i % 3, i % 4) for i in range(23)]
        for block in seq:
            a.put(block)
            b.put(block)
        assert a.cached_requests() == b.cached_requests()
        for r in a.cached_requests():
            assert a.block_indices(r) == b.block_indices(r)

    def test_prefix_len_contiguous(self):
        cache = RingBufferCache(10)
        cache.put(blk(1, 0))
        cache.put(blk(1, 1))
        cache.put(blk(1, 3))
        assert cache.prefix_len(1) == 2
        cache.put(blk(1, 2))
        assert cache.prefix_len(1) == 4

    def test_prefix_len_requires_block_zero(self):
        cache = RingBufferCache(10)
        cache.put(blk(1, 1))
        assert cache.prefix_len(1) == 0
        assert cache.has(1)  # >= 1 block -> still answerable

    def test_duplicate_block_keeps_latest_slot(self):
        cache = RingBufferCache(3)
        cache.put(blk(1, 0))
        cache.put(blk(1, 0))
        cache.put(blk(2, 0))
        # Counter is at 3; the next put lands on slot 0 (stale copy).
        cache.put(blk(3, 0))
        assert cache.has(1)  # live copy in slot 1 survives
        assert cache.block_count(1) == 1

    def test_get_returns_block(self):
        cache = RingBufferCache(3)
        block = blk(5, 2)
        cache.put(block)
        assert cache.get(5, 2) == block
        assert cache.get(5, 0) is None

    def test_clear(self):
        cache = RingBufferCache(3)
        cache.put(blk(1, 0))
        cache.clear()
        assert not cache.has(1)
        assert cache.blocks_received == 0
        assert cache.occupancy() == 0

    def test_occupancy_and_counter(self):
        cache = RingBufferCache(3)
        for i in range(5):
            cache.put(blk(i, 0))
        assert cache.blocks_received == 5
        assert cache.occupancy() == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBufferCache(0)

    def test_mirror_put(self):
        cache = RingBufferCache(2)
        cache.mirror_put(7, 1)
        assert cache.block_indices(7) == {1}


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(100)
        assert cache.put("a", "va", 40)
        assert cache.get("a") == "va"
        assert cache.get("b") is None

    def test_eviction_of_least_recent(self):
        cache = LRUCache(100)
        cache.put("a", 1, 50)
        cache.put("b", 2, 50)
        cache.get("a")  # refresh a
        cache.put("c", 3, 50)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_peek_does_not_refresh(self):
        cache = LRUCache(100)
        cache.put("a", 1, 50)
        cache.put("b", 2, 50)
        cache.peek("a")
        cache.put("c", 3, 50)  # evicts a (peek didn't refresh)
        assert "a" not in cache

    def test_oversized_entry_rejected(self):
        cache = LRUCache(100)
        assert not cache.put("big", 1, 101)
        assert len(cache) == 0

    def test_replace_updates_bytes(self):
        cache = LRUCache(100)
        cache.put("a", 1, 60)
        cache.put("a", 2, 30)
        assert cache.used_bytes == 30
        assert cache.get("a") == 2

    def test_remove(self):
        cache = LRUCache(100)
        cache.put("a", 1, 60)
        assert cache.remove("a")
        assert not cache.remove("a")
        assert cache.used_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        cache = LRUCache(10)
        with pytest.raises(ValueError):
            cache.put("a", 1, -1)


# -- property tests ---------------------------------------------------

puts = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 5)), min_size=1, max_size=200
)


@given(puts=puts, capacity=st.integers(min_value=1, max_value=16))
def test_property_ring_buffer_never_exceeds_capacity(puts, capacity):
    cache = RingBufferCache(capacity)
    for request, index in puts:
        cache.put(blk(request, index))
    assert cache.occupancy() <= capacity
    total_indexed = sum(cache.block_count(r) for r in cache.cached_requests())
    assert total_indexed <= capacity


@given(puts=puts, capacity=st.integers(min_value=1, max_value=16))
def test_property_ring_buffer_keeps_most_recent_blocks(puts, capacity):
    """The last min(C, len) distinct (request, index) pairs are present."""
    cache = RingBufferCache(capacity)
    for request, index in puts:
        cache.put(blk(request, index))
    # Walk backwards over the put sequence: the final C puts occupy the
    # C slots, so any pair whose *last* occurrence is in that window and
    # is not shadowed by a duplicate landing in a different slot must
    # be findable... the simple invariant: the very last put is present.
    last_request, last_index = puts[-1]
    assert last_index in cache.block_indices(last_request)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 5), st.integers(1, 40)),
        max_size=100,
    )
)
def test_property_lru_bytes_accounting(ops):
    cache = LRUCache(100)
    for op, key, size in ops:
        if op == "put":
            cache.put(key, key, size)
        else:
            cache.get(key)
        assert 0 <= cache.used_bytes <= 100


# Few requests and indices and a small ring: duplicates, gaps and
# evictions of a prefix block are common; a clear is one op in ten.
prefix_ops = st.lists(
    st.one_of(
        *[st.tuples(st.integers(0, 3), st.integers(0, 4))] * 9, st.just("clear")
    ),
    min_size=4,
    max_size=200,
)


@given(ops=prefix_ops, capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=300)
def test_property_prefix_len_is_the_walk(ops, capacity):
    """The maintained prefix length equals walking 0, 1, 2, ... over
    the live indices, after puts with duplicates and gaps, wrap-around
    evictions and clears, and evict listeners already see it."""
    cache = RingBufferCache(capacity)

    def walk(request):
        k = 0
        while k in cache.block_indices(request):
            k += 1
        return k

    seen = []
    cache.add_evict_listener(
        lambda request: seen.append(
            None if request is None else (cache.prefix_len(request), walk(request))
        )
    )
    for op in ops:
        if op == "clear":
            cache.clear()
        else:
            cache.put(blk(*op))
        for request in range(4):
            assert cache.prefix_len(request) == walk(request)
    assert all(entry is None or entry[0] == entry[1] for entry in seen)
