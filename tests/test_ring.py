"""Property tests for the consistent-hash ring (repro.fleet.ring).

The ring's whole reason to exist is a *structural* guarantee: when a
node joins, only the keys the newcomer takes over may move — every key
routes to its old owner or to the new node.  That is stronger than the
usual statistical "about 1/W of keys remap" claim, and it is checkable
key-by-key.

Balance, by contrast, *is* statistical (vnode positions are hash
draws), so the balance test asserts a generous envelope rather than a
tight bound.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.fleet.sharding import shard_of

node_sets = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=8, unique=True
)
keys = st.lists(st.integers(min_value=0, max_value=10_000), max_size=64)


class TestRouting:
    @given(nodes=node_sets, ks=keys)
    def test_deterministic_and_membership_pure(self, nodes, ks):
        """Equal membership routes identically, whatever the insertion order."""
        a = HashRing(nodes)
        b = HashRing(reversed(nodes))
        for k in ks:
            assert a.route(k) == b.route(k)

    @given(nodes=node_sets, ks=keys)
    def test_routes_to_members_only(self, nodes, ks):
        ring = HashRing(nodes)
        for k in ks:
            assert ring.route(k) in nodes

    @given(nodes=node_sets)
    def test_assign_partitions_all_keys(self, nodes):
        ring = HashRing(nodes)
        assigned = {node: [] for node in nodes}
        for k in range(100):
            assigned[ring.route(k)].append(k)
        assert sorted(k for ks in assigned.values() for k in ks) == list(range(100))
        assert set(assigned) == set(nodes)

    def test_empty_ring_refuses_to_route(self):
        with pytest.raises(ValueError, match="empty ring"):
            HashRing().route(0)


class TestMembershipChurn:
    @settings(max_examples=25)
    @given(nodes=node_sets, new=st.integers(min_value=100, max_value=199))
    def test_join_steals_only_for_the_newcomer(self, nodes, new):
        """Structural remap bound: a join moves keys only *to* the joiner."""
        before = HashRing(nodes)
        after = HashRing(nodes)
        after.add(new)
        for k in range(500):
            old, now = before.route(k), after.route(k)
            assert now == old or now == new

    def test_duplicate_add_raises(self):
        ring = HashRing([1, 2])
        with pytest.raises(ValueError, match="already"):
            ring.add(1)


class TestBalance:
    def test_share_spread_is_bounded(self):
        """Statistical balance: with 128 vnodes no node's share of 4096
        keys strays past ~2x of fair (observed spread is far tighter;
        the envelope just catches clustering regressions)."""
        for w in (2, 4, 8):
            ring = HashRing(range(w))
            counts = Counter(ring.route(k) for k in range(4096))
            fair = 4096 / w
            assert max(counts.values()) < 2.0 * fair
            assert min(counts.values()) > fair / 2.5

    def test_more_vnodes_mean_tighter_spread(self):
        wide = HashRing(range(8), vnodes=1)
        tight = HashRing(range(8), vnodes=DEFAULT_VNODES)

        def spread(ring):
            counts = list(Counter(ring.route(k) for k in range(4096)).values())
            return max(counts) - min(counts)

        assert spread(tight) < spread(wide)

    def test_rejects_zero_vnodes(self):
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)


class TestShardOfDelegation:
    def test_shard_of_is_ring_routing(self):
        """The fleet router *is* the ring: shard_of(i, W) must agree
        with a fresh HashRing over range(W) for every index."""
        for w in (1, 2, 3, 5, 8):
            ring = HashRing(range(w))
            for i in range(256):
                assert shard_of(i, w) == ring.route(i)

    def test_w1_owns_everything(self):
        assert {shard_of(i, 1) for i in range(64)} == {0}
