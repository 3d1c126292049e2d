"""Consistent-hash ring: the session router of a sharded fleet.

A fleet of W shards is built once and keeps its membership for the
whole run, so ``route`` fixes each session's shard for a given W: the
coordinator and every spawned worker compute the same owner for every
plan index, and a session lives on that one shard from its first
request to its last.  The ring pins each node at many pseudo-random
points on a 2^64 hash circle and routes a key to the first node point
at or after the key's own hash (Karger et al.).  Its one structural
property, which the property tests enforce key-by-key, is that adding
a node moves keys only to the newcomer.

Hashing is BLAKE2b over the string form: Python's builtin ``hash`` is
salted per process, and the ring must route identically in the
coordinator and every spawned worker.  (The pre-ring ``crc32 % W``
router got away with CRC-32 because the modulus spread whatever
entropy it had; ring positions need the full width well-mixed — CRC of
short decimal strings clusters badly enough to starve shards of an
8-session fleet.)

The ring is deliberately tiny and dependency-free — it is imported by
:mod:`repro.fleet.sharding` on every routing call, so construction is
cached there per W.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Hashable, Iterable

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual points per node.  More points flatten the per-node share
#: variance (stddev ~ 1/sqrt(vnodes)); 128 keeps worst-case imbalance
#: within the property tests' tolerance up to dozens of nodes while
#: ring construction stays microseconds.
DEFAULT_VNODES = 128


def _hash(value: str) -> int:
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over hashable node identities.

    ``route(key)`` is a pure function of the membership set (and the
    ``vnodes`` parameter): two rings with equal members route every key
    identically, regardless of insertion order or process.
    """

    def __init__(
        self, nodes: Iterable[Hashable] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[tuple[int, Hashable]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    def add(self, node: Hashable) -> None:
        """Join ``node``: claims an expected ``1/W`` share of the keys."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self.vnodes):
            # The node's string form salts every point; ties between
            # distinct nodes' points are broken by the (node, vnode)
            # tuple so equal hashes still order deterministically.
            point = (_hash(f"{node}#{v}"), node)
            bisect.insort(self._points, point)

    def route(self, key: Any) -> Hashable:
        """The node owning ``key``: first ring point at/after its hash."""
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        h = _hash(str(key))
        # strictly-after points would skip a node point exactly at h;
        # searching with node sentinel "" keeps points at h eligible.
        i = bisect.bisect_left(self._points, (h, ""))
        if i == len(self._points):
            i = 0  # wrap: the circle has no end
        return self._points[i][1]
