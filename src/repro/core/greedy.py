"""Greedy scheduler (§5.3, Listing 1).

Khameleon's production scheduler.  Per batch of ``C`` blocks (the
client cache size), it repeatedly

1. computes each candidate's expected utility gain for receiving one
   more block — the probability the user still wants the request over
   the rest of the batch, times the marginal gain ``g(b+1)`` of its
   next block — and
2. samples a request proportionally to those gains, allocating it the
   next block.

The remaining-batch probability ``P_{i,t} = Σ_{k=t}^{C-1} γ^k P(q_i | k)``
(a reverse cumulative sum approximating the paper's trapezoidal Riemann
sum) is held as rows, one per slot from the position ``t0`` the
distribution was installed at, so each allocation is a vectorized
dot-and-sample over the explicit requests.  Only the rows a draw can
reach are materialized.  Past the predictor's last horizon the
distribution stops changing, so every slot there contributes the same
vector ``probs[-1]`` and row ``r`` is ``D[r] · probs[-1]`` with
``D[r] = Σ_{k=r}^{C-1} γ^k`` a per-scheduler constant (``C − r`` at
γ = 1).  An install therefore blends and reverse-cumsums only the *head*
— the ``H`` slots whose offset lies before the last horizon (15 of
1000 at the paper's 500 ms horizon and a 33 ms slot) — and adds the
tail's mass ``D[t0 + H] · probs[-1]`` to those rows as one rank-1 term:
O(H·m) instead of O((C − t0)·m).  Tail rows are appended to the same
block in chunks when a draw first reaches them.

**Meta-request optimization** (§5.3.1): with 10k possible requests,
most share the same ≈ 0 probability.  Those pool into one
*meta-request* whose probability is their sum; sampling it uniformly
picks a concrete request, which is then *promoted* to individual
tracking for the rest of the batch.  Disable with
``meta_request=False`` to measure the difference (the paper reports
13× on its 10k-request benchmark).

**Draw kernels.**  :meth:`GreedyScheduler.next_block` is the scalar
Listing-1 specification, re-deriving the per-draw weight vector from
the pending/mirror dictionaries on every call.
:meth:`GreedyScheduler.schedule_batch` is the production kernel — block
counts and next-block gains live in incrementally-maintained numpy
arrays (fed by allocations, ``on_sent`` confirmations, rollbacks, and
mirror evictions) — and it consumes the same RNG stream, so its
schedules are **bit-identical** to the specification's at every seed,
which is what the scalar path is kept to property-test (DESIGN.md,
*Draw kernels: why two*).

Deviation from Listing 1, documented in DESIGN.md §5: the pseudocode
resets per-request block counts ``B`` to zero every batch and ignores
what the client already caches.  We additionally consult the server's
cache mirror (exactly mirrorable thanks to the FIFO client cache) so
that (a) block *indices* continue the prefix the client already has
instead of resending block 0, and (b) fully cached requests get zero
gain.  §5's problem statement requires the scheduler to "keep track of
previously sent blocks"; this is that tracking.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .cache import RingBufferCache
from .distribution import RequestDistribution
from .scheduler import GainTable, ScheduledBlock

__all__ = ["GreedyScheduler"]


#: Fewest tail rows appended when a draw runs past the materialized block.
_TAIL_CHUNK = 32


class GreedyScheduler:
    """Single-step-horizon sampling scheduler with batch resets.

    Parameters
    ----------
    gains:
        Per-request utility gain table (defines ``n`` and ``Nb_i``).
    cache_blocks:
        ``C`` — client cache capacity in blocks; also the batch length.
    gamma:
        Future discount applied inside the remaining-batch probability
        (``γ^k`` weights; 1.0 = the paper's default behaviour).
    mirror:
        Optional server-side replica of the client ring buffer.  When
        given, allocations extend the cached prefix.
    meta_request:
        Enable the §5.3.1 uniform-mass pooling (default True).
    hedge_when_idle:
        When every tracked request has zero expected gain (e.g., a point
        distribution whose target is fully scheduled), push blocks for
        uniformly random incomplete requests instead of idling — §3.4:
        "use the remaining bandwidth to push random images for the
        client to cache".
    seed:
        Sampling is stochastic (Listing 1 line 17); fixed seed for
        reproducibility.
    """

    def __init__(
        self,
        gains: GainTable,
        cache_blocks: int,
        gamma: float = 1.0,
        mirror: Optional[RingBufferCache] = None,
        meta_request: bool = True,
        hedge_when_idle: bool = True,
        seed: int = 0,
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        if not 0 <= gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        self.gains = gains
        self.C = cache_blocks
        self.gamma = gamma
        self.mirror = mirror
        self.meta_request = meta_request
        self.hedge_when_idle = hedge_when_idle
        self._rng = np.random.default_rng(seed)

        self._dist = RequestDistribution.uniform(gains.n)
        self._slot_duration_s = 0.01
        # Batch position (Listing 1's t).
        self._t = 0
        # Blocks allocated but not yet confirmed sent.  With a mirror,
        # the sender confirms via on_sent() as blocks hit the wire (the
        # mirror then carries them); without one, pending *is* Listing
        # 1's B and resets with the batch.
        self._pending: dict[int, int] = {}
        # Tail weights D[r] = Σ_{k=r}^{C-1} γ^k, with D[C] = 0.
        powers = gamma ** np.arange(cache_blocks)
        self._D = np.append(np.cumsum(powers[::-1])[::-1], 0.0)
        # Distribution-derived state.  Row i of the probability block
        # belongs to slot _t0 + i (see _recompute_probabilities).
        self._ids = np.empty(0, dtype=np.int64)
        self._t0 = 0
        self._rows = np.empty((0, 0))
        self._res = np.empty(0)
        self._explicit_set: set[int] = set()
        self._explicit_ids_ref: Optional[np.ndarray] = None
        # Requests promoted out of the meta pool this batch, in promotion
        # order (the order of their fast-path array entries).
        self._promoted: dict[int, None] = {}
        # Materialized-request fast-path state: parallel arrays over
        # explicit-then-promoted ids, updated incrementally so the
        # batch sampler never walks the pending/mirror dicts per draw.
        self._mat_ids = np.empty(0, dtype=np.int64)
        self._have = np.empty(0, dtype=np.int64)
        self._gain = np.empty(0)
        self._wbuf = np.empty(0)
        self._cbuf = np.empty(0)
        self._mlen = 0
        self._pos_of: dict[int, int] = {}
        if mirror is not None:
            mirror.add_evict_listener(self._on_mirror_evict)
        self._recompute_probabilities()

        self.schedules_generated = 0
        self.blocks_allocated = 0

    # -- public API ----------------------------------------------------

    def update_distribution(
        self, dist: RequestDistribution, slot_duration_s: float
    ) -> None:
        """Install a new prediction (client may send them at any time).

        Already-allocated slots of the current batch are untouched
        (§5.3.2: blocks 0..i were sent); only the remaining ``C − t``
        slots use the new probabilities.
        """
        if dist.n != self.gains.n:
            raise ValueError(f"distribution over {dist.n} requests, expected {self.gains.n}")
        if slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        self._dist = dist
        self._slot_duration_s = slot_duration_s
        self._recompute_probabilities()

    def next_block(self) -> Optional[ScheduledBlock]:
        """Sample the next allocation (Listing 1 lines 14–19).

        Scalar reference path: weights are re-derived from the pending
        and mirror dictionaries on every call.  :meth:`schedule_batch`
        draws the same RNG stream over incrementally-maintained arrays
        and is bit-identical; prefer it on hot paths.
        """
        if self._t >= self.C:
            self._reset_batch()
        ids = self._all_ids()
        row = self._row()
        weights = self._utility_gains(ids, row)
        meta_weight = self._meta_weight(row)
        total = weights.sum() + meta_weight
        if total <= 1e-15:
            if not self.hedge_when_idle:
                return None
            request = self._sample_incomplete_request()
            if request is None:
                return None
            return self._allocate(request)
        # Sample a request proportional to utility gain (line 17).
        u = self._rng.random() * total
        cumulative = np.cumsum(weights)
        pos = int(np.searchsorted(cumulative, u, side="right"))
        if pos < len(ids):
            request = int(ids[pos])
        else:
            request = self._sample_uniform_request()
            if request is None:
                return None
            self._promote(request)
        return self._allocate(request)

    def schedule_batch(self, max_blocks: Optional[int] = None) -> list[ScheduledBlock]:
        """Allocate up to ``max_blocks`` (default: the rest of the batch).

        This is Listing 1's inner loop with ``bs = max_blocks``.  The
        weight vector's gain factor is materialized once per
        distribution epoch and only the sampled request's entry changes
        between draws, so each allocation costs a few numpy kernels
        over the materialized requests instead of :meth:`next_block`'s
        Python walk over the pending/mirror dicts — with the same RNG
        consumption, hence the same schedule.  The sender's lookahead
        fill and the standalone micro-benchmarks (Fig. 16) call it
        directly.
        """
        limit = self.C - self._t if max_blocks is None else max_blocks
        out: list[ScheduledBlock] = []
        while len(out) < limit:
            if self._t >= self.C:
                self._reset_batch()
            block = self._next_block_fast()
            if block is None:
                break
            out.append(block)
        return out

    def rollback(
        self, blocks: Sequence[ScheduledBlock], recompute: bool = True
    ) -> None:
        """Un-allocate scheduled-but-unsent blocks (sender preemption).

        §5.3.2: when a new prediction arrives, the schedule past the
        sender's position is discarded and regenerated.  The sender
        hands back the unsent tail; we rewind ``t`` and the per-request
        counts so the slots are re-decided under the new distribution.

        ``recompute=False`` skips re-materializing the probability rows
        and fast-path arrays; it is for callers that install a fresh
        distribution immediately afterwards (a prediction's arrival:
        :meth:`~repro.core.server.KhameleonServer.apply_distribution`)
        — no draws may happen in between.
        """
        for block in blocks:
            have = self._pending.get(block.request, 0)
            if have <= 0:
                raise ValueError(f"cannot roll back {block}: not allocated")
            if have == 1:
                del self._pending[block.request]
                # A request promoted out of the meta pool in a slot that
                # is now rolled back has no allocation left backing the
                # promotion: return it to the pool so it stops carrying
                # an individual probability weight until the batch reset.
                # Blocks already sent (mirror-held) still back it — the
                # concrete next-block gain must survive for requests the
                # client holds a prefix of.
                if (
                    block.request in self._promoted
                    and self._effective_blocks(block.request) == 0
                ):
                    del self._promoted[block.request]
            else:
                self._pending[block.request] = have - 1
            self._t = max(0, self._t - 1)
            self.blocks_allocated -= 1
        # The rewound slots need probability rows again (the block only
        # starts at the position of the last distribution update).
        if blocks and recompute:
            self._recompute_probabilities()

    def on_sent(self, block: ScheduledBlock) -> None:
        """Sender confirmation that ``block`` reached the wire.

        Only meaningful with a mirror: the block is now tracked by the
        mirrored client cache, so the pending overlay must release it
        (otherwise it would be double-counted).
        """
        if self.mirror is None:
            return
        have = self._pending.get(block.request, 0)
        if have <= 0:
            raise ValueError(f"on_sent for unallocated block {block}")
        if have == 1:
            del self._pending[block.request]
        else:
            self._pending[block.request] = have - 1
        self._refresh_entry(block.request)

    # -- introspection ---------------------------------------------------

    @property
    def position(self) -> int:
        """Slots allocated in the current batch (Listing 1's ``t``)."""
        return self._t

    @property
    def materialized_fraction(self) -> float:
        """Fraction of requests with individually materialized probabilities."""
        return (len(self._ids) + len(self._promoted)) / self.gains.n

    def rng_state(self) -> dict:
        """The draw RNG's bit-generator state (JSON-safe plain ints).

        Sampling is the only stochastic step in the scheduler, so this
        state plus the deterministic inputs pins the whole draw stream —
        it is what shard checkpoints digest to verify that a replayed
        worker really is where the crashed one was.
        """
        return self._rng.bit_generator.state

    # -- internals -------------------------------------------------------

    def _reset_batch(self) -> None:
        """Lines 22–23: after C blocks, reset t and B.

        With a mirror, pending blocks are still in the sender pipeline
        and must survive the reset (the mirror will absorb them as they
        are sent); without one, pending is the per-batch B and clears.
        """
        self._t = 0
        if self.mirror is None:
            self._pending.clear()
        self._promoted.clear()
        self.schedules_generated += 1
        self._recompute_probabilities()

    def _recompute_probabilities(self) -> None:
        """Start a distribution epoch: refresh ids/arrays, rebuild P's head.

        Slot ``k ≥ t0`` sits at wall-clock offset ``(k − t0 + 1) · slot``
        (Listing 1 lines 6–11).  The ``H`` slots before the last horizon
        are interpolated, discounted and reverse-cumsummed; everything
        after them is the rank-1 tail (module docstring).
        """
        self._refresh_epoch()
        if self._t >= self.C:
            # Batch complete: no slot is left to weigh, and the next draw
            # resets the batch before reading anything.  Slot C − 1 is
            # the one a reader still clamps to.
            self._t0 = self.C - 1
            self._rows = np.zeros((1, len(self._ids)))
            self._res = np.zeros(1)
            return
        dist, slot = self._dist, self._slot_duration_s
        t0 = self._t0 = self._t
        last = dist.deltas_s[-1]
        # A lone horizon clamps every slot to itself: no head at all.
        reach = int(last / slot) + 1 if len(dist.deltas_s) > 1 else 0
        offsets = np.arange(1, min(self.C - t0, reach) + 1) * slot
        H = int(np.searchsorted(offsets, last, side="left"))
        probs, residual = dist.explicit_matrix(offsets[:H])
        if self.gamma < 1.0:
            discount = self.gamma ** np.arange(t0, t0 + H)
            probs = probs * discount[:, None]
            residual = residual * discount
        tail = self._D[t0 + H]
        self._rows = (
            np.cumsum(probs[::-1], axis=0)[::-1] + tail * dist.explicit_probs[-1]
        )
        self._res = np.cumsum(residual[::-1])[::-1] + tail * dist.residual[-1]

    def _row(self) -> int:
        """Block row of the slot being drawn, materializing it if need be.

        Rows past the head are ``D[r] · probs[-1]``; they are appended in
        chunks that at least double the block, so a batch drawn to its
        end without a new prediction copies O(C·m) in total.
        """
        i = min(self._t, self.C - 1) - self._t0
        n = len(self._res)
        if i >= n:
            stop = min(self.C - self._t0, max(i + 1, n + max(n, _TAIL_CHUNK)))
            weights = self._D[self._t0 + n : self._t0 + stop]
            dist = self._dist
            self._rows = np.concatenate(
                [self._rows, weights[:, None] * dist.explicit_probs[-1]]
            )
            self._res = np.concatenate([self._res, weights * dist.residual[-1]])
        return i

    def _refresh_epoch(self) -> None:
        """Re-derive the materialized-request state from the distribution.

        The explicit-id set is cached against the distribution's own
        ids array (rollbacks and batch resets reuse the same
        distribution object, so the set survives those epochs), and the
        promoted requests are only re-filtered when some became
        explicit.
        """
        ids = self._dist.explicit_ids
        if ids is not self._explicit_ids_ref:
            self._explicit_set = set(ids.tolist())
            self._explicit_ids_ref = ids
        self._ids = ids
        if not self._explicit_set.isdisjoint(self._promoted):
            self._promoted = {
                q: None for q in self._promoted if q not in self._explicit_set
            }
        self._rebuild_materialized()

    def _ensure_capacity(self, needed: int) -> None:
        if len(self._mat_ids) >= needed:
            return
        cap = max(needed + 64, 2 * len(self._mat_ids))
        for name in ("_mat_ids", "_have"):
            grown = np.empty(cap, dtype=np.int64)
            old = getattr(self, name)
            grown[: len(old)] = old
            setattr(self, name, grown)
        for name in ("_gain", "_wbuf", "_cbuf"):
            grown = np.empty(cap)
            old = getattr(self, name)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _rebuild_materialized(self) -> None:
        """Rebuild the fast-path arrays (once per distribution epoch)."""
        m = len(self._ids)
        mlen = m + len(self._promoted)
        self._ensure_capacity(mlen)
        ids = self._mat_ids
        ids[:m] = self._ids
        if self._promoted:
            ids[m:mlen] = list(self._promoted)
        self._mlen = mlen
        pos_of = self._pos_of = dict(zip(ids[:mlen].tolist(), range(mlen)))
        if mlen:
            # Effective blocks = mirrored prefix + pending: nonzero only
            # for requests the mirror or the pipeline holds blocks of.
            have = self._have
            have[:mlen] = 0
            mirror = self.mirror
            if mirror is not None:
                for r in pos_of.keys() & mirror.cached_requests():
                    have[pos_of[r]] = mirror.prefix_len(r)
            for r, count in self._pending.items():
                pos = pos_of.get(r)
                if pos is not None:
                    have[pos] += count
            self._gain[:mlen] = self.gains.gain_vector(ids[:mlen], have[:mlen])

    def _refresh_entry(self, request: int) -> None:
        """Re-derive one materialized request's block count and gain."""
        pos = self._pos_of.get(request)
        if pos is None:
            return
        effective = self._effective_blocks(request)
        self._have[pos] = effective
        self._gain[pos] = self.gains.gain(request, effective)

    def _on_mirror_evict(self, request: Optional[int]) -> None:
        """Mirror replaced a live block: that request's prefix may have
        shrunk.  ``None`` means the mirror was cleared wholesale."""
        if request is None:
            self._rebuild_materialized()
        else:
            self._refresh_entry(request)

    def _all_ids(self) -> np.ndarray:
        if not self._promoted:
            return self._ids
        return np.concatenate([self._ids, np.array(list(self._promoted), dtype=np.int64)])

    def _effective_blocks(self, request: int) -> int:
        """Blocks the client will hold once the pipeline drains."""
        base = self.mirror.prefix_len(request) if self.mirror is not None else 0
        return base + self._pending.get(request, 0)

    def _utility_gains(self, ids: np.ndarray, row: int) -> np.ndarray:
        """Line 16: u = P_t · g[B] over explicit + promoted requests."""
        m = len(self._ids)
        if len(ids) == 0:
            return np.empty(0)
        probs = np.full(len(ids), self._uniform_request_prob(row))
        probs[:m] = self._rows[row]
        have = np.fromiter(
            (self._effective_blocks(int(r)) for r in ids), dtype=np.int64, count=len(ids)
        )
        return probs * self.gains.gain_vector(ids, have)

    def _next_block_fast(self) -> Optional[ScheduledBlock]:
        """One draw over the incrementally-maintained arrays.

        Mirrors :meth:`next_block` operation-for-operation (same array
        lengths, same elementwise kernels, same RNG consumption) so the
        sampled schedule is bit-identical to the scalar path.
        """
        row = self._row()
        m = len(self._ids)
        mlen = self._mlen
        wv = self._wbuf[:mlen]
        if m:
            np.multiply(self._rows[row], self._gain[:m], out=wv[:m])
        if mlen > m:
            np.multiply(
                self._gain[m:mlen], self._uniform_request_prob(row), out=wv[m:mlen]
            )
        meta_weight = self._meta_weight(row)
        total = (wv.sum() if mlen else 0.0) + meta_weight
        if total <= 1e-15:
            if not self.hedge_when_idle:
                return None
            request = self._sample_incomplete_request()
            if request is None:
                return None
            return self._allocate(request)
        u = self._rng.random() * total
        cv = self._cbuf[:mlen]
        np.cumsum(wv, out=cv)
        pos = int(np.searchsorted(cv, u, side="right"))
        if pos < mlen:
            request = int(self._mat_ids[pos])
        else:
            request = self._sample_uniform_request()
            if request is None:
                return None
            self._promote(request)
        return self._allocate(request)

    def _num_uniform(self) -> int:
        return self.gains.n - len(self._ids) - len(self._promoted)

    def _uniform_request_prob(self, row: int) -> float:
        pool = self.gains.n - len(self._ids)
        if pool <= 0:
            return 0.0
        return float(self._res[row]) / pool

    def _meta_weight(self, row: int) -> float:
        """Pooled weight of all still-uniform requests (§5.3.1)."""
        if not self.meta_request:
            return 0.0
        n_meta = self._num_uniform()
        if n_meta <= 0:
            return 0.0
        share = self._uniform_request_prob(row) * n_meta
        return share * self.gains.mean_first_gain

    def _sample_uniform_request(self) -> Optional[int]:
        """Uniformly pick a pooled request (rejection sampling).

        The explicit + promoted set is tiny next to ``n``, so rejection
        terminates almost immediately; a deterministic scan backstops
        adversarial cases.
        """
        n = self.gains.n
        taken = self._explicit_set
        promoted = self._promoted
        for _ in range(64):
            candidate = int(self._rng.integers(0, n))
            if candidate not in taken and candidate not in promoted:
                return candidate
        for candidate in range(n):
            if candidate not in taken and candidate not in promoted:
                return candidate
        return None

    def _promote(self, request: int) -> None:
        self._promoted[request] = None
        self._ensure_capacity(self._mlen + 1)
        i = self._mlen
        effective = self._effective_blocks(request)
        self._mat_ids[i] = request
        self._have[i] = effective
        self._gain[i] = self.gains.gain(request, effective)
        self._pos_of[request] = i
        self._mlen += 1

    def _sample_incomplete_request(self) -> Optional[int]:
        """Random request that still has unsent blocks (idle hedging)."""
        n = self.gains.n
        for _ in range(64):
            candidate = int(self._rng.integers(0, n))
            if self._effective_blocks(candidate) < self.gains.blocks_of(candidate):
                return candidate
        for candidate in range(n):
            if self._effective_blocks(candidate) < self.gains.blocks_of(candidate):
                return candidate
        return None

    def _allocate(self, request: int) -> ScheduledBlock:
        index = self._effective_blocks(request)
        self._pending[request] = self._pending.get(request, 0) + 1
        pos = self._pos_of.get(request)
        if pos is not None:
            self._have[pos] = index + 1
            self._gain[pos] = self.gains.gain(request, index + 1)
        self._t += 1
        self.blocks_allocated += 1
        return ScheduledBlock(request=request, index=index)
