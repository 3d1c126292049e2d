"""Vectorized scheduling core: equivalence and regression tests.

Four guarantees from the perf refactor are pinned here:

1. ``GreedyScheduler.schedule_batch`` (the incremental-gain fast path)
   produces **bit-identical** schedules to a ``next_block`` loop (the
   scalar Listing 1 reference) at every seed, across meta-request
   on/off, mirror on/off, mid-stream distribution updates, rollbacks,
   and mirror evictions.
2. The current implementation reproduces schedules captured from the
   pre-refactor code at fixed seeds (golden regression — the cached
   explicit/promoted sets and the incremental ``have`` array change no
   behaviour).
3. The vectorized ``expected_utility`` and
   ``RequestDistribution.explicit_matrix`` agree with their scalar
   references.
4. ``schedule_batch(1)`` first-draw frequencies match the reference
   weight vector (chi-squared over repeated draw/rollback trials), for
   slots past the last prediction horizon and for interpolated ones.
5. The scheduler's structured probability rows (interpolated head plus
   rank-1 tail, materialized lazily) agree with the dense ``(C, m)``
   reverse-cumsum matrix they replaced — kept here as the oracle — and
   never grow back to its size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import (
    GainTable,
    GreedyScheduler,
    LinearUtility,
    RequestDistribution,
    RingBufferCache,
    ssim_image_utility,
)
from repro.core.scheduler import ScheduledBlock, expected_utility, expected_utility_scalar


def probability_matrices(dist, cache_blocks, position, slot_duration_s, gamma=1.0):
    """Dense oracle: ``(Pmat, Pres)`` for a batch's remaining slots.

    What ``GreedyScheduler`` materialized per install before it kept
    only the rows a draw can reach.  Row ``k`` of ``Pmat`` holds the
    γ-discounted probability mass of each explicit request over slots
    ``k..C-1``, where slot ``k`` maps to wall-clock offset
    ``(k − position + 1) · slot_duration``; ``Pres`` is the matching
    residual-mass column (Listing 1 lines 6–11).  Rows before
    ``position`` are zero — those slots were already decided.
    """
    C, t = cache_blocks, position
    m = len(dist.explicit_ids)
    if C - t <= 0:
        return np.zeros((C, m)), np.zeros(C)
    deltas = (np.arange(t, C) - t + 1) * slot_duration_s
    probs, residual = dist.explicit_matrix(deltas)
    if gamma < 1.0:
        discount = gamma ** np.arange(t, C)
        probs = probs * discount[:, None]
        residual = residual * discount
    pmat = np.zeros((C, m))
    pres = np.zeros(C)
    pmat[t:] = np.cumsum(probs[::-1], axis=0)[::-1]
    pres[t:] = np.cumsum(residual[::-1])[::-1]
    return pmat, pres


def scheduler_row(sched, r):
    """The scheduler's probability row for slot ``r`` (>= its position)."""
    sched._t = r
    i = sched._row()
    return sched._rows[i], sched._res[i]


def drive(n, nb_seed, C, seed, meta, use_mirror, use_fast, mirror_cap=None):
    """Scripted scheduler workout; returns the flattened block stream.

    The script interleaves distribution updates, partial batch pulls,
    rollbacks of in-batch tails, and (with a mirror) sent-block
    confirmations — everything that mutates the fast path's
    incremental state.  ``use_fast`` picks ``schedule_batch`` vs the
    scalar ``next_block`` loop; both must emit the same stream.
    """
    rng = np.random.default_rng(nb_seed)
    nb = rng.integers(1, 7, size=n)
    mirror = RingBufferCache(mirror_cap or max(2, C)) if use_mirror else None
    gains = GainTable(LinearUtility(), nb)
    sched = GreedyScheduler(
        gains, cache_blocks=C, mirror=mirror, meta_request=meta, seed=seed
    )
    script = np.random.default_rng(seed + 999)
    out = []
    for _ in range(6):
        dense = script.random((2, n)) + 1e-9
        sched.update_distribution(
            RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.25], threshold=0.02),
            0.01,
        )
        k = int(script.integers(1, C + 3))
        if use_fast:
            batch = sched.schedule_batch(k)
        else:
            batch = []
            for _ in range(k):
                block = sched.next_block()
                if block is None:
                    break
                batch.append(block)
        out += batch
        if batch and script.random() < 0.4:
            # Roll back a tail that is still inside the current batch.
            tail = min(int(script.integers(0, len(batch) + 1)), sched.position)
            if tail:
                sched.rollback(batch[len(batch) - tail :])
                del out[len(out) - tail :]
                batch = batch[: len(batch) - tail]
        if mirror is not None:
            for block in batch:
                mirror.mirror_put(block.request, block.index)
                sched.on_sent(block)
    return [(b.request, b.index) for b in out]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    meta=st.booleans(),
    use_mirror=st.booleans(),
    C=st.integers(min_value=1, max_value=24),
)
def test_property_schedule_batch_bit_identical_to_scalar(seed, meta, use_mirror, C):
    fast = drive(50, seed + 1, C, seed, meta, use_mirror, use_fast=True)
    slow = drive(50, seed + 1, C, seed, meta, use_mirror, use_fast=False)
    assert fast == slow


def test_bit_identity_under_mirror_evictions():
    """A mirror smaller than the batch forces FIFO evictions, which
    shrink other requests' prefixes mid-stream; the evict listener must
    keep the incremental ``have`` array exact."""
    for seed in range(8):
        fast = drive(30, seed + 1, 16, seed, True, True, use_fast=True, mirror_cap=5)
        slow = drive(30, seed + 1, 16, seed, True, True, use_fast=False, mirror_cap=5)
        assert fast == slow


@pytest.mark.parametrize(
    "deltas, seed",
    [
        # One 50 ms horizon: every slot is clamped past it (all tail).
        pytest.param((0.05,), 11, id="tail"),
        # Last horizon past the batch end: every slot is interpolated.
        pytest.param((0.05, 0.25), 13, id="head"),
    ],
)
def test_first_draw_frequencies_match_reference_weights(deltas, seed):
    """Chi-squared: ``schedule_batch(1)`` samples request ``i`` with
    probability proportional to the reference weight ``P_0[i] · g_i``
    (explicit ids, plus one bucket for the meta-request)."""
    n, explicit, residual, trials = 60, 10, 0.2, 4000
    rng = np.random.default_rng(2)
    ids = np.sort(rng.choice(n, size=explicit, replace=False)).astype(np.int64)
    raw = rng.random((len(deltas), explicit)) + 0.05
    dist = RequestDistribution(
        n=n,
        deltas_s=np.asarray(deltas, dtype=float),
        explicit_ids=ids,
        explicit_probs=(1.0 - residual) * raw / raw.sum(axis=1, keepdims=True),
        residual=np.full(len(deltas), residual),
    )
    gains = GainTable(LinearUtility(), [3] * n)
    sched = GreedyScheduler(gains, cache_blocks=24, seed=seed)
    sched.update_distribution(dist, 0.01)
    pmat, pres = probability_matrices(dist, 24, 0, 0.01)
    weights = np.concatenate(
        [
            pmat[0] * gains.gain_vector(ids, np.zeros(explicit, dtype=np.int64)),
            [pres[0] * gains.mean_first_gain],  # nothing promoted: the whole pool
        ]
    )
    bucket = {int(r): i for i, r in enumerate(ids)}
    counts = np.zeros(len(weights))
    for _ in range(trials):
        batch = sched.schedule_batch(1)
        assert len(batch) == 1
        counts[bucket.get(batch[0].request, explicit)] += 1
        sched.rollback(batch)
    expected = trials * weights / weights.sum()
    assert (expected > 5).all()  # chi-squared validity
    assert stats.chisquare(counts, expected).pvalue > 1e-3


class TestGoldenSchedules:
    """Fixed-seed schedules captured from the pre-refactor implementation.

    Covers the satellite requirement that caching the promoted/explicit
    sets and maintaining ``have`` incrementally changes nothing under a
    fixed seed.
    """

    GOLDEN = {
        (40, 4, 16, 7, True, 0): [
            (22, 0), (34, 0), (28, 0), (7, 0), (10, 0), (34, 1), (0, 0), (31, 0),
            (30, 0), (17, 0), (10, 1), (9, 0), (8, 0), (16, 0), (18, 0), (20, 0),
        ],
        (40, 4, 16, 7, False, 0): [
            (22, 0), (34, 0), (28, 0), (7, 0), (10, 0), (34, 1), (0, 0), (31, 0),
            (30, 0), (17, 0), (10, 1), (9, 0), (8, 0), (16, 0), (18, 0), (20, 0),
        ],
        (40, 4, 16, 3, True, 16): [
            (3, 0), (11, 0), (32, 0), (24, 0), (3, 1), (17, 0), (19, 0), (6, 0),
            (29, 0), (4, 0), (15, 0), (21, 0), (17, 1), (24, 1), (29, 1), (38, 0),
        ],
        (25, 3, 12, 11, True, 12): [
            (4, 0), (13, 0), (16, 0), (1, 0), (5, 0), (23, 0), (2, 0), (3, 0),
            (23, 1), (16, 1), (9, 0), (13, 1),
        ],
    }

    @staticmethod
    def run(n, nb, C, seed, meta, mirror_cap, use_fast):
        mirror = RingBufferCache(mirror_cap) if mirror_cap else None
        gains = GainTable(LinearUtility(), [nb] * n)
        sched = GreedyScheduler(
            gains, cache_blocks=C, mirror=mirror, meta_request=meta, seed=seed
        )
        rng = np.random.default_rng(seed)
        dense = rng.random((2, n)) + 1e-9
        sched.update_distribution(
            RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.25]), 0.01
        )
        out = []
        if use_fast:
            first = sched.schedule_batch(C // 2)
        else:
            first = [sched.next_block() for _ in range(C // 2)]
        out += first
        if mirror is not None:
            for block in first:
                mirror.mirror_put(block.request, block.index)
                sched.on_sent(block)
        if use_fast:
            out += sched.schedule_batch()
        else:
            while sched.position < C:
                block = sched.next_block()
                if block is None:
                    break
                out.append(block)
        return [(b.request, b.index) for b in out]

    @pytest.mark.parametrize("cfg", sorted(GOLDEN))
    def test_fast_path_reproduces_seed_schedules(self, cfg):
        assert self.run(*cfg, use_fast=True) == self.GOLDEN[cfg]

    @pytest.mark.parametrize("cfg", sorted(GOLDEN))
    def test_scalar_path_reproduces_seed_schedules(self, cfg):
        assert self.run(*cfg, use_fast=False) == self.GOLDEN[cfg]


class TestCachedSets:
    def test_explicit_set_cached_across_epochs_of_same_distribution(self):
        """Rollbacks and batch resets reuse the distribution object, so
        the explicit-id set must not be rebuilt (identity-cached)."""
        gains = GainTable(LinearUtility(), [4] * 30)
        sched = GreedyScheduler(gains, cache_blocks=8, seed=0)
        dense = np.random.default_rng(0).random((1, 30)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05], threshold=0.02)
        sched.update_distribution(dist, 0.01)
        cached = sched._explicit_set
        batch = sched.schedule_batch(4)
        sched.rollback(batch)  # same distribution: set object survives
        assert sched._explicit_set is cached
        sched.update_distribution(
            RequestDistribution.uniform(30), 0.01
        )  # new ids array: rebuilt
        assert sched._explicit_set is not cached

    def test_full_rollback_unpromotes_everything(self):
        """Promotions are held in draw order (the order of their fast-path
        array entries) and none survives a rollback of the whole batch."""
        gains = GainTable(LinearUtility(), [4] * 50)
        sched = GreedyScheduler(gains, cache_blocks=12, seed=3)
        sched.update_distribution(RequestDistribution.uniform(50), 0.01)
        batch = sched.schedule_batch()
        m = len(sched._ids)
        promoted = list(sched._promoted)
        assert promoted and promoted == sched._mat_ids[m : sched._mlen].tolist()
        sched.rollback(batch)
        assert not sched._promoted
        assert sched._mlen == m


def random_distribution(rng, n, m, k, last_s=0.5):
    """``k`` horizons ending at ``last_s`` over ``m`` explicit ids of ``n``."""
    deltas = np.sort(rng.uniform(0.01, last_s, size=k))
    deltas[-1] = last_s
    deltas = np.unique(deltas)
    ids = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    if m:
        raw = rng.random((len(deltas), m))
        probs = rng.uniform(0.3, 0.95) * raw / raw.sum(axis=1, keepdims=True)
    else:
        probs = np.empty((len(deltas), 0))
    return RequestDistribution(
        n=n, deltas_s=deltas, explicit_ids=ids,
        explicit_probs=probs, residual=1.0 - probs.sum(axis=1),
    )


PAPER_DELTAS = (0.05, 0.15, 0.25, 0.5)


def paper_distribution(rng, n, m):
    """The paper's four horizons to 500 ms over ``m`` explicit ids."""
    raw = rng.random((4, m))
    probs = 0.9 * raw / raw.sum(axis=1, keepdims=True)
    return RequestDistribution(
        n=n,
        deltas_s=np.array(PAPER_DELTAS),
        explicit_ids=np.arange(m, dtype=np.int64),
        explicit_probs=probs,
        residual=1.0 - probs.sum(axis=1),
    )


class TestProbabilityMatrices:
    @settings(deadline=None, max_examples=120)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        C=st.integers(min_value=1, max_value=1200),
        k=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=0, max_value=24),
        slot=st.sampled_from([0.003, 0.01, 0.033, 0.12, 0.5, 1.0]),
        gamma=st.sampled_from([1.0, 0.99, 0.9]),
        at_end=st.booleans(),
    )
    def test_structured_rows_match_dense_oracle(self, seed, C, k, m, slot, gamma, at_end):
        """Every row a draw can reach equals the dense matrix's row —
        head rows (3 ms slot: longer than most batch remainders), tail
        rows (1 s slot or one horizon: no head at all), m = 0, and an
        install on a complete batch (``C − t = 0``: nothing to compare,
        and the one readable row is zero as the dense matrix had it)."""
        rng = np.random.default_rng(seed)
        n = 60
        dist = random_distribution(rng, n, m, k)
        position = C if at_end else int(rng.integers(0, C + 1))
        sched = GreedyScheduler(
            GainTable(LinearUtility(), [2] * n), cache_blocks=C, gamma=gamma, seed=0
        )
        sched._t = position
        sched.update_distribution(dist, slot)
        pmat, pres = probability_matrices(dist, C, position, slot, gamma)
        # Out of order on purpose: lazily appended rows depend on
        # nothing but their own slot.
        for r in rng.permutation(np.arange(position, C)):
            row, res = scheduler_row(sched, int(r))
            np.testing.assert_allclose(row, pmat[r], rtol=1e-12, atol=0)
            np.testing.assert_allclose(res, pres[r], rtol=1e-12, atol=0)
        if position == C:
            row, res = scheduler_row(sched, C)
            assert not row.any() and res == 0.0

    def test_zero_remaining_slots(self):
        """A prediction landing on a complete batch installs, weighs
        nothing, and the next draw opens a fresh batch under it."""
        n, C = 5, 4
        sched = GreedyScheduler(GainTable(LinearUtility(), [3] * n), cache_blocks=C, seed=0)
        assert len(sched.schedule_batch()) == C and sched.position == C
        dist = RequestDistribution.point(n, 2)
        sched.update_distribution(dist, 0.01)
        row = sched._row()
        assert sched._meta_weight(row) == 0.0
        assert not sched._utility_gains(sched._all_ids(), row).any()
        assert sched.next_block() == ScheduledBlock(request=2, index=0)
        assert sched.position == 1

    def test_rows_before_position_are_zero(self):
        """Slots before the install position were already decided: the
        dense matrix zeroed their rows, the block just starts at the
        position and never holds more than the batch's remainder."""
        dense = np.random.default_rng(1).random((2, 8)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.2])
        pmat, pres = probability_matrices(dist, 6, 2, 0.05)
        np.testing.assert_array_equal(pmat[:2], 0.0)
        np.testing.assert_array_equal(pres[:2], 0.0)
        sched = GreedyScheduler(GainTable(LinearUtility(), [4] * 8), cache_blocks=6, seed=0)
        sched.schedule_batch(2)
        sched.update_distribution(dist, 0.05)
        row, res = scheduler_row(sched, 2)
        np.testing.assert_allclose(row, pmat[2], rtol=1e-12)
        last_row, last_res = scheduler_row(sched, 5)
        assert len(sched._res) == len(sched._rows) <= 6 - 2
        # Row t aggregates all remaining slots; later rows shed mass.
        assert (last_row >= 0).all() and res >= last_res

    def test_state_is_head_plus_a_chunk_not_the_batch(self):
        """The memory win, deterministically: at the paper's shape the
        install holds the 15 rows before the 500 ms horizon, not 1000."""
        C, m, slot = 1000, 144, 0.033
        dist = paper_distribution(np.random.default_rng(0), 10_000, m)
        sched = GreedyScheduler(GainTable(LinearUtility(), [30] * 10_000), cache_blocks=C)
        sched.update_distribution(dist, slot)
        head = sum(1 for j in range(1, C + 1) if j * slot < PAPER_DELTAS[-1])
        assert head == 15 == len(sched._rows)
        held = sched._rows.size + sched._res.size + sched._D.size
        assert held < (head + 64) * m < C * m
        # ... and a tick's worth of draws past the head stays that small.
        sched.schedule_batch(head + 10)
        assert sched._rows.size + sched._res.size + sched._D.size < (head + 64) * m

    @pytest.mark.parametrize("gamma", [1.0, 0.95])
    def test_lazy_extension_keeps_batch_and_scalar_paths_identical(self, gamma):
        """One ``schedule_batch`` that runs past the head, to the end of
        the batch and across two resets with no new distribution draws
        the ``next_block`` stream, and the appended rows are the
        oracle's."""
        n, C, slot = 400, 90, 0.033
        dist = paper_distribution(np.random.default_rng(5), n, 12)
        gains = GainTable(LinearUtility(), [6] * n)
        fast = GreedyScheduler(gains, cache_blocks=C, gamma=gamma, seed=9)
        slow = GreedyScheduler(gains, cache_blocks=C, gamma=gamma, seed=9)
        for sched in (fast, slow):
            sched.schedule_batch(7)
            sched.update_distribution(dist, slot)
        assert len(fast._rows) == 15  # the head only, so far
        batch = fast.schedule_batch(2 * C + 20)
        assert batch == [slow.next_block() for _ in range(2 * C + 20)]
        assert fast.schedules_generated == 2 and fast.position == 27
        assert 15 < len(fast._rows) < C  # grown past the head, from slot 0
        pmat, pres = probability_matrices(dist, C, 0, slot, gamma)
        for r in (27, 40, C - 1):
            row, res = scheduler_row(fast, r)
            np.testing.assert_allclose(row, pmat[r], rtol=1e-12)
            np.testing.assert_allclose(res, pres[r], rtol=1e-12)

    def test_rollback_below_install_position_reanchors_rows(self):
        n, C, slot = 80, 60, 0.033
        dist = paper_distribution(np.random.default_rng(3), n, 10)
        gains = GainTable(LinearUtility(), [5] * n)
        fast = GreedyScheduler(gains, cache_blocks=C, seed=4)
        slow = GreedyScheduler(gains, cache_blocks=C, seed=4)
        for sched in (fast, slow):
            drawn = sched.schedule_batch(10)
            sched.update_distribution(dist, slot)
            drawn += sched.schedule_batch(5)
            sched.rollback(drawn[7:])  # to slot 7, below the install at 10
            assert sched.position == 7 == sched._t0
        pmat, pres = probability_matrices(dist, C, 7, slot)
        for r in (7, 9, 30):
            row, res = scheduler_row(fast, r)
            np.testing.assert_allclose(row, pmat[r], rtol=1e-12)
            np.testing.assert_allclose(res, pres[r], rtol=1e-12)
        fast._t = 7
        assert fast.schedule_batch(40) == [slow.next_block() for _ in range(40)]


class TestExplicitMatrixEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_matches_explicit_at_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        deltas = np.unique(np.sort(rng.random(int(rng.integers(1, 5))) + 0.01))
        k = len(deltas)
        m = int(rng.integers(0, n))
        ids = rng.choice(n, size=m, replace=False).astype(np.int64)
        if m:
            raw = rng.random((k, m))
            probs = rng.uniform(0.3, 0.95) * raw / raw.sum(axis=1, keepdims=True)
        else:
            probs = np.empty((k, 0))
        residual = 1.0 - probs.sum(axis=1)
        dist = RequestDistribution(
            n=n, deltas_s=deltas, explicit_ids=ids,
            explicit_probs=probs, residual=residual,
        )
        # Below, between, exactly on, and beyond the horizons.
        qs = np.concatenate(
            [rng.random(7) * deltas[-1] * 1.5, deltas,
             [deltas[0] * 0.5, deltas[-1] * 2.0]]
        )
        mat, res = dist.explicit_matrix(qs)
        for row, q in enumerate(qs):
            _ids, p, r = dist.explicit_at(float(q))
            np.testing.assert_array_equal(mat[row], p)
            assert res[row] == r


class TestExpectedUtilityEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        nb = rng.integers(1, 9, size=n)
        utility = ssim_image_utility() if seed % 2 else LinearUtility()
        gains = GainTable(utility, nb)
        C = int(rng.integers(1, 30))
        schedule = [ScheduledBlock(int(r), 0) for r in rng.integers(0, n, size=C)]
        dense = rng.random((2, n)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.3])
        seeds = {
            int(r): int(c)
            for r, c in zip(rng.integers(0, n, size=3), rng.integers(0, 5, size=3))
        }
        gamma = 0.97 if seed % 3 else 1.0
        a = expected_utility_scalar(
            schedule, dist, gains, 0.01, gamma=gamma, initial_blocks=seeds
        )
        b = expected_utility(
            schedule, dist, gains, 0.01, gamma=gamma, initial_blocks=seeds
        )
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_empty_schedule(self):
        gains = GainTable(LinearUtility(), [3, 3])
        dist = RequestDistribution.uniform(2)
        assert expected_utility([], dist, gains, 0.01) == 0.0

    def test_validation(self):
        gains = GainTable(LinearUtility(), [3, 3])
        dist = RequestDistribution.uniform(2)
        with pytest.raises(ValueError):
            expected_utility([], dist, gains, 0.0)
        with pytest.raises(ValueError):
            expected_utility([], dist, gains, 0.01, gamma=1.5)
