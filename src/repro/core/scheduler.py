"""Scheduling problem definition (§5.1–§5.2).

Shared vocabulary for the greedy and ILP schedulers:

* :class:`ScheduledBlock` — one slot's decision: which block of which
  request goes on the wire.
* :class:`GainTable` — the linearized utility ``g_i(j) = U(j/Nb_i) −
  U((j−1)/Nb_i)`` per request (the paper's step-function
  approximation, exact because block counts are discrete).
* :func:`expected_utility` — the objective of Eq. 2, used to compare
  schedules across schedulers (Fig. 17): for a schedule ``b_1..b_C``,

  .. math::
     V = \\sum_{k=1}^{C} \\gamma^{k-1} \\sum_i U(B_i^k)\\,P(q_i \\mid k)

  where ``B_i^k`` counts blocks of request ``i`` among the first ``k``
  scheduled blocks and ``P(q_i | k)`` is the predicted probability at
  the wall-clock offset of slot ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .distribution import RequestDistribution
from .utility import UtilityFunction

__all__ = [
    "ScheduledBlock",
    "GainTable",
    "Scheduler",
    "expected_utility",
    "expected_utility_scalar",
]


@dataclass(frozen=True, slots=True)
class ScheduledBlock:
    """Decision for one schedule slot: send block ``index`` of ``request``.

    ``slots=True``: schedulers mint one per allocated slot and senders
    queue them by the pipeline window, so the per-instance ``__dict__``
    would be pure overhead on the hot path.
    """

    request: int
    index: int


class Scheduler(Protocol):
    """What the sender needs from a scheduler."""

    C: int
    """Batch length in blocks (the client cache size)."""

    @property
    def position(self) -> int:
        """Slots allocated in the current batch (Listing 1's ``t``).

        With ``C``, this bounds the sender's throttled window pulls so
        a deferral rollback never crosses a batch reset."""
        ...

    def update_distribution(
        self, dist: RequestDistribution, slot_duration_s: float
    ) -> None:
        """Install a fresh prediction; reschedule the unsent remainder."""

    def next_block(self) -> Optional[ScheduledBlock]:
        """Allocate the next block, or None when nothing is worth sending."""

    def schedule_batch(
        self, max_blocks: Optional[int] = None
    ) -> list[ScheduledBlock]:
        """Allocate up to ``max_blocks`` in one call (the sender's
        pipeline fill pulls each top-up through this instead of
        looping :meth:`next_block`)."""

    def rollback(
        self, blocks: Sequence[ScheduledBlock], recompute: bool = True
    ) -> None:
        """Un-allocate blocks that were scheduled but never sent.

        ``recompute=False``: the caller installs a new distribution
        before the next draw, so derived state need not be rebuilt."""

    def on_sent(self, block: ScheduledBlock) -> None:
        """Confirm a block reached the wire (cache-mirror bookkeeping)."""


class GainTable:
    """Per-request utility gains with heterogeneous block counts.

    Images of 1.3–2 MB at a 50 KB block size have 26–40 blocks each, so
    ``Nb`` varies per request.  Gains arrays are deduplicated by block
    count (10k images share a few dozen distinct ``Nb`` values).
    """

    def __init__(self, utility: UtilityFunction, num_blocks: Sequence[int]) -> None:
        counts = np.asarray(num_blocks, dtype=np.int64)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValueError("num_blocks must be a non-empty 1-D sequence")
        if (counts < 1).any():
            raise ValueError("every request needs at least one block")
        self.utility = utility
        self.num_blocks = counts
        distinct = np.unique(counts)
        self._by_count: dict[int, np.ndarray] = {
            int(nb): utility.gains(int(nb)) for nb in distinct
        }
        self.mean_first_gain = float(
            np.mean([self._by_count[int(nb)][0] for nb in counts])
        )
        # Dense gather table for gain_vector: one row per *distinct*
        # block count, zero-padded past each row's Nb (a complete
        # request's next-block gain is 0), plus one all-zero column so a
        # clipped ``have`` lands on zero for every row.  Tiny in
        # practice: tens of distinct counts x max Nb.
        width = int(distinct.max()) + 1
        self._gain_matrix = np.zeros((len(distinct), width))
        for row, nb in enumerate(distinct):
            self._gain_matrix[row, : int(nb)] = self._by_count[int(nb)]
        self._row_of_request = np.searchsorted(distinct, counts)

    @property
    def n(self) -> int:
        return len(self.num_blocks)

    def blocks_of(self, request: int) -> int:
        return int(self.num_blocks[request])

    def gains_of(self, request: int) -> np.ndarray:
        """The full gains array ``g(1..Nb)`` for ``request``."""
        return self._by_count[int(self.num_blocks[request])]

    def gain(self, request: int, have_blocks: int) -> float:
        """Marginal gain of the *next* block given ``have_blocks`` cached.

        Zero once the request is complete — a fully cached request has
        nothing left to win, which is what steers the sampler elsewhere.
        """
        gains = self.gains_of(request)
        if have_blocks >= len(gains):
            return 0.0
        return float(gains[have_blocks])

    def gain_vector(self, requests: np.ndarray, have_blocks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`gain` over parallel arrays.

        A single fancy-indexed gather into the padded per-count gain
        matrix; ``have_blocks`` entries at or beyond a request's ``Nb``
        read the zero padding, matching the scalar path's "complete
        request gains nothing".  ``have_blocks`` must be non-negative.
        """
        requests = np.asarray(requests, dtype=np.int64)
        have = np.asarray(have_blocks, dtype=np.int64)
        if requests.shape != have.shape:
            raise ValueError("requests and have_blocks must be parallel arrays")
        if len(requests) == 0:
            return np.empty(0)
        rows = self._row_of_request[requests]
        cols = np.minimum(have, self._gain_matrix.shape[1] - 1)
        return self._gain_matrix[rows, cols]

    def utility_of(self, request: int, have_blocks: int) -> float:
        """``U(min(have, Nb) / Nb)`` for a request."""
        nb = self.blocks_of(request)
        return float(self.utility(min(have_blocks, nb) / nb))


def expected_utility_scalar(
    schedule: Sequence[ScheduledBlock],
    dist: RequestDistribution,
    gains: GainTable,
    slot_duration_s: float,
    gamma: float = 1.0,
    initial_blocks: Optional[dict[int, int]] = None,
) -> float:
    """Reference (dict-loop) implementation of the Eq. 2 objective.

    Kept as the readable specification; :func:`expected_utility` is the
    vectorized production path and is equivalence-tested against this.
    """
    if slot_duration_s <= 0:
        raise ValueError("slot duration must be positive")
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    have: dict[int, int] = dict(initial_blocks or {})
    value = 0.0
    for k, decision in enumerate(schedule, start=1):
        have[decision.request] = have.get(decision.request, 0) + 1
        delta = k * slot_duration_s
        step = 0.0
        for request, count in have.items():
            p = dist.prob_of(request, delta)
            if p > 0:
                step += gains.utility_of(request, count) * p
        value += gamma ** (k - 1) * step
    return value


def expected_utility(
    schedule: Sequence[ScheduledBlock],
    dist: RequestDistribution,
    gains: GainTable,
    slot_duration_s: float,
    gamma: float = 1.0,
    initial_blocks: Optional[dict[int, int]] = None,
) -> float:
    """Evaluate a schedule under the Eq. 2 objective.

    ``initial_blocks`` seeds per-request cache contents (empty by
    default, matching a fresh batch).  Only requests touched by the
    schedule or the seed contribute — untouched requests have
    ``U(0) = 0``.

    Vectorized over slots × touched requests: the per-slot block counts
    come from one cumulative sum over slot increments, probabilities
    from one :meth:`~RequestDistribution.explicit_matrix` blend, and
    utilities from per-request prefix lookup tables, replacing the
    O(C·n) Python dict loop (Fig. 17's evaluation cost).
    """
    if slot_duration_s <= 0:
        raise ValueError("slot duration must be positive")
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    seeds = dict(initial_blocks or {})
    touched = sorted({b.request for b in schedule} | set(seeds))
    C = len(schedule)
    if C == 0 or not touched:
        return 0.0
    col_of = {r: i for i, r in enumerate(touched)}
    R = len(touched)

    # Per-slot block counts: cumulative sum of one-hot increments.
    inc = np.zeros((C, R))
    for k, decision in enumerate(schedule):
        inc[k, col_of[decision.request]] += 1.0
    counts = np.cumsum(inc, axis=0).astype(np.int64)
    if seeds:
        base = np.zeros(R, dtype=np.int64)
        for request, count in seeds.items():
            base[col_of[request]] = count
        counts += base

    # Utility lookup per touched request: U(min(j, Nb)/Nb) for j up to
    # the request's final count (scalar U calls: O(C + R), not O(C·R)).
    util = np.empty((C, R))
    for i, request in enumerate(touched):
        nb = gains.blocks_of(request)
        top = int(counts[-1, i])
        table = np.array(
            [gains.utility_of(request, j) for j in range(min(top, nb) + 1)]
        )
        util[:, i] = table[np.minimum(counts[:, i], len(table) - 1)]

    # Probabilities at each slot's wall-clock offset, in one blend.
    deltas = np.arange(1, C + 1) * slot_duration_s
    probs_explicit, residual = dist.explicit_matrix(deltas)
    uniform = residual / dist.num_uniform if dist.num_uniform else np.zeros(C)
    probs = np.empty((C, R))
    explicit_col = {int(r): j for j, r in enumerate(dist.explicit_ids)}
    for i, request in enumerate(touched):
        j = explicit_col.get(request)
        probs[:, i] = probs_explicit[:, j] if j is not None else uniform

    # Requests contribute only once they hold >= 1 block (U(0) = 0 by
    # the §3.3 contract, so masking just avoids spurious 0·p work).
    contrib = util * probs
    contrib[counts == 0] = 0.0
    steps = contrib.sum(axis=1)
    discount = gamma ** np.arange(C) if gamma < 1.0 else None
    return float(steps @ discount if discount is not None else steps.sum())
