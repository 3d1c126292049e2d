"""Predicted request distributions (§4, §5).

Predictors estimate ``P(q | Δ)`` — the probability that request ``q``
is issued ``Δ`` seconds in the future — at a small set of horizons
(the paper uses Δ ∈ {50, 150, 250, 500 ms}) and linearly interpolate
between them.

With 10k possible requests, materializing dense vectors per horizon is
wasteful: most requests share the same ≈0 probability (§5.3.1's
meta-request observation).  :class:`RequestDistribution` therefore
stores *explicit* probabilities for a small set of request ids plus a
single *residual* mass spread uniformly over all remaining requests.
The greedy scheduler exploits exactly this split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["RequestDistribution"]

_EPS = 1e-9


@dataclass(frozen=True)
class RequestDistribution:
    """Sparse probability over ``n`` requests at future horizons.

    Attributes
    ----------
    n:
        Total number of possible requests.
    deltas_s:
        Sorted future offsets (seconds) at which probabilities are
        specified; shape ``(k,)``.
    explicit_ids:
        Request ids with individually tracked probabilities; shape
        ``(m,)``, unique.
    explicit_probs:
        ``(k, m)`` matrix; row ``j`` holds the explicit probabilities at
        ``deltas_s[j]``.
    residual:
        ``(k,)`` vector: leftover mass at each horizon, implicitly
        spread uniformly over the ``n - m`` non-explicit requests.
        Each row satisfies ``explicit_probs[j].sum() + residual[j] == 1``.
    """

    n: int
    deltas_s: np.ndarray
    explicit_ids: np.ndarray
    explicit_probs: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        deltas = np.asarray(self.deltas_s, dtype=float)
        ids = np.asarray(self.explicit_ids, dtype=np.int64)
        probs = np.atleast_2d(np.asarray(self.explicit_probs, dtype=float))
        residual = np.asarray(self.residual, dtype=float)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if deltas.ndim != 1 or len(deltas) < 1:
            raise ValueError("need at least one horizon")
        if (deltas[1:] - deltas[:-1] <= 0).any():  # np.diff without its wrapper
            raise ValueError("horizons must be strictly increasing")
        if probs.shape != (len(deltas), len(ids)):
            raise ValueError(
                f"explicit_probs shape {probs.shape} != ({len(deltas)}, {len(ids)})"
            )
        if residual.shape != (len(deltas),):
            raise ValueError("residual must have one entry per horizon")
        if len(ids):
            # Strictly increasing ids (every decoder's) are unique, with
            # their extremes at the ends; any other order pays np.unique.
            if (ids[1:] > ids[:-1]).all():
                first, last = ids[0], ids[-1]
            elif len(np.unique(ids)) != len(ids):
                raise ValueError("explicit ids must be unique")
            else:
                first, last = ids.min(), ids.max()
            if first < 0 or last >= self.n:
                raise ValueError("explicit ids out of range")
        if (probs < -_EPS).any() or (residual < -_EPS).any():
            raise ValueError("probabilities must be non-negative")
        totals = probs.sum(axis=1) + residual
        # np.allclose(totals, 1, atol=1e-6) without its overhead; NaN
        # and inf fail the comparison just the same.
        if not all(abs(t - 1.0) <= 1e-6 + 1e-5 for t in totals.tolist()):
            raise ValueError(f"each horizon must sum to 1 (got {totals})")
        if len(ids) >= self.n and (residual > _EPS).any():
            raise ValueError("residual mass with no non-explicit requests")
        object.__setattr__(self, "deltas_s", deltas)
        object.__setattr__(self, "explicit_ids", ids)
        object.__setattr__(self, "explicit_probs", probs)
        object.__setattr__(self, "residual", residual)

    # -- constructors ------------------------------------------------

    @classmethod
    def uniform(cls, n: int, deltas_s: Sequence[float] = (0.05,)) -> "RequestDistribution":
        """All requests equally likely at every horizon (the default)."""
        k = len(deltas_s)
        return cls(
            n=n,
            deltas_s=np.asarray(deltas_s, dtype=float),
            explicit_ids=np.empty(0, dtype=np.int64),
            explicit_probs=np.empty((k, 0)),
            residual=np.ones(k),
        )

    @classmethod
    def point(
        cls, n: int, request: int, deltas_s: Sequence[float] = (0.05,)
    ) -> "RequestDistribution":
        """All mass on one request (the traditional-request special case)."""
        k = len(deltas_s)
        return cls(
            n=n,
            deltas_s=np.asarray(deltas_s, dtype=float),
            explicit_ids=np.array([request], dtype=np.int64),
            explicit_probs=np.ones((k, 1)),
            residual=np.zeros(k),
        )

    @classmethod
    def from_dense(
        cls,
        probs_by_delta: np.ndarray,
        deltas_s: Sequence[float],
        threshold: float = 1e-4,
    ) -> "RequestDistribution":
        """Compress dense ``(k, n)`` probabilities into sparse form.

        Requests whose probability exceeds ``threshold`` at *any*
        horizon become explicit; the rest pool into the residual.  Rows
        are normalized.
        """
        dense = np.atleast_2d(np.asarray(probs_by_delta, dtype=float))
        if (dense < 0).any():
            raise ValueError("probabilities must be non-negative")
        sums = dense.sum(axis=1, keepdims=True)
        if (sums <= 0).any():
            raise ValueError("each horizon needs positive total mass")
        dense = dense / sums
        n = dense.shape[1]
        explicit_mask = (dense > threshold).any(axis=0)
        ids = np.nonzero(explicit_mask)[0].astype(np.int64)
        probs = dense[:, ids]
        residual = 1.0 - probs.sum(axis=1)
        residual = np.clip(residual, 0.0, 1.0)
        if len(ids) == n:
            # No residual pool to absorb rounding mass; renormalize.
            probs = probs / probs.sum(axis=1, keepdims=True)
            residual = np.zeros(len(dense))
        return cls(
            n=n,
            deltas_s=np.asarray(deltas_s, dtype=float),
            explicit_ids=ids,
            explicit_probs=probs,
            residual=residual,
        )

    # -- queries -----------------------------------------------------

    @property
    def num_explicit(self) -> int:
        return len(self.explicit_ids)

    @property
    def num_uniform(self) -> int:
        """Count of requests sharing the residual mass."""
        return self.n - len(self.explicit_ids)

    def _interp_weights(self, delta_s: float) -> tuple[int, int, float]:
        """Bracketing horizon indices and blend weight for ``delta_s``.

        Clamps outside the horizon range (before the first horizon and
        beyond the last, the nearest horizon's distribution holds).
        """
        deltas = self.deltas_s
        if delta_s <= deltas[0]:
            return 0, 0, 0.0
        if delta_s >= deltas[-1]:
            last = len(deltas) - 1
            return last, last, 0.0
        hi = int(np.searchsorted(deltas, delta_s, side="right"))
        lo = hi - 1
        w = (delta_s - deltas[lo]) / (deltas[hi] - deltas[lo])
        return lo, hi, float(w)

    def explicit_at(self, delta_s: float) -> tuple[np.ndarray, np.ndarray, float]:
        """``(ids, probs, residual)`` linearly interpolated at ``delta_s``."""
        lo, hi, w = self._interp_weights(delta_s)
        if lo == hi:
            return self.explicit_ids, self.explicit_probs[lo], float(self.residual[lo])
        probs = (1 - w) * self.explicit_probs[lo] + w * self.explicit_probs[hi]
        residual = (1 - w) * self.residual[lo] + w * self.residual[hi]
        return self.explicit_ids, probs, float(residual)

    def explicit_matrix(self, deltas_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`explicit_at` over many horizons.

        Returns ``(probs, residual)`` with shapes ``(len(deltas_s), m)``
        and ``(len(deltas_s),)``.  Used by the scheduler to blend the
        probability rows before the last horizon in one shot, and by
        ``expected_utility``.  One ``searchsorted`` brackets every
        horizon and one formula, ``(1 − w)·P[lo] + w·P[hi]``, blends
        every row: ``w`` is :meth:`_interp_weights`' float, and a row
        clamped outside the horizon range (or sitting on the first
        horizon) has ``w = 0``, which yields an exact copy of the row
        :meth:`explicit_at` returns there.
        """
        qs = np.asarray(deltas_s, dtype=float)
        deltas = self.deltas_s
        right = deltas.searchsorted(qs, side="right")
        lo = np.maximum(right - 1, 0)
        hi = np.minimum(right, len(deltas) - 1)
        clamped = lo == hi
        w = (qs - deltas[lo]) / np.where(clamped, 1.0, deltas[hi] - deltas[lo])
        w[clamped] = 0.0
        wc = w[:, None]
        probs = (1 - wc) * self.explicit_probs[lo] + wc * self.explicit_probs[hi]
        residual = (1 - w) * self.residual[lo] + w * self.residual[hi]
        return probs, residual

    def dense_at(self, delta_s: float) -> np.ndarray:
        """Full length-``n`` probability vector at ``delta_s`` (small n only)."""
        ids, probs, residual = self.explicit_at(delta_s)
        dense = np.full(self.n, residual / self.num_uniform if self.num_uniform else 0.0)
        dense[ids] = probs
        return dense

    def prob_of(self, request: int, delta_s: float) -> float:
        """Probability of a single request at ``delta_s``."""
        ids, probs, residual = self.explicit_at(delta_s)
        hit = np.nonzero(ids == request)[0]
        if len(hit):
            return float(probs[hit[0]])
        return residual / self.num_uniform if self.num_uniform else 0.0

    def top_k(self, k: int, delta_s: Optional[float] = None) -> list[int]:
        """The ``k`` most likely requests (at the first horizon by default)."""
        d = float(self.deltas_s[0]) if delta_s is None else delta_s
        ids, probs, residual = self.explicit_at(d)
        uniform_p = residual / self.num_uniform if self.num_uniform else 0.0
        order = np.argsort(-probs, kind="stable")
        ranked = [int(ids[i]) for i in order if probs[i] > uniform_p]
        return ranked[:k]
