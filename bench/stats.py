"""The few statistics the benchmark reports with, in one place.

Quartiles follow ``statistics.quantiles(values, n=4)`` — the same
definition the benchmark driver uses for its steadiness check — so
``bench/suite.py`` prints the spread the driver will see.
"""

from __future__ import annotations

import statistics
from statistics import median
from typing import Sequence

import numpy as np

__all__ = ["median", "quartiles", "spread", "percentile", "compare"]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    return float(np.percentile(values, p)) if len(values) else 0.0


def compare(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> tuple[float, str]:
    """``(worse_by, verdict)`` for one workload × metric.

    ``worse_by`` is how much worse the new median is, as a share of the
    base median (negative = better).  The verdict follows the
    choosing-metrics guide (§6.5): ``regressed`` if worse by more than
    ``bound``; where the base's own run-to-run spread is wider than the
    bound the row is ``unresolved`` rather than ``ok`` — unless every
    new run reads better than every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = median(base)
    worse_by = sign * (median(new) - base_median) / abs(base_median) if base_median else 0.0
    if worse_by > bound:
        return worse_by, "regressed"
    if spread(base) > bound:
        all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
        if not all_better:
            return worse_by, "unresolved"
    return worse_by, "ok"
