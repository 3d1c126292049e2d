"""Think-time rescaling of interaction traces (§6.2, Fig. 9).

The think-time experiment "synthetically var[ies] the think times in
the traces between 10–200 ms".  Think time is the gap between
consecutive requests, so rescaling warps the time axis *between*
request events while keeping the request sequence (and the spatial
path) identical: movement samples inside each inter-request interval
are repositioned proportionally.

The warp is piecewise linear with knots at the request events.  This
preserves two properties the experiments rely on: the Oracle predictor
still reads exact future positions off the warped trace, and the
request order/targets are untouched, so results isolate the effect of
pacing alone.
"""

from __future__ import annotations

import numpy as np

from .trace import InteractionTrace

__all__ = ["rescale_think_times", "mean_think_time_s"]


def mean_think_time_s(trace: InteractionTrace) -> float:
    """Average gap between consecutive requests (0 for < 2 requests)."""
    gaps = trace.think_times_s()
    return float(gaps.mean()) if len(gaps) else 0.0


def rescale_think_times(
    trace: InteractionTrace, target_mean_s: float
) -> InteractionTrace:
    """Warp ``trace`` so its mean think time equals ``target_mean_s``.

    Every inter-request gap is multiplied by the same factor
    (``target / current`` mean), so the *shape* of the think-time
    distribution is preserved — only its scale moves, matching the
    paper's experiment design.  The lead-in before the first request
    and the tail after the last one are scaled by the same factor.
    """
    if target_mean_s <= 0:
        raise ValueError("target mean think time must be positive")
    current = mean_think_time_s(trace)
    if current <= 0:
        raise ValueError("trace has no inter-request gaps to rescale")
    factor = target_mean_s / current
    return scale_time(trace, factor)


def scale_time(trace: InteractionTrace, factor: float) -> InteractionTrace:
    """Multiply all event times by ``factor`` (uniform time warp).

    A uniform warp *is* the piecewise-linear warp with equal slopes, and
    multiplying every gap by ``factor`` scales the mean think time by
    exactly ``factor``; using one global slope keeps mouse velocities
    consistent for the Kalman filter rather than introducing artificial
    speed discontinuities at request boundaries.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    times, xs, ys, requests = trace.columns
    return InteractionTrace.from_columns(
        [t * factor for t in times], xs, ys, requests, name=f"{trace.name}*x{factor:.3g}"
    )
