"""Interface layouts: widget bounding boxes → request distributions (§4).

Both evaluation applications use *static layouts*: the image gallery is
a dense grid of thumbnails, Falcon a fixed row of charts.  Requests are
only generated when the mouse is over a widget, so a distribution over
mouse position translates directly into a distribution over requests
through the widget bounding boxes — the ``P_l(q | Δ, x, y, l)`` factor
in the paper's custom predictor.

:class:`GridLayout` handles the gallery's regular grid analytically
(per-cell Gaussian mass via axis-aligned CDF products, touching only
cells within a few standard deviations of the mean — essential with
10,000 thumbnails).  :class:`ChartLayout` handles a small number of
irregular widgets by integrating per widget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.distribution import RequestDistribution

__all__ = ["GridLayout", "ChartLayout", "BoundingBox"]

_SQRT2 = math.sqrt(2.0)


def _erf_many(values: np.ndarray) -> np.ndarray:
    """``math.erf`` over a flat array.

    ``math.erf`` (not scipy's Cephes port) keeps every value
    bit-identical to the scalar :func:`_mass_1d` calls, which is what
    lets the factorized and batched decode paths promise byte-identical
    distributions.  One list-comprehension pass; the factorization
    already cut the call count from O(cells) to O(rows + cols).
    """
    return np.array([math.erf(v) for v in values.tolist()], dtype=float)


def _segment_masses(
    segments: Sequence[tuple[np.ndarray, np.ndarray, float, float]]
) -> list[np.ndarray]:
    """Per-cell 1-D Gaussian masses for many ``(lo, hi, mean, std)`` axes.

    Each segment's cell ``i`` gets the mass of ``N(mean, std)`` inside
    ``[lo[i], hi[i])`` — exactly :func:`_mass_1d` per cell (``lo``/``hi``
    are the same floats :meth:`GridLayout.bbox` produces, so the result
    is byte-identical to integrating each
    :meth:`BoundingBox.gaussian_mass`), with every boundary of every
    segment evaluated in one flattened erf pass.  This is the
    truncated-Gaussian kernel behind both the single-state and the
    fleet-batched decode.
    """
    zs = [
        (np.concatenate([lo, hi]) - mean) / std / _SQRT2
        for lo, hi, mean, std in segments
        if std > 0
    ]
    table = _erf_many(np.concatenate(zs)) if zs else np.empty(0)
    out: list[np.ndarray] = []
    k = 0
    for lo, hi, mean, std in segments:
        if std > 0:
            cells = len(lo)
            t = table[k : k + 2 * cells]
            k += 2 * cells
            out.append(0.5 * (t[cells:] - t[:cells]))
        else:
            # Degenerate: all mass at the mean (matches _mass_1d).
            out.append(((lo <= mean) & (mean < hi)).astype(float))
    return out


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned widget rectangle ``[x0, x1) x [y0, y1)`` in pixels."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate bounding box: {self}")

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def gaussian_mass(
        self, mean_x: float, mean_y: float, std_x: float, std_y: float
    ) -> float:
        """Probability a diagonal Gaussian lands inside this box."""
        px = _mass_1d(self.x0, self.x1, mean_x, std_x)
        py = _mass_1d(self.y0, self.y1, mean_y, std_y)
        return float(px * py)


def _mass_1d(lo: float, hi: float, mean: float, std: float) -> float:
    if std <= 0:
        return 1.0 if lo <= mean < hi else 0.0
    zlo = (lo - mean) / std
    zhi = (hi - mean) / std
    return 0.5 * (math.erf(zhi / _SQRT2) - math.erf(zlo / _SQRT2))


class GridLayout:
    """A regular ``rows x cols`` grid of equally sized cells.

    Request id of cell ``(row, col)`` is ``row * cols + col`` — the
    same dense ids the scheduler uses.  The image application's mosaic
    of 10,000 thumbnails is a ``100 x 100`` grid.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        cell_width: float,
        cell_height: float,
        origin_x: float = 0.0,
        origin_y: float = 0.0,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and column")
        if cell_width <= 0 or cell_height <= 0:
            raise ValueError("cell dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.cell_width = cell_width
        self.cell_height = cell_height
        self.origin_x = origin_x
        self.origin_y = origin_y

    @property
    def num_requests(self) -> int:
        return self.rows * self.cols

    @property
    def width(self) -> float:
        return self.cols * self.cell_width

    @property
    def height(self) -> float:
        return self.rows * self.cell_height

    def request_at(self, x: float, y: float) -> Optional[int]:
        """Request id of the cell containing ``(x, y)``, or None outside."""
        col = int((x - self.origin_x) // self.cell_width)
        row = int((y - self.origin_y) // self.cell_height)
        if 0 <= row < self.rows and 0 <= col < self.cols:
            return row * self.cols + col
        return None

    def bbox(self, request: int) -> BoundingBox:
        if not 0 <= request < self.num_requests:
            raise IndexError(f"request {request} outside grid")
        row, col = divmod(request, self.cols)
        x0 = self.origin_x + col * self.cell_width
        y0 = self.origin_y + row * self.cell_height
        return BoundingBox(x0, y0, x0 + self.cell_width, y0 + self.cell_height)

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        """Clamp a point into the grid's extent (mouse can overshoot)."""
        x = min(max(x, self.origin_x), self.origin_x + self.width - 1e-9)
        y = min(max(y, self.origin_y), self.origin_y + self.height - 1e-9)
        return x, y

    def gaussian_distribution(
        self,
        means: Sequence[tuple[float, float]],
        stds: Sequence[tuple[float, float]],
        deltas_s: Sequence[float],
        truncate_sigmas: float = 3.0,
        uniform_rows: Sequence[bool] = (),
    ) -> RequestDistribution:
        """Gaussian position estimates (one per horizon) → distribution.

        Only cells within ``truncate_sigmas`` standard deviations of a
        mean get explicit probabilities; everything else pools into the
        residual.  Rows flagged in ``uniform_rows`` are fully uniform
        (the paper's 500 ms horizon).

        A cell's mass under a diagonal Gaussian factors into a
        per-column x-mass times a per-row y-mass, so the window costs
        O(rows + cols) erf evaluations instead of O(rows x cols) —
        byte-identical to integrating each
        :meth:`BoundingBox.gaussian_mass` (the segments carry the exact
        per-cell ``lo``/``hi`` floats :meth:`bbox` produces, and the
        x·y product is the same multiply).
        :meth:`gaussian_distribution_batch` stacks the same kernel
        across many states.
        """
        if len(means) != len(deltas_s) or len(stds) != len(deltas_s):
            raise ValueError("need one (mean, std) pair per horizon")
        windows, segments = self._row_plan(means, stds, truncate_sigmas, uniform_rows)
        masses = _segment_masses(segments)
        return self._assemble(windows, masses, deltas_s, uniform_rows)

    def gaussian_distribution_batch(
        self,
        states: Sequence[
            tuple[
                Sequence[tuple[float, float]],
                Sequence[tuple[float, float]],
                Sequence[bool],
            ]
        ],
        deltas_s: Sequence[float],
        truncate_sigmas: float = 3.0,
    ) -> list[RequestDistribution]:
        """:meth:`gaussian_distribution` for many ``(means, stds,
        uniform_rows)`` states with one flattened truncated-Gaussian
        pass over every axis boundary of every state.  Byte-identical
        per state to the single-state method (shared kernels)."""
        plans = []
        all_segments: list[tuple[np.ndarray, float, float]] = []
        for means, stds, uniform_rows in states:
            if len(means) != len(deltas_s) or len(stds) != len(deltas_s):
                raise ValueError("need one (mean, std) pair per horizon")
            windows, segments = self._row_plan(
                means, stds, truncate_sigmas, uniform_rows
            )
            plans.append((windows, len(segments), uniform_rows))
            all_segments.extend(segments)
        all_masses = _segment_masses(all_segments)
        out = []
        k = 0
        for windows, count, uniform_rows in plans:
            out.append(
                self._assemble(
                    windows, all_masses[k : k + count], deltas_s, uniform_rows
                )
            )
            k += count
        return out

    def _row_plan(
        self,
        means: Sequence[tuple[float, float]],
        stds: Sequence[tuple[float, float]],
        truncate_sigmas: float,
        uniform_rows: Sequence[bool],
    ) -> tuple[list, list[tuple[np.ndarray, np.ndarray, float, float]]]:
        """Per-horizon cell windows plus their axis-mass segments.

        ``windows[j]`` is ``(r0, r1, c0, c1)`` or ``None`` for uniform
        horizons; each non-uniform horizon contributes an x then a y
        segment (in that order) to ``segments``.
        """
        windows: list = []
        segments: list[tuple[np.ndarray, np.ndarray, float, float]] = []
        for j, ((mx, my), (sx, sy)) in enumerate(zip(means, stds)):
            if uniform_rows and uniform_rows[j]:
                windows.append(None)
                continue
            window = self._window_near(mx, my, sx, sy, truncate_sigmas)
            windows.append(window)
            r0, r1, c0, c1 = window
            # lo is bbox()'s x0/y0 expression verbatim and hi is lo +
            # cell size, so each cell's interval carries the exact
            # floats the per-cell gaussian_mass path integrates (for
            # fractional cell sizes, origin + (c+1)*w can differ from
            # (origin + c*w) + w by one ULP).
            x_lo = self.origin_x + np.arange(c0, c1 + 1) * self.cell_width
            y_lo = self.origin_y + np.arange(r0, r1 + 1) * self.cell_height
            segments.append((x_lo, x_lo + self.cell_width, mx, sx))
            segments.append((y_lo, y_lo + self.cell_height, my, sy))
        return windows, segments

    def _assemble(
        self,
        windows: list,
        masses: list[np.ndarray],
        deltas_s: Sequence[float],
        uniform_rows: Sequence[bool],
    ) -> RequestDistribution:
        """Fold per-axis masses into the sparse distribution."""
        explicit: set[int] = set()
        for window in windows:
            if window is not None:
                r0, r1, c0, c1 = window
                explicit.update(
                    r * self.cols + c
                    for r in range(r0, r1 + 1)
                    for c in range(c0, c1 + 1)
                )
        ids = np.array(sorted(explicit), dtype=np.int64)
        k = len(deltas_s)
        n = self.num_requests
        probs = np.zeros((k, len(ids)))
        residual = np.ones(k)
        seg = 0
        for j, window in enumerate(windows):
            if window is None:
                # Truly uniform: explicit ids get 1/n like everyone else.
                probs[j] = 1.0 / n
                residual[j] = (n - len(ids)) / n
                continue
            r0, r1, c0, c1 = window
            px = masses[seg]
            py = masses[seg + 1]
            seg += 2
            cell_ids = (
                np.arange(r0, r1 + 1)[:, None] * self.cols
                + np.arange(c0, c1 + 1)[None, :]
            ).ravel()
            cols = np.searchsorted(ids, cell_ids)
            probs[j, cols] = np.outer(py, px).ravel()
            row_sum = probs[j].sum()
            if row_sum > 1.0:
                probs[j] /= row_sum
                row_sum = 1.0
            residual[j] = 1.0 - row_sum
        if len(ids) == self.num_requests:
            # No pool left to carry a residual: renormalize over the
            # cells.  A horizon whose mass lies wholly off the layout
            # carries no information — uniform, like an empty window.
            probs[probs.sum(axis=1) == 0] = 1.0 / n
            probs = probs / probs.sum(axis=1, keepdims=True)
            residual = np.zeros(k)
        return RequestDistribution(
            n=self.num_requests,
            deltas_s=np.asarray(deltas_s, dtype=float),
            explicit_ids=ids,
            explicit_probs=probs,
            residual=residual,
        )

    def _window_near(
        self, mx: float, my: float, sx: float, sy: float, sigmas: float
    ) -> tuple[int, int, int, int]:
        """Cell window ``(r0, r1, c0, c1)`` intersecting mean ± sigmas·std."""
        # Guarantee at least the cell under the mean is covered even
        # with tiny variance.
        half_w = max(sx * sigmas, self.cell_width)
        half_h = max(sy * sigmas, self.cell_height)
        c0 = int((mx - half_w - self.origin_x) // self.cell_width)
        c1 = int((mx + half_w - self.origin_x) // self.cell_width)
        r0 = int((my - half_h - self.origin_y) // self.cell_height)
        r1 = int((my + half_h - self.origin_y) // self.cell_height)
        c0, c1 = max(c0, 0), min(c1, self.cols - 1)
        r0, r1 = max(r0, 0), min(r1, self.rows - 1)
        return r0, r1, c0, c1


class ChartLayout:
    """A small set of irregular widgets (Falcon's chart row).

    Request ids are the widget positions in ``boxes`` order.
    """

    def __init__(self, boxes: Sequence[BoundingBox]) -> None:
        if not boxes:
            raise ValueError("need at least one widget")
        self.boxes = tuple(boxes)

    @property
    def num_requests(self) -> int:
        return len(self.boxes)

    def request_at(self, x: float, y: float) -> Optional[int]:
        for i, box in enumerate(self.boxes):
            if box.contains(x, y):
                return i
        return None

    def bbox(self, request: int) -> BoundingBox:
        return self.boxes[request]

    def gaussian_distribution(
        self,
        means: Sequence[tuple[float, float]],
        stds: Sequence[tuple[float, float]],
        deltas_s: Sequence[float],
        uniform_rows: Sequence[bool] = (),
    ) -> RequestDistribution:
        """Per-widget Gaussian mass; leftover mass pools into residual
        only if some widget is non-explicit — with few widgets all are
        explicit, so rows renormalize over the widgets."""
        k = len(deltas_s)
        n = self.num_requests
        probs = np.zeros((k, n))
        for j, ((mx, my), (sx, sy)) in enumerate(zip(means, stds)):
            if uniform_rows and uniform_rows[j]:
                probs[j] = 1.0 / n
                continue
            for i, box in enumerate(self.boxes):
                probs[j, i] = box.gaussian_mass(mx, my, sx, sy)
            total = probs[j].sum()
            if total <= 0:
                probs[j] = 1.0 / n
            else:
                probs[j] /= total
        return RequestDistribution(
            n=n,
            deltas_s=np.asarray(deltas_s, dtype=float),
            explicit_ids=np.arange(n, dtype=np.int64),
            explicit_probs=probs,
            residual=np.zeros(k),
        )
