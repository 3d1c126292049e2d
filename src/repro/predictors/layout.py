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
10,000 thumbnails).  It has one decode path: a stacked pass over every
state × horizon of a group
(:meth:`GridLayout.gaussian_distribution_batch`), whose cost is a
constant number of array operations plus O(window cells) work;
decoding one state is the batch of one.  :class:`ChartLayout` handles
a small number of irregular widgets by integrating per widget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.distribution import RequestDistribution

__all__ = ["GridLayout", "ChartLayout", "BoundingBox"]

_SQRT2 = math.sqrt(2.0)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for every pair."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - counts), counts
    )


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
        (the paper's 500 ms horizon).  This is the batch of one of
        :meth:`gaussian_distribution_batch`.
        """
        return self.gaussian_distribution_batch(
            [(means, stds, uniform_rows)], deltas_s, truncate_sigmas
        )[0]

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
        uniform_rows)`` states in one stacked pass.

        A cell's mass under a diagonal Gaussian factors into a
        per-column x-mass times a per-row y-mass, so a horizon's window
        costs O(rows + cols) erf evaluations, all of the group's in one
        list pass, and the masses cost O(window cells).  Each state's
        window products are scattered into a box spanning its windows,
        and its ``(k, m)`` probabilities are one C-ordered gather of the
        box's covered cells.  Every float is the one integrating each
        :meth:`BoundingBox.gaussian_mass` gives: an interval carries the
        ``lo``/``hi`` floats :meth:`bbox` produces, the x·y product is
        the same multiply, and row sums run over the same C-ordered rows
        (a column gather is F-ordered, and its sums differ by an ULP).
        """
        k = len(deltas_s)
        for means, stds, _uniform in states:
            if len(means) != k or len(stds) != k:
                raise ValueError("need one (mean, std) pair per horizon")
        num = len(states)
        if not num:
            return []
        n, rows, cols = self.num_requests, self.rows, self.cols
        windows = num * k
        # Per window, column (x) then row (y): mean, std, and the cells.
        centre = np.array([s[0] for s in states], dtype=float).reshape(windows, 2)
        spread = np.array([s[1] for s in states], dtype=float).reshape(windows, 2)
        uniform = np.array(
            [tuple(s[2]) or (False,) * k for s in states], dtype=bool
        ).reshape(num, k)
        size = np.array([self.cell_width, self.cell_height])
        origin = np.array([self.origin_x, self.origin_y])
        limit = np.array([cols, rows])

        # Windows meeting mean ± sigmas·std, and at least the cell under
        # the mean; floor_divide is Python's //.  Clamping to one cell
        # past the grid keeps far-off means in int64 and leaves a window
        # empty (first > last) exactly when the unbounded clamp would.
        half = np.maximum(spread * truncate_sigmas, size)
        first = np.floor_divide(centre - half - origin, size)
        last = np.floor_divide(centre + half - origin, size)
        first = np.minimum(np.maximum(first, 0), limit).astype(np.int64)
        last = np.minimum(np.maximum(last, -1), limit - 1).astype(np.int64)
        live = ~uniform.ravel() & (first <= last).all(axis=1)
        count = np.where(live[:, None], last - first + 1, 0)

        # Axis masses: a cell's interval is [lo, lo + size) with lo
        # bbox()'s x0/y0 expression verbatim (for fractional sizes,
        # origin + (c+1)*w can differ from it by one ULP), integrated as
        # _mass_1d does.  math.erf, not scipy's port, keeps them equal.
        per_axis = count.ravel()
        axis = np.repeat(np.arange(2 * windows) & 1, per_axis)
        lo = origin[axis] + _ranges(first.ravel(), per_axis) * size[axis]
        hi = lo + size[axis]
        mean = np.repeat(centre.ravel(), per_axis)
        std = np.repeat(spread.ravel(), per_axis)
        spreads = std > 0
        scale = np.where(spreads, std, 1.0)
        z_lo = (lo - mean) / scale / _SQRT2
        z_hi = (hi - mean) / scale / _SQRT2
        # A cell's upper bound is usually its neighbour's lower one: one
        # erf per distinct boundary, in one list pass.
        fresh = np.ones(len(lo), dtype=bool)
        fresh[:-1] = z_hi[:-1] != z_lo[1:]
        erf = [math.erf(v) for v in z_lo.tolist() + z_hi[fresh].tolist()]
        erf_lo = np.array(erf[: len(lo)])
        erf_hi = np.empty(len(lo))
        erf_hi[:-1] = erf_lo[1:]
        erf_hi[fresh] = erf[len(lo) :]
        mass = np.where(
            spreads,
            0.5 * (erf_hi - erf_lo),
            (lo <= mean) & (mean < hi),  # all mass at the mean
        )
        axis_start = (np.cumsum(per_axis) - per_axis).reshape(windows, 2)

        # Each state's box spans its windows; scatter py[r]·px[c] there.
        far = max(rows, cols)
        box_first = np.where(live[:, None], first, far).reshape(num, k, 2)
        box_first = box_first.min(axis=1, initial=far)
        box_last = np.where(live[:, None], last, -1).reshape(num, k, 2)
        box_last = box_last.max(axis=1, initial=-1)
        extent = np.maximum(box_last - box_first + 1, 0)
        box_w = extent[:, 0]
        area = box_w * extent[:, 1]
        cells = count[:, 0] * count[:, 1]
        window = np.repeat(np.arange(windows), cells)
        dr, dc = np.divmod(_ranges(np.zeros_like(cells), cells), count[window, 0])
        owner, horizon = np.divmod(window, k)
        value = mass[axis_start[window, 1] + dr] * mass[axis_start[window, 0] + dc]
        corner = first[window] - box_first[owner]
        at = (corner[:, 1] + dr) * box_w[owner] + corner[:, 0] + dc
        box_start = k * (np.cumsum(area) - area)
        box = np.zeros(k * int(area.sum()))
        box[box_start[owner] + horizon * area[owner] + at] = value
        cover_start = np.cumsum(area) - area
        covered = np.zeros(int(area.sum()), dtype=bool)
        covered[cover_start[owner] + at] = True

        # Covered cells, row-major per box, are each state's sorted ids.
        cell = np.flatnonzero(covered)
        owner = np.searchsorted(cover_start, cell, side="right") - 1
        local = cell - cover_start[owner]
        box_row, box_col = np.divmod(local, box_w[owner])
        ids = (box_first[owner, 1] + box_row) * cols + box_first[owner, 0] + box_col
        m = np.bincount(owner, minlength=num)
        id_start = np.cumsum(m) - m
        horizons = np.arange(k)[:, None]
        flat = np.empty(k * len(cell))
        # Truly uniform rows: explicit ids get 1/n like everyone else.
        gathered = box[box_start[owner] + local + horizons * area[owner]]
        flat[(k - 1) * id_start[owner] + np.arange(len(cell)) + horizons * m[owner]] = (
            np.where(uniform[owner].T, 1.0 / n, gathered)
        )

        probs = []
        totals = np.empty((num, k))
        for s, (start, width) in enumerate(zip(id_start.tolist(), m.tolist())):
            block = flat[k * start : k * (start + width)].reshape(k, width)
            probs.append(block)
            totals[s] = block.sum(axis=1)
        residual = 1.0 - totals
        over = (totals > 1.0) & ~uniform
        for s, j in zip(*np.nonzero(over)):
            probs[s][j] /= totals[s, j]
        residual[over] = 0.0
        residual[uniform] = ((n - m) / n)[np.nonzero(uniform)[0]]
        deltas = np.asarray(deltas_s, dtype=float)
        out = []
        for s, (start, width) in enumerate(zip(id_start.tolist(), m.tolist())):
            block = probs[s]
            if width == n:
                # No pool left to carry a residual: renormalize over the
                # cells.  A horizon whose mass lies wholly off the layout
                # carries no information — uniform, like an empty window.
                block[block.sum(axis=1) == 0] = 1.0 / n
                block = block / block.sum(axis=1, keepdims=True)
                residual[s] = 0.0
            out.append(
                RequestDistribution(
                    n=n,
                    deltas_s=deltas,
                    explicit_ids=ids[start : start + width],
                    explicit_probs=block,
                    residual=residual[s],
                )
            )
        return out


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
