"""Tests for layouts and gaussian → request-distribution mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.layout import BoundingBox, ChartLayout, GridLayout


class TestBoundingBox:
    def test_contains(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains(5, 5)
        assert box.contains(0, 0)
        assert not box.contains(10, 5)  # half-open
        assert not box.contains(-1, 5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)

    def test_gaussian_mass_centered(self):
        box = BoundingBox(-1, -1, 1, 1)
        mass = box.gaussian_mass(0, 0, 0.3, 0.3)
        assert mass > 0.99

    def test_gaussian_mass_far_away(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.gaussian_mass(100, 100, 1, 1) < 1e-6

    def test_zero_std_is_point_mass(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.gaussian_mass(0.5, 0.5, 0, 0) == 1.0
        assert box.gaussian_mass(5.0, 0.5, 0, 0) == 0.0


class TestGridLayout:
    def make(self):
        return GridLayout(rows=10, cols=10, cell_width=50, cell_height=50)

    def test_request_at_and_bbox_roundtrip(self):
        grid = self.make()
        for request in (0, 37, 99):
            box = grid.bbox(request)
            cx, cy = (box.x0 + box.x1) / 2, (box.y0 + box.y1) / 2
            assert grid.request_at(cx, cy) == request

    def test_request_at_outside_is_none(self):
        grid = self.make()
        assert grid.request_at(-1, 5) is None
        assert grid.request_at(5, 501) is None

    def test_request_id_layout(self):
        grid = self.make()
        assert grid.request_at(25, 25) == 0  # row 0, col 0
        assert grid.request_at(75, 25) == 1  # row 0, col 1
        assert grid.request_at(25, 75) == 10  # row 1, col 0

    def test_num_requests(self):
        assert self.make().num_requests == 100

    def test_clamp(self):
        grid = self.make()
        x, y = grid.clamp(-5, 1000)
        assert grid.request_at(x, y) is not None

    def test_bbox_out_of_range(self):
        with pytest.raises(IndexError):
            self.make().bbox(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridLayout(0, 5, 10, 10)
        with pytest.raises(ValueError):
            GridLayout(5, 5, 0, 10)


class TestGridGaussianDistribution:
    def make(self):
        return GridLayout(rows=10, cols=10, cell_width=50, cell_height=50)

    def test_tight_gaussian_concentrates_on_cell(self):
        grid = self.make()
        dist = grid.gaussian_distribution(
            means=[(275.0, 275.0)], stds=[(5.0, 5.0)], deltas_s=[0.05]
        )
        target = grid.request_at(275, 275)
        assert dist.prob_of(target, 0.05) > 0.9

    def test_wide_gaussian_spreads_mass(self):
        grid = self.make()
        dist = grid.gaussian_distribution(
            means=[(250.0, 250.0)], stds=[(200.0, 200.0)], deltas_s=[0.05]
        )
        target = grid.request_at(250, 250)
        assert dist.prob_of(target, 0.05) < 0.2
        assert dist.num_explicit > 10

    def test_rows_sum_to_one(self):
        grid = self.make()
        dist = grid.gaussian_distribution(
            means=[(100.0, 100.0), (400.0, 400.0)],
            stds=[(30.0, 30.0), (120.0, 120.0)],
            deltas_s=[0.05, 0.25],
        )
        for delta in (0.05, 0.1, 0.25):
            assert dist.dense_at(delta).sum() == pytest.approx(1.0, abs=1e-6)

    def test_uniform_row_flag(self):
        grid = self.make()
        dist = grid.gaussian_distribution(
            means=[(100.0, 100.0), (100.0, 100.0)],
            stds=[(10.0, 10.0), (10.0, 10.0)],
            deltas_s=[0.05, 0.5],
            uniform_rows=[False, True],
        )
        # The 0.5 horizon is uniform: every request has prob 1/100.
        assert dist.prob_of(0, 0.5) == pytest.approx(0.01, abs=1e-6)

    def test_off_grid_mean_still_valid(self):
        grid = self.make()
        dist = grid.gaussian_distribution(
            means=[(-500.0, -500.0)], stds=[(10.0, 10.0)], deltas_s=[0.05]
        )
        assert dist.dense_at(0.05).sum() == pytest.approx(1.0, abs=1e-6)

    def test_off_layout_horizon_beside_an_all_cells_horizon_is_uniform(self):
        """One horizon's window covers every cell (no pool, residual 0)
        while another's mass lies wholly off the layout: that row used
        to stay all-zero and fail the sums-to-1 check.  It carries no
        information, so it reads uniform — on both decode paths."""
        grid = GridLayout(12, 12, 20.0, 20.0)
        means = [(600.0, 120.0), (1500.0, 120.0)]
        stds = [(5.0, 5.0), (600.0, 600.0)]
        deltas = [0.05, 0.5]
        single = grid.gaussian_distribution(means, stds, deltas)
        assert single.num_explicit == grid.num_requests
        np.testing.assert_array_equal(single.residual, [0.0, 0.0])
        np.testing.assert_allclose(single.dense_at(0.05), 1.0 / 144, rtol=1e-12)
        assert single.dense_at(0.5).sum() == pytest.approx(1.0, abs=1e-9)
        assert single.dense_at(0.5).max() > single.dense_at(0.5).min()

        # A well-behaved neighbour state must not change the bytes.
        neighbour = ([(100.0, 100.0), (110.0, 100.0)], [(10.0, 10.0), (40.0, 40.0)], ())
        batch = grid.gaussian_distribution_batch(
            [neighbour, (means, stds, ()), neighbour], deltas
        )[1]
        np.testing.assert_array_equal(batch.explicit_ids, single.explicit_ids)
        assert batch.explicit_probs.tobytes() == single.explicit_probs.tobytes()
        assert batch.residual.tobytes() == single.residual.tobytes()

    def test_mismatched_lengths_rejected(self):
        grid = self.make()
        with pytest.raises(ValueError):
            grid.gaussian_distribution(
                means=[(0, 0)], stds=[(1, 1), (2, 2)], deltas_s=[0.05, 0.15]
            )


class TestChartLayout:
    def make(self):
        return ChartLayout(
            [BoundingBox(i * 100, 0, (i + 1) * 100 - 10, 80) for i in range(6)]
        )

    def test_request_at(self):
        charts = self.make()
        assert charts.request_at(50, 40) == 0
        assert charts.request_at(250, 40) == 2
        assert charts.request_at(95, 40) is None  # gutter between charts

    def test_gaussian_distribution_favors_nearest(self):
        charts = self.make()
        dist = charts.gaussian_distribution(
            means=[(250.0, 40.0)], stds=[(30.0, 30.0)], deltas_s=[0.05]
        )
        probs = [dist.prob_of(i, 0.05) for i in range(6)]
        assert np.argmax(probs) == 2
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChartLayout([])

    def test_far_gaussian_falls_back_to_uniform(self):
        charts = self.make()
        dist = charts.gaussian_distribution(
            means=[(1e7, 1e7)], stds=[(1.0, 1.0)], deltas_s=[0.05]
        )
        assert dist.prob_of(0, 0.05) == pytest.approx(1 / 6, abs=1e-6)


@given(
    mean_x=st.floats(min_value=0, max_value=500),
    mean_y=st.floats(min_value=0, max_value=500),
    std=st.floats(min_value=1.0, max_value=300.0),
)
def test_property_grid_gaussian_always_normalized(mean_x, mean_y, std):
    grid = GridLayout(rows=10, cols=10, cell_width=50, cell_height=50)
    dist = grid.gaussian_distribution(
        means=[(mean_x, mean_y)], stds=[(std, std)], deltas_s=[0.05]
    )
    dense = dist.dense_at(0.05)
    assert dense.sum() == pytest.approx(1.0, abs=1e-5)
    assert (dense >= -1e-12).all()


# -- the stacked decode against its per-cell definition ----------------


def per_cell_reference(grid, means, stds, deltas, sigmas=3.0, uniform_rows=()):
    """What the stacked decode must reproduce byte for byte: each cell
    within a window integrated alone by ``BoundingBox.gaussian_mass``,
    rows summed over the explicit ids, uniform rows at 1/n."""
    n, k = grid.num_requests, len(deltas)
    windows = []
    for j, ((mx, my), (sx, sy)) in enumerate(zip(means, stds)):
        if uniform_rows and uniform_rows[j]:
            windows.append(None)
            continue
        half_w = max(sx * sigmas, grid.cell_width)
        half_h = max(sy * sigmas, grid.cell_height)
        c0 = max(int((mx - half_w - grid.origin_x) // grid.cell_width), 0)
        c1 = min(int((mx + half_w - grid.origin_x) // grid.cell_width), grid.cols - 1)
        r0 = max(int((my - half_h - grid.origin_y) // grid.cell_height), 0)
        r1 = min(int((my + half_h - grid.origin_y) // grid.cell_height), grid.rows - 1)
        windows.append(
            [r * grid.cols + c for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]
        )
    ids = sorted({cell for window in windows if window for cell in window})
    column = {cell: i for i, cell in enumerate(ids)}
    probs = np.zeros((k, len(ids)))
    residual = np.ones(k)
    for j, window in enumerate(windows):
        if window is None:
            probs[j] = 1.0 / n
            residual[j] = (n - len(ids)) / n
            continue
        (mx, my), (sx, sy) = means[j], stds[j]
        for cell in window:
            probs[j, column[cell]] = grid.bbox(cell).gaussian_mass(mx, my, sx, sy)
        row_sum = probs[j].sum()
        if row_sum > 1.0:
            probs[j] /= row_sum
            row_sum = 1.0
        residual[j] = 1.0 - row_sum
    if len(ids) == n:
        probs[probs.sum(axis=1) == 0] = 1.0 / n
        probs = probs / probs.sum(axis=1, keepdims=True)
        residual = np.zeros(k)
    return np.array(ids, dtype=np.int64), probs, residual


def assert_same_bytes(dist, ids, probs, residual):
    assert dist.explicit_ids.tolist() == ids.tolist()
    assert dist.explicit_probs.shape == probs.shape
    assert dist.explicit_probs.tobytes() == probs.tobytes()
    assert dist.residual.tobytes() == residual.tobytes()


# Grids: the fleet's 12x12, the paper's 100x100 mosaic, fractional cell
# sizes off a fractional origin, and grids small enough for one window
# to cover every cell (m = n).
GRIDS = [
    (12, 12, 20.0, 20.0, 0.0, 0.0),
    (100, 100, 5.0, 5.0, 0.0, 0.0),
    (7, 9, 0.3, 1 / 3, 0.1, -2.7),
    (3, 4, 2.5, 7.3, 3.3, 1.1),
    (1, 1, 4.0, 4.0, 0.0, 0.0),
]


@st.composite
def decode_cases(draw, max_states=4):
    rows, cols, cw, ch, ox, oy = draw(st.sampled_from(GRIDS))
    grid = GridLayout(rows, cols, cw, ch, ox, oy)
    k = draw(st.integers(1, 4))
    deltas = [0.05 * (j + 1) for j in range(k)]
    # Means anywhere from far off every side to inside; stds from 0
    # (a point mass) to wider than the grid (tiny grids only: the
    # oracle walks every cell of a window).
    max_std = 3 * max(grid.width, grid.height) if rows * cols < 100 else 40.0
    coord_x = st.floats(-3 * grid.width, 4 * grid.width, allow_nan=False)
    coord_y = st.floats(-3 * grid.height, 4 * grid.height, allow_nan=False)
    spread = st.one_of(st.just(0.0), st.floats(1e-3, max_std))
    states = []
    for _ in range(draw(st.integers(1, max_states))):
        means = [(draw(coord_x), draw(coord_y)) for _ in range(k)]
        stds = [(draw(spread), draw(spread)) for _ in range(k)]
        uniform = draw(st.one_of(st.just(()), st.lists(st.booleans(), min_size=k, max_size=k)))
        states.append((means, stds, tuple(uniform)))
    sigmas = draw(st.sampled_from([3.0, 1.0, 2.5]))
    return grid, states, deltas, sigmas


@given(case=decode_cases())
@settings(max_examples=150, deadline=None)
def test_stacked_decode_is_per_cell_gaussian_mass_bytewise(case):
    grid, states, deltas, sigmas = case
    batch = grid.gaussian_distribution_batch(states, deltas, truncate_sigmas=sigmas)
    for dist, (means, stds, uniform) in zip(batch, states):
        assert_same_bytes(
            dist, *per_cell_reference(grid, means, stds, deltas, sigmas, uniform)
        )


@given(case=decode_cases(max_states=6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_batch_is_batches_of_one_in_any_order(case, data):
    grid, states, deltas, sigmas = case
    order = data.draw(st.permutations(range(len(states))))
    batch = grid.gaussian_distribution_batch(
        [states[i] for i in order], deltas, truncate_sigmas=sigmas
    )
    for dist, i in zip(batch, order):
        means, stds, uniform = states[i]
        alone = grid.gaussian_distribution(
            means, stds, deltas, truncate_sigmas=sigmas, uniform_rows=uniform
        )
        assert_same_bytes(
            dist, alone.explicit_ids, alone.explicit_probs, alone.residual
        )


@pytest.mark.parametrize(
    "mean",
    [(-500.0, 60.0), (900.0, 60.0), (60.0, -500.0), (60.0, 900.0), (-500.0, -500.0)],
)
def test_off_grid_means_give_empty_windows(mean):
    """A mean past any edge leaves its window empty (r0 > r1 or
    c0 > c1, a negative r1/c1 included) beside a live horizon."""
    grid = GridLayout(12, 12, 20.0, 20.0)
    means, stds, deltas = [(60.0, 60.0), mean], [(5.0, 5.0), (5.0, 5.0)], [0.05, 0.15]
    dist = grid.gaussian_distribution(means, stds, deltas)
    assert_same_bytes(dist, *per_cell_reference(grid, means, stds, deltas))
    assert dist.explicit_probs[1].sum() == 0.0 and dist.residual[1] == 1.0
