"""Tests for layouts and gaussian → request-distribution mapping."""

import numpy as np
import pytest
from hypothesis import given
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
