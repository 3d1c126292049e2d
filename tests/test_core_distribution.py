"""Tests for sparse request distributions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.distribution import RequestDistribution


class TestConstructors:
    def test_uniform(self):
        d = RequestDistribution.uniform(100, deltas_s=[0.05, 0.15])
        assert d.num_explicit == 0
        assert d.num_uniform == 100
        assert d.prob_of(42, 0.05) == pytest.approx(0.01)

    def test_point(self):
        d = RequestDistribution.point(10, request=7)
        assert d.prob_of(7, 0.05) == 1.0
        assert d.prob_of(3, 0.05) == 0.0

    def test_from_dense_thresholding(self):
        dense = np.full((1, 100), 0.5 / 98)
        dense[0, 3] = 0.3
        dense[0, 9] = 0.2
        dense[0, 3] += 0.5 / 98  # keep the row summing to 1 after overwrite
        dense[0, 9] += 0.5 / 98
        dense[0, 3] -= 2 * 0.5 / 98
        d = RequestDistribution.from_dense(dense, deltas_s=[0.05], threshold=0.01)
        assert set(d.explicit_ids.tolist()) == {3, 9}
        assert d.residual[0] == pytest.approx(0.5, abs=1e-6)

    def test_from_dense_normalizes(self):
        d = RequestDistribution.from_dense(np.array([[2.0, 2.0]]), deltas_s=[0.05])
        assert d.prob_of(0, 0.05) == pytest.approx(0.5)

    def test_from_dense_rejects_negative(self):
        with pytest.raises(ValueError):
            RequestDistribution.from_dense(np.array([[-1.0, 2.0]]), deltas_s=[0.05])

    def test_from_dense_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            RequestDistribution.from_dense(np.array([[0.0, 0.0]]), deltas_s=[0.05])


class TestValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            RequestDistribution(
                n=4,
                deltas_s=np.array([0.05]),
                explicit_ids=np.array([0]),
                explicit_probs=np.array([[0.5]]),
                residual=np.array([0.2]),
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            RequestDistribution(
                n=4,
                deltas_s=np.array([0.05]),
                explicit_ids=np.array([1, 1]),
                explicit_probs=np.array([[0.5, 0.5]]),
                residual=np.array([0.0]),
            )

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            RequestDistribution(
                n=4,
                deltas_s=np.array([0.05]),
                explicit_ids=np.array([9]),
                explicit_probs=np.array([[1.0]]),
                residual=np.array([0.0]),
            )

    def test_rejects_unsorted_deltas(self):
        with pytest.raises(ValueError):
            RequestDistribution.uniform(4, deltas_s=[0.15, 0.05])

    def test_rejects_residual_with_all_explicit(self):
        with pytest.raises(ValueError):
            RequestDistribution(
                n=1,
                deltas_s=np.array([0.05]),
                explicit_ids=np.array([0]),
                explicit_probs=np.array([[0.5]]),
                residual=np.array([0.5]),
            )

    def make(self, ids, probs, residual, n=8):
        return RequestDistribution(
            n=n,
            deltas_s=np.array([0.05]),
            explicit_ids=np.array(ids),
            explicit_probs=np.array([probs]),
            residual=np.array([residual]),
        )

    def test_accepts_unsorted_unique_ids(self):
        d = self.make([5, 2, 7], [0.2, 0.3, 0.1], 0.4)
        assert d.explicit_ids.tolist() == [5, 2, 7]
        assert d.prob_of(2, 0.05) == pytest.approx(0.3)

    def test_rejects_unsorted_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            self.make([5, 2, 5], [0.2, 0.3, 0.1], 0.4)

    @pytest.mark.parametrize("ids", [[2, 8], [8, 2], [-1, 3], [3, -1]])
    def test_rejects_out_of_range_ids_sorted_or_not(self, ids):
        with pytest.raises(ValueError, match="out of range"):
            self.make(ids, [0.25, 0.25], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_totals(self, bad):
        with pytest.raises(ValueError):
            self.make([1, 2], [0.5, bad], 0.0)
        with pytest.raises(ValueError):
            self.make([1, 2], [0.5, 0.5], bad)

    def test_total_tolerance_is_allclose(self):
        """|total − 1| ≤ 1e-6 + 1e-5, np.allclose's own inequality."""
        for total in (1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 1.05e-5):
            self.make([1], [total], 0.0)
            assert np.allclose([total], 1.0, atol=1e-6)
        for total in (1.0 + 1.2e-5, 1.0 - 1.2e-5, 0.5):
            with pytest.raises(ValueError, match="sum to 1"):
                self.make([1], [total], 0.0)
            assert not np.allclose([total], 1.0, atol=1e-6)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.make([1, 2], [1.5, -0.5], 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            self.make([1], [1.5], -0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            self.make([1, 2], [1.0], 0.0)
        with pytest.raises(ValueError, match="one entry per horizon"):
            RequestDistribution(
                n=4,
                deltas_s=np.array([0.05]),
                explicit_ids=np.array([0]),
                explicit_probs=np.array([[1.0]]),
                residual=np.array([0.0, 0.0]),
            )
        with pytest.raises(ValueError, match="at least one horizon"):
            RequestDistribution.uniform(4, deltas_s=[])
        with pytest.raises(ValueError, match="n must be"):
            RequestDistribution.uniform(0)

    def test_rejects_repeated_horizon(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RequestDistribution.uniform(4, deltas_s=[0.05, 0.05])


class TestInterpolation:
    def make(self):
        """Request 0's probability decays 0.8 -> 0.2 across horizons."""
        return RequestDistribution(
            n=10,
            deltas_s=np.array([0.05, 0.25]),
            explicit_ids=np.array([0]),
            explicit_probs=np.array([[0.8], [0.2]]),
            residual=np.array([0.2, 0.8]),
        )

    def test_midpoint(self):
        d = self.make()
        assert d.prob_of(0, 0.15) == pytest.approx(0.5)

    def test_clamps_before_first(self):
        assert self.make().prob_of(0, 0.0) == pytest.approx(0.8)

    def test_clamps_after_last(self):
        assert self.make().prob_of(0, 1.0) == pytest.approx(0.2)

    def test_interpolated_rows_still_sum_to_one(self):
        d = self.make()
        for delta in (0.0, 0.1, 0.18, 0.3):
            assert d.dense_at(delta).sum() == pytest.approx(1.0)

    def test_explicit_matrix_matches_pointwise(self):
        d = self.make()
        qs = np.array([0.0, 0.1, 0.2, 0.5])
        probs, residual = d.explicit_matrix(qs)
        for row, delta in enumerate(qs):
            _ids, p, r = d.explicit_at(float(delta))
            assert np.allclose(probs[row], p)
            assert residual[row] == pytest.approx(r)


class TestQueries:
    def test_top_k_ranks_by_probability(self):
        d = RequestDistribution(
            n=100,
            deltas_s=np.array([0.05]),
            explicit_ids=np.array([5, 6, 7]),
            explicit_probs=np.array([[0.2, 0.5, 0.1]]),
            residual=np.array([0.2]),
        )
        assert d.top_k(2) == [6, 5]

    def test_top_k_excludes_below_uniform(self):
        """Explicit ids less likely than the uniform pool don't rank."""
        d = RequestDistribution(
            n=10,
            deltas_s=np.array([0.05]),
            explicit_ids=np.array([0, 1]),
            explicit_probs=np.array([[0.6, 0.001]]),
            residual=np.array([0.399]),
        )
        assert d.top_k(5) == [0]

    def test_uniform_top_k_empty(self):
        assert RequestDistribution.uniform(10).top_k(3) == []

    def test_dense_at_shape(self):
        d = RequestDistribution.point(7, 2)
        dense = d.dense_at(0.05)
        assert dense.shape == (7,)
        assert dense.sum() == pytest.approx(1.0)


@given(
    n=st.integers(min_value=2, max_value=50),
    seed=st.integers(min_value=0, max_value=2**31),
    delta=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_dense_normalized_at_any_horizon(n, seed, delta):
    rng = np.random.default_rng(seed)
    dense = rng.random((3, n)) + 1e-6
    d = RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.15, 0.5])
    vec = d.dense_at(delta)
    assert vec.shape == (n,)
    assert (vec >= -1e-12).all()
    assert vec.sum() == pytest.approx(1.0, abs=1e-6)
