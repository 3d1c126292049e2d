"""Tests for the Kalman-filter mouse predictor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    GridLayout,
    MouseEvent,
    make_kalman_predictor,
)
from repro.predictors.kalman import (
    ConstantVelocityKalman,
    KalmanClientPredictor,
    KalmanServerPredictor,
)


class MatrixKalman:
    """The textbook 4×4 matrix form of the same filter — the oracle.

    This is the implementation :class:`ConstantVelocityKalman` used
    before it was reduced to closed form, kept verbatim: generic
    ``F P Fᵀ + Q``, ``K = P Hᵀ S⁻¹``, ``(I − K H) P`` and the
    ``½ (P + Pᵀ)`` symmetrize, none of which knows that the axes
    decouple.
    """

    def __init__(self, q=800.0, r=2.0, position_var=1e4, velocity_var=1e6):
        self.q = q
        self.x = None
        self.init_P = np.diag(
            [position_var, position_var, velocity_var, velocity_var]
        ).astype(float)
        self.P = self.init_P.copy()
        self.last_t = None
        self.H = np.zeros((2, 4))
        self.H[0, 0] = self.H[1, 1] = 1.0
        self.R = np.eye(2) * r**2

    @staticmethod
    def F(dt):
        F = np.eye(4)
        F[0, 2] = F[1, 3] = dt
        return F

    def Q(self, dt):
        q2 = self.q**2
        d4, d3, d2 = dt**4 / 4.0, dt**3 / 2.0, dt**2
        Q = np.zeros((4, 4))
        for axis in (0, 1):
            Q[axis, axis] = d4 * q2
            Q[axis, axis + 2] = Q[axis + 2, axis] = d3 * q2
            Q[axis + 2, axis + 2] = d2 * q2
        return Q

    def observe(self, time_s, x, y):
        z = np.array([x, y], dtype=float)
        if self.x is None:
            self.x = np.array([x, y, 0.0, 0.0])
            self.P = self.init_P.copy()
        else:
            dt = max(0.0, time_s - self.last_t)
            if dt > 0:
                F = self.F(dt)
                self.x = F @ self.x
                self.P = F @ self.P @ F.T + self.Q(dt)
        self.last_t = time_s
        H, R = self.H, self.R
        S = H @ self.P @ H.T + R
        K = self.P @ H.T @ np.linalg.inv(S)
        self.x = self.x + K @ (z - H @ self.x)
        self.P = (np.eye(4) - K @ H) @ self.P
        self.P = 0.5 * (self.P + self.P.T)

    def predict_at(self, time_s):
        dt = max(0.0, time_s - self.last_t)
        F = self.F(dt)
        return F @ self.x, F @ self.P @ F.T + self.Q(dt)


#: Gaps between samples: a repeated timestamp, sub-millisecond jitter,
#: ordinary mouse cadence, and multi-second pauses.
gaps = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e-3),
    st.floats(1e-3, 0.05),
    st.floats(0.5, 5.0),
)
#: Pointer coordinates, well off any layout on either side.
coords = st.floats(-2000.0, 5000.0)
samples = st.lists(st.tuples(gaps, coords, coords), min_size=1, max_size=60)


class TestClosedFormAgainstMatrixOracle:
    @settings(max_examples=150, deadline=None)
    @given(samples, st.floats(0.0, 2.0), st.floats(100.0, 2000.0), st.floats(0.5, 8.0))
    def test_state_and_covariance_agree(self, trace, horizon, q, r):
        """Agreement to 1e-9 relative — plus the rounding both forms
        share: ``(I − K H) P`` cancels a prior ``p_pp / r²`` times the
        posterior (1e7 after a multi-second gap), so each form's own
        result carries that many ulps and no closer agreement exists.
        Covariances compare against their own magnitude, means against
        the largest position / velocity the run has carried (a mean may
        pass through zero, where its own magnitude is no yardstick)."""
        kf = ConstantVelocityKalman(process_noise=q, measurement_noise=r)
        oracle = MatrixKalman(q=q, r=r)
        eps = np.finfo(float).eps
        rel, pos_scale, vel_scale = 1e-9, 1.0, 1.0

        def check(got, want):
            (mean, cov), (want_mean, want_cov) = got, want
            assert np.max(np.abs(mean[:2] - want_mean[:2])) <= rel * pos_scale
            assert np.max(np.abs(mean[2:] - want_mean[2:])) <= rel * vel_scale
            for entry in ((0, 0), (0, 2), (2, 2)):
                assert abs(cov[entry] - want_cov[entry]) <= rel * abs(want_cov[entry])

        t = 3.0
        for i, (gap, x, y) in enumerate(trace):
            t += gap
            prior_pp = oracle.predict_at(t)[1][0, 0] if i else oracle.init_P[0, 0]
            rel = max(rel, 1e-9 + 8 * eps * prior_pp / r**2)
            kf.observe(t, x, y)
            oracle.observe(t, x, y)
            pos_scale = max(pos_scale, abs(x), abs(y))
            vel_scale = max(vel_scale, float(np.max(np.abs(oracle.x[2:]))))
            # After the first sample as much as after the last.
            check(kf.predict_at(t), (oracle.x, oracle.P))
        pos_scale += horizon * vel_scale
        check(kf.predict_at(t + horizon), oracle.predict_at(t + horizon))

    @settings(max_examples=100, deadline=None)
    @given(samples, st.floats(0.0, 2.0))
    def test_axes_share_one_block_and_never_couple(self, trace, horizon):
        kf = ConstantVelocityKalman()
        t = 0.0
        for gap, x, y in trace:
            t += gap
            kf.observe(t, x, y)
        _, cov = kf.predict_at(t + horizon)
        x_block = cov[np.ix_((0, 2), (0, 2))]
        y_block = cov[np.ix_((1, 3), (1, 3))]
        np.testing.assert_array_equal(x_block, y_block)
        np.testing.assert_array_equal(x_block, x_block.T)
        np.testing.assert_array_equal(
            cov[np.ix_((0, 2), (1, 3))], np.zeros((2, 2))
        )
        np.testing.assert_array_equal(
            cov[np.ix_((1, 3), (0, 2))], np.zeros((2, 2))
        )

    @settings(max_examples=100, deadline=None)
    @given(samples)
    def test_predict_at_last_sample_is_the_filters_own_state(self, trace):
        """No time passed, no noise added: the extrapolation to the last
        sample time (or any earlier time) is what the next ``observe``
        would start from, bit for bit."""
        kf = ConstantVelocityKalman()
        t = 0.0
        for gap, x, y in trace:
            t += gap
            kf.observe(t, x, y)
        mean, cov = kf.predict_at(t)
        early_mean, early_cov = kf.predict_at(t - 1.0)
        np.testing.assert_array_equal(mean, early_mean)
        np.testing.assert_array_equal(cov, early_cov)
        # One more sample at the same timestamp is an update of exactly
        # (mean, cov): applying that update by hand must land on the
        # filter's next state.
        kf.observe(t, 10.0, -20.0)
        k_p = cov[0, 0] * (1.0 / (cov[0, 0] + kf.r * kf.r))
        got, _ = kf.predict_at(t)
        assert got[0] == mean[0] + k_p * (10.0 - mean[0])
        assert got[1] == mean[1] + k_p * (-20.0 - mean[1])


class TestConstantVelocityKalman:
    def test_uninitialized_predict_raises(self):
        with pytest.raises(RuntimeError):
            ConstantVelocityKalman().predict_at(1.0)

    def test_first_observation_anchors_position(self):
        kf = ConstantVelocityKalman()
        kf.observe(0.0, 100.0, 200.0)
        mean, cov = kf.predict_at(0.0)
        assert mean[0] == pytest.approx(100.0, abs=1.0)
        assert mean[1] == pytest.approx(200.0, abs=1.0)

    def test_learns_constant_velocity(self):
        """Samples moving at 100 px/s predict ahead along the motion."""
        kf = ConstantVelocityKalman()
        for i in range(20):
            t = i * 0.02
            kf.observe(t, 100.0 * t, 50.0)
        mean, _ = kf.predict_at(0.38 + 0.1)  # 100 ms ahead of last sample
        assert mean[0] == pytest.approx(48.0, abs=5.0)
        assert mean[1] == pytest.approx(50.0, abs=2.0)

    def test_uncertainty_grows_with_horizon(self):
        kf = ConstantVelocityKalman()
        for i in range(10):
            kf.observe(i * 0.02, float(i), 0.0)
        _, cov_near = kf.predict_at(0.18 + 0.05)
        _, cov_far = kf.predict_at(0.18 + 0.5)
        assert cov_far[0, 0] > cov_near[0, 0]

    def test_predict_is_pure(self):
        kf = ConstantVelocityKalman()
        kf.observe(0.0, 0.0, 0.0)
        kf.observe(0.02, 1.0, 1.0)
        m1, _ = kf.predict_at(0.5)
        m2, _ = kf.predict_at(0.5)
        assert np.allclose(m1, m2)

    def test_stationary_mouse_predicts_in_place(self):
        kf = ConstantVelocityKalman()
        for i in range(30):
            kf.observe(i * 0.02, 300.0, 300.0)
        mean, _ = kf.predict_at(0.58 + 0.25)
        assert mean[0] == pytest.approx(300.0, abs=2.0)
        assert abs(mean[2]) < 5.0  # learned velocity ~ 0

    def test_covariance_stays_symmetric_psd(self):
        kf = ConstantVelocityKalman()
        rng = np.random.default_rng(0)
        for i in range(200):
            kf.observe(i * 0.01, rng.normal(0, 100), rng.normal(0, 100))
        _, cov = kf.predict_at(2.1)
        assert np.allclose(cov, cov.T)
        assert (np.linalg.eigvalsh(cov) > -1e-6).all()


class TestKalmanClientPredictor:
    def test_state_none_before_observations(self):
        client = KalmanClientPredictor()
        assert client.state(0.0) is None

    def test_state_has_one_gaussian_per_horizon(self):
        client = KalmanClientPredictor(deltas_s=(0.05, 0.15, 0.25, 0.5))
        client.observe_event(0.0, MouseEvent(10, 10))
        state = client.state(0.0)
        assert len(state.means) == 4
        assert len(state.stds) == 4

    def test_long_horizon_marked_uniform(self):
        client = KalmanClientPredictor(deltas_s=(0.05, 0.5), uniform_after_s=0.5)
        client.observe_event(0.0, MouseEvent(10, 10))
        state = client.state(0.0)
        assert state.uniform == (False, True)

    def test_state_size_is_six_floats_per_horizon(self):
        client = KalmanClientPredictor(deltas_s=(0.05, 0.15, 0.25, 0.5))
        client.observe_event(0.0, MouseEvent(10, 10))
        state = client.state(0.0)
        assert client.state_size_bytes(state) == 4 * 6 * 4

    def test_ignores_non_mouse_events(self):
        client = KalmanClientPredictor()
        client.observe_event(0.0, "not-a-mouse-event")
        assert client.state(0.0) is None


class TestKalmanServerPredictor:
    def test_decodes_none_as_uniform(self):
        grid = GridLayout(10, 10, 50, 50)
        server = KalmanServerPredictor(grid)
        dist = server.decode(None, (0.05,))
        assert dist.prob_of(0, 0.05) == pytest.approx(0.01)

    def test_end_to_end_tracks_moving_mouse(self):
        """Moving right: short-horizon mass should sit ahead of the mouse."""
        grid = GridLayout(10, 10, 50, 50)
        predictor = make_kalman_predictor(grid)
        for i in range(25):
            t = i * 0.02
            predictor.client.observe_event(t, MouseEvent(50 + 400 * t, 275.0))
        now = 24 * 0.02
        dist = predictor.distribution_now(now)
        x_now = 50 + 400 * now
        current = grid.request_at(x_now, 275.0)
        # Mass at the 150 ms horizon should centre near x_now + 60 px.
        ahead = grid.request_at(min(x_now + 400 * 0.15, 499), 275.0)
        p_ahead = dist.prob_of(ahead, 0.15)
        assert p_ahead > 0.05
        assert dist.dense_at(0.15).sum() == pytest.approx(1.0, abs=1e-5)
        assert current is not None

    def test_500ms_horizon_uniform(self):
        grid = GridLayout(10, 10, 50, 50)
        predictor = make_kalman_predictor(grid)
        predictor.client.observe_event(0.0, MouseEvent(275, 275))
        dist = predictor.distribution_now(0.0)
        assert dist.prob_of(0, 0.5) == pytest.approx(
            dist.prob_of(99, 0.5), abs=1e-9
        )
