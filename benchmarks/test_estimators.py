"""Tests for the alternative bandwidth estimators."""

import pytest

from estimators import EWMAEstimator, SlidingMaxEstimator


class TestEWMA:
    def test_initial_estimate(self):
        est = EWMAEstimator(1000.0)
        assert est.estimate == 1000.0

    def test_moves_toward_reports(self):
        est = EWMAEstimator(1000.0, alpha=0.5)
        est.report(2000.0)
        assert est.estimate == pytest.approx(1500.0)
        est.report(2000.0)
        assert est.estimate == pytest.approx(1750.0)

    def test_ignores_idle_zero_reports(self):
        est = EWMAEstimator(1000.0)
        est.report(0.0)
        assert est.estimate == 1000.0
        assert est.report_count == 0

    def test_cap_applies(self):
        est = EWMAEstimator(1000.0, alpha=1.0, cap_bytes_per_s=1200.0)
        est.report(5000.0)
        assert est.estimate == 1200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EWMAEstimator(0.0)
        with pytest.raises(ValueError):
            EWMAEstimator(1.0, alpha=0.0)
        with pytest.raises(ValueError):
            EWMAEstimator(1.0, cap_bytes_per_s=0.0)


class TestSlidingMax:
    def test_initial_until_first_report(self):
        est = SlidingMaxEstimator(500.0)
        assert est.estimate == 500.0
        est.report(900.0)
        assert est.estimate == 900.0

    def test_max_over_window(self):
        est = SlidingMaxEstimator(100.0, window=3)
        for rate in (500.0, 900.0, 300.0):
            est.report(rate)
        assert est.estimate == 900.0
        # Two more reports push the 900 out of the 3-report window.
        est.report(200.0)
        est.report(250.0)
        assert est.estimate == 300.0

    def test_cap_applies(self):
        est = SlidingMaxEstimator(100.0, cap_bytes_per_s=250.0)
        est.report(900.0)
        assert est.estimate == 250.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingMaxEstimator(1.0, window=0)


class TestSessionCompatibility:
    def test_drop_in_replacement(self):
        """Alternative estimators satisfy the session's interface and
        drive a live run end to end."""
        from repro.core.session import KhameleonSession, SessionConfig
        from repro.experiments.configs import DEFAULT_ENV, make_downlink, make_uplink
        from repro.sim.engine import Simulator
        from repro.workloads.image_app import ImageExplorationApp

        sim = Simulator()
        app = ImageExplorationApp(rows=4, cols=4)
        session = KhameleonSession(
            sim=sim,
            backend=app.make_backend(sim, fetch_delay_s=0.05),
            predictor=app.make_predictor("uniform"),
            utility=app.utility,
            num_blocks=app.num_blocks,
            downlink=make_downlink(sim, DEFAULT_ENV),
            uplink=make_uplink(sim, DEFAULT_ENV),
            config=SessionConfig(cache_bytes=5_000_000),
        )
        session.estimator = EWMAEstimator(1_000_000.0)  # swap before start
        session.server.estimator = session.estimator
        session.sender.estimator = session.estimator
        session.start()
        sim.run(until=1.0)
        session.stop()
        assert session.client.blocks_received > 0
