"""Fleet-batched Kalman decode: byte-identity.

The coalesced prediction tick batches the *server-side* predictor
work: one truncated-Gaussian block-mass pass per layout at apply time.
The contract is byte-identity with the per-session decode (the oracle,
reached by stubbing ``FleetScheduleService._batch_decode`` out): not a
single probability, matrix, schedule, or metric may change.  The client
side is not batched: each session's :meth:`KalmanClientPredictor.state`
is scalar arithmetic on the stock filter and a ``predict_at`` loop on
any other, and the two must produce the same state.
"""

import numpy as np
import pytest

from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet
from repro.fleet import FleetScheduleService
from repro.predictors import GridLayout, MouseEvent
from repro.predictors.kalman import (
    ConstantVelocityKalman,
    KalmanClientPredictor,
    KalmanServerPredictor,
    KalmanState,
)
from repro.predictors.layout import BoundingBox, ChartLayout
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator

DELTAS = (0.05, 0.15, 0.25, 0.5)


def driven_clients(num, samples=25, seed=0, filter_factory=ConstantVelocityKalman):
    rng = np.random.default_rng(seed)
    clients = []
    for i in range(num):
        client = KalmanClientPredictor(deltas_s=DELTAS, filter_factory=filter_factory)
        for j in range(int(rng.integers(2, samples))):
            client.observe_event(
                j * 0.02,
                MouseEvent(float(rng.uniform(0, 500)), float(rng.uniform(0, 500))),
            )
        clients.append(client)
    return clients


class StoppingKalman(ConstantVelocityKalman):
    """Overrides the dynamics: the pointer stays where it was last seen."""

    def predict_at(self, time_s):
        return super().predict_at(self._last_t)


class TestPredictGaussians:
    """The per-horizon Gaussians :meth:`KalmanClientPredictor.state` ships."""

    def test_matches_scalar_predict_at_bitwise(self):
        """``state()`` reads the stock filter's scalars directly; a
        subclass that overrides nothing goes through the generic
        ``predict_at`` loop.  Same samples, same floats."""

        class Unchanged(ConstantVelocityKalman):
            pass

        stock = driven_clients(10, seed=3)
        generic = driven_clients(10, seed=3, filter_factory=Unchanged)
        for now in (0.0, 0.31, 0.9):
            for a, b in zip(stock, generic):
                state = a.state(now)
                assert state == b.state(now)
                for j, delta in enumerate(DELTAS):
                    mean, cov = a.filter.predict_at(now + delta)
                    assert state.means[j] == (mean[0], mean[1])
                    assert state.stds[j] == (np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1]))

    def test_zero_dt_adds_no_noise(self):
        """At (or before) the last sample time the extrapolation is the
        filter's own state: nothing moves, no process noise is added."""
        f = ConstantVelocityKalman()
        for last_t, x, y in ((0.0, 40.0, 90.0), (0.02, 55.0, 80.0), (0.04, 75.0, 64.0)):
            f.observe(last_t, x, y)
        mean, cov = f.predict_at(last_t)
        earlier_mean, earlier_cov = f.predict_at(last_t - 0.5)
        np.testing.assert_array_equal(mean, earlier_mean)
        np.testing.assert_array_equal(cov, earlier_cov)
        _, later_cov = f.predict_at(last_t + 1e-3)
        assert later_cov[0, 0] > cov[0, 0]


class TestFilterExtensionSeam:
    """``filter_factory`` is public: whatever it builds is honoured, by
    ``state()`` and by a fleet tick alike."""

    def test_custom_filter_is_asked_per_horizon(self):
        class FakeFilter:
            initialized = True

            def __init__(self):
                self.asked = []

            def observe(self, time_s, x, y):
                pass

            def predict_at(self, time_s):
                self.asked.append(time_s)
                return np.array([time_s, -time_s, 0.0, 0.0]), np.eye(4) * 9.0

        client = KalmanClientPredictor(deltas_s=DELTAS, filter_factory=FakeFilter)
        state = client.state(2.0)
        assert client.filter.asked == [2.0 + d for d in DELTAS]
        assert state == KalmanState(
            means=tuple((2.0 + d, -(2.0 + d)) for d in DELTAS),
            stds=((3.0, 3.0),) * 4,
            uniform=(False, False, False, True),
        )

    def test_subclassed_filter_override_is_not_bypassed(self):
        """A ConstantVelocityKalman subclass may override the dynamics;
        the scalar path is for the exact stock type only."""
        client = KalmanClientPredictor(deltas_s=DELTAS, filter_factory=StoppingKalman)
        stock = KalmanClientPredictor(deltas_s=DELTAS)
        for c in (client, stock):
            c.observe_event(0.0, MouseEvent(10.0, 10.0))
            c.observe_event(0.02, MouseEvent(30.0, 50.0))
        state = client.state(0.5)
        assert len(set(state.means)) == 1 and len(set(state.stds)) == 1
        assert state.means[0] == stock.state(-1.0).means[0]
        assert len(set(stock.state(0.5).means)) == len(DELTAS)

    def test_fleet_tick_honours_a_subclassed_filter(self, monkeypatch):
        """Through ``run_fleet``: every state the fleet tick ships from a
        StoppingKalman session has one centroid for all horizons."""
        from repro.core.predictor_manager import PredictorManager
        from repro.predictors import Predictor

        app = ImageExplorationApp(rows=8, cols=8)
        monkeypatch.setattr(
            app,
            "make_predictor",
            lambda name, trace=None: Predictor(
                name="kalman",
                client=KalmanClientPredictor(
                    deltas_s=DELTAS, filter_factory=StoppingKalman
                ),
                server=KalmanServerPredictor(app.layout),
                deltas_s=DELTAS,
            ),
        )
        shipped = []
        original = PredictorManager.poll

        def recording(self):
            state = original(self)
            if state is not None:
                shipped.append(state)
            return state

        monkeypatch.setattr(PredictorManager, "poll", recording)
        result = run_kalman_fleet(batched_decode=True, num=2, duration=0.8, app=app)
        assert result.diagnostics["prediction"]["states_collected"] == len(shipped) > 0
        assert all(len(set(state.means)) == 1 for state in shipped)


class TestDecodeBatch:
    def test_grid_byte_identical_to_scalar_decode(self):
        grid = GridLayout(30, 30, 17.0, 17.0, origin_x=1.0, origin_y=-3.0)
        server = KalmanServerPredictor(grid)
        clients = driven_clients(7, seed=2)
        states = [c.state(0.6) for c in clients] + [None]
        batched = server.decode_batch(states, DELTAS)
        for state, got in zip(states, batched):
            want = server.decode(state, DELTAS)
            np.testing.assert_array_equal(want.explicit_ids, got.explicit_ids)
            np.testing.assert_array_equal(want.explicit_probs, got.explicit_probs)
            np.testing.assert_array_equal(want.residual, got.residual)
            np.testing.assert_array_equal(want.deltas_s, got.deltas_s)

    def test_fractional_cells_byte_identical_to_bbox_masses(self):
        """Cell edges are bbox()'s exact floats: with fractional cell
        sizes (where origin + (c+1)*w differs from (origin + c*w) + w
        by one ULP), the factorized decode must still reproduce each
        BoundingBox.gaussian_mass bit-for-bit."""
        grid = GridLayout(25, 25, 0.7, 1.3, origin_x=0.1, origin_y=-0.3)
        dist = grid.gaussian_distribution([(8.0, 12.0)], [(1.1, 2.3)], (0.05,))
        assert len(dist.explicit_ids) > 4
        for col, rid in enumerate(dist.explicit_ids):
            want = grid.bbox(int(rid)).gaussian_mass(8.0, 12.0, 1.1, 2.3)
            assert float(dist.explicit_probs[0, col]) == want

    def test_chart_layout_falls_back_per_state(self):
        charts = ChartLayout(
            [BoundingBox(0, 0, 100, 100), BoundingBox(120, 0, 220, 100)]
        )
        server = KalmanServerPredictor(charts)
        states = [c.state(0.5) for c in driven_clients(3, seed=4)]
        batched = server.decode_batch(states, DELTAS)
        for state, got in zip(states, batched):
            want = server.decode(state, DELTAS)
            np.testing.assert_array_equal(want.explicit_probs, got.explicit_probs)


def run_kalman_fleet(batched_decode, num=4, duration=1.2, app=None):
    app = app or ImageExplorationApp(rows=8, cols=8)
    traces = [
        MouseTraceGenerator(app.layout, seed=40 + i).generate(duration_s=duration)
        for i in range(num)
    ]
    env = FleetEnvironment(num_sessions=num, env=DEFAULT_ENV)
    with pytest.MonkeyPatch.context() as mp:
        if not batched_decode:
            mp.setattr(FleetScheduleService, "_batch_decode", lambda self, group: {})
        return run_fleet(app, traces, env, predictor="kalman", drain_s=0.5)


class TestStaticFleetByteIdentity:
    def test_flag_flip_changes_nothing(self):
        """Satellite acceptance: a static Kalman fleet produces
        byte-identical results under batched vs per-session decode."""
        a = run_kalman_fleet(batched_decode=False)
        b = run_kalman_fleet(batched_decode=True)
        assert b.diagnostics["prediction"]["decode_batches"] > 0
        assert a.diagnostics["prediction"]["decode_batches"] == 0
        for key in ("blocks_sent", "bytes_sent", "blocks_deferred"):
            assert a.diagnostics[key] == b.diagnostics[key], key
        sa, sb = a.summary, b.summary
        assert sa.aggregate.as_dict() == sb.aggregate.as_dict()
        assert [
            s.as_dict() if s is not None else None for s in sa.per_session
        ] == [s.as_dict() if s is not None else None for s in sb.per_session]

    def test_probability_matrices_byte_identical(self, monkeypatch):
        """Directly compare the probability rows every scheduler holds
        after each install across the run in both modes."""
        from repro.core.greedy import GreedyScheduler

        captured = {}
        original = GreedyScheduler.update_distribution
        for mode in (False, True):
            log = []

            def recording(self, dist, slot, _log=log):
                original(self, dist, slot)
                _log.append((self._t0, self._rows.tobytes(), self._res.tobytes()))

            monkeypatch.setattr(GreedyScheduler, "update_distribution", recording)
            run_kalman_fleet(batched_decode=mode, num=3, duration=0.8)
            captured[mode] = log
        assert len(captured[True]) > 3  # predictions, not just the start-up uniform
        assert captured[False] == captured[True]
