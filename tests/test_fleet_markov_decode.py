"""Stacked Markov/shared-chain decode: byte-identity.

The fleet's coalesced tick batches the Markov predictor families the
same way it batches Kalman: one pass per delivery group, with learning
side effects in group order and chain rows gathered once per version.
The contract is byte-identity with the per-session decode (the oracle,
reached by stubbing ``FleetScheduleService._batch_decode`` out): not a
single probability, matrix, schedule, or metric may change, including
when one member's observation mutates a row an earlier member reads
(the freeze path) and under session churn (arrivals mid-tick).
"""

import numpy as np
import pytest

from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet
from repro.fleet import ArrivalConfig, FleetScheduleService
from repro.predictors.markov import MarkovModel, MarkovServerPredictor
from repro.predictors.shared import (
    SharedMarkovServerPredictor,
    SharedTransitionPrior,
)
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator

DELTAS = (0.05, 0.15, 0.25, 0.5)
N = 30


def assert_dists_equal(a, b):
    np.testing.assert_array_equal(a.explicit_ids, b.explicit_ids)
    np.testing.assert_array_equal(a.explicit_probs, b.explicit_probs)
    np.testing.assert_array_equal(a.residual, b.residual)
    np.testing.assert_array_equal(a.deltas_s, b.deltas_s)


def drive_markov(sp, stream):
    for request in stream:
        sp.decode(request, DELTAS)


class TestMarkovDecodeBatch:
    def _twin_predictors(self, seed=0, sessions=6):
        """Two identical session sets over private chains."""
        rng = np.random.default_rng(seed)
        twins = ([], [])
        for i in range(sessions):
            history = rng.integers(0, N, size=int(rng.integers(0, 12)))
            for side in twins:
                sp = MarkovServerPredictor(MarkovModel(N))
                drive_markov(sp, history)
                side.append(sp)
        return twins

    def test_batch_matches_sequential_decode(self):
        scalar, batched = self._twin_predictors()
        rng = np.random.default_rng(5)
        states = [
            None if rng.random() < 0.2 else int(rng.integers(0, N))
            for _ in scalar
        ]
        want = [sp.decode(s, DELTAS) for sp, s in zip(scalar, states)]
        got = MarkovServerPredictor.decode_batch(
            [(sp, s, DELTAS) for sp, s in zip(batched, states)]
        )
        for a, b in zip(want, got):
            assert_dists_equal(a, b)

    def test_shared_model_freeze_on_conflict(self):
        """Two predictors over ONE chain: the second member's learning
        mutates the row the first member reads (the first decode sets
        the chain's last request), so the first's row must be frozen at
        its pre-mutation version."""
        def build():
            model = MarkovModel(N)
            sp1, sp2 = MarkovServerPredictor(model), MarkovServerPredictor(model)
            drive_markov(sp1, [3, 7, 3, 9, 3])  # row 3 well populated
            return sp1, sp2

        a1, a2 = build()
        want = [a1.decode(3, DELTAS), a2.decode(8, DELTAS)]
        b1, b2 = build()
        got = MarkovServerPredictor.decode_batch(
            [(b1, 3, DELTAS), (b2, 8, DELTAS)]
        )
        for a, b in zip(want, got):
            assert_dists_equal(a, b)

    def test_same_row_version_shares_one_distribution(self):
        model = MarkovModel(N)
        sp1, sp2 = MarkovServerPredictor(model), MarkovServerPredictor(model)
        drive_markov(sp1, [2, 4])
        sp2._last_decoded = 4  # aligned with the chain: no re-learn
        got = MarkovServerPredictor.decode_batch(
            [(sp1, 4, DELTAS), (sp2, 4, DELTAS)]
        )
        assert got[0] is got[1]


class TestSharedDecodeBatch:
    @staticmethod
    def _build(seed=0, sessions=6):
        rng = np.random.default_rng(seed)
        prior = SharedTransitionPrior(N)
        for _ in range(80):
            prior.observe(int(rng.integers(0, N)), int(rng.integers(0, N)))
        sps = []
        for _ in range(sessions):
            sp = SharedMarkovServerPredictor(MarkovModel(N), prior)
            for request in rng.integers(0, N, size=int(rng.integers(0, 10))):
                sp.decode(int(request), DELTAS)
            sps.append(sp)
        return sps

    def test_batch_matches_sequential_decode(self):
        rng = np.random.default_rng(9)
        states = [
            None if rng.random() < 0.2 else int(rng.integers(0, N))
            for _ in range(6)
        ]
        scalar = self._build()
        want = [sp.decode(s, DELTAS) for sp, s in zip(scalar, states)]
        batched = self._build()
        got = SharedMarkovServerPredictor.decode_batch(
            [(sp, s, DELTAS) for sp, s in zip(batched, states)]
        )
        for a, b in zip(want, got):
            assert_dists_equal(a, b)

    def test_freeze_on_crowd_row_conflict(self):
        """Member 2's transition leaves the exact row member 1 reads:
        the scalar sequence reads the crowd row *before* the pooled
        observation bumps it, so the batch must freeze member 1's
        blend at the pre-mutation version."""
        def build():
            prior = SharedTransitionPrior(N)
            for nxt in (2, 5, 2, 11):
                prior.observe(7, nxt)
            sp1 = SharedMarkovServerPredictor(MarkovModel(N), prior)
            sp2 = SharedMarkovServerPredictor(MarkovModel(N), prior)
            sp2.decode(7, DELTAS)  # sp2's chain now sits at request 7
            return sp1, sp2

        a1, a2 = build()
        # Scalar order: sp1 reads crowd row 7, then sp2 observes 7->9.
        want = [a1.decode(7, DELTAS), a2.decode(9, DELTAS)]
        b1, b2 = build()
        got = SharedMarkovServerPredictor.decode_batch(
            [(b1, 7, DELTAS), (b2, 9, DELTAS)]
        )
        for a, b in zip(want, got):
            assert_dists_equal(a, b)
        # The conflict really exists: the crowd row changed under sp1.
        assert b2.prior.row_mass(7) == 5

    def test_cold_members_share_one_distribution(self):
        prior = SharedTransitionPrior(N)
        for nxt in (1, 2, 3):
            prior.observe(6, nxt)
        sp1 = SharedMarkovServerPredictor(MarkovModel(N), prior)
        sp2 = SharedMarkovServerPredictor(MarkovModel(N), prior)
        got = SharedMarkovServerPredictor.decode_batch(
            [(sp1, 6, DELTAS), (sp2, 6, DELTAS)]
        )
        # Both members are cold on row 6 (no private counts: decoding 6
        # observes nothing out of 6), land on the same crowd version,
        # and may therefore share the object — byte-identity for free.
        assert got[0] is got[1]
        assert_dists_equal(got[0], sp1.decode(6, DELTAS))


def run_markov_fleet(predictor, batched_decode, arrival=None, num=4, duration=1.2):
    app = ImageExplorationApp(rows=8, cols=8)
    traces = [
        MouseTraceGenerator(app.layout, seed=40 + i).generate(duration_s=duration)
        for i in range(num)
    ]
    env = FleetEnvironment(num_sessions=num, env=DEFAULT_ENV, arrival=arrival)
    with pytest.MonkeyPatch.context() as mp:
        if not batched_decode:
            mp.setattr(FleetScheduleService, "_batch_decode", lambda self, group: {})
        return run_fleet(app, traces, env, predictor=predictor, drain_s=0.5)


CHURN = ArrivalConfig(rate_per_s=4.0, mean_dwell_s=0.8, max_concurrent=3, seed=7)


class TestFleetByteIdentity:
    @pytest.mark.parametrize("predictor", ["markov", "shared-markov"])
    @pytest.mark.parametrize(
        "arrival", [None, CHURN], ids=["static", "churn"]
    )
    def test_flag_flip_changes_nothing(self, predictor, arrival):
        """Satellite acceptance: Markov-family fleets produce
        byte-identical results under batched vs per-session decode —
        including under churn, where states collected before an arrival
        or departure are applied mid-tick."""
        a = run_markov_fleet(predictor, batched_decode=False, arrival=arrival)
        b = run_markov_fleet(predictor, batched_decode=True, arrival=arrival)
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
        after each install, batched vs per-session decode, for the
        shared-chain fleet."""
        from repro.core.greedy import GreedyScheduler

        captured = {}
        original = GreedyScheduler.update_distribution
        for mode in (False, True):
            log = []

            def recording(self, dist, slot, _log=log):
                original(self, dist, slot)
                _log.append((self._t0, self._rows.tobytes(), self._res.tobytes()))

            monkeypatch.setattr(GreedyScheduler, "update_distribution", recording)
            run_markov_fleet("shared-markov", batched_decode=mode, num=3, duration=0.8)
            captured[mode] = log
        assert len(captured[True]) > 3  # predictions, not just the start-up uniform
        assert captured[False] == captured[True]
