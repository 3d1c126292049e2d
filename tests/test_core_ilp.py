"""Tests for the ILP scheduler and the shared schedule evaluator."""

import numpy as np
import pytest

from repro.core import (
    GainTable,
    GreedyScheduler,
    LinearUtility,
    PowerUtility,
    RequestDistribution,
    ScheduledBlock,
    expected_utility,
)
from repro.core.ilp import ILPScheduler


def gains_for(n, nb, utility=None):
    return GainTable(utility or LinearUtility(), [nb] * n)


class TestExpectedUtility:
    def test_empty_schedule_is_zero(self):
        g = gains_for(4, 2)
        dist = RequestDistribution.uniform(4)
        assert expected_utility([], dist, g, 0.01) == 0.0

    def test_single_block_value(self):
        """One block of the certain request: U(1/2)·P = 0.5·1 per slot."""
        g = gains_for(4, 2)
        dist = RequestDistribution.point(4, 1)
        schedule = [ScheduledBlock(1, 0)]
        assert expected_utility(schedule, dist, g, 0.01) == pytest.approx(0.5)

    def test_accumulates_over_slots(self):
        g = gains_for(4, 2)
        dist = RequestDistribution.point(4, 1)
        schedule = [ScheduledBlock(1, 0), ScheduledBlock(1, 1)]
        # slot1: U(1/2)=0.5; slot2: U(1)=1.0 -> total 1.5
        assert expected_utility(schedule, dist, g, 0.01) == pytest.approx(1.5)

    def test_gamma_discounts_later_slots(self):
        g = gains_for(4, 2)
        dist = RequestDistribution.point(4, 1)
        schedule = [ScheduledBlock(1, 0), ScheduledBlock(1, 1)]
        v = expected_utility(schedule, dist, g, 0.01, gamma=0.5)
        assert v == pytest.approx(0.5 + 0.5 * 1.0)

    def test_initial_blocks_seed_cache_state(self):
        g = gains_for(4, 2)
        dist = RequestDistribution.point(4, 1)
        v = expected_utility(
            [ScheduledBlock(1, 1)], dist, g, 0.01, initial_blocks={1: 1}
        )
        assert v == pytest.approx(1.0)  # completes to U(1)

    def test_validation(self):
        g = gains_for(2, 2)
        dist = RequestDistribution.uniform(2)
        with pytest.raises(ValueError):
            expected_utility([], dist, g, 0.0)
        with pytest.raises(ValueError):
            expected_utility([], dist, g, 0.01, gamma=1.5)


class TestILPScheduler:
    def test_point_distribution_allocates_target_first(self):
        g = gains_for(4, 3)
        ilp = ILPScheduler(g, cache_blocks=3)
        sol = ilp.solve(RequestDistribution.point(4, 2), 0.01)
        assert sol.optimal
        assert len(sol.schedule) == 3
        assert all(b.request == 2 for b in sol.schedule)
        assert sorted(b.index for b in sol.schedule) == [0, 1, 2]

    def test_respects_bandwidth_constraint(self):
        g = gains_for(3, 4)
        ilp = ILPScheduler(g, cache_blocks=4, bandwidth_blocks=1)
        sol = ilp.solve(RequestDistribution.uniform(3), 0.01)
        assert len(sol.schedule) <= 4

    def test_each_block_sent_at_most_once(self):
        g = gains_for(3, 2)
        ilp = ILPScheduler(g, cache_blocks=6)
        sol = ilp.solve(RequestDistribution.uniform(3), 0.01)
        seen = set()
        for b in sol.schedule:
            assert (b.request, b.index) not in seen
            seen.add((b.request, b.index))

    def test_heterogeneous_block_counts_masked(self):
        g = GainTable(LinearUtility(), [1, 3])
        ilp = ILPScheduler(g, cache_blocks=4)
        sol = ilp.solve(RequestDistribution.uniform(2), 0.01)
        for b in sol.schedule:
            assert b.index < g.blocks_of(b.request)

    def test_skewed_distribution_prefers_likely_request(self):
        g = gains_for(2, 4, utility=PowerUtility(0.5))
        ilp = ILPScheduler(g, cache_blocks=4)
        dist = RequestDistribution.from_dense(
            np.array([[0.9, 0.1]]), deltas_s=[0.05]
        )
        sol = ilp.solve(dist, 0.01)
        counts = {0: 0, 1: 0}
        for b in sol.schedule:
            counts[b.request] += 1
        assert counts[0] > counts[1]

    def test_num_variables_reported(self):
        g = gains_for(3, 2)
        ilp = ILPScheduler(g, cache_blocks=4)
        sol = ilp.solve(RequestDistribution.uniform(3), 0.01)
        assert sol.num_variables == 4 * 3 * 2

    def test_validation(self):
        g = gains_for(2, 2)
        with pytest.raises(ValueError):
            ILPScheduler(g, cache_blocks=0)
        with pytest.raises(ValueError):
            ILPScheduler(g, cache_blocks=2, bandwidth_blocks=0)
        with pytest.raises(ValueError):
            ILPScheduler(g, cache_blocks=2, gamma=2.0)
        ilp = ILPScheduler(g, cache_blocks=2)
        with pytest.raises(ValueError):
            ilp.solve(RequestDistribution.uniform(2), 0.0)


class TestGreedyVsILP:
    """Fig. 17: greedy schedules are competitive with the LP's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_within_factor_of_ilp(self, seed):
        n, nb, C = 5, 3, 8
        g = gains_for(n, nb, utility=PowerUtility(0.5))
        rng = np.random.default_rng(seed)
        dist = RequestDistribution.from_dense(
            rng.random((1, n)) + 0.05, deltas_s=[0.05]
        )
        slot = 0.01

        ilp_value = ILPScheduler(g, cache_blocks=C).solve(dist, slot).objective

        greedy = GreedyScheduler(g, cache_blocks=C, seed=seed, hedge_when_idle=False)
        greedy.update_distribution(dist, slot)
        schedule = greedy.schedule_batch()
        greedy_value = expected_utility(schedule, dist, g, slot)

        assert ilp_value > 0
        # Paper: greedy utility is on average ~1.2x below LP.
        assert greedy_value >= 0.5 * ilp_value

    def test_ilp_objective_matches_evaluator(self):
        """The ILP's reported objective equals expected_utility of its
        own schedule (they implement the same Eq. 2/3)."""
        g = gains_for(4, 2)
        C = 4
        dist = RequestDistribution.from_dense(
            np.array([[0.4, 0.3, 0.2, 0.1]]), deltas_s=[0.05]
        )
        sol = ILPScheduler(g, cache_blocks=C).solve(dist, 0.01)
        v = expected_utility(sol.schedule, dist, g, 0.01)
        assert sol.objective == pytest.approx(v, rel=1e-6)
