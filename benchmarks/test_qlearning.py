"""Tests for the §8 Q-learning scheduler extension."""

import numpy as np
import pytest

from repro.core.distribution import RequestDistribution
from repro.core.greedy import GreedyScheduler
from repro.core.scheduler import GainTable, expected_utility
from repro.core.utility import LinearUtility

from qlearning import QLearningConfig, QLearningScheduler


def skewed_distribution(n=4, hot=0, mass=0.9):
    probs = np.full((2, 1), mass)
    return RequestDistribution(
        n=n,
        deltas_s=np.array([0.05, 0.25]),
        explicit_ids=np.array([hot], dtype=np.int64),
        explicit_probs=probs,
        residual=np.full(2, 1.0 - mass),
    )


class TestTraining:
    def test_schedule_fills_batch_with_valid_blocks(self):
        gains = GainTable(LinearUtility(), [3] * 4)
        ql = QLearningScheduler(gains, cache_blocks=6,
                                config=QLearningConfig(episodes=300))
        ql.train(skewed_distribution())
        schedule = ql.schedule_batch()
        assert len(schedule) == 6
        counts: dict[int, int] = {}
        for block in schedule:
            assert block.index == counts.get(block.request, 0)
            counts[block.request] = block.index + 1
            assert block.index < gains.blocks_of(block.request)

    def test_learned_policy_prefers_the_hot_request(self):
        gains = GainTable(LinearUtility(), [3] * 4)
        ql = QLearningScheduler(gains, cache_blocks=4,
                                config=QLearningConfig(episodes=1_500, seed=1))
        dist = skewed_distribution(hot=2)
        ql.train(dist)
        schedule = ql.schedule_batch()
        hot_blocks = sum(1 for b in schedule if b.request == 2)
        assert hot_blocks >= 3  # nearly the whole batch goes to the hot item

    def test_learned_close_to_greedy_value(self):
        """On micro instances the learned policy should reach at least
        the greedy heuristic's expected utility."""
        gains = GainTable(LinearUtility(), [3] * 4)
        dist = skewed_distribution(hot=1)
        slot = 0.01

        ql = QLearningScheduler(gains, cache_blocks=5,
                                config=QLearningConfig(episodes=2_000, seed=2))
        ql.train(dist, slot_duration_s=slot)
        learned = expected_utility(ql.schedule_batch(), dist, gains, slot)

        greedy = GreedyScheduler(gains, cache_blocks=5, seed=2)
        greedy.update_distribution(dist, slot)
        baseline = expected_utility(greedy.schedule_batch(), dist, gains, slot)
        assert learned >= baseline * 0.9

    def test_states_visited_grows_with_horizon(self):
        gains = GainTable(LinearUtility(), [2] * 3)
        small = QLearningScheduler(gains, cache_blocks=2,
                                   config=QLearningConfig(episodes=100))
        big = QLearningScheduler(gains, cache_blocks=4,
                                 config=QLearningConfig(episodes=100))
        dist = skewed_distribution(n=3)
        small.train(dist)
        big.train(dist)
        assert big.states_visited > small.states_visited

    def test_schedule_before_train_rejected(self):
        gains = GainTable(LinearUtility(), [2] * 3)
        ql = QLearningScheduler(gains, cache_blocks=2)
        with pytest.raises(RuntimeError):
            ql.schedule_batch()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QLearningConfig(episodes=0)
        with pytest.raises(ValueError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            QLearningConfig(epsilon=2.0)

    def test_invalid_slot_duration(self):
        gains = GainTable(LinearUtility(), [2] * 3)
        ql = QLearningScheduler(gains, cache_blocks=2)
        with pytest.raises(ValueError):
            ql.train(skewed_distribution(n=3), slot_duration_s=0.0)
