"""Tabular Q-learning scheduler — the §8 "Learning Improved Policies"
extension.

The paper closes by proposing reinforcement learning over the Eq. 2
MDP: states are cache contents, actions are "give the next block to
request i", rewards are the expected-utility gains.  This module
implements the suggestion at micro scale (the same instance sizes the
ILP handles) so the three schedulers — greedy, ILP-optimal, and
learned — can be compared on equal footing
(``benchmarks/test_ext_qlearning.py``).

Design notes
------------
* The state is the per-request block-count vector ``B`` compressed to a
  tuple (cache contents up to slot permutation, which is all the reward
  depends on), plus the batch position ``t``.
* Actions are request ids; the environment transition is
  deterministic: ``B[i] += 1``, ``t += 1``.
* The reward for allocating block ``j`` of request ``i`` in slot ``t``
  is the same tail-weighted utility gain the ILP objective uses, so a
  converged policy maximizes exactly Eq. 3.
* Training runs full-batch episodes with an ε-greedy behaviour policy;
  ε and the learning rate decay per episode.

This is deliberately *tabular*: the paper's challenge ("balance more
sophistication with the need to schedule the next block in real-time")
is about the gap between micro-instance optimality and 10k-request
production scale, and the benchmark makes that gap measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.distribution import RequestDistribution
from repro.core.scheduler import GainTable, ScheduledBlock

__all__ = ["QLearningScheduler", "QLearningConfig"]


@dataclass(frozen=True)
class QLearningConfig:
    """Training hyperparameters (defaults tuned for micro instances)."""

    episodes: int = 2_000
    learning_rate: float = 0.25
    learning_rate_decay: float = 0.999
    epsilon: float = 0.4
    epsilon_decay: float = 0.999
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ValueError("need at least one training episode")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning rate must lie in (0, 1]")
        if not 0 <= self.epsilon <= 1:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")


class QLearningScheduler:
    """Learns a block-allocation policy for one prediction distribution.

    Usage mirrors the ILP scheduler: construct with the gain table and
    horizon, call :meth:`train` with a distribution, then
    :meth:`schedule_batch` to extract the learned schedule.
    """

    def __init__(
        self,
        gains: GainTable,
        cache_blocks: int,
        config: Optional[QLearningConfig] = None,
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        self.gains = gains
        self.C = cache_blocks
        self.config = config or QLearningConfig()
        self._q: dict[tuple, np.ndarray] = {}
        self._reward: Optional[np.ndarray] = None  # [t, i, j] gain table
        self._rng = np.random.default_rng(self.config.seed)
        self.episodes_trained = 0

    # -- environment ---------------------------------------------------

    def _build_rewards(self, dist: RequestDistribution, slot_duration_s: float) -> None:
        """Tail-weighted utility gains, identical to the ILP's U tensor."""
        n, C = self.gains.n, self.C
        max_nb = int(self.gains.num_blocks.max())
        prob = np.empty((C, n))
        for t in range(1, C + 1):
            prob[t - 1] = dist.dense_at(t * slot_duration_s)
        discount = self.config.gamma ** np.arange(C)
        tail = np.cumsum((prob * discount[:, None])[::-1], axis=0)[::-1]
        reward = np.zeros((C, n, max_nb))
        for i in range(n):
            g = self.gains.gains_of(i)
            reward[:, i, : len(g)] = tail[:, i : i + 1] * g[None, :]
        self._reward = reward

    def _step_reward(self, t: int, request: int, have: int) -> float:
        assert self._reward is not None
        if have >= self.gains.blocks_of(request):
            return 0.0
        return float(self._reward[t, request, have])

    def _state_key(self, counts: np.ndarray, t: int) -> tuple:
        return (t, tuple(int(c) for c in counts))

    def _q_row(self, key: tuple) -> np.ndarray:
        row = self._q.get(key)
        if row is None:
            row = np.zeros(self.gains.n)
            self._q[key] = row
        return row

    # -- training --------------------------------------------------------

    def train(self, dist: RequestDistribution, slot_duration_s: float = 0.01) -> None:
        """Q-learning over full-batch episodes for ``dist``."""
        if slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        self._build_rewards(dist, slot_duration_s)
        cfg = self.config
        alpha = cfg.learning_rate
        epsilon = cfg.epsilon
        n = self.gains.n
        for _ in range(cfg.episodes):
            counts = np.zeros(n, dtype=np.int64)
            for t in range(self.C):
                key = self._state_key(counts, t)
                row = self._q_row(key)
                if self._rng.random() < epsilon:
                    action = int(self._rng.integers(0, n))
                else:
                    action = int(np.argmax(row))
                reward = self._step_reward(t, action, int(counts[action]))
                counts[action] += 1
                if t + 1 < self.C:
                    next_row = self._q_row(self._state_key(counts, t + 1))
                    target = reward + cfg.gamma * float(next_row.max())
                else:
                    target = reward
                row[action] += alpha * (target - row[action])
            alpha *= cfg.learning_rate_decay
            epsilon *= cfg.epsilon_decay
            self.episodes_trained += 1

    # -- policy extraction -------------------------------------------------

    def schedule_batch(self) -> list[ScheduledBlock]:
        """Greedy rollout of the learned policy for one full batch."""
        if self._reward is None:
            raise RuntimeError("call train() before extracting a schedule")
        counts = np.zeros(self.gains.n, dtype=np.int64)
        schedule: list[ScheduledBlock] = []
        for t in range(self.C):
            row = self._q_row(self._state_key(counts, t))
            action = int(np.argmax(row))
            schedule.append(ScheduledBlock(request=action, index=int(counts[action])))
            counts[action] += 1
        return schedule

    @property
    def states_visited(self) -> int:
        """Size of the Q table — the scalability wall §8 warns about."""
        return len(self._q)
