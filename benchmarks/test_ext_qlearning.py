"""Extension (§8) — Q-learning scheduler vs greedy vs ILP.

The paper's future-work proposal: learn the scheduling policy with
reinforcement learning.  On micro instances the three schedulers are
directly comparable under the Eq. 2 objective; the learned policy
should land between greedy and the ILP optimum — and its Q-table size
demonstrates why tabular RL cannot reach production scale (the §8
challenge of real-time scheduling).
"""

import numpy as np

from repro.core.distribution import RequestDistribution
from repro.core.greedy import GreedyScheduler
from repro.core.ilp import ILPScheduler
from repro.core.scheduler import GainTable, expected_utility
from repro.core.utility import LinearUtility

from qlearning import QLearningConfig, QLearningScheduler

SLOT_S = 0.01


def _instance(n=5, nb=4, seed=0):
    rng = np.random.default_rng(seed)
    k = max(2, n // 2)
    ids = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    raw = rng.random((2, k))
    probs = 0.85 * raw / raw.sum(axis=1, keepdims=True)
    dist = RequestDistribution(
        n=n,
        deltas_s=np.array([0.05, 0.25]),
        explicit_ids=ids,
        explicit_probs=probs,
        residual=np.full(2, 0.15),
    )
    return GainTable(LinearUtility(), [nb] * n), dist


def run_comparison(cache_blocks=8):
    gains, dist = _instance()
    rows = []

    ilp = ILPScheduler(gains=gains, cache_blocks=cache_blocks)
    ilp_value = expected_utility(
        ilp.solve(dist, slot_duration_s=SLOT_S).schedule, dist, gains, SLOT_S
    )
    rows.append({"scheduler": "ilp (optimal)", "expected_utility": ilp_value})

    greedy = GreedyScheduler(gains, cache_blocks=cache_blocks, seed=0)
    greedy.update_distribution(dist, SLOT_S)
    greedy_value = expected_utility(greedy.schedule_batch(), dist, gains, SLOT_S)
    rows.append({"scheduler": "greedy", "expected_utility": greedy_value})

    ql = QLearningScheduler(
        gains, cache_blocks=cache_blocks, config=QLearningConfig(episodes=3_000, seed=0)
    )
    ql.train(dist, slot_duration_s=SLOT_S)
    ql_value = expected_utility(ql.schedule_batch(), dist, gains, SLOT_S)
    rows.append(
        {
            "scheduler": "q-learning",
            "expected_utility": ql_value,
            "q_states": ql.states_visited,
        }
    )
    return rows


def test_ext_qlearning(benchmark, bench_report):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    bench_report("ext_qlearning", rows, "Extension: learned scheduling policy")

    values = {r["scheduler"]: r["expected_utility"] for r in rows}
    # ILP is the optimum.
    assert values["ilp (optimal)"] >= values["greedy"] * 0.99
    assert values["ilp (optimal)"] >= values["q-learning"] * 0.99
    # The learned policy is competitive with greedy on micro instances.
    assert values["q-learning"] >= values["greedy"] * 0.85
