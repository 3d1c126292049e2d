"""Fig. 17 — greedy vs LP schedule quality.

Paper shape: greedy schedules achieve competitive expected utility
(on average within ~1.2× of the LP optimum) at ≥ 3000× lower runtime.
The runtime ratio here differs (HiGHS vs Gurobi, Python vs Rust) but
the quality gap and the orders-of-magnitude speedup both hold.
"""

import statistics

from repro.experiments.figures import fig17_greedy_vs_ilp


def test_fig17_greedy_vs_ilp(benchmark, bench_report):
    rows = benchmark.pedantic(
        lambda: fig17_greedy_vs_ilp(num_requests=(5, 10, 15)),
        rounds=1,
        iterations=1,
    )
    bench_report(
        "fig17_greedy_vs_ilp", rows, "Fig. 17: greedy vs ILP utility", wall_clock=True
    )

    # The ILP is the optimum: it never loses to greedy (tolerance for
    # the ILP solver's own gap).
    for r in rows:
        assert r["ilp_utility"] >= r["greedy_utility"] * 0.98
    # Greedy is competitive: within 2x of optimal on average (paper: 1.2x).
    mean_ratio = statistics.fmean(r["utility_ratio"] for r in rows)
    assert mean_ratio < 2.0
    # And vastly faster.
    assert statistics.fmean(r["speedup"] for r in rows) > 10.0
