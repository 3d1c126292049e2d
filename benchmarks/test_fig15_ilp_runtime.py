"""Fig. 15 — LP scheduler runtime on micro instances.

Paper shape: the ILP is far too slow for real-time use even on trivial
instances (5–15 requests, 10–30 cache blocks, 5–15 blocks/request);
its runtime grows with every dimension of the instance.
"""

import statistics

from repro.experiments.figures import fig15_ilp_runtime


def test_fig15_ilp_runtime(benchmark, bench_report):
    rows = benchmark.pedantic(
        lambda: fig15_ilp_runtime(
            num_requests=(5, 10, 15),
            cache_blocks=(10, 20, 30),
            blocks_per_request=(5, 10),
        ),
        rounds=1,
        iterations=1,
    )
    bench_report(
        "fig15_ilp_runtime", rows, "Fig. 15: ILP scheduler runtime", wall_clock=True
    )

    assert all(r["optimal"] for r in rows)
    # Runtime grows with instance size: the largest corner costs more
    # than the smallest.
    smallest = min(rows, key=lambda r: (r["requests"], r["cache_blocks"], r["blocks_per_req"]))
    largest = max(rows, key=lambda r: (r["requests"], r["cache_blocks"], r["blocks_per_req"]))
    assert largest["runtime_ms"] > smallest["runtime_ms"]
    # And the mean runtime over a batch is far beyond a per-block
    # real-time budget (microseconds).
    assert statistics.fmean(r["runtime_ms"] for r in rows) > 1.0
