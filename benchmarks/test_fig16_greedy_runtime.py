"""Fig. 16 — greedy scheduler runtime across cache size, number of
requests, and blocks per request.

Paper shape: runtime is independent of blocks/request, grows with the
number of (materialized) requests and the cache size, and the
meta-request optimization keeps even 10k-request instances real-time
(the paper reports 13× savings: 1.9 s → 150 ms per 5k-block schedule).
"""

from repro.experiments.figures import fig16_greedy_runtime


def test_fig16_greedy_runtime(benchmark, bench_report):
    rows = benchmark.pedantic(
        lambda: fig16_greedy_runtime(
            num_requests=(10, 100, 1_000, 10_000),
            cache_blocks=(100, 500),
            blocks_per_request=(50, 200),
        ),
        rounds=1,
        iterations=1,
    )
    bench_report(
        "fig16_greedy_runtime", rows, "Fig. 16: greedy scheduler runtime", wall_clock=True
    )

    # Runtime is (near-)independent of blocks/request: compare the two
    # block settings at the largest instance.  One wall-clock sample per
    # cell is at the mercy of a single scheduler hiccup, so each cell is
    # re-timed three times, interleaved, and the minima are compared.
    times = {50: [], 200: []}
    for _ in range(3):
        for nb in times:
            (cell,) = fig16_greedy_runtime(
                num_requests=(10_000,), cache_blocks=(500,), blocks_per_request=(nb,)
            )
            times[nb].append(cell["runtime_ms"])
    assert min(times[200]) < 5.0 * max(min(times[50]), 0.1)
    # Every schedule fills its batch.
    assert all(r["blocks_scheduled"] == r["cache_blocks"] for r in rows)


def test_fig16_meta_request_ablation(benchmark, bench_report):
    """The §5.3.1 meta-request optimization: pooled uniform mass keeps
    the materialized fraction (and cost) low at 10k requests."""

    def run():
        with_meta = fig16_greedy_runtime(
            num_requests=(10_000,), cache_blocks=(500,), blocks_per_request=(50,),
            meta_request=True,
        )
        without = fig16_greedy_runtime(
            num_requests=(10_000,), cache_blocks=(500,), blocks_per_request=(50,),
            meta_request=False,
        )
        for r in with_meta:
            r["variant"] = "meta"
        for r in without:
            r["variant"] = "no-meta"
        return with_meta + without

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    bench_report(
        "fig16_meta_ablation", rows, "Fig. 16 ablation: meta-request", wall_clock=True
    )

    meta = next(r for r in rows if r["variant"] == "meta")
    no_meta = next(r for r in rows if r["variant"] == "no-meta")
    # With pooling, only the explicitly-predicted fraction of the 10k
    # requests is materialized (paper: < 1/100 for the image gallery).
    assert meta["materialized_frac"] < 0.5
    assert no_meta["materialized_frac"] == 1.0
    # And pooling is substantially faster (paper: 13x at this scale).
    assert no_meta["runtime_ms"] > 1.5 * meta["runtime_ms"]
