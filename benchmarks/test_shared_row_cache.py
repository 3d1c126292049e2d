"""Shared-prior blended-row cache micro-benchmark.

Under a static workload every decode used to re-blend the same crowd
row into the same private chain — a sorted-union dict walk per decode.
The blend is now cached keyed by the ``(private, crowd)`` row-version
pair and invalidated when either chain observes a transition out of
the row.  This benchmark times the cache-hit path at a realistic
crowd-row width, measures the miss (re-blend) path by clearing the
cache per call, asserts the two are byte-identical, and records the
speedup.
"""

import time

import numpy as np

from repro.predictors.markov import MarkovModel
from repro.predictors.shared import SharedMarkovServerPredictor, SharedTransitionPrior

N_REQUESTS = 2_000
ROW_WIDTH = 128
ROW_COUNT = 3


def make_predictor(seed=11):
    rng = np.random.default_rng(seed)
    prior = SharedTransitionPrior(N_REQUESTS)
    successors = rng.choice(N_REQUESTS, size=ROW_WIDTH, replace=False)
    for s in successors:
        for _ in range(ROW_COUNT):
            prior.observe(0, int(s))
    sp = SharedMarkovServerPredictor(MarkovModel(N_REQUESTS), prior)
    # A little private history so the blend exercises the union path.
    for request in (0, 5, 0, 9, 0, 5):
        sp.model.observe(int(request))
    return sp


def test_blended_row_cache_speedup(benchmark, bench_report):
    sp = make_predictor()
    want = sp._blended_row(0)  # warm the cache

    hit = benchmark(lambda: sp._blended_row(0))
    assert hit[0] is want[0]  # served from cache

    # Miss path: clear the cache so every call re-blends.
    loops = 200
    start = time.perf_counter()
    for _ in range(loops):
        sp._blend_cache.clear()
        miss = sp._blended_row(0)
    miss_s = (time.perf_counter() - start) / loops

    np.testing.assert_array_equal(want[0], miss[0])
    np.testing.assert_array_equal(want[1], miss[1])
    assert want[2] == miss[2]

    hit_us = benchmark.stats.stats.mean * 1e6
    miss_us = miss_s * 1e6
    bench_report(
        "shared_row_cache",
        [
            {
                "crowd_row_width": ROW_WIDTH,
                "hit_us": round(hit_us, 2),
                "miss_us": round(miss_us, 2),
                "speedup": round(miss_us / hit_us, 1),
            }
        ],
        "shared-prior blended-row cache: hit vs re-blend (byte-identical)",
        wall_clock=True,
    )
    assert miss_us > hit_us  # the cache must actually win
