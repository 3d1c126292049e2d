"""Per-figure experiment sweeps (§6, Appendix A/B).

One function per data-bearing figure; each returns the rows the figure
plots (list of dicts), and the benchmark harness prints them with
:func:`repro.metrics.report.format_table`.

Scale: the paper's full configuration (10k thumbnails, 3-minute traces,
14 users) takes hours in a pure-Python simulator, so every driver takes
an :class:`~repro.experiments.configs.ImageExperimentScale` whose
defaults are a reduced — but structurally identical — configuration.  ``benchmarks/results/`` records
the tables at the scales used.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.distribution import RequestDistribution
from repro.core.greedy import GreedyScheduler
from repro.core.ilp import ILPScheduler
from repro.core.scheduler import GainTable, expected_utility
from repro.core.utility import LinearUtility, ssim_image_utility
from repro.workloads.falcon import FalconApp, FalconTraceGenerator
from repro.workloads.thinktime import mean_think_time_s, rescale_think_times

from .configs import (
    DEFAULT_ENV,
    HIGH_RESOURCE,
    LOW_RESOURCE,
    MED_RESOURCE,
    EnvironmentConfig,
    ImageExperimentScale,
)
from .runner import (
    RunResult,
    run_convergence,
    run_falcon,
    run_image_system,
    run_khameleon,
)

__all__ = [
    "RESOURCE_SETTINGS",
    "fig3_utility_curves",
    "fig5_thinktime_cdf",
    "fig6_bandwidth_cache",
    "fig7_latency_vs_utility",
    "fig8_request_latency",
    "fig9_think_time",
    "fig10_convergence",
    "fig11_ablation",
    "fig12_predictors",
    "fig13_cellular",
    "fig14_falcon",
    "fig15_ilp_runtime",
    "fig16_greedy_runtime",
    "fig17_greedy_vs_ilp",
    "fig19_overpush",
    "appb1_prediction_frequency",
]

#: §6.2's three composite settings, keyed as the figures label them.
RESOURCE_SETTINGS: dict[str, EnvironmentConfig] = {
    "low": LOW_RESOURCE,
    "med": MED_RESOURCE,
    "high": HIGH_RESOURCE,
}

#: Paper's Fig. 6 sweep values.
PAPER_BANDWIDTHS = (1_500_000.0, 5_625_000.0, 15_000_000.0)
PAPER_CACHES = (10_000_000, 50_000_000, 100_000_000)
PAPER_REQUEST_LATENCIES = (0.020, 0.050, 0.100, 0.400)
PAPER_THINK_TIMES = (0.010, 0.050, 0.100, 0.200)


def _mean_rows(results: Sequence[RunResult], **sweep_columns) -> dict:
    """Average one (system, condition) cell across traces."""
    if not results:
        raise ValueError("no results to aggregate")
    rows = [r.row() for r in results]
    out = {"system": rows[0]["system"], **sweep_columns}
    numeric = [k for k, v in rows[0].items() if isinstance(v, (int, float))]
    for key in numeric:
        out[key] = statistics.fmean(row[key] for row in rows if key in row)
    return out


def fig3_utility_curves(samples: int = 21) -> list[dict]:
    """Fig. 3: the SSIM image curve vs the linear visualization curve."""
    image = ssim_image_utility()
    linear = LinearUtility()
    rows = []
    for i in range(samples):
        frac = i / (samples - 1)
        rows.append(
            {
                "%blocks": 100.0 * frac,
                "image_utility": float(image(frac)),
                "vis_utility": float(linear(frac)),
            }
        )
    return rows


def fig5_thinktime_cdf(
    scale: Optional[ImageExperimentScale] = None,
    falcon_traces: int = 3,
    falcon_duration_s: float = 180.0,
    percentiles: Sequence[float] = (10, 25, 50, 75, 90, 99),
) -> list[dict]:
    """Fig. 5: think-time distributions for both applications."""
    scale = scale or ImageExperimentScale()
    _app, traces = scale.build()
    image_thinks = np.concatenate([t.think_times_s() for t in traces])

    falcon_app = FalconApp()
    fgen = FalconTraceGenerator(falcon_app, seed=scale.seed)
    falcon = [fgen.generate(falcon_duration_s, trace_id=i) for i in range(falcon_traces)]
    falcon_thinks = np.concatenate([t.interaction.think_times_s() for t in falcon])

    rows = []
    for app_name, thinks in (("image", image_thinks), ("falcon", falcon_thinks)):
        for p in percentiles:
            rows.append(
                {
                    "app": app_name,
                    "percentile": p,
                    "think_time_ms": float(np.percentile(thinks, p)) * 1e3,
                }
            )
    return rows


FIG6_SYSTEMS = ("khameleon", "acc-1-1", "acc-1-5", "acc-0.8-5", "baseline")


def fig6_bandwidth_cache(
    scale: Optional[ImageExperimentScale] = None,
    bandwidths: Sequence[float] = PAPER_BANDWIDTHS,
    caches: Sequence[int] = PAPER_CACHES,
    systems: Sequence[str] = FIG6_SYSTEMS,
) -> list[dict]:
    """Fig. 6: four metrics over bandwidth × cache × system."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for cache in caches:
        for bw in bandwidths:
            env = DEFAULT_ENV.with_bandwidth(bw).with_cache(cache)
            for system in systems:
                results = [
                    run_image_system(system, app, trace, env, seed=scale.seed)
                    for trace in traces
                ]
                rows.append(
                    _mean_rows(
                        results,
                        cache_mb=cache / 1e6,
                        bandwidth_mbps=bw / 1e6,
                    )
                )
    return rows


def fig7_latency_vs_utility(
    scale: Optional[ImageExperimentScale] = None,
    bandwidths: Sequence[float] = PAPER_BANDWIDTHS,
    caches: Sequence[int] = PAPER_CACHES,
    systems: Sequence[str] = ("khameleon", "acc-1-5", "baseline"),
) -> list[dict]:
    """Fig. 7: the latency/utility scatter (same sweep, fewer systems)."""
    rows = fig6_bandwidth_cache(scale, bandwidths, caches, systems)
    return [
        {
            "system": r["system"],
            "cache_mb": r["cache_mb"],
            "bandwidth_mbps": r["bandwidth_mbps"],
            "latency_ms": r["latency_ms"],
            "utility": r["utility"],
        }
        for r in rows
    ]


def fig8_request_latency(
    scale: Optional[ImageExperimentScale] = None,
    latencies_s: Sequence[float] = PAPER_REQUEST_LATENCIES,
    systems: Sequence[str] = ("khameleon", "acc-1-1", "acc-1-5", "baseline"),
    bandwidth: float = 15_000_000.0,
    cache: int = 50_000_000,
) -> list[dict]:
    """Fig. 8: metrics vs request latency at 15 MB/s, 50 MB cache."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for latency in latencies_s:
        env = (
            DEFAULT_ENV.with_bandwidth(bandwidth)
            .with_cache(cache)
            .with_request_latency(latency)
        )
        for system in systems:
            results = [
                run_image_system(system, app, trace, env, seed=scale.seed)
                for trace in traces
            ]
            rows.append(_mean_rows(results, request_latency_ms=latency * 1e3))
    return rows


def fig9_think_time(
    scale: Optional[ImageExperimentScale] = None,
    think_times_s: Sequence[float] = PAPER_THINK_TIMES,
    resources: Sequence[str] = ("low", "med", "high"),
    systems: Sequence[str] = (
        "khameleon",
        "khameleon-oracle",
        "acc-1-1",
        "acc-1-5",
        "baseline",
    ),
) -> list[dict]:
    """Fig. 9: metrics vs synthetic think time × resource setting."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for resource in resources:
        env = RESOURCE_SETTINGS[resource]
        for think in think_times_s:
            warped = [rescale_think_times(t, think) for t in traces]
            for system in systems:
                results = [
                    run_image_system(system, app, trace, env, seed=scale.seed)
                    for trace in warped
                ]
                rows.append(
                    _mean_rows(results, resource=resource, think_time_ms=think * 1e3)
                )
    return rows


def fig10_convergence(
    scale: Optional[ImageExperimentScale] = None,
    resources: Sequence[str] = ("low", "med", "high"),
    systems: Sequence[str] = ("khameleon", "acc-1-1", "acc-1-5", "baseline"),
    pause_fraction: float = 0.6,
    hold_s: float = 10.0,
    sample_points: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4),
) -> list[dict]:
    """Fig. 10: utility convergence after the user pauses on a request."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for resource in resources:
        env = RESOURCE_SETTINGS[resource]
        for system in systems:
            curves = [
                run_convergence(
                    app,
                    trace,
                    env,
                    system,
                    pause_s=trace.duration_s * pause_fraction,
                    hold_s=hold_s,
                    sample_points=sample_points,
                    seed=scale.seed,
                )
                for trace in traces
            ]
            for i, point in enumerate(sample_points):
                utilities = [curve[i][1] for curve in curves if i < len(curve)]
                rows.append(
                    {
                        "system": system,
                        "resource": resource,
                        "elapsed_ms": point * 1e3,
                        "utility": statistics.fmean(utilities) if utilities else 0.0,
                    }
                )
    return rows


def fig11_ablation(
    scale: Optional[ImageExperimentScale] = None,
    latencies_s: Sequence[float] = PAPER_REQUEST_LATENCIES,
    systems: Sequence[str] = (
        "khameleon",
        "acc-1-5",
        "baseline",
        "progressive",
        "predictor",
    ),
    bandwidth: float = 15_000_000.0,
    cache: int = 50_000_000,
) -> list[dict]:
    """Fig. 11: the ablation — prediction and progressive encoding
    each help, but only their combination gives Khameleon's profile."""
    return fig8_request_latency(scale, latencies_s, systems, bandwidth, cache)


def fig12_predictors(
    scale: Optional[ImageExperimentScale] = None,
    bandwidths: Sequence[float] = PAPER_BANDWIDTHS,
    systems: Sequence[str] = (
        "khameleon",
        "khameleon-oracle",
        "khameleon-uniform",
        "acc-1-5",
    ),
    cache: int = 50_000_000,
) -> list[dict]:
    """Fig. 12: predictor sensitivity (Uniform / Kalman / Oracle)."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for bw in bandwidths:
        env = DEFAULT_ENV.with_bandwidth(bw).with_cache(cache)
        for system in systems:
            results = [
                run_image_system(system, app, trace, env, seed=scale.seed)
                for trace in traces
            ]
            rows.append(_mean_rows(results, bandwidth_mbps=bw / 1e6))
    return rows


def fig13_cellular(
    scale: Optional[ImageExperimentScale] = None,
    networks: Sequence[str] = ("verizon", "att"),
    systems: Sequence[str] = ("khameleon", "acc-1-5"),
) -> list[dict]:
    """Fig. 13: Verizon/AT&T LTE traces, 100 ms request latency."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for network in networks:
        env = EnvironmentConfig(
            name=network,
            cellular=network,
            min_rtt_s=0.100,
            cache_bytes=50_000_000,
        )
        for system in systems:
            results = [
                run_image_system(system, app, trace, env, seed=scale.seed)
                for trace in traces
            ]
            rows.append(_mean_rows(results, network=network))
    return rows


def fig14_falcon(
    blocks_per_response: Sequence[int] = (1, 2, 4),
    predictors: Sequence[str] = ("kalman", "onhover"),
    backends: Sequence[str] = ("postgres", "scalable"),
    db_scales: Sequence[str] = ("small", "big"),
    trace_duration_s: float = 120.0,
    num_traces: int = 2,
    seed: int = 0,
) -> list[dict]:
    """Fig. 14: the Falcon port across blocks/response, predictor, and
    backend, on the Small and Big databases."""
    rows = []
    for db_scale in db_scales:
        for nb in blocks_per_response:
            app = FalconApp(blocks_per_response=nb)
            gen = FalconTraceGenerator(app, seed=seed)
            traces = [
                gen.generate(trace_duration_s, trace_id=i) for i in range(num_traces)
            ]
            for backend_kind in backends:
                for predictor in predictors:
                    results = [
                        run_falcon(
                            app,
                            trace,
                            DEFAULT_ENV,
                            predictor=predictor,
                            backend_kind=backend_kind,
                            db_scale=db_scale,
                            seed=seed,
                        )
                        for trace in traces
                    ]
                    rows.append(
                        _mean_rows(
                            results,
                            db=db_scale,
                            blocks=nb,
                            predictor=predictor,
                            backend=backend_kind,
                        )
                    )
    return rows


def _micro_distribution(n: int, seed: int) -> RequestDistribution:
    """A skewed distribution for scheduler micro-benchmarks."""
    rng = np.random.default_rng(seed)
    k = max(1, n // 8)
    ids = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    raw = rng.random((4, k))
    probs = 0.9 * raw / raw.sum(axis=1, keepdims=True)
    residual = np.full(4, 0.1)
    return RequestDistribution(
        n=n,
        deltas_s=np.array([0.05, 0.15, 0.25, 0.5]),
        explicit_ids=ids,
        explicit_probs=probs,
        residual=residual,
    )


def fig15_ilp_runtime(
    num_requests: Sequence[int] = (5, 10, 15),
    cache_blocks: Sequence[int] = (10, 20, 30),
    blocks_per_request: Sequence[int] = (5, 10, 15),
    seed: int = 0,
) -> list[dict]:
    """Fig. 15: LP scheduler runtime on micro instances."""
    rows = []
    for n in num_requests:
        for cache in cache_blocks:
            for nb in blocks_per_request:
                gains = GainTable(LinearUtility(), [nb] * n)
                scheduler = ILPScheduler(gains=gains, cache_blocks=cache)
                dist = _micro_distribution(n, seed)
                start = time.perf_counter()
                solution = scheduler.solve(dist, slot_duration_s=0.01)
                elapsed = time.perf_counter() - start
                rows.append(
                    {
                        "requests": n,
                        "cache_blocks": cache,
                        "blocks_per_req": nb,
                        "runtime_ms": elapsed * 1e3,
                        "optimal": solution.optimal,
                    }
                )
    return rows


def _materialize_all(dist: RequestDistribution) -> RequestDistribution:
    """Expand a sparse distribution so *every* request is explicit.

    This is what the unoptimized scheduler of §5.3.1 pays: the P matrix
    covers all n requests instead of pooling the near-uniform mass into
    one meta-request.
    """
    dense = np.stack([dist.dense_at(float(d)) for d in dist.deltas_s])
    # threshold=0 keeps every request with non-zero mass explicit.
    return RequestDistribution.from_dense(dense, dist.deltas_s, threshold=0.0)


def fig16_greedy_runtime(
    num_requests: Sequence[int] = (10, 100, 1_000, 10_000),
    cache_blocks: Sequence[int] = (100, 500, 5_000),
    blocks_per_request: Sequence[int] = (50, 100, 200),
    meta_request: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Fig. 16: greedy scheduler runtime for one full schedule.

    ``meta_request=False`` reproduces the *unoptimized* scheduler: the
    probability matrix is materialized for every request rather than
    pooling near-uniform mass (the paper reports 13× on 10k requests).
    """
    rows = []
    for n in num_requests:
        dist = _micro_distribution(n, seed)
        if not meta_request:
            dist = _materialize_all(dist)
        for cache in cache_blocks:
            for nb in blocks_per_request:
                gains = GainTable(LinearUtility(), [nb] * n)
                scheduler = GreedyScheduler(
                    gains=gains,
                    cache_blocks=cache,
                    meta_request=meta_request,
                    seed=seed,
                )
                start = time.perf_counter()
                scheduler.update_distribution(dist, slot_duration_s=0.01)
                schedule = scheduler.schedule_batch()
                elapsed = time.perf_counter() - start
                rows.append(
                    {
                        "requests": n,
                        "cache_blocks": cache,
                        "blocks_per_req": nb,
                        "runtime_ms": elapsed * 1e3,
                        "blocks_scheduled": len(schedule),
                        "materialized_frac": scheduler.materialized_fraction,
                    }
                )
    return rows


def fig17_greedy_vs_ilp(
    num_requests: Sequence[int] = (5, 10, 15),
    cache_blocks: int = 15,
    blocks_per_request: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Fig. 17: greedy schedules vs optimal ILP schedules (Eq. 2 value)."""
    rows = []
    slot = 0.01
    for n in num_requests:
        gains = GainTable(LinearUtility(), [blocks_per_request] * n)
        dist = _micro_distribution(n, seed)

        ilp = ILPScheduler(gains=gains, cache_blocks=cache_blocks)
        start = time.perf_counter()
        solution = ilp.solve(dist, slot_duration_s=slot)
        ilp_ms = (time.perf_counter() - start) * 1e3
        ilp_value = expected_utility(solution.schedule, dist, gains, slot)

        greedy = GreedyScheduler(
            gains=gains, cache_blocks=cache_blocks, meta_request=True, seed=seed
        )
        start = time.perf_counter()
        greedy.update_distribution(dist, slot_duration_s=slot)
        schedule = greedy.schedule_batch()
        greedy_ms = (time.perf_counter() - start) * 1e3
        greedy_value = expected_utility(schedule, dist, gains, slot)

        rows.append(
            {
                "requests": n,
                "ilp_utility": ilp_value,
                "greedy_utility": greedy_value,
                "utility_ratio": ilp_value / greedy_value if greedy_value else float("inf"),
                "ilp_ms": ilp_ms,
                "greedy_ms": greedy_ms,
                "speedup": ilp_ms / greedy_ms if greedy_ms else float("inf"),
            }
        )
    return rows


def fig19_overpush(
    scale: Optional[ImageExperimentScale] = None,
    think_times_s: Sequence[float] = PAPER_THINK_TIMES,
    resources: Sequence[str] = ("low", "med", "high"),
    systems: Sequence[str] = ("khameleon", "acc-1-5"),
) -> list[dict]:
    """Fig. 19 / §B.2: overpush rate during the think-time sweep."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for resource in resources:
        env = RESOURCE_SETTINGS[resource]
        for think in think_times_s:
            warped = [rescale_think_times(t, think) for t in traces]
            for system in systems:
                results = [
                    run_image_system(system, app, trace, env, seed=scale.seed)
                    for trace in warped
                ]
                overpushes = [r.overpush for r in results if r.overpush is not None]
                rows.append(
                    {
                        "system": system,
                        "resource": resource,
                        "think_time_ms": think * 1e3,
                        "overpush_%": (
                            100.0 * statistics.fmean(overpushes) if overpushes else 0.0
                        ),
                    }
                )
    return rows


def appb1_prediction_frequency(
    scale: Optional[ImageExperimentScale] = None,
    intervals_s: Sequence[float] = (0.050, 0.150, 0.250, 0.350),
    resources: Sequence[str] = ("low", "med", "high"),
) -> list[dict]:
    """§B.1: sensitivity to how often predictions are shipped."""
    scale = scale or ImageExperimentScale()
    app, traces = scale.build()
    rows = []
    for resource in resources:
        env = RESOURCE_SETTINGS[resource]
        for interval in intervals_s:
            results = [
                run_khameleon(
                    app,
                    trace,
                    env,
                    prediction_interval_s=interval,
                    seed=scale.seed,
                )
                for trace in traces
            ]
            rows.append(
                _mean_rows(results, resource=resource, interval_ms=interval * 1e3)
            )
    return rows
