"""Extension (§5.4) — bandwidth estimator ablation.

The paper picks the harmonic mean of the last five receive-rate
reports.  This bench replays the same session with EWMA and
sliding-max estimators on the time-varying AT&T LTE trace, where the
estimator actually matters (on a fixed link all converge).
"""

from repro.experiments.configs import EnvironmentConfig, make_downlink, make_uplink
from repro.core.session import KhameleonSession, SessionConfig
from repro.metrics.collector import collect
from repro.predictors.base import MouseEvent
from repro.sim.engine import Simulator
from repro.sim.bandwidth import HarmonicMeanEstimator
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator

from estimators import EWMAEstimator, SlidingMaxEstimator

ENV = EnvironmentConfig(name="att", cellular="att", min_rtt_s=0.100)

ESTIMATORS = {
    "harmonic-mean (paper)": lambda: HarmonicMeanEstimator(1_000_000.0),
    "ewma": lambda: EWMAEstimator(1_000_000.0),
    "sliding-max": lambda: SlidingMaxEstimator(1_000_000.0),
}


def run_sweep():
    app = ImageExplorationApp(rows=12, cols=12)
    trace = MouseTraceGenerator(app.layout, seed=5).generate(12.0)
    rows = []
    for name, factory in ESTIMATORS.items():
        sim = Simulator()
        session = KhameleonSession(
            sim=sim,
            backend=app.make_backend(sim, fetch_delay_s=ENV.backend_delay_s),
            predictor=app.make_predictor("kalman"),
            utility=app.utility,
            num_blocks=app.num_blocks,
            downlink=make_downlink(sim, ENV, seed=1),
            uplink=make_uplink(sim, ENV),
            config=SessionConfig(cache_bytes=ENV.cache_bytes),
        )
        estimator = factory()
        session.estimator = estimator
        session.server.estimator = estimator
        session.sender.estimator = estimator
        for e in trace.events:
            sim.schedule_at(e.time_s, session.client.observe, MouseEvent(e.x, e.y))
            if e.request is not None:
                sim.schedule_at(e.time_s, session.client.request, e.request)
        session.start()
        sim.run(until=trace.duration_s + 3.0)
        session.stop()
        summary = collect(session.cache_manager.outcomes)
        rows.append(
            {
                "estimator": name,
                "cache_hit_%": 100.0 * summary.cache_hit_rate,
                "latency_ms": summary.mean_latency_ms,
                "utility": summary.mean_utility,
                "estimate_MB/s": estimator.estimate / 1e6,
            }
        )
    return rows


def test_ext_estimators(benchmark, bench_report):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    bench_report("ext_estimators", rows, "Extension: bandwidth estimator ablation")

    # All estimators keep the session functional on a cellular link.
    for row in rows:
        assert row["cache_hit_%"] > 30.0
        assert row["latency_ms"] < 2_000.0
