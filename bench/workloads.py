"""The three discrete-event workloads and the numbers they report.

Every workload replays a *fixed motion corpus* — the repo's saccade /
dwell mouse model with a constant corpus seed, the analogue of the
paper's fixed 14-user trace set — and takes everything else from
``--seed``: which of the grid's eight symmetries each trace is seen
through (so the cells, image sizes and gains differ), which session
replays which trace (so shard membership and fair-share neighbours
differ) and the scheduler's sampling seed.  Between-user variance of a
freshly drawn corpus is 20–100 % on latency over the few hundred
session-seconds a run can afford; a regression bound of a few percent
needs that held still (``bench/README.md`` has the measurements).

A run executes a number of iterations fixed by ``--seconds``; each
iteration is one call of the program's own driver (``run_fleet``,
``run_khameleon``, ``run_fleet_sharded``) on its own slice of the
corpus.  Timings are medians over the iterations, quality is pooled
over them, and every iteration's outputs are verified.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.cache_manager import RequestOutcome
from repro.experiments import runner
from repro.experiments.configs import DEFAULT_ENV, HIGH_RESOURCE, FleetEnvironment
from repro.metrics.collector import collect, overpush_rate
from repro.predictors.layout import GridLayout
from repro.sim.engine import Simulator
from repro.workloads.mouse import MouseTraceGenerator
from repro.workloads.trace import InteractionTrace, TraceEvent

from . import layers
from .spans import SpanTable, Tracer, install
from .stats import median

__all__ = [
    "Shape", "SHAPES", "END_TO_END", "run_des", "seeded_traces", "quality", "end_to_end",
    "client_counters",
]

#: The paper's prediction tick; ``tick_cpu_ms`` is CPU per one of these.
TICK_S = 0.150
#: The paper's interactivity target.
INTERACTIVE_S = 0.100
#: Seed of the fixed motion corpus (see module docstring).
CORPUS_SEED = 2020
#: Simulated seconds after the last trace event, for in-flight blocks.
DRAIN_S = 0.25
#: Wall-clock limit of one sharded driver call (worker hang => failure).
SHARDED_TIMEOUT_S = 90.0

#: name, unit, direction — ``BENCHMARK.json`` repeats these with bounds.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tick_cpu_ms", "ms", "lower"),
    ("run_wall_s", "s", "lower"),
    ("within_100ms_pct", "%", "higher"),
    ("cache_hit_pct", "%", "higher"),
    ("utility_mean", "ratio", "higher"),
    ("push_mb_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


@dataclass(frozen=True)
class Shape:
    """Size of one discrete-event workload (``bench/README.md`` says why)."""

    driver: str  # "fleet" | "single" | "sharded"
    sessions: int
    grid: int
    trace_s: float
    #: The user parks the pointer this long after the trace: stationary
    #: samples, the repo's own Fig. 10 protocol, so the Kalman filter is
    #: never left extrapolating its last velocity off the interface.
    hold_s: float
    predictor: str
    #: Link capacity per session; None = the driver's own environment
    #: (``single``: the paper's §6.2 high-resource setting).
    bandwidth_per_session: Optional[float]
    #: Seconds one iteration takes on the 2-core reference box;
    #: ``--seconds`` / this = the run's fixed iteration count.
    iteration_s: float
    shards: int = 1
    sync_interval_s: float = 0.5

    def iterations(self, seconds: float) -> int:
        return max(2, round(seconds / self.iteration_s))


SHAPES = {
    "fleet32_kalman": Shape(
        driver="fleet", sessions=32, grid=12, trace_s=5.0, hold_s=1.0,
        predictor="kalman", bandwidth_per_session=1_500_000.0, iteration_s=3.5,
    ),
    "single10k_kalman": Shape(
        driver="single", sessions=1, grid=100, trace_s=10.0, hold_s=1.0,
        predictor="kalman", bandwidth_per_session=None, iteration_s=1.1,
    ),
    "sharded2_markov": Shape(
        driver="sharded", sessions=128, grid=12, trace_s=4.0, hold_s=1.0,
        predictor="shared-markov", bandwidth_per_session=1_500_000.0,
        iteration_s=4.8, shards=2,
    ),
}


# -- inputs -----------------------------------------------------------


def _reflect(
    trace: InteractionTrace, layout: GridLayout, flip_x: bool, flip_y: bool, transpose: bool
) -> InteractionTrace:
    """``trace`` seen through one of the square grid's eight symmetries."""
    side, n = layout.width, layout.cols

    def cell(request: Optional[int]) -> Optional[int]:
        if request is None:
            return None
        row, col = divmod(request, n)
        if transpose:
            row, col = col, row
        if flip_x:
            col = n - 1 - col
        if flip_y:
            row = n - 1 - row
        return row * n + col

    events = []
    for e in trace.events:
        x, y = (e.y, e.x) if transpose else (e.x, e.y)
        if flip_x:
            x = side - x
        if flip_y:
            y = side - y
        x, y = layout.clamp(x, y)
        events.append(TraceEvent(e.time_s, x, y, cell(e.request)))
    return InteractionTrace(events, name=trace.name)


def seeded_traces(
    layout: GridLayout, sessions: int, trace_s: float, hold_s: float, seed: int, iteration: int
) -> tuple[list[InteractionTrace], int]:
    """Iteration ``iteration``'s traces as ``seed`` shows them, plus the
    scheduler seed.  Same arguments, same inputs."""
    generator = MouseTraceGenerator(layout, seed=CORPUS_SEED)
    rng = np.random.default_rng((seed, iteration))
    first = iteration * sessions
    traces = []
    for k in rng.permutation(sessions):
        base = generator.generate(duration_s=trace_s, trace_id=first + int(k))
        held = runner.extend_with_pause(base, trace_s, hold_s)
        flip_x, flip_y, transpose = (bool(b) for b in rng.integers(0, 2, size=3))
        traces.append(_reflect(held, layout, flip_x, flip_y, transpose))
    return traces, int(rng.integers(0, 2**31 - 1))


# -- one iteration ------------------------------------------------------


@dataclass
class Iteration:
    """What one driver call produced."""

    setup_s: float
    cpu_s: float  # program CPU inside the drive (slowest shard when sharded)
    wall_s: float
    ticks: int
    sim_s: float
    outcomes: list[list[RequestOutcome]]  # per session
    fingerprint: object  # equal for equal inputs (determinism check)
    counters: dict[str, float]
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def _timed_simulator_run(started: float) -> Iterator[dict]:
    """Time ``Simulator.run`` for drivers without a ``run_driver`` seam.

    One wrapped call per iteration: ``setup_s`` is everything between
    ``started`` and the first event, ``cpu_s`` the CPU inside the drive.
    """
    original = Simulator.run
    seen: dict = {}

    def run(self, until=None):
        seen["setup_s"] = time.perf_counter() - started
        cpu0 = time.process_time()
        try:
            return original(self, until)
        finally:
            seen["cpu_s"] = time.process_time() - cpu0
            seen["events"] = self.events_processed

    Simulator.run = run
    try:
        yield seen
    finally:
        Simulator.run = original


@contextlib.contextmanager
def _pooled_outcomes() -> Iterator[list]:
    """Record the outcome streams ``run_fleet_sharded`` pools.

    Its result carries summaries only, and ``within_100ms_pct`` needs
    every request's latency, so note what it hands ``collect_fleet``.
    """
    original = runner.collect_fleet
    seen: list = []

    def collect_fleet(outcomes_by_session):
        seen.append(outcomes_by_session)
        return original(outcomes_by_session)

    runner.collect_fleet = collect_fleet
    try:
        yield seen
    finally:
        runner.collect_fleet = original


def _backend_counters(backend: dict) -> dict[str, float]:
    shared = backend["cache_hits"] + backend["piggybacked"]
    return {
        "fetches_started": backend["fetches_started"],
        "shared_hits": shared,
        "backend_calls": backend["fetches_started"] + shared,
        "peak_concurrency": backend["peak_concurrency"],
    }


def _fleet_counters(diagnostics: dict) -> dict[str, float]:
    prediction = diagnostics["prediction"]
    return {
        "blocks_sent": diagnostics["blocks_sent"],
        "bytes_sent": diagnostics["bytes_sent"],
        "blocks_deferred": diagnostics["blocks_deferred"],
        "jain_sum": diagnostics["link_fairness"],
        "states_decoded": prediction["sessions_recomputed"],
        "sessions_recomputed": prediction["sessions_recomputed"],
        "batched_recomputes": prediction["batched_recomputes"],
        **_backend_counters(diagnostics["backend"]),
    }


def _check_sessions(
    traces: list[InteractionTrace],
    outcomes: list[list[RequestOutcome]],
    order: list[int],
) -> list[str]:
    """Conservation: every plan session reported, and per session
    registered = trace requests = served + preempted + unanswered."""
    problems = []
    if sorted(order) != list(range(len(traces))):
        problems.append(f"sessions reported {sorted(order)} != plan 0..{len(traces) - 1}")
        return problems
    for index, stream in zip(order, outcomes):
        want = traces[index].num_requests
        served = sum(1 for o in stream if o.served)
        preempted = sum(1 for o in stream if o.preempted)
        unanswered = sum(1 for o in stream if not o.served and not o.preempted)
        both = sum(1 for o in stream if o.served and o.preempted)
        if len(stream) != want or served + preempted + unanswered != want or both:
            problems.append(
                f"session {index}: {want} trace requests, {len(stream)} registered = "
                f"{served} served + {preempted} preempted + {unanswered} unanswered "
                f"({both} both served and preempted)"
            )
    return problems


def _inputs(shape: Shape, seed: int, iteration: int):
    """``(app spec, traces, scheduler seed)`` of one iteration."""
    spec = runner.ImageAppSpec(rows=shape.grid, cols=shape.grid)
    layout = GridLayout(spec.rows, spec.cols, spec.cell_px, spec.cell_px)
    traces, scheduler_seed = seeded_traces(
        layout, shape.sessions, shape.trace_s, shape.hold_s, seed, iteration
    )
    return spec, traces, scheduler_seed


def _fleet_env(shape: Shape) -> FleetEnvironment:
    link = DEFAULT_ENV.with_bandwidth(shape.sessions * shape.bandwidth_per_session)
    return FleetEnvironment(num_sessions=shape.sessions, env=link)


def _iterate_fleet(shape: Shape, seed: int, iteration: int) -> Iteration:
    spec, traces, scheduler_seed = _inputs(shape, seed, iteration)
    seen: dict = {}
    started = time.perf_counter()
    app = spec.build()

    def drive(sim, until, fleet, prior) -> None:
        seen["setup_s"] = time.perf_counter() - started
        cpu0 = time.process_time()
        sim.run(until=until)
        seen["cpu_s"] = time.process_time() - cpu0
        seen.update(fleet=fleet, sim_s=until, events=sim.events_processed)

    result = runner.run_fleet(
        app, traces, _fleet_env(shape), predictor=shape.predictor, drain_s=DRAIN_S,
        seed=scheduler_seed, run_driver=drive,
    )
    wall_s = time.perf_counter() - started
    fleet = seen["fleet"]
    outcomes = fleet.outcomes_by_session()
    diagnostics = result.diagnostics
    problems = _check_sessions(traces, outcomes, list(fleet.session_indices))
    if diagnostics["bytes_sent"] != diagnostics["blocks_sent"] * app.block_bytes:
        problems.append("bytes_sent != blocks_sent x block size")
    return Iteration(
        setup_s=seen["setup_s"], cpu_s=seen["cpu_s"], wall_s=wall_s,
        ticks=diagnostics["prediction"]["ticks"], sim_s=seen["sim_s"],
        outcomes=outcomes,
        fingerprint=(result.summary, diagnostics["blocks_sent"], diagnostics["backend"]),
        counters={"events": seen["events"], **_fleet_counters(diagnostics)},
        problems=problems,
    )


def _iterate_single(shape: Shape, seed: int, iteration: int) -> Iteration:
    spec, (trace,), scheduler_seed = _inputs(shape, seed, iteration)
    started = time.perf_counter()
    app = spec.build()
    with _timed_simulator_run(started) as seen:
        result = runner.run_khameleon(
            app, trace, HIGH_RESOURCE, predictor=shape.predictor,
            drain_s=DRAIN_S, seed=scheduler_seed,
        )
    wall_s = time.perf_counter() - started
    sim_s = trace.duration_s + DRAIN_S
    problems = _check_sessions([trace], [result.outcomes], [0])
    if result.bytes_pushed != result.blocks_pushed * app.block_bytes:
        problems.append("bytes_pushed != blocks_pushed x block size")
    return Iteration(
        setup_s=seen["setup_s"], cpu_s=seen["cpu_s"], wall_s=wall_s,
        ticks=int(sim_s / TICK_S + 1e-9), sim_s=sim_s,
        outcomes=[result.outcomes],
        fingerprint=(result.summary, result.blocks_pushed, result.extras["backend"]),
        counters={
            "events": seen["events"],
            "blocks_sent": result.blocks_pushed,
            "bytes_sent": result.bytes_pushed,
            "jain_sum": 1.0,
            "states_decoded": result.extras["states_received"],
            **_backend_counters(result.extras["backend"]),
        },
        problems=problems,
    )


def _iterate_sharded(shape: Shape, seed: int, iteration: int) -> Iteration:
    spec, traces, scheduler_seed = _inputs(shape, seed, iteration)
    started = time.perf_counter()
    with _pooled_outcomes() as pooled:
        result = runner.run_fleet_sharded(
            spec, traces, _fleet_env(shape), num_shards=shape.shards, predictor=shape.predictor,
            sync_interval_s=shape.sync_interval_s, drain_s=DRAIN_S,
            seed=scheduler_seed, timeout_s=SHARDED_TIMEOUT_S,
        )
    wall_s = time.perf_counter() - started
    diagnostics = result.diagnostics
    sharding = diagnostics["sharding"]
    slowest = max(range(len(sharding["cpu_run_s"])), key=sharding["cpu_run_s"].__getitem__)
    outcomes = pooled[-1] if pooled else []
    order = [int(label) for label in result.session_labels or range(len(outcomes))]
    problems = _check_sessions(traces, outcomes, order)
    if diagnostics["bytes_sent"] != diagnostics["blocks_sent"] * spec.block_bytes:
        problems.append("bytes_sent != blocks_sent x block size")
    for key in ("restarts", "shards_lost", "sessions_lost"):
        if sharding[key]:
            problems.append(f"sharding.{key} = {sharding[key]}")
    cpu = sharding["cpu_run_s"]
    return Iteration(
        # Everything outside the slowest shard's drive: spawn, worker
        # imports, fleet construction, result pooling and join.
        setup_s=wall_s - sharding["wall_run_s"][slowest],
        cpu_s=cpu[slowest], wall_s=wall_s,
        ticks=diagnostics["prediction"]["ticks"] // shape.shards,
        sim_s=max(t.duration_s for t in traces) + DRAIN_S,
        outcomes=outcomes,
        fingerprint=(
            result.summary, diagnostics["blocks_sent"], diagnostics["backend"],
            sharding["transitions_merged"],
        ),
        counters={
            **_fleet_counters(diagnostics),
            "sharded_runs": 1,
            "sync_rounds": sharding["sync_rounds"],
            "transitions_merged": sharding["transitions_merged"],
            "slowest_cpu_s": cpu[slowest],
            "slowest_wall_s": sharding["wall_run_s"][slowest],
            "mean_cpu_s": sum(cpu) / len(cpu),
        },
        problems=problems,
    )


_ITERATE: dict[str, Callable[[Shape, int, int], Iteration]] = {
    "fleet": _iterate_fleet,
    "single": _iterate_single,
    "sharded": _iterate_sharded,
}


# -- a run ----------------------------------------------------------------


def quality(outcomes: list[RequestOutcome]) -> dict[str, float]:
    """The end-to-end quality metrics over one pooled outcome stream.

    ``within_100ms_pct`` is over *all* registered requests: a cache hit
    counts, a preempted or unanswered request misses the limit.
    """
    summary = collect(outcomes)
    within = sum(1 for o in outcomes if o.served and o.latency_s <= INTERACTIVE_S)
    return {
        "within_100ms_pct": 100.0 * within / len(outcomes),
        "cache_hit_pct": 100.0 * summary.cache_hit_rate,
        "utility_mean": summary.mean_utility,
    }


def end_to_end(values: dict[str, float]) -> dict[str, dict]:
    """``values`` in ``END_TO_END`` order as ``{name: {"value", "unit"}}``."""
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in END_TO_END}


def client_counters(outcomes: list[RequestOutcome]) -> dict[str, float]:
    """The ``cache_manager`` layer's counters over one outcome stream."""
    summary = collect(outcomes)
    return {
        "first_block_mean_ms": summary.mean_latency_s * 1e3,
        "first_block_p95_ms": summary.p95_latency_s * 1e3,
        "preempted_pct": 100.0 * summary.preempted_rate,
        "unanswered": summary.num_unanswered,
    }


def _combine(iterations: list[Iteration]) -> dict[str, float]:
    """Counters over several iterations: sums, except the one peak."""
    out: dict[str, float] = {}
    for it in iterations:
        for key, value in it.counters.items():
            if key == "peak_concurrency":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0.0) + value
    return out


def _peak_rss_mb(shape: Shape) -> float:
    who = resource.RUSAGE_CHILDREN if shape.driver == "sharded" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _codec_mb_s() -> float:
    """Direct ``encode_frame`` → ``FrameDecoder.feed`` round trip."""
    from repro.fleet.transport import FrameDecoder, encode_frame

    payload = bytes(64 * 1024)
    rounds = 200
    decoder = FrameDecoder()
    started = time.perf_counter()
    for seq in range(rounds):
        if len(decoder.feed(encode_frame(1, seq, payload))) != 1:
            return 0.0
    return rounds * len(payload) / (time.perf_counter() - started) / 1e6


def run_des(shape: Shape, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run of a discrete-event workload.

    Untraced: a warm-up iteration, then ``shape.iterations(seconds)``
    measured ones.  Traced: the same count, alternating untraced and
    traced iterations over the same inputs, so the pair gives the
    tracing overhead and shows tracing did not change the outputs.
    """
    iterate = _ITERATE[shape.driver]
    count = shape.iterations(seconds)
    problems: list[str] = []

    # The warm-up repeats measured iteration 0: same inputs, so the two
    # must agree exactly (the DES is deterministic, W = 2 included).
    warm = iterate(shape, seed, 0)
    problems += warm.problems

    plain: list[Iteration] = []
    traced_runs: list[Iteration] = []
    table = SpanTable()
    tracer = Tracer(keep_samples=layers.KEEP_SAMPLES)
    for i in range(count):
        if traced and i % 2:
            uninstall = install(tracer, layers.SPANS)
            try:
                it = iterate(shape, seed, i // 2)
            finally:
                uninstall()
            table.merge(tracer.fold())
            traced_runs.append(it)
            if it.fingerprint != plain[-1].fingerprint:
                problems.append(f"iteration {i // 2}: traced outputs differ from untraced")
        else:
            it = iterate(shape, seed, i // 2 if traced else i)
            plain.append(it)
        problems += it.problems
    if plain[0].fingerprint != warm.fingerprint:
        problems.append("warm-up and first measured iteration disagree on equal inputs")

    pooled = [o for it in plain for stream in it.outcomes for o in stream]
    attempted = len(pooled) + shape.sessions * len(plain)

    def tick_ms(runs: list[Iteration]) -> float:
        return median([1e3 * it.cpu_s / it.ticks for it in runs])

    if not traced:
        total = _combine(plain)
        reported = end_to_end({
            "setup_s": median([it.setup_s for it in plain]),
            "tick_cpu_ms": tick_ms(plain),
            "run_wall_s": median([it.wall_s for it in plain]),
            **quality(pooled),
            "push_mb_s": total["bytes_sent"] / sum(it.sim_s for it in plain) / 1e6,
            "peak_rss_mb": _peak_rss_mb(shape),
        })
    else:
        total = _combine(traced_runs)
        traced_pool = [o for it in traced_runs for stream in it.outcomes for o in stream]
        overpush = overpush_rate(int(total["blocks_sent"]), traced_pool) or 0.0
        counters = {
            **total,
            "overpush_pct": 100.0 * overpush,
            "shared_hit_pct": 100.0 * total["shared_hits"] / max(1.0, total["backend_calls"]),
            "jain_index": total["jain_sum"] / len(traced_runs),
            **client_counters(traced_pool),
            "trace.overhead_x": tick_ms(traced_runs) / tick_ms(plain),
        }
        if shape.driver == "sharded":
            counters["barrier_wait_pct"] = 100.0 * (
                1.0 - total["slowest_cpu_s"] / total["slowest_wall_s"]
            )
            counters["imbalance_x"] = total["slowest_cpu_s"] / total["mean_cpu_s"]
            counters["codec_mb_s"] = _codec_mb_s()
        ticks = sum(it.ticks for it in traced_runs)
        reported = layers.layer_metrics(table, ticks, counters)

    return {
        "correct": not problems,
        "attempted": attempted,
        # Unanswered requests are a quality outcome (they miss the 100 ms
        # limit), not a failed operation; what fails is a check.
        "failed": len(problems),
        "metrics": reported,
        "problems": problems,
        "span_table": table if traced else None,
    }
