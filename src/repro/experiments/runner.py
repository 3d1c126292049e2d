"""End-to-end experiment drivers (§6).

Each driver assembles one *system under test* over the shared simulated
substrate, replays an interaction trace against it, and returns a
:class:`RunResult` with the §6.1 metrics:

* :func:`run_khameleon` — the full Khameleon stack over the image
  application's file-system backend (optionally without progressive
  encoding: the Fig. 11 "Predictor" ablation arm).
* :func:`run_classic` — the request-response architectures: Baseline,
  Progressive (first block only), and the ACC-<acc>-<hor> idealized
  prefetchers.
* :func:`run_falcon` — Khameleon over the Falcon port with the
  PostgreSQL-like or ScalableSQL backend (§6.4).
* :func:`run_fleet` — N sessions over one shared backend and one
  fair-shared downlink, static or under churn.
* :func:`run_fleet_sharded` — the same fleet split over worker
  processes (:mod:`repro.experiments.sharded` coordinates them,
  :mod:`repro.experiments.shard_worker` runs each), pooled into one
  result.
* :func:`run_convergence` — the Fig. 10 protocol: pause the trace and
  track utility upcalls until quality converges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.baselines.acc import ACCPrefetcher, acc_threshold
from repro.baselines.classic import ClassicConfig, ClassicSession
from repro.core.cache_manager import RequestOutcome
from repro.core.session import KhameleonSession, SessionConfig
from repro.encoding.naive import SingleBlockEncoder
from repro.backends.filesystem import FileSystemBackend
from repro.fleet import KhameleonFleet
from repro.fleet.sharding import SupervisionPolicy, run_sharded
from repro.metrics.collector import MetricSummary, collect, convergence_curve, overpush_rate
from repro.metrics.fleet import (
    CohortSummary,
    FleetSummary,
    collect_cohorts,
    collect_fleet,
    early_hit_rate,
    jain_fairness,
    pool_snapshots,
)
from repro.predictors.base import MouseEvent
from repro.predictors.shared import SharedTransitionPrior, make_shared_markov_predictor
from repro.sim.engine import Simulator
from repro.workloads.falcon import FalconApp, FalconTrace
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.trace import InteractionTrace

from .configs import (
    DEFAULT_DRAIN_S,
    EnvironmentConfig,
    FleetEnvironment,
    make_downlink,
    make_shared_downlink,
    make_uplink,
)
from .sharded import ImageAppSpec, ShardCoordinator, ShardFleetSpec

__all__ = [
    "RunResult",
    "FleetRunResult",
    "ImageAppSpec",
    "ShardFleetSpec",
    "run_khameleon",
    "run_classic",
    "run_falcon",
    "run_fleet",
    "run_fleet_sharded",
    "run_convergence",
    "run_image_system",
    "extend_with_pause",
]

#: Default worker supervision for the sharded fleet path: two restarts
#: per shard with exponential backoff.  Pass ``supervision=None`` to
#: :func:`run_fleet_sharded` for the original die-together behaviour.
_DEFAULT_SUPERVISION = SupervisionPolicy()


@dataclass
class RunResult:
    """Everything a figure needs from one (system, trace, env) run."""

    system: str
    trace_name: str
    env: EnvironmentConfig
    summary: MetricSummary
    outcomes: list[RequestOutcome]
    blocks_pushed: int = 0
    bytes_pushed: int = 0
    overpush: Optional[float] = None
    extras: dict = field(default_factory=dict)

    def row(self, **extra_columns: Any) -> dict:
        """Flatten into a report row (figure drivers add sweep columns)."""
        row = {"system": self.system, **extra_columns, **self.summary.as_dict()}
        if self.overpush is not None:
            row["overpush_%"] = 100.0 * self.overpush
        return row


def _replay(
    sim: Simulator,
    trace: InteractionTrace,
    observe,
    request,
    on_request_position=None,
    offset_s: float = 0.0,
) -> None:
    """Stream the trace's events into the simulator as one series.

    ``observe(event)`` fires for every sample; ``request(id)`` for
    request-bearing samples; ``on_request_position(i)`` (optional)
    additionally reports the request's ordinal position — the hook the
    ACC prefetchers use to read the future.  A sample's events fire in
    that order.  ``offset_s`` shifts the whole trace (a churn fleet
    replays each user's trace from the moment they arrive, not from
    t = 0).

    The trace holds one heap entry however long it is, and each
    :class:`~repro.predictors.base.MouseEvent` is built when its sample
    fires.  By the simulator's series FIFO rule the events fire exactly
    as if every one had been scheduled here with ``schedule_at``.
    """
    per_request = 1 if on_request_position is None else 2
    sim.schedule_series(
        _replay_steps(trace, observe, request, on_request_position, offset_s),
        len(trace.columns[0]) + per_request * trace.num_requests,
    )


def _replay_steps(
    trace: InteractionTrace, observe, request, on_request_position, offset_s: float
) -> Iterator[float]:
    """The series of :func:`_replay`: yield an event's time, then fire it."""
    position = 0
    for t, x, y, r in zip(*trace.columns):
        at = offset_s + t
        yield at
        observe(MouseEvent(x, y))
        if r is not None:
            yield at
            request(r)
            if on_request_position is not None:
                yield at
                on_request_position(position)
            position += 1


def run_khameleon(
    app: ImageExplorationApp,
    trace: InteractionTrace,
    env: EnvironmentConfig,
    predictor: str = "kalman",
    progressive: bool = True,
    drain_s: float = DEFAULT_DRAIN_S,
    prediction_interval_s: float = 0.150,
    seed: int = 0,
    gamma: float = 1.0,
) -> RunResult:
    """Replay ``trace`` against a full Khameleon session.

    ``progressive=False`` swaps the app's progressive encoder for a
    single-block one (whole responses pushed speculatively — the
    Fig. 11 "Predictor" arm); the nominal block size then becomes the
    mean response size so cache and slot accounting stay consistent.
    """
    sim = Simulator()
    downlink = make_downlink(sim, env, seed=seed)
    uplink = make_uplink(sim, env)

    if progressive:
        backend = app.make_backend(sim, fetch_delay_s=env.backend_delay_s)
        num_blocks = app.num_blocks
        block_bytes = app.block_bytes
    else:
        encoder = SingleBlockEncoder(app.response_bytes)
        backend = FileSystemBackend(sim, encoder, fetch_delay_s=env.backend_delay_s)
        num_blocks = [1] * app.num_requests
        block_bytes = int(app.mean_response_bytes())

    config = SessionConfig(
        cache_bytes=env.cache_bytes,
        block_bytes=block_bytes,
        prediction_interval_s=prediction_interval_s,
        scheduler_seed=seed,
        gamma=gamma,
        initial_bandwidth_bytes_per_s=env.bandwidth_bytes_per_s,
    )
    session = KhameleonSession(
        sim=sim,
        backend=backend,
        predictor=app.make_predictor(predictor, trace=trace),
        utility=app.utility,
        num_blocks=num_blocks,
        downlink=downlink,
        uplink=uplink,
        config=config,
    )
    _replay(sim, trace, session.client.observe, session.client.request)
    session.start()
    sim.run(until=trace.duration_s + drain_s)
    session.stop()

    outcomes = session.cache_manager.outcomes
    name = "khameleon" if progressive else "predictor"
    if predictor != "kalman":
        name = f"khameleon-{predictor}"
    if not progressive and predictor != "kalman":
        name = f"predictor-{predictor}"
    return RunResult(
        system=name,
        trace_name=trace.name,
        env=env,
        summary=collect(outcomes),
        outcomes=outcomes,
        blocks_pushed=session.sender.blocks_sent,
        bytes_pushed=session.sender.bytes_sent,
        overpush=overpush_rate(session.sender.blocks_sent, outcomes),
        extras={
            "states_received": session.server.states_received,
            "backend": backend.stats.snapshot(),
            "bandwidth_estimate": session.estimator.estimate,
        },
    )


@dataclass
class FleetRunResult:
    """Everything a fleet experiment needs from one multi-session run."""

    system: str
    fleet_env: FleetEnvironment
    #: ``None`` only for a routed (sharded-worker) fleet none of whose
    #: sessions registered a request — full fleets always have one.
    summary: Optional[FleetSummary]
    diagnostics: dict
    trace_names: list[str] = field(default_factory=list)
    cohorts: list[CohortSummary] = field(default_factory=list)
    session_labels: Optional[list[str]] = None  # plan indices under churn

    def rows(self, **extra_columns: Any) -> list[dict]:
        """Per-session rows plus the pooled ``fleet`` row."""
        return self.summary.rows(
            labels=self.session_labels, system=self.system, **extra_columns
        )

    def cohort_rows(self, **extra_columns: Any) -> list[dict]:
        """One row per arrival cohort (empty for a static fleet run)."""
        return [c.row(system=self.system, **extra_columns) for c in self.cohorts]

    def aggregate_row(self, **extra_columns: Any) -> dict:
        """One row: the pooled metrics plus sharing diagnostics."""
        row = {
            "system": self.system,
            "sessions": self.fleet_env.num_sessions,
            **extra_columns,
            **self.summary.aggregate.as_dict(),
            "link_fairness": self.diagnostics["link_fairness"],
            "shared_hit_%": 100.0 * self.diagnostics["shared_hit_rate"],
        }
        prediction = self.diagnostics.get("prediction")
        if prediction is not None and prediction["ticks"]:
            # Coalescing factor of the fleet schedule service: states
            # recomputed per batched sim event (≈ N for a busy fleet).
            row["pred_batch"] = (
                prediction["sessions_recomputed"]
                / max(1, prediction["batched_recomputes"])
            )
        churn = self.diagnostics.get("churn")
        if churn is not None:
            row["admitted"] = churn["admitted"]
            row["rejected"] = churn["rejected"]
            row["early_hit_%"] = 100.0 * self.diagnostics["early_hit_rate"]
        return row


def _fleet_predictor_factory(
    app: ImageExplorationApp, predictor: str, traces, sim: Simulator,
    shared_prior=None,
):
    """Per-session predictor factory, plus any fleet-shared state.

    ``shared-markov`` is the SeLeP-style deployment: one crowd-warmed
    :class:`~repro.predictors.shared.SharedTransitionPrior` for the whole
    fleet, blended into each session's private chain — cold arrivals
    start from the aggregate transition structure.  ``shared_prior``
    lets the caller supply a pre-populated prior (crowd structure
    carried over from earlier runs — the persistence direction in the
    ROADMAP — or a synthetic warm-up for benchmarks); ``None`` builds a
    fresh one.  Returns ``(make_predictor, prior_or_None)``.

    The factory is invoked at *admission* time.  The oracle reads the
    user's future by absolute simulator time, so under churn its trace
    is re-based to the arrival instant (``sim.now`` at admission) to
    match the replay's timeline; ``shifted(0)`` is the identity, so the
    static path is untouched.
    """
    if predictor == "shared-markov":
        if shared_prior is None:
            prior = SharedTransitionPrior(app.num_requests)
        elif isinstance(shared_prior, (str, os.PathLike)):
            # Warm-start from a prior persisted by an earlier run.
            prior = SharedTransitionPrior.load(shared_prior, n=app.num_requests)
        else:
            prior = shared_prior
        if prior.n != app.num_requests:
            raise ValueError(
                f"shared prior over {prior.n} requests, app has {app.num_requests}"
            )
        return (
            lambda i: make_shared_markov_predictor(app.num_requests, prior),
            prior,
        )
    if shared_prior is not None:
        raise ValueError(
            f"shared_prior only applies to predictor='shared-markov' "
            f"(got {predictor!r})"
        )
    if predictor == "oracle":
        return (
            lambda i: app.make_predictor(
                "oracle", trace=traces[i].shifted(sim.now)
            ),
            None,
        )
    return (lambda i: app.make_predictor(predictor, trace=traces[i]), None)


def run_fleet(
    app: ImageExplorationApp,
    traces: Sequence[InteractionTrace],
    fleet_env: FleetEnvironment,
    predictor: str = "kalman",
    drain_s: float = DEFAULT_DRAIN_S,
    seed: int = 0,
    cohort_width_s: float = 5.0,
    early_k: int = 5,
    shared_prior=None,
    *,
    session_route: Optional[Callable[[int], bool]] = None,
    expected_sessions: Optional[float] = None,
    run_driver: Optional[Callable] = None,
) -> FleetRunResult:
    """Replay one trace per session against a shared-resource fleet.

    The keyword-only tail is the sharding seam
    (:func:`run_fleet_sharded` drives it): ``session_route`` builds
    only the sessions a shard owns (indices stay global, so seeds and
    weights match the unsharded fleet), ``expected_sessions`` overrides
    the bandwidth-prior population, and ``run_driver(sim, until, fleet,
    prior)`` replaces the plain ``sim.run(until=...)`` so a worker can
    chunk the run at delta-sync barriers.  All default to the
    unsharded behaviour.  A routed fleet whose sessions registered no
    requests yields ``summary=None`` instead of raising.

    ``shared_prior`` (``shared-markov`` only) seeds the fleet-wide
    crowd prior with an existing
    :class:`~repro.predictors.shared.SharedTransitionPrior` — or a
    path to one persisted with
    :meth:`~repro.predictors.shared.SharedTransitionPrior.save` —
    instead of a cold one.

    All sessions explore the same application over one backend (shared
    response cache, in-flight dedup, shared §5.4 throttle budget) and
    one downlink split by weighted fair queueing.  ``traces[i]`` drives
    session ``i``.

    With a static ``fleet_env.arrival`` every session starts at t = 0
    and the run lasts until the longest trace ends plus ``drain_s``.
    With a churn config the fleet's
    :class:`~repro.fleet.lifecycle.SessionManager` admits sessions as
    they arrive; each admitted session replays its trace from its
    arrival instant (truncated by departure — the client drops the
    tail), and the diagnostics gain admission/cohort/cold-start views.
    """
    if len(traces) != fleet_env.num_sessions:
        raise ValueError(
            f"{len(traces)} traces for {fleet_env.num_sessions} sessions"
        )
    env = fleet_env.env
    sim = Simulator()
    shared_downlink = make_shared_downlink(sim, env, seed=seed, chaos=fleet_env.chaos)
    backend = app.make_backend(sim, fetch_delay_s=env.backend_delay_s)
    make_predictor, prior = _fleet_predictor_factory(
        app, predictor, traces, sim, shared_prior=shared_prior
    )

    config = fleet_env.fleet_config(
        SessionConfig(
            cache_bytes=env.cache_bytes,
            block_bytes=app.block_bytes,
            scheduler_seed=seed,
            initial_bandwidth_bytes_per_s=env.bandwidth_bytes_per_s,
        )
    )
    if session_route is not None or expected_sessions is not None:
        config = replace(
            config,
            session_route=session_route,
            expected_sessions=expected_sessions,
        )
    fleet = KhameleonFleet(
        sim=sim,
        backend=backend,
        make_predictor=make_predictor,
        utility=app.utility,
        num_blocks=app.num_blocks,
        downlink=shared_downlink,
        make_uplink=lambda i: make_uplink(sim, env),
        config=config,
    )

    def drive(until: float) -> None:
        if run_driver is None:
            sim.run(until=until)
        else:
            run_driver(sim, until, fleet, prior)

    if fleet.manager is None:
        # session_indices, not enumerate: a routed (sharded) fleet owns
        # a subset of the plan, and traces are indexed globally.
        for i, session in zip(fleet.session_indices, fleet.sessions):
            _replay(sim, traces[i], session.client.observe, session.client.request)
        fleet.start()
        drive(max(t.duration_s for t in traces) + drain_s)
        fleet.stop()
    else:

        def replay_from_arrival(record) -> None:
            _replay(
                sim,
                traces[record.index],
                record.session.client.observe,
                record.session.client.request,
                offset_s=record.arrived_at,
            )

        fleet.manager.on_admit = replay_from_arrival
        fleet.start()
        horizon = fleet_env.arrival.horizon_s(
            fleet_env.num_sessions, lambda i: traces[i].duration_s
        )
        drive(horizon + drain_s)
        fleet.stop()

    diagnostics = fleet.report()
    if prior is not None:
        diagnostics["shared_prior"] = prior.snapshot()
    outcomes_by_session = fleet.outcomes_by_session()
    cohorts: list[CohortSummary] = []
    if fleet.manager is not None:
        # fleet.sessions and the manager's admitted records share
        # admission order, so these streams and times are parallel.
        cohorts = collect_cohorts(
            outcomes_by_session,
            fleet.manager.arrival_times(),
            cohort_width_s=cohort_width_s,
        )
        rates = [
            early_hit_rate(o, first_k=early_k) for o in outcomes_by_session if o
        ]
        diagnostics["early_hit_rate"] = sum(rates) / len(rates) if rates else 0.0

    return FleetRunResult(
        system=f"fleet-{predictor}",
        fleet_env=fleet_env,
        summary=fleet.summary() if any(outcomes_by_session) else None,
        diagnostics=diagnostics,
        trace_names=[t.name for t in traces],
        cohorts=cohorts,
        session_labels=(
            None
            if fleet.manager is None
            else [str(r.index) for r in fleet.manager.admitted_records]
        ),
    )


def run_fleet_sharded(
    app: "ImageExplorationApp | ImageAppSpec",
    traces: Sequence[InteractionTrace],
    fleet_env: FleetEnvironment,
    num_shards: int,
    predictor: str = "kalman",
    sync_interval_s: float = 0.5,
    drain_s: float = DEFAULT_DRAIN_S,
    seed: int = 0,
    cohort_width_s: float = 5.0,
    early_k: int = 5,
    shared_prior=None,
    prior_out=None,
    timeout_s: Optional[float] = 600.0,
    supervision: Optional["SupervisionPolicy"] = _DEFAULT_SUPERVISION,
    transport: str = "pipe",
) -> FleetRunResult:
    """:func:`run_fleet` partitioned across ``num_shards`` processes.

    Sessions are hash-routed to shards
    (:func:`~repro.fleet.sharding.shard_of` over the plan index); each
    worker process runs a full ``Simulator`` / fleet / shared-backend
    stack over its shard with its share of the downlink, admission cap,
    and backend budget.  With ``predictor="shared-markov"`` the workers
    pause every ``sync_interval_s`` simulated seconds at a common
    barrier and exchange crowd-prior deltas (the CRDT merge in
    :mod:`repro.predictors.shared`), so each shard sees the others'
    transitions with at most one interval of staleness; 0 turns the
    barriers off and a negative interval is rejected.  Other predictors
    share no cross-session state and the shards run free.

    ``shared_prior`` warm-starts every shard from one prior (a path,
    or a :class:`~repro.predictors.shared.SharedTransitionPrior` to
    save into a temp file); ``prior_out`` saves the *pooled* end-of-run
    prior (warm-start plus every shard's contribution).

    With ``fleet_env.checkpoint`` set (and not inert), workers capture
    :class:`~repro.fleet.checkpoint.ShardCheckpoint` snapshots at the
    configured sync-round cadence and offer them at the barrier.  The
    coordinator keeps the latest per shard: supervision respawns verify
    their deterministic replay against the stored digests, a shard lost
    past the restart budget is replayed from its last checkpoint after
    the barriers end, so its sessions report every request they issued
    (``sessions_resumed`` instead of ``sessions_lost``), ``drain:R``
    chaos stops the run cleanly after round R, and the
    ``out_path``/``in_path`` pair drives the drain-then-restore
    lifecycle.  An inert config is bit-identical to no config at all
    (test-enforced).  :class:`~repro.experiments.sharded.ShardCoordinator`
    describes the replay.

    The result pools every shard: one fleet-wide summary over the
    concatenated outcome streams, Jain's index over the union of
    fairness samples, summed counter snapshots, and a
    ``diagnostics["sharding"]`` block (per-shard session counts, CPU
    timings, delta-sync stats).  **W=1 reproduces the unsharded**
    :func:`run_fleet` **bit-for-bit** apart from that extra block: the
    route keeps everything, every scale factor is exactly 1.0, and a
    chunked ``sim.run`` is event-exact — tests enforce this.

    ``transport`` selects the coordinator↔worker wire: ``"pipe"``
    (``multiprocessing.Pipe``) or ``"tcp"`` (framed, acked, CRC-checked
    loopback sockets — see :mod:`repro.fleet.transport`).  A fixed-seed
    W=1 run produces a bit-identical pooled summary over either.
    Network chaos (``partition:A-B@R``, ``netdelay``, ``dup``,
    ``corrupt``) requires ``"tcp"``; partitions are cut at the named
    barrier and heal after
    :data:`~repro.experiments.sharded.PARTITION_HEAL_S` wall seconds.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if len(traces) != fleet_env.num_sessions:
        raise ValueError(
            f"{len(traces)} traces for {fleet_env.num_sessions} sessions"
        )
    if sync_interval_s < 0:
        raise ValueError(f"sync_interval_s must be >= 0, got {sync_interval_s}")
    coordinator = ShardCoordinator(
        ShardFleetSpec(
            app_spec=app if isinstance(app, ImageAppSpec) else ImageAppSpec.of(app),
            traces=list(traces),
            fleet_env=fleet_env,
            predictor=predictor,
            shard=0,
            num_shards=num_shards,
            drain_s=drain_s,
            seed=seed,
            cohort_width_s=cohort_width_s,
            early_k=early_k,
        ),
        sync_interval_s,
        warm_prior=shared_prior,
        transport=transport,
    )
    try:
        shards = run_sharded(
            [coordinator.task(k) for k in range(num_shards)],
            sync_rounds=len(coordinator.sync_points),
            timeout_s=timeout_s,
            on_round=coordinator.on_round,
            supervision=supervision,
            respawn=coordinator.respawn,
            recovery=coordinator.recovery,
            transport=coordinator.transport,
            before_round=coordinator.before_round,
        )
        coordinator.reabsorb(shards, timeout_s)
        sharding = coordinator.finish(shards)
    finally:
        coordinator.close()

    # -- pool the shards into one fleet-wide result -------------------
    shards = [s for s in shards if s is not None]
    reports = [s["diagnostics"] for s in shards]
    samples = [v for s in shards for v in s["fairness_samples"]]
    session_indices = [i for s in shards for i in s["session_indices"]]
    outcomes_by_session = [o for s in shards for o in s["outcomes_by_session"]]
    diagnostics: dict = {
        "sessions": len(session_indices),
        "blocks_sent": sum(d["blocks_sent"] for d in reports),
        "bytes_sent": sum(d["bytes_sent"] for d in reports),
        "blocks_deferred": sum(d["blocks_deferred"] for d in reports),
        "link_fairness": jain_fairness(samples) if samples else 1.0,
        "backend": pool_snapshots([d["backend"] for d in reports]),
    }
    backend = diagnostics["backend"]
    shared_hits = backend["cache_hits"] + backend["piggybacked"]
    calls = backend["fetches_started"] + shared_hits
    diagnostics["shared_hit_rate"] = shared_hits / calls if calls else 0.0
    if all("prediction" in d for d in reports):
        diagnostics["prediction"] = pool_snapshots(
            [d["prediction"] for d in reports]
        )
    if all("chaos" in d for d in reports):
        diagnostics["chaos"] = pool_snapshots([d["chaos"] for d in reports])
    if not coordinator.static:
        diagnostics["churn"] = pool_snapshots([d["churn"] for d in reports])
        rates = [
            early_hit_rate(o, first_k=early_k) for o in outcomes_by_session if o
        ]
        diagnostics["early_hit_rate"] = sum(rates) / len(rates) if rates else 0.0
    if predictor == "shared-markov" and coordinator.prior is not None:
        diagnostics["shared_prior"] = coordinator.prior.snapshot()
        if prior_out is not None:
            coordinator.prior.save(prior_out)
    diagnostics["sharding"] = sharding

    cohorts: list[CohortSummary] = []
    session_labels = None
    if not coordinator.static:
        arrival_times = [t for s in shards for t in s["arrival_times"]]
        cohorts = collect_cohorts(
            outcomes_by_session, arrival_times, cohort_width_s=cohort_width_s
        )
        session_labels = [l for s in shards for l in s["session_labels"]]
    elif num_shards > 1:
        # Positions no longer equal plan indices once the fleet is
        # split; label rows with the global index so they stay joinable.
        session_labels = [str(i) for i in session_indices]

    return FleetRunResult(
        system=f"fleet-{predictor}",
        fleet_env=fleet_env,
        summary=(
            collect_fleet(outcomes_by_session)
            if any(outcomes_by_session)
            else None
        ),
        diagnostics=diagnostics,
        trace_names=[t.name for t in traces],
        cohorts=cohorts,
        session_labels=session_labels,
    )


def run_classic(
    app: ImageExplorationApp,
    trace: InteractionTrace,
    env: EnvironmentConfig,
    variant: str = "full",
    acc: Optional[tuple[float, int]] = None,
    seed: int = 0,
) -> RunResult:
    """Replay ``trace`` against a request-response system.

    ``variant="full"`` is the paper's Baseline, ``"first_block"`` its
    Progressive arm.  ``acc=(accuracy, horizon)`` attaches the
    idealized ACC prefetcher (always over full responses, as in §6.1).
    """
    sim = Simulator()
    downlink = make_downlink(sim, env, seed=seed)
    uplink = make_uplink(sim, env)
    backend = app.make_backend(sim, fetch_delay_s=env.backend_delay_s)
    session = ClassicSession(
        sim=sim,
        backend=backend,
        utility=app.utility,
        num_blocks_of=lambda r: app.encoder.num_blocks(r),
        downlink=downlink,
        uplink=uplink,
        config=ClassicConfig(cache_bytes=env.cache_bytes, variant=variant),
    )
    prefetcher = None
    on_position = None
    if acc is not None:
        accuracy, horizon = acc
        request_ids = [e.request for e in trace.requests()]
        prefetcher = ACCPrefetcher(
            session=session,
            future_requests=request_ids,
            accuracy=accuracy,
            horizon=horizon,
            outstanding_limit=acc_threshold(
                env.bandwidth_bytes_per_s, app.mean_response_bytes()
            ),
            num_requests=app.num_requests,
            seed=seed,
        )
        on_position = prefetcher.on_user_request

    _replay(
        sim,
        trace,
        observe=lambda event: None,  # classic systems ignore mouse moves
        request=session.request,
        on_request_position=on_position,
    )
    # Classic sessions have no periodic tasks: run to quiescence so
    # queued responses drain and true (possibly huge) latencies are
    # measured rather than truncated.
    sim.run()
    session.finalize()

    if acc is not None:
        name = f"acc-{acc[0]:g}-{acc[1]}"
    elif variant == "first_block":
        name = "progressive"
    else:
        name = "baseline"
    outcomes = session.outcomes
    responses = max(1, session.responses_received)
    return RunResult(
        system=name,
        trace_name=trace.name,
        env=env,
        summary=collect(outcomes),
        outcomes=outcomes,
        blocks_pushed=session.responses_received,
        bytes_pushed=session.bytes_received,
        overpush=session.unused_prefetches / responses if acc is not None else None,
        extras={
            "prefetches_sent": session.prefetches_sent,
            "prefetches_suppressed": (
                prefetcher.prefetches_suppressed if prefetcher else 0
            ),
            "backend": backend.stats.snapshot(),
        },
    )


def run_falcon(
    app: FalconApp,
    trace: "FalconTrace",
    env: EnvironmentConfig,
    predictor: str = "kalman",
    backend_kind: str = "postgres",
    db_scale: str = "small",
    drain_s: float = DEFAULT_DRAIN_S,
    seed: int = 0,
    cache_responses: int = 0,
) -> RunResult:
    """Khameleon over the ported Falcon application (§6.4, Fig. 14).

    ``backend_kind`` selects the PostgreSQL-like engine (15-query
    concurrency limit + §5.4 throttle) or the ScalableSQL simulation.
    ``cache_responses`` sizes the client ring buffer in responses
    (default: one full response per chart).

    Selection commits in the trace invalidate every cached slice: the
    backend's response cache and the client block cache immediately
    (both are client/app knowledge), and the server's scheduler mirror
    one uplink latency later (when the server learns).
    """
    if backend_kind not in ("postgres", "scalable"):
        raise ValueError(f"unknown backend {backend_kind!r}")
    sim = Simulator()
    downlink = make_downlink(sim, env, seed=seed)
    uplink = make_uplink(sim, env)
    db = app.make_db(sim, scale=db_scale, scalable=backend_kind == "scalable", seed=seed)
    backend = app.make_backend(sim, db)

    block_bytes = app.nominal_block_bytes()
    responses = cache_responses if cache_responses > 0 else app.num_requests
    cache_blocks = responses * app.blocks_per_response
    config = SessionConfig(
        cache_bytes=cache_blocks * block_bytes,
        block_bytes=block_bytes,
        scheduler_seed=seed,
        initial_bandwidth_bytes_per_s=env.bandwidth_bytes_per_s,
        backend_concurrency=(
            app.max_concurrent_requests if backend_kind == "postgres" else None
        ),
    )
    session = KhameleonSession(
        sim=sim,
        backend=backend,
        predictor=app.make_predictor(predictor, trace=trace.interaction),
        utility=app.utility,
        num_blocks=app.num_blocks,
        downlink=downlink,
        uplink=uplink,
        config=config,
    )
    _replay(sim, trace.interaction, session.client.observe, session.client.request)

    def commit_selection(event) -> None:
        app.apply_selection(event)  # also clears the backend response cache
        session.cache.clear()
        # The server's mirror learns after one uplink hop.
        uplink.send(lambda _payload: session.mirror.clear())

    for sel in trace.selections:
        sim.schedule_at(sel.time_s, commit_selection, sel)

    session.start()
    sim.run(until=trace.duration_s + drain_s)
    session.stop()

    outcomes = session.cache_manager.outcomes
    return RunResult(
        system=f"khameleon-{predictor}-{backend_kind}",
        trace_name=trace.name,
        env=env,
        summary=collect(outcomes),
        outcomes=outcomes,
        blocks_pushed=session.sender.blocks_sent,
        bytes_pushed=session.sender.bytes_sent,
        overpush=overpush_rate(session.sender.blocks_sent, outcomes),
        extras={
            "queries_executed": db.queries_executed,
            "peak_db_concurrency": getattr(db, "peak_concurrency", None),
            "blocks_deferred": session.sender.blocks_deferred,
        },
    )


def extend_with_pause(
    trace: InteractionTrace, pause_s: float, hold_s: float, sample_rate_hz: float = 20.0
) -> InteractionTrace:
    """Truncate at ``pause_s`` and hold the mouse still for ``hold_s``.

    The Fig. 10 protocol: the user stops on a request.  Stationary
    samples keep anytime predictors honest (a Kalman filter fed no
    events would extrapolate the last velocity off the interface).
    """
    if hold_s <= 0:
        raise ValueError("hold duration must be positive")
    times, xs, ys, requests = (list(c) for c in trace.truncated(pause_s).columns)
    t, x, y = times[-1], xs[-1], ys[-1]
    dt = 1.0 / sample_rate_hz
    while t + dt <= pause_s + hold_s:
        t += dt
        times.append(t)
        xs.append(x)
        ys.append(y)
        requests.append(None)
    return InteractionTrace.from_columns(
        times, xs, ys, requests, name=f"{trace.name}|pause@{pause_s:g}s"
    )


def run_convergence(
    app: ImageExplorationApp,
    trace: InteractionTrace,
    env: EnvironmentConfig,
    system: str,
    pause_s: float,
    hold_s: float = 10.0,
    sample_points: Sequence[float] = (),
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Utility-vs-elapsed-time after a pause (Fig. 10).

    Returns ``(elapsed_s, utility)`` samples for the request the user
    paused on, measured from its registration.
    """
    paused = extend_with_pause(trace, pause_s, hold_s)
    result = run_image_system(system, app, paused, env, drain_s=hold_s, seed=seed)
    served = [o for o in result.outcomes if o.served or not o.preempted]
    if not served:
        return [(p, 0.0) for p in sample_points]
    final = max(served, key=lambda o: o.logical_ts)
    points = sample_points or [0.05 * (1.35**i) for i in range(24)]
    return convergence_curve(final, horizon_s=hold_s, points=points)


def run_image_system(
    system: str,
    app: ImageExplorationApp,
    trace: InteractionTrace,
    env: EnvironmentConfig,
    drain_s: float = DEFAULT_DRAIN_S,
    seed: int = 0,
) -> RunResult:
    """Dispatch a system name from the figures to the right driver.

    Names: ``khameleon``, ``khameleon-oracle``, ``khameleon-uniform``,
    ``predictor`` (no progressive encoding), ``progressive`` (no
    prefetch), ``baseline``, and ``acc-<acc>-<hor>``.
    """
    if system == "khameleon":
        return run_khameleon(app, trace, env, predictor="kalman", drain_s=drain_s, seed=seed)
    if system == "khameleon-oracle":
        return run_khameleon(app, trace, env, predictor="oracle", drain_s=drain_s, seed=seed)
    if system == "khameleon-uniform":
        return run_khameleon(app, trace, env, predictor="uniform", drain_s=drain_s, seed=seed)
    if system == "predictor":
        return run_khameleon(
            app, trace, env, predictor="kalman", progressive=False, drain_s=drain_s, seed=seed
        )
    if system == "baseline":
        return run_classic(app, trace, env, variant="full", seed=seed)
    if system == "progressive":
        return run_classic(app, trace, env, variant="first_block", seed=seed)
    if system.startswith("acc-"):
        parts = system.split("-")
        if len(parts) != 3:
            raise ValueError(f"bad ACC spec {system!r} (want acc-<acc>-<hor>)")
        accuracy, horizon = float(parts[1]), int(parts[2])
        return run_classic(app, trace, env, variant="full", acc=(accuracy, horizon), seed=seed)
    raise ValueError(f"unknown system {system!r}")
