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
* :func:`run_convergence` — the Fig. 10 protocol: pause the trace and
  track utility upcalls until quality converges.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.baselines.acc import ACCPrefetcher, acc_threshold
from repro.baselines.classic import ClassicConfig, ClassicSession
from repro.core.cache_manager import RequestOutcome
from repro.core.session import KhameleonSession, SessionConfig
from repro.encoding.naive import SingleBlockEncoder
from repro.backends.filesystem import FileSystemBackend
from repro.fleet import KhameleonFleet
from repro.fleet.checkpoint import (
    CTRL_KEY,
    CheckpointConfig,
    CheckpointStore,
    FleetCheckpoint,
    ShardCheckpoint,
    capture_session,
    capture_shard,
    migrate_out_of,
    split_ctrl,
    unwrap_sync_payload,
    wrap_sync_payload,
)
from repro.fleet.ring import HashRing
from repro.fleet.sharding import (
    ShardRecovery,
    ShardTask,
    SupervisionPolicy,
    run_sharded,
    shard_of,
)
from repro.fleet.transport import PipeTransport, TcpTransport
from repro.metrics.collector import MetricSummary, collect, convergence_curve, overpush_rate
from repro.metrics.fleet import (
    CohortSummary,
    FleetSummary,
    collect_cohorts,
    collect_fleet,
    early_hit_rate,
    jain_fairness,
    pool_snapshots,
    pool_transport_counters,
)
from repro.predictors.base import MouseEvent
from repro.predictors.shared import SharedTransitionPrior, make_shared_markov_predictor
from repro.sim.engine import Simulator
from repro.workloads.falcon import FalconApp, FalconTrace
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.trace import InteractionTrace

from .configs import (
    EnvironmentConfig,
    FleetEnvironment,
    make_downlink,
    make_shared_downlink,
    make_uplink,
)

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

#: Simulated seconds to keep running after the trace ends, so in-flight
#: blocks land and late upcalls fire (Khameleon pushes forever; classic
#: sessions instead drain their event queue completely).
DEFAULT_DRAIN_S = 3.0

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
                offset_s=record.admitted_at,
            )

        fleet.manager.on_admit = replay_from_arrival
        fleet.start()
        horizon = fleet.manager.horizon_s(lambda i: traces[i].duration_s)
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


@dataclass(frozen=True)
class ImageAppSpec:
    """Spawn-safe recipe for an :class:`ImageExplorationApp`.

    Shard workers run in fresh interpreters, so the application must
    cross the process boundary as a *recipe*, not an object (the app
    holds an image store, encoder, and utility closure).  The synthetic
    store is a pure function of ``(num_requests, seed)``, so every
    worker rebuilds a bit-identical app from these five numbers.
    """

    rows: int
    cols: int
    cell_px: float = 20.0
    block_bytes: int = 50_000
    seed: int = 7

    @classmethod
    def of(cls, app: ImageExplorationApp) -> "ImageAppSpec":
        layout = app.layout
        return cls(
            rows=layout.rows,
            cols=layout.cols,
            cell_px=layout.cell_width,
            block_bytes=app.block_bytes,
            seed=app.seed,
        )

    def build(self) -> ImageExplorationApp:
        return ImageExplorationApp(
            rows=self.rows,
            cols=self.cols,
            cell_px=self.cell_px,
            block_bytes=self.block_bytes,
            seed=self.seed,
        )


@dataclass
class ShardFleetSpec:
    """Everything one shard worker needs, pickled onto its task pipe.

    ``traces`` and ``fleet_env`` are the *global* fleet description —
    every worker gets all of it and derives its own slice (route,
    bandwidth share, admission-cap share) from ``shard``/``num_shards``,
    so the shard split is a pure function of the spec and the coordinator
    never has to serialize per-shard variants.
    """

    app_spec: ImageAppSpec
    traces: list[InteractionTrace]
    fleet_env: FleetEnvironment
    predictor: str
    shard: int
    num_shards: int
    #: Absolute sim times of the delta-sync barriers (empty = no sync).
    sync_points: tuple[float, ...] = ()
    drain_s: float = DEFAULT_DRAIN_S
    seed: int = 0
    cohort_width_s: float = 5.0
    early_k: int = 5
    #: Warm-start prior file every shard loads (never an object: the
    #: prior's count table is not picklable, and one file fans out to
    #: W workers without W copies in the coordinator's heap).
    shared_prior_path: Optional[str] = None
    #: Which incarnation of this shard's worker this is.  The original
    #: spawn is attempt 0; supervision bumps it on every respawn.  Chaos
    #: worker-crash schedules only fire on attempt 0, so a replacement
    #: worker does not re-crash into the same injected fault.
    attempt: int = 0
    #: Capture a :class:`~repro.fleet.checkpoint.ShardCheckpoint` every
    #: this many completed sync rounds and piggyback it on the barrier
    #: exchange (0 = checkpointing off: barrier payloads stay exactly
    #: the historical bare deltas, bit-identical to pre-checkpoint runs).
    checkpoint_cadence: int = 0
    #: Global index of ``sync_points[0]`` in the full barrier schedule
    #: (respawned workers run a suffix; checkpoints carry global rounds).
    first_round: int = 0
    #: The shard's last coordinator-held checkpoint.  A respawned (or
    #: re-absorbed) worker pauses its replay at ``restore.sim_time_s``,
    #: re-captures, and compares digests — restore-in-place, verified
    #: rather than assumed.
    restore: Optional[ShardCheckpoint] = None
    #: Path to a :class:`~repro.fleet.checkpoint.FleetCheckpoint` bundle
    #: (``--checkpoint-in``): the worker counts its own checkpointed
    #: sessions as resumed and pre-merges *other* shards' prior deltas,
    #: so re-broadcasts of pre-drain state dedup exactly.
    resume_from: Optional[str] = None
    #: Stop cleanly after completing this global sync round (graceful
    #: drain): skip the rest of the run, ship partial results plus a
    #: final checkpoint.
    drain_after_round: Optional[int] = None
    #: Explicit session ownership, overriding the hash route.  A mid-run
    #: joiner owns exactly the sessions the grown ring moved to it — not
    #: everything the ring *would* give it, since sessions that finished
    #: before the join never migrate.
    route_indices: Optional[tuple[int, ...]] = None
    #: ``(new_num_shards, at_round, at_time_s)``: a member joins the
    #: fleet after global sync round ``at_round``.  At that barrier this
    #: worker captures and retires every owned session the grown ring
    #: routes to the new member, shipping the checkpoints on the barrier
    #: payload.  A respawned worker whose suffix starts *after* the join
    #: replays the same retirement at the same sim time instead, so its
    #: deterministic restore matches the stored digests.
    grow_to: Optional[tuple[int, int, float]] = None
    #: Adoption orders re-applied on respawn: a worker that previously
    #: adopted a lost shard's sessions (via a ``peers``-borne control
    #: message) must re-adopt them at the same sim time when it is
    #: itself replaced, or its replay would silently drop them.  Each
    #: entry is ``{"checkpoint": <ShardCheckpoint payload>,
    #: "indices": [...], "at_s": float}``.
    adopt_orders: tuple = ()


def _shard_owned(total: int, shard: int, num_shards: int) -> list[int]:
    return [i for i in range(total) if shard_of(i, num_shards) == shard]


def _suffix_trace(
    trace: InteractionTrace, requests_seen: int, not_before_s: float
) -> Optional[InteractionTrace]:
    """The remainder of ``trace`` after its first ``requests_seen``
    requests, shifted to start no earlier than ``not_before_s``.

    This is how a migrated session resumes from its checkpointed
    sequence position: the first ``requests_seen`` request-bearing
    events (and the observe-only samples interleaved before them) are
    already served and drop out; everything after replays at its
    original absolute sim time, clamped up to the adoption point (the
    clamp is monotone, so event order survives).  Returns ``None`` for
    a session with no requests left — finished sessions don't migrate.
    """
    times, xs, ys, requests = trace.columns
    request_rows = [row for row, r in enumerate(requests) if r is not None]
    if len(request_rows) <= requests_seen:
        return None
    start = request_rows[requests_seen - 1] + 1 if requests_seen else 0
    return InteractionTrace.from_columns(
        [max(t, not_before_s) for t in times[start:]],
        xs[start:],
        ys[start:],
        requests[start:],
        name=f"{trace.name}+migrated",
    )


def _sharded_fleet_worker(spec: ShardFleetSpec, channel) -> dict:
    """Run one shard's fleet; exchange prior deltas at each barrier.

    Executes in a spawned worker process (entry point of
    :func:`run_fleet_sharded`'s :class:`~repro.fleet.sharding.ShardTask`).
    Wraps the ordinary :func:`run_fleet` with a route that keeps only
    owned sessions, resources scaled to the owned share — bandwidth,
    admission cap, backend budget, and expected population all scale by
    ``owned/total``, so each *session's* slice matches the unsharded
    fleet's — and a run driver that pauses at every sync barrier to
    trade :class:`~repro.predictors.shared.PriorDelta` snapshots with
    the other shards.  Returns the raw per-shard material the
    coordinator pools (outcome streams, fairness samples, counter
    snapshots, the shard's final prior contribution, CPU timings).
    """
    k, num_shards = spec.shard, spec.num_shards
    total = spec.fleet_env.num_sessions
    if spec.route_indices is not None:
        owned = sorted(spec.route_indices)
    else:
        owned = _shard_owned(total, k, num_shards)
    owned_set = set(owned)
    share = len(owned) / total

    env = spec.fleet_env.env
    # A shard the hash left empty still runs (it must show up at every
    # sync barrier), just over an epsilon link nobody will use.  The
    # max() is exact at share=1.0, preserving W=1 bit-identity.
    fleet_env = replace(
        spec.fleet_env,
        env=env.with_bandwidth(env.bandwidth_bytes_per_s * max(share, 1e-9)),
    )
    arrival = fleet_env.arrival
    if arrival is not None and arrival.max_concurrent is not None:
        fleet_env = replace(
            fleet_env,
            arrival=replace(
                arrival,
                max_concurrent=max(1, math.ceil(arrival.max_concurrent * share)),
            ),
        )
    if fleet_env.backend_concurrency is not None:
        fleet_env = replace(
            fleet_env,
            backend_concurrency=max(
                1, math.ceil(fleet_env.backend_concurrency * share)
            ),
        )
    if spec.fleet_env.arrival is None:
        expected_total = float(total)
    else:
        expected_total = spec.fleet_env.arrival.expected_concurrency(total)

    # Injected worker-crash schedule: the original worker (attempt 0)
    # dies hard — no cleanup, no error message, exactly like a kill -9
    # — right before its scheduled barrier, so the coordinator sees a
    # mid-protocol death.  Replacements never re-crash.
    chaos = spec.fleet_env.chaos
    crash_at: Optional[int] = None
    if chaos is not None and spec.attempt == 0:
        crash_at = chaos.crash_round(k)

    state: dict = {}

    def drive(sim, until, fleet, prior) -> None:
        state["fleet"], state["prior"] = fleet, prior
        if prior is not None:
            prior.enable_sharding(f"shard{k}")
        n_requests = spec.app_spec.rows * spec.app_spec.cols
        cadence = spec.checkpoint_cadence

        # --checkpoint-in resume: count our checkpointed sessions as
        # resumed and pre-merge the *other* shards' stored prior
        # contributions.  Our own contribution is deliberately not
        # merged — the deterministic replay re-observes it — and the
        # CRDT's per-origin mass tracking makes the peers' later live
        # re-broadcasts of pre-drain state apply as exact diffs.
        # Replacement workers (attempt >= 1) skip the merge: their warm
        # seed is the coordinator aggregate, which holds these already.
        if spec.resume_from is not None:
            bundle = FleetCheckpoint.load(spec.resume_from, n=n_requests)
            own = bundle.shards.get(k)
            if own is not None:
                state["resumed_sessions"] = len(own.sessions)
            if prior is not None and spec.attempt == 0:
                for shard_index, ckpt in bundle.shards.items():
                    if shard_index == k:
                        continue
                    peer_delta = ckpt.prior_delta_object()
                    if peer_delta is not None:
                        prior.merge_delta(peer_delta)

        sent_vv: dict[int, int] = {}
        cpu_run = 0.0
        ckpt_cpu = 0.0
        taken = 0
        last_round: Optional[int] = None
        wall_start = time.perf_counter()

        def run_chunk(t: float) -> None:
            nonlocal cpu_run
            cpu_start = time.process_time()
            sim.run(until=t)
            cpu_run += time.process_time() - cpu_start

        def capture(round_index: int, at_s: float) -> ShardCheckpoint:
            nonlocal ckpt_cpu, taken, last_round
            cpu_start = time.process_time()
            ckpt = capture_shard(
                fleet,
                prior,
                shard=k,
                num_shards=num_shards,
                round_index=round_index,
                sim_time_s=at_s,
                n=n_requests,
            )
            ckpt_cpu += time.process_time() - cpu_start
            taken += 1
            last_round = round_index
            return ckpt

        migrated_in: list[int] = []
        migrated_out: list[int] = []

        def adopt_sessions(order: dict, at_s: float, record: bool = True) -> None:
            """Take over a lost shard's sessions from its checkpoint.

            Each adopted session is admitted into this worker's live
            fleet and resumes from its checkpointed request position:
            the suffix of its trace replays at absolute sim times,
            clamped up to the adoption barrier (events the dead shard
            would have served between its last checkpoint and now fire
            immediately — late, but not lost).
            """
            ckpt = ShardCheckpoint.from_payload(order["checkpoint"])
            wanted = set(order.get("indices", ()))
            for sc in ckpt.sessions:
                if sc.index not in wanted:
                    continue
                suffix = _suffix_trace(
                    spec.traces[sc.index], sc.requests_seen, at_s
                )
                if suffix is None:
                    continue  # finished before the crash; nothing to resume
                fleet._admit_session(sc.index)
                session = fleet.sessions[-1]
                session.start()
                _replay(
                    sim, suffix, session.client.observe, session.client.request
                )
                if record:
                    migrated_in.append(sc.index)

        def donate_sessions(at_s: float, record: bool = True) -> dict:
            """Capture-and-retire every owned session the grown ring
            routes to the joining member; ship the checkpoints."""
            new_w = spec.grow_to[0]
            moving = []
            for idx, session in zip(
                list(fleet.session_indices), list(fleet.sessions)
            ):
                if shard_of(idx, new_w) != new_w - 1:
                    continue
                sc = capture_session(session, idx)
                if _suffix_trace(spec.traces[idx], sc.requests_seen, at_s) is None:
                    continue  # finished sessions have nothing to move
                moving.append((session, sc))
            for session, _sc in moving:
                fleet._retire_session(session)
            if record:
                migrated_out.extend(sc.index for _, sc in moving)
            return {
                "from_shard": k,
                "at_s": at_s,
                "sessions": [sc.to_payload() for _, sc in moving],
            }

        # Deterministic pre-steps for replacement workers, replayed in
        # sim-time order before the barrier suffix: re-apply adoptions
        # this worker's predecessor performed, re-retire sessions it
        # donated to a joiner, and pause at the restore checkpoint to
        # verify the replay against the stored digests.
        pre_steps: list[tuple[float, int, Callable[[], None]]] = []

        def verify_restore() -> None:
            nonlocal ckpt_cpu
            run_chunk(spec.restore.sim_time_s)
            cpu_start = time.process_time()
            ours = capture_shard(
                fleet,
                prior,
                shard=k,
                num_shards=num_shards,
                round_index=spec.restore.round_index,
                sim_time_s=spec.restore.sim_time_s,
                n=n_requests,
            )
            ckpt_cpu += time.process_time() - cpu_start
            state["restore_verified"] = ours.digest() == spec.restore.digest()

        for order in spec.adopt_orders:
            pre_steps.append(
                (
                    float(order["at_s"]),
                    0,
                    lambda o=order: (
                        run_chunk(float(o["at_s"])),
                        adopt_sessions(o, float(o["at_s"]), record=False),
                    ),
                )
            )
        if spec.grow_to is not None and spec.first_round > spec.grow_to[1]:
            at_s = spec.grow_to[2]
            pre_steps.append(
                (
                    at_s,
                    1,
                    lambda: (
                        run_chunk(at_s),
                        donate_sessions(at_s, record=False),
                    ),
                )
            )
        if spec.restore is not None and spec.restore.sim_time_s < until:
            # Ordered after same-time adoptions/donations: the restore
            # capture that produced the digests ran after them too.
            pre_steps.append((spec.restore.sim_time_s, 2, verify_restore))
        for _, _, step in sorted(pre_steps, key=lambda p: (p[0], p[1])):
            step()

        rounds_run = 0
        drained = False

        def exchange(payload) -> list:
            """One barrier, with coordinator control orders peeled off
            the peers list: adoption orders for a lost shard's sessions
            apply here, at the barrier's sim time, before the next
            chunk runs."""
            peers = channel.exchange(payload)
            data, ctrl = split_ctrl(peers)
            for order in ctrl:
                if order.get(CTRL_KEY) == "adopt":
                    adopt_sessions(order, sim.now)
            return data

        for local_index, point in enumerate(spec.sync_points):
            round_index = spec.first_round + local_index
            if point >= until:
                break
            run_chunk(point)
            if crash_at is not None and round_index == crash_at:
                os._exit(17)
            rounds_run += 1
            migrate = None
            if spec.grow_to is not None and round_index == spec.grow_to[1]:
                migrate = donate_sessions(point)
            if cadence > 0 or migrate is not None:
                # Checkpointing on (or a migration to announce): the
                # capture rides the barrier payload next to the prior
                # delta.
                ckpt = None
                if cadence > 0 and (round_index + 1) % cadence == 0:
                    ckpt = capture(round_index, point)
                delta = None
                if prior is not None:
                    delta = prior.delta_since(sent_vv)
                    sent_vv = prior.local_version_vector()
                for peer in exchange(wrap_sync_payload(delta, ckpt, migrate)):
                    peer_delta, _peer_ckpt = unwrap_sync_payload(peer)
                    if peer_delta and prior is not None:
                        prior.merge_delta(peer_delta)
            elif prior is not None:
                delta = prior.delta_since(sent_vv)
                sent_vv = prior.local_version_vector()
                for peer in exchange(delta):
                    # Peers may wrap (a donor announcing a migration
                    # checkpoints regardless of cadence); unwrap is a
                    # pass-through for the historical bare deltas.
                    peer_delta, _peer_ckpt = unwrap_sync_payload(peer)
                    if peer_delta:
                        prior.merge_delta(peer_delta)
            else:
                exchange(None)
            if (
                spec.drain_after_round is not None
                and round_index == spec.drain_after_round
            ):
                drained = True
                break
        if not drained:
            run_chunk(until)
        if crash_at is not None and crash_at >= rounds_run:
            # Fewer barriers than the schedule assumed: crash at the
            # latest possible point instead (before the result ships).
            os._exit(17)
        if cadence > 0:
            # Final capture (at the drain point or end of run) keeps the
            # coordinator's --checkpoint-out bundle as fresh as the run.
            final_round = spec.first_round + max(rounds_run - 1, 0)
            state["final_checkpoint"] = capture(final_round, sim.now)
        state["drained"] = drained
        state["migrated_in"] = sorted(migrated_in)
        state["migrated_out"] = sorted(migrated_out)
        state["checkpoints_taken"] = taken
        state["checkpoint_cpu_s"] = ckpt_cpu
        state["last_checkpoint_round"] = last_round
        state["timing"] = {
            "cpu_run_s": cpu_run,
            "wall_run_s": time.perf_counter() - wall_start,
        }

    result = run_fleet(
        spec.app_spec.build(),
        spec.traces,
        fleet_env,
        predictor=spec.predictor,
        drain_s=spec.drain_s,
        seed=spec.seed,
        cohort_width_s=spec.cohort_width_s,
        early_k=spec.early_k,
        shared_prior=spec.shared_prior_path,
        session_route=lambda i: i in owned_set,
        expected_sessions=expected_total * share,
        run_driver=drive,
    )
    fleet, prior = state["fleet"], state["prior"]
    manager = fleet.manager
    return {
        "diagnostics": result.diagnostics,
        "outcomes_by_session": fleet.outcomes_by_session(),
        "session_indices": list(fleet.session_indices),
        "fairness_samples": fleet.fairness_samples(),
        "arrival_times": manager.arrival_times() if manager else None,
        "session_labels": (
            [str(r.index) for r in manager.admitted_records] if manager else None
        ),
        "prior_n": prior.n if prior is not None else None,
        "prior_delta": prior.delta_since() if prior is not None else None,
        "num_sessions": len(fleet.sessions),
        "timing": state["timing"],
        "drained": state.get("drained", False),
        "migrated_in": state.get("migrated_in", []),
        "migrated_out": state.get("migrated_out", []),
        "resumed_sessions": state.get("resumed_sessions", 0),
        "restore_verified": state.get("restore_verified"),
        "checkpoints_taken": state.get("checkpoints_taken", 0),
        "checkpoint_cpu_s": state.get("checkpoint_cpu_s", 0.0),
        "last_checkpoint_round": state.get("last_checkpoint_round"),
        "final_checkpoint": state.get("final_checkpoint"),
    }


#: Liveness-beacon cadence for supervised shard workers.
SHARD_HEARTBEAT_S = 0.5


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
    transport: "str | Any" = "pipe",
    join_at_round: Optional[int] = None,
    partition_heal_s: float = 1.0,
) -> FleetRunResult:
    """:func:`run_fleet` partitioned across ``num_shards`` processes.

    Sessions are hash-routed to shards
    (:func:`~repro.fleet.sharding.shard_of` over the plan index); each
    worker process runs a full ``Simulator`` / fleet / shared-backend
    stack over its shard with its share of the downlink, admission cap,
    and backend budget.  With ``predictor="shared-markov"`` and
    ``sync_interval_s > 0`` the workers pause every ``sync_interval_s``
    simulated seconds at a common barrier and exchange crowd-prior
    deltas (the CRDT merge in :mod:`repro.predictors.shared`), so each
    shard sees the others' transitions with at most one interval of
    staleness.  Other predictors share no cross-session state and the
    shards run free.

    ``shared_prior`` warm-starts every shard from one prior (a path,
    or a :class:`~repro.predictors.shared.SharedTransitionPrior` to
    save into a temp file); ``prior_out`` saves the *pooled* end-of-run
    prior (warm-start plus every shard's contribution).

    With ``fleet_env.checkpoint`` set (and not inert), workers capture
    :class:`~repro.fleet.checkpoint.ShardCheckpoint` snapshots at the
    configured sync-round cadence and piggyback them on the barrier
    exchange.  The coordinator keeps the latest per shard: supervision
    respawns verify their deterministic replay against the stored
    digests, shards lost past the restart budget are re-absorbed from
    their last checkpoint (``sessions_resumed`` instead of
    ``sessions_lost``), ``drain:R`` chaos stops the run cleanly after
    round R, and the ``out_path``/``in_path`` pair drives the
    drain-then-restore lifecycle.  An inert config is bit-identical to
    no config at all (test-enforced).

    The result pools every shard: one fleet-wide summary over the
    concatenated outcome streams, Jain's index over the union of
    fairness samples, summed counter snapshots, and a
    ``diagnostics["sharding"]`` block (per-shard session counts, CPU
    timings, delta-sync stats).  **W=1 reproduces the unsharded**
    :func:`run_fleet` **bit-for-bit** apart from that extra block: the
    route keeps everything, every scale factor is exactly 1.0, and a
    chunked ``sim.run`` is event-exact — tests enforce this.

    ``transport`` selects the coordinator↔worker wire: ``"pipe"`` (the
    original ``multiprocessing.Pipe`` path, byte-identical to PR 7) or
    ``"tcp"`` (framed, acked, CRC-checked loopback sockets — see
    :mod:`repro.fleet.transport`); an already-built transport object
    passes through.  The seam contract is that a fixed-seed W=1 run
    produces a bit-identical pooled summary over either.  Network chaos
    (``partition:A-B@R``, ``netdelay``, ``dup``, ``corrupt``) requires
    ``"tcp"``; partitions are cut at the named barrier and heal after
    ``partition_heal_s`` wall seconds.

    Membership is elastic both ways.  A shard lost past its restart
    budget has its checkpointed sessions *migrated*: the consistent-hash
    ring minus the dead member routes each session to a survivor, which
    adopts it mid-run via a control order on the next barrier broadcast
    (``sessions_migrated`` in the pooled report, instead of the re-absorb
    epilogue — which remains as the fallback when no barrier is left to
    carry the order).  ``join_at_round=R`` grows the fleet instead: a
    fresh worker joins after barrier R, and every session the grown
    ring routes to it is captured, retired by its donor, and resumed by
    the joiner from its checkpointed request position.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if len(traces) != fleet_env.num_sessions:
        raise ValueError(
            f"{len(traces)} traces for {fleet_env.num_sessions} sessions"
        )
    app_spec = app if isinstance(app, ImageAppSpec) else ImageAppSpec.of(app)
    traces = list(traces)

    static = fleet_env.arrival is None or fleet_env.arrival.is_static
    if static:
        horizon = max(t.duration_s for t in traces)
    else:
        # Same arithmetic as SessionManager.horizon_s over the same
        # (pure-function-of-seed) global plan the workers will build.
        arrival = fleet_env.arrival
        wait_s = 0.0
        if arrival.max_concurrent is not None and arrival.patience_s > 0:
            wait_s = arrival.patience_s
        horizon = 0.0
        for plan in arrival.plan(fleet_env.num_sessions):
            span = traces[plan.index].duration_s
            if plan.dwell_s is not None:
                span = min(span, plan.dwell_s)
            horizon = max(horizon, plan.arrival_s + wait_s + span)
    until = horizon + drain_s

    chaos = fleet_env.chaos
    # An inert checkpoint config is nulled outright so every downstream
    # branch sees exactly the no-checkpoint code path (the bit-identity
    # contract is then trivially exact, not merely argued).
    checkpoint = fleet_env.checkpoint
    if checkpoint is not None and checkpoint.is_inert:
        checkpoint = None
    # Barriers exist for prior delta sync — and for worker-crash chaos,
    # which needs sync rounds both as crash anchors and as the points a
    # replacement worker can rejoin from (non-prior workers exchange
    # ``None``: a pure liveness barrier) — and for checkpoint capture
    # and graceful drain, which anchor to the same rounds.
    want_barriers = (
        (predictor == "shared-markov")
        or (chaos is not None and (chaos.has_worker_faults or chaos.has_drain))
        or (checkpoint is not None and checkpoint.captures)
        or (chaos is not None and bool(chaos.partitions))
        or join_at_round is not None
    )

    # -- transport seam -----------------------------------------------
    # Build the coordinator↔worker wire driver.  Net chaos is injected
    # *inside* the TCP driver (the pipe has no wire to fault), and link
    # cuts are anchored to barrier rounds via the before_round hook.
    if isinstance(transport, str):
        if transport == "pipe":
            transport_obj = PipeTransport()
        elif transport == "tcp":
            transport_obj = TcpTransport(
                chaos=chaos.net_spec() if chaos is not None else None
            )
        else:
            raise ValueError(f"unknown transport {transport!r}")
    else:
        transport_obj = transport
    if (
        chaos is not None
        and chaos.has_net_faults
        and transport_obj.name != "tcp"
    ):
        raise ValueError(
            "network chaos (partition/netdelay/dup/corrupt) requires "
            "--transport tcp: a pipe has no wire to fault"
        )

    if join_at_round is not None:
        if join_at_round < 0:
            raise ValueError("join_at_round must be >= 0")
        if not static:
            raise ValueError(
                "mid-run join needs a static fleet (churn fleets own "
                "their own admission schedule)"
            )

    def before_round(round_index: int) -> None:
        if chaos is None:
            return
        for lo, hi in chaos.partitions_at(round_index):
            transport_obj.cut_links(range(lo, hi + 1), partition_heal_s)
    sync_points: tuple[float, ...] = ()
    if want_barriers and sync_interval_s > 0:
        sync_points = tuple(
            i * sync_interval_s
            for i in range(1, math.ceil(until / sync_interval_s))
            if i * sync_interval_s < until
        )

    # Graceful drain (``drain:R`` chaos): truncate the schedule after
    # round R — workers complete that barrier (capture + exchange), skip
    # the rest of the run, and ship partial results; --checkpoint-out
    # then persists the fleet's state as of the drain round.
    drained_at_round: Optional[int] = None
    if chaos is not None and chaos.has_drain and sync_points:
        drained_at_round = min(chaos.drain_round, len(sync_points) - 1)
        sync_points = sync_points[: drained_at_round + 1]

    # Mid-run join: after barrier ``join_at_round`` a new member (shard
    # index W, ring membership W+1) enters.  Every original worker gets
    # the same ``grow_to`` marker and donates, at that barrier, the
    # owned sessions the grown ring routes to the newcomer.
    grow_to: Optional[tuple[int, int, float]] = None
    if join_at_round is not None:
        if join_at_round >= len(sync_points):
            raise ValueError(
                f"join_at_round={join_at_round} needs at least "
                f"{join_at_round + 1} sync rounds, run has {len(sync_points)}"
            )
        grow_to = (num_shards + 1, join_at_round, sync_points[join_at_round])

    # Per-worker capture cadence: path-only configs capture every round
    # so the written bundle is as fresh as the run.
    worker_cadence = 0
    if checkpoint is not None and checkpoint.captures:
        worker_cadence = max(checkpoint.cadence_rounds, 1)

    # --checkpoint-in: validate the bundle up front (fail-fast, before
    # any worker spawns) and remember the path for the workers.
    resume_path: Optional[str] = None
    resume_bundle = None
    if checkpoint is not None and checkpoint.in_path is not None:
        resume_path = os.fspath(checkpoint.in_path)
        resume_bundle = FleetCheckpoint.load(
            resume_path, n=app_spec.rows * app_spec.cols
        )
        if resume_bundle.num_shards != num_shards:
            raise ValueError(
                f"checkpoint taken with {resume_bundle.num_shards} shards, "
                f"cannot resume with {num_shards}"
            )

    warm_path = shared_prior
    temp_files: list[str] = []
    if isinstance(shared_prior, SharedTransitionPrior):
        temp_prior = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
        temp_prior.close()
        shared_prior.save(temp_prior.name)
        warm_path = temp_prior.name
        temp_files.append(temp_prior.name)

    heartbeat_s = SHARD_HEARTBEAT_S if supervision is not None else None

    def make_task(
        k: int,
        task_sync_points: tuple[float, ...],
        attempt: int,
        first_round: int = 0,
    ) -> ShardTask:
        return ShardTask(
            entry="repro.experiments.runner:_sharded_fleet_worker",
            spec=ShardFleetSpec(
                app_spec=app_spec,
                traces=traces,
                fleet_env=fleet_env,
                predictor=predictor,
                shard=k,
                num_shards=num_shards,
                sync_points=task_sync_points,
                drain_s=drain_s,
                seed=seed,
                cohort_width_s=cohort_width_s,
                early_k=early_k,
                shared_prior_path=(
                    os.fspath(warm_path) if warm_path is not None else None
                ),
                attempt=attempt,
                checkpoint_cadence=worker_cadence,
                first_round=first_round,
                resume_from=resume_path,
                drain_after_round=drained_at_round,
                grow_to=grow_to,
            ),
            shard=k,
            num_shards=num_shards,
            heartbeat_interval_s=heartbeat_s,
        )

    # Coordinator-side merged prior: every barrier's deltas fold into
    # this aggregate, so at any moment it holds the crowd's state as of
    # the last completed sync round — exactly the seed a replacement
    # worker needs to rejoin without coordination (the CRDT merge is
    # idempotent, so the worker re-contributing its pre-crash
    # transitions is harmless).
    coord_state: dict = {"prior": None, "merged": 0}
    store = CheckpointStore() if checkpoint is not None else None

    # Elastic-membership bookkeeping.  ``join_state["moved"]`` collects
    # the SessionCheckpoint payloads donors ship at the join barrier;
    # ``pending_ctrl`` holds adoption orders for lost shards' sessions
    # until the next ``peers`` broadcast carries them; ``adoption_log``
    # tracks, per lost shard, whether every order actually reached a
    # live survivor (undelivered ⇒ the legacy re-absorb fallback runs).
    join_state: dict = {"moved": {}, "joined": False, "route": (), "traces": None}
    pending_ctrl: dict[int, list[dict]] = {}
    adopt_orders_by_target: dict[int, list[dict]] = {}
    adoption_log: dict[int, dict] = {}

    def ensure_coord_prior(n: int) -> "SharedTransitionPrior":
        if coord_state["prior"] is None:
            coord_state["prior"] = (
                SharedTransitionPrior.load(warm_path, n=n)
                if warm_path is not None
                else SharedTransitionPrior(n)
            )
        return coord_state["prior"]

    # Resuming: pre-seed the coordinator aggregate with every shard's
    # stored contribution, so a worker that dies *before* its first
    # post-resume barrier still respawns with the checkpointed crowd.
    if resume_bundle is not None:
        for ckpt in resume_bundle.shards.values():
            delta = ckpt.prior_delta_object()
            if delta is not None:
                coord_state["merged"] += ensure_coord_prior(delta.n).merge_delta(
                    delta
                )

    def on_round(round_index: int, offers: list) -> None:
        for offer in offers:
            delta, ckpt = unwrap_sync_payload(offer)
            if ckpt is not None and store is not None:
                store.put(ckpt)
            order = migrate_out_of(offer)
            if order is not None:
                # A donor announcing sessions bound for the joiner:
                # remember each session's checkpointed position so the
                # joiner's suffix traces resume exactly there.
                for sc in order.get("sessions", ()):
                    join_state["moved"][int(sc["index"])] = dict(sc)
            if not delta:
                continue  # empty delta, or a non-prior liveness barrier
            coord_state["merged"] += ensure_coord_prior(delta.n).merge_delta(
                delta
            )

    # One extra slot so a mid-run joiner (shard index ``num_shards``)
    # has a restart-attempt counter like everyone else.
    attempts = [0] * (num_shards + 1)

    def seed_prior_path() -> Optional[str]:
        """Save the coordinator aggregate for a worker to warm from."""
        prior = coord_state["prior"]
        if prior is None:
            return warm_path if warm_path is None else os.fspath(warm_path)
        handle = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
        handle.close()
        prior.save(handle.name)
        temp_files.append(handle.name)
        return handle.name

    def _joinerize(task: ShardTask) -> ShardTask:
        """Rewrite ``task`` into the joiner's identity: it routes by an
        explicit session set (the ring's newcomer slice), sees the
        grown membership, and never donates or restores-by-bundle."""
        task.spec.route_indices = join_state["route"]
        task.spec.traces = join_state["traces"]
        task.spec.num_shards = num_shards + 1
        task.spec.grow_to = None
        task.spec.resume_from = None
        task.num_shards = num_shards + 1
        return task

    def make_joiner(round_index: int) -> Optional[ShardTask]:
        """Build the worker that joins after barrier ``round_index``.

        Its sessions are exactly those the donors shipped at this
        barrier; each runs the suffix of its global trace past its
        checkpointed request count, so the newcomer resumes the
        sessions mid-flight rather than replaying them from scratch.
        It warms from the coordinator's aggregate prior — the crowd's
        state as of the join barrier.
        """
        moved = join_state["moved"]
        at_s = sync_points[round_index]
        route = tuple(sorted(moved))
        joiner_traces = list(traces)
        for idx in route:
            suffix = _suffix_trace(
                traces[idx], int(moved[idx]["requests_seen"]), at_s
            )
            if suffix is not None:
                joiner_traces[idx] = suffix
        join_state.update(
            joined=True, route=route, traces=tuple(joiner_traces)
        )
        seed_path = seed_prior_path()
        task = _joinerize(
            make_task(
                num_shards,
                sync_points[round_index + 1 :],
                0,
                first_round=round_index + 1,
            )
        )
        if seed_path is not None:
            task.spec.shared_prior_path = os.fspath(seed_path)
        return task

    def respawn(shard: int, next_round: int) -> ShardTask:
        attempts[shard] += 1
        seed_path = seed_prior_path()
        task = make_task(
            shard, sync_points[next_round:], attempts[shard], first_round=next_round
        )
        if shard == num_shards and join_state["joined"]:
            task = _joinerize(task)
        orders = adopt_orders_by_target.get(shard)
        if orders:
            # The predecessor adopted a lost shard's sessions; its
            # replacement must re-adopt them (as a deterministic
            # pre-step) or they would silently vanish with the restart.
            task.spec.adopt_orders = tuple(orders)
        if seed_path is not None:
            task.spec.shared_prior_path = os.fspath(seed_path)
        if store is not None:
            latest = store.latest(shard)
            if latest is not None:
                task.spec.restore = latest
        return task

    recovery = ShardRecovery()
    reabsorbed: list[int] = []

    def on_lost(lost_shard: int, next_round: int) -> None:
        """Plan adoption of a shard lost past its restart budget.

        The dead shard's last checkpoint is split by a consistent-hash
        ring over the surviving membership — consistent hashing keeps
        every survivor's own sessions where they are; only the dead
        member's ranges reassign — and each survivor receives, in the
        very next ``peers`` broadcast, an adoption order for the
        sessions the shrunken ring routes to it.  Shards that cannot be
        migrated (no checkpoint, no barrier left to carry the orders,
        churn fleets, drain runs) fall through to the legacy re-absorb
        epilogue.
        """
        if store is None or not static or drained_at_round is not None:
            return
        if next_round >= len(sync_points):
            return  # no broadcast left to carry the orders
        latest = store.latest(lost_shard)
        if latest is None:
            return
        ring = HashRing(range(num_shards))
        if join_state["joined"]:
            ring.add(num_shards)
        for dead in set(recovery.lost_shards):
            if dead in ring:
                ring.remove(dead)
        if len(ring) == 0:
            return
        at_s = sync_points[next_round]
        moved_away = set(join_state["moved"])
        assign: dict[int, list[int]] = {}
        for sc in latest.sessions:
            if sc.index in moved_away:
                continue  # already donated to the joiner pre-crash
            assign.setdefault(ring.route(sc.index), []).append(sc.index)
        payload = latest.to_payload()
        planned = 0
        for target, indices in sorted(assign.items()):
            pending_ctrl.setdefault(target, []).append(
                {
                    CTRL_KEY: "adopt",
                    "from_shard": lost_shard,
                    "checkpoint": payload,
                    "indices": indices,
                    "at_s": at_s,
                }
            )
            planned += 1
        if planned:
            adoption_log[lost_shard] = {"orders": planned, "delivered": 0}

    def control(round_index: int, shard: int) -> list:
        orders = pending_ctrl.pop(shard, [])
        for order in orders:
            adoption_log[order["from_shard"]]["delivered"] += 1
            # Remember what this worker adopted: its own replacement,
            # should it later crash, must re-adopt as a pre-step.
            adopt_orders_by_target.setdefault(shard, []).append(order)
        return orders

    try:
        tasks = [make_task(k, sync_points, 0) for k in range(num_shards)]
        shards = run_sharded(
            tasks,
            sync_rounds=len(sync_points),
            timeout_s=timeout_s,
            on_round=on_round,
            supervision=supervision,
            respawn=respawn if supervision is not None else None,
            recovery=recovery,
            transport=transport_obj,
            before_round=before_round,
            on_lost=on_lost if supervision is not None else None,
            control=control if supervision is not None else None,
            join_at_round=join_at_round,
            make_joiner=make_joiner if join_at_round is not None else None,
        )

        # Re-absorb shards lost past the restart budget: with
        # checkpointing on, the coordinator holds each lost shard's last
        # checkpoint and crowd state, so its slice can run to completion
        # as a barrier-free single task (the first step toward elastic
        # resharding).  The per-origin CRDT merge dedups its prior
        # contribution against everything already pooled.  Drain runs
        # skip this: the written bundle keeps the lost shard's last
        # checkpoint for the --checkpoint-in restart instead.
        migrated_shards = {
            k for k, v in adoption_log.items() if v["delivered"] > 0
        }
        if store is not None and drained_at_round is None:
            for k in recovery.lost_shards:
                if k in migrated_shards:
                    # Survivors adopted this shard's sessions mid-run;
                    # re-running its slice would double-serve them.
                    continue
                seed_path = seed_prior_path()
                salvage = make_task(
                    k, (), attempts[k] + 1, first_round=len(sync_points)
                )
                if seed_path is not None:
                    salvage.spec.shared_prior_path = os.fspath(seed_path)
                latest = store.latest(k)
                if latest is not None:
                    salvage.spec.restore = latest
                salvage_task = ShardTask(
                    entry=salvage.entry,
                    spec=salvage.spec,
                    shard=0,
                    num_shards=1,
                    heartbeat_interval_s=heartbeat_s,
                )
                try:
                    shards[k] = run_sharded(
                        [salvage_task], sync_rounds=0, timeout_s=timeout_s
                    )[0]
                except Exception:
                    continue  # still lost; the pooled report says so
                reabsorbed.append(k)

        pooled_prior = None
        transitions_merged = coord_state["merged"]
        if predictor == "shared-markov":
            prior_ns = [
                s["prior_n"]
                for s in shards
                if s is not None and s["prior_n"] is not None
            ]
            if prior_ns:
                pooled_prior = coord_state["prior"]
                if pooled_prior is None:
                    pooled_prior = (
                        SharedTransitionPrior.load(warm_path, n=prior_ns[0])
                        if warm_path is not None
                        else SharedTransitionPrior(prior_ns[0])
                    )
                for s in shards:
                    if s is not None and s["prior_delta"] is not None:
                        transitions_merged += pooled_prior.merge_delta(
                            s["prior_delta"]
                        )
    finally:
        # Idempotent: run_sharded's teardown already closed it on the
        # happy path; this covers validation failures before spawn.
        transport_obj.close()
        for path in temp_files:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _owned_now(k: int) -> list[int]:
        """Sessions shard ``k`` is responsible for at end of run: its
        hash slice, minus anything donated to a mid-run joiner — or,
        for the joiner itself, exactly the adopted set."""
        if join_state["joined"] and k == num_shards:
            return list(join_state["route"])
        owned = _shard_owned(len(traces), k, num_shards)
        if join_state["joined"]:
            owned = [i for i in owned if i not in join_state["moved"]]
        return owned

    lost_shard_list = [k for k in recovery.lost_shards if k not in reabsorbed]
    # Sessions on a migrated shard live on in their adopters; only the
    # indices in orders that never reached a live survivor are lost.
    undelivered: dict[int, int] = {}
    for orders in pending_ctrl.values():
        for order in orders:
            undelivered[order["from_shard"]] = undelivered.get(
                order["from_shard"], 0
            ) + len(order["indices"])
    lost_sessions = sum(
        undelivered.get(k, 0) if k in migrated_shards else len(_owned_now(k))
        for k in lost_shard_list
    )
    sessions_migrated = sum(
        len(s["migrated_in"]) for s in shards if s is not None
    )
    if join_state["joined"]:
        sessions_migrated += len(join_state["route"])

    # --checkpoint-out: fold every surviving worker's final capture in
    # (fresher than the last barrier's) and persist the bundle.
    drained = any(s is not None and s.get("drained") for s in shards)
    if store is not None:
        for s in shards:
            if s is not None and s.get("final_checkpoint") is not None:
                store.put(s["final_checkpoint"])
    if checkpoint is not None and checkpoint.out_path is not None:
        store.bundle(
            n=app_spec.rows * app_spec.cols,
            num_shards=num_shards,
            sync_interval_s=sync_interval_s,
            drained_at_round=drained_at_round if drained else None,
        ).save(os.fspath(checkpoint.out_path))

    # Resumed sessions, by provenance: restored from a --checkpoint-in
    # bundle, restored in place by supervision's respawn, or re-absorbed
    # from a lost shard's last checkpoint.
    sessions_resumed = 0
    if checkpoint is not None:
        sessions_resumed += sum(
            s["resumed_sessions"] for s in shards if s is not None
        )
        sessions_resumed += sum(
            len(_owned_now(k)) for k in recovery.recovered_shards
        )
        sessions_resumed += sum(len(_owned_now(k)) for k in reabsorbed)

    shards = [s for s in shards if s is not None]

    # -- pool the shards into one fleet-wide result -------------------
    reports = [s["diagnostics"] for s in shards]
    outcomes_by_session = [o for s in shards for o in s["outcomes_by_session"]]
    session_indices = [i for s in shards for i in s["session_indices"]]
    samples = [v for s in shards for v in s["fairness_samples"]]
    dup_sessions = 0
    if join_state["joined"]:
        # A migrated session appears twice — the donor's served prefix
        # and the joiner's suffix.  Results pool in shard order (donors
        # before the joiner), so folding later occurrences into the
        # first stitches prefix + suffix back into one logical session.
        first_at: dict[int, int] = {}
        merged_indices: list[int] = []
        merged_outcomes: list[list] = []
        for idx, outs in zip(session_indices, outcomes_by_session):
            if idx in first_at:
                merged_outcomes[first_at[idx]] = (
                    merged_outcomes[first_at[idx]] + outs
                )
                dup_sessions += 1
            else:
                first_at[idx] = len(merged_indices)
                merged_indices.append(idx)
                merged_outcomes.append(outs)
        session_indices = merged_indices
        outcomes_by_session = merged_outcomes
    diagnostics: dict = {
        "sessions": sum(d["sessions"] for d in reports) - dup_sessions,
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
    if not static:
        diagnostics["churn"] = pool_snapshots([d["churn"] for d in reports])
        rates = [
            early_hit_rate(o, first_k=early_k) for o in outcomes_by_session if o
        ]
        diagnostics["early_hit_rate"] = sum(rates) / len(rates) if rates else 0.0

    if pooled_prior is not None:
        diagnostics["shared_prior"] = pooled_prior.snapshot()
        if prior_out is not None:
            pooled_prior.save(prior_out)

    diagnostics["sharding"] = {
        "shards": num_shards,
        "sync_interval_s": sync_interval_s,
        "sync_rounds": len(sync_points),
        "sessions_per_shard": [s["num_sessions"] for s in shards],
        "transitions_merged": transitions_merged,
        "cpu_run_s": [s["timing"]["cpu_run_s"] for s in shards],
        "wall_run_s": [s["timing"]["wall_run_s"] for s in shards],
        # Supervision outcome: how many shards died and came back, how
        # many were dropped past the restart budget (after any
        # checkpoint re-absorption), and how many planned sessions that
        # loss cost the pooled report.
        "shards_recovered": len(recovery.recovered_shards),
        "shards_lost": len(lost_shard_list),
        "sessions_lost": lost_sessions,
        "restarts": len(recovery.restarts),
        "restarts_by_shard": [
            sum(1 for s, _, _ in recovery.restarts if s == k)
            for k in range(
                num_shards + (1 if join_state["joined"] else 0)
            )
        ],
        # Elastic membership: sessions carried to a new owner mid-run
        # (adopted from a lost shard, or donated to a mid-run joiner).
        "sessions_migrated": sessions_migrated,
        "shards_migrated": len(migrated_shards),
        "members": num_shards + (1 if join_state["joined"] else 0),
    }
    if join_state["joined"]:
        diagnostics["sharding"]["joined_at_round"] = join_at_round
    per_shard_counters = transport_obj.counter_snapshots()
    diagnostics["sharding"]["transport"] = {
        "driver": transport_obj.name,
        "per_shard": per_shard_counters,
        "totals": pool_transport_counters(per_shard_counters.values()),
    }
    if checkpoint is not None:
        final_round = len(sync_points) - 1
        verdicts = [
            s["restore_verified"]
            for s in shards
            if s["restore_verified"] is not None
        ]
        diagnostics["sharding"].update(
            {
                "checkpoints_taken": sum(s["checkpoints_taken"] for s in shards),
                "checkpoint_cpu_s": [s["checkpoint_cpu_s"] for s in shards],
                "last_checkpoint_round": store.last_rounds(num_shards),
                "checkpoint_age_rounds": store.ages(num_shards, final_round),
                "sessions_resumed": sessions_resumed,
                "shards_reabsorbed": len(reabsorbed),
                # True when every restored shard's replay reproduced its
                # checkpoint digests; None when nothing was restored.
                "restore_verified": (all(verdicts) if verdicts else None),
            }
        )
        if drained:
            diagnostics["sharding"]["drained_at_round"] = drained_at_round

    cohorts: list[CohortSummary] = []
    session_labels = None
    if not static:
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
