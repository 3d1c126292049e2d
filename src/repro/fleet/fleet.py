"""Multi-tenant fleet assembly: sessions over one backend, one downlink.

The paper evaluates one client at a time; a serving deployment runs
many concurrent users against shared infrastructure.  A
:class:`KhameleonFleet` builds fully independent
:class:`~repro.core.session.KhameleonSession` stacks — each with its
own predictor, scheduler, mirror, sender, client cache, and uplink —
that contend for exactly two shared resources:

* **the backend.**  All senders fetch from one
  :class:`~repro.backends.base.Backend` instance, so its response cache
  and in-flight dedup work *across* sessions: when user A's fetch for a
  request is running, user B's sender piggybacks instead of issuing a
  duplicate (``stats.piggybacked``), and B's later fetches hit A's
  cached responses (``stats.cache_hits``).  With
  ``backend_concurrency`` set, all sessions draw §5.4 throttle slots
  from one shared budget, a single global
  :class:`~repro.core.throttle.BackendThrottle`.

* **the downlink.**  Senders transmit through per-session
  :class:`~repro.sim.fairshare.FairSharePort` handles of one
  :class:`~repro.sim.fairshare.SharedDownlink`, so capacity divides by
  weight among backlogged sessions and one aggressive sender cannot
  starve the rest.

**Sessions are dynamic.**  Each session acquires its port and metrics
collector when it is *admitted*
(:meth:`admit_session`) and releases them when it *departs*
(:meth:`retire_session`).  With the default static
:class:`~repro.fleet.lifecycle.ArrivalConfig` every session is admitted
up front and none departs — exactly the original closed fleet — while a
churn config hands the schedule to a
:class:`~repro.fleet.lifecycle.SessionManager` that admits arrivals
(subject to the admission cap) and retires departures while the
simulator runs.

Single-session Khameleon is exactly the ``N = 1`` case: one port over
the physical link behaves as the raw link, and the shared throttle
degenerates to the session-private one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

from repro.backends.base import Backend
from repro.chaos import BackendFaultStack, ChaosConfig
from repro.core.scheduler import GainTable
from repro.core.session import KhameleonSession, SessionConfig
from repro.core.throttle import BackendThrottle
from repro.core.utility import UtilityFunction
from repro.metrics.fleet import FleetSummary, collect_fleet, jain_fairness
from repro.predictors.base import Predictor
from repro.clock import Clock
from repro.sim.fairshare import SharedDownlink
from repro.sim.link import ControlChannel, Link

from .lifecycle import ArrivalConfig, SessionManager
from .schedule_service import FleetScheduleService

__all__ = ["FleetConfig", "KhameleonFleet"]


@dataclass
class FleetConfig:
    """Shape of a fleet: session count, link weights, shared budget.

    Parameters
    ----------
    num_sessions:
        How many sessions to build (static fleet) or plan as arrivals
        (churn fleet).
    weights:
        Per-session downlink fair-share weights (default: all 1.0).
    backend_concurrency:
        Size of the *shared* §5.4 throttle budget over the common
        backend; ``None`` leaves speculation unthrottled.
    batched_prediction:
        Coalesce the per-session 150 ms prediction ticks into one
        :class:`~repro.fleet.schedule_service.FleetScheduleService`
        event that polls every session and applies the changed
        predictions together, one uplink latency later, decoding each
        stock predictor family in one stacked pass (default True —
        bit-identical for static fleets, one sim event per tick instead
        of N).  False runs per-session periodic ticks: the reference
        tests compare the batched path against; no CLI path sets it.
    arrival:
        The session arrival/departure process.  ``None`` (or any
        :class:`ArrivalConfig` whose ``is_static`` holds) is the
        degenerate closed fleet: everyone arrives at t = 0 and stays.
    session:
        Template :class:`SessionConfig` applied to every session.  The
        scheduler seed is offset per session so fleets are deterministic
        but not lock-stepped; the initial bandwidth estimate is divided
        by the expected concurrent population (``num_sessions`` for a
        static fleet, the Little's-law estimate under churn).
    session_route:
        Shard routing filter, ``global_index -> bool``: build/admit only
        the sessions this fleet *owns*.  Session indices stay **global**
        — seeds, weights, and port labels are computed from the plan
        index, so a sharded worker reproduces exactly the sessions the
        unsharded fleet would have built for those indices.  ``None``
        (default) owns everything.
    expected_sessions:
        Override for :meth:`expected_concurrency` — a sharded worker
        expects only its share of the population, and its bandwidth
        slice is scaled by the same share, so each session's bandwidth
        prior matches the unsharded fleet's.
    chaos:
        Optional :class:`~repro.chaos.ChaosConfig`.  Backend fault
        sources (hard errors behind a retry layer, latency spikes) are
        wrapped around the backend at fleet
        construction; an all-default / ``None`` config changes nothing.
        Link outages and worker crashes are consumed upstream (runner
        and sharded coordinator respectively).
    """

    num_sessions: int = 1
    weights: Optional[Sequence[float]] = None
    backend_concurrency: Optional[int] = None
    batched_prediction: bool = True
    arrival: Optional[ArrivalConfig] = None
    session: SessionConfig = field(default_factory=SessionConfig)
    session_route: Optional[Callable[[int], bool]] = None
    expected_sessions: Optional[float] = None
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.num_sessions < 1:
            raise ValueError("fleet needs at least one session")
        if self.weights is not None and len(self.weights) != self.num_sessions:
            raise ValueError(
                f"{len(self.weights)} weights for {self.num_sessions} sessions"
            )

    def weight_of(self, i: int) -> float:
        return 1.0 if self.weights is None else float(self.weights[i])

    @property
    def is_static(self) -> bool:
        return self.arrival is None or self.arrival.is_static

    def expected_concurrency(self) -> float:
        """Sessions expected to be attached at once (bandwidth prior)."""
        if self.expected_sessions is not None:
            return max(1e-9, float(self.expected_sessions))
        if self.arrival is None:
            return float(self.num_sessions)
        return self.arrival.expected_concurrency(self.num_sessions)

    def owns(self, i: int) -> bool:
        """Does this fleet (shard) build session ``i``?"""
        return self.session_route is None or bool(self.session_route(i))


class KhameleonFleet:
    """Khameleon sessions over one backend and one fair-shared link.

    Parameters
    ----------
    sim:
        Shared simulator clock.
    backend:
        The one backend instance every session fetches from.
    make_predictor:
        ``session_index -> Predictor``; each session needs its own
        (stateful) predictor instance.  Cross-session learning — e.g., a
        fleet-wide :class:`~repro.predictors.shared.SharedTransitionPrior`
        — is shared by closing over one prior in this factory.
    utility, num_blocks:
        The shared application: all sessions explore the same request
        universe (that is what makes backend sharing meaningful).
    downlink:
        The physical egress :class:`Link`, or a pre-built
        :class:`SharedDownlink` arbiter over it.
    make_uplink:
        ``session_index -> ControlChannel``; client→server control
        paths are per-user.
    config:
        :class:`FleetConfig`.

    A static config admits every session in the constructor (so callers
    can wire traces to ``fleet.sessions`` before the run, exactly as
    before).  A churn config instead creates a :class:`SessionManager`
    (``fleet.manager``) that admits sessions while the simulator runs;
    ``fleet.sessions`` then grows in admission order.
    """

    def __init__(
        self,
        sim: Clock,
        backend: Backend,
        make_predictor: Callable[[int], Predictor],
        utility: UtilityFunction,
        num_blocks: Sequence[int],
        downlink: Union[Link, SharedDownlink],
        make_uplink: Callable[[int], ControlChannel],
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.sim = sim
        self.config = config or FleetConfig()
        cfg = self.config

        # Chaos: interpose the configured backend fault sources (and
        # the retry layer that absorbs hard errors) between every
        # sender and the real backend.  Inert configs skip the wrap
        # entirely, keeping the no-chaos path untouched.
        self.chaos_stack: Optional[BackendFaultStack] = None
        if cfg.chaos is not None and cfg.chaos.has_backend_faults:
            self.chaos_stack = cfg.chaos.wrap_backend(backend)
            backend = self.chaos_stack.top
        self.backend = backend

        self.shared_downlink = (
            downlink
            if isinstance(downlink, SharedDownlink)
            else SharedDownlink(sim, downlink)
        )
        self.throttle: Optional[BackendThrottle] = None
        if cfg.backend_concurrency is not None:
            self.throttle = BackendThrottle(
                cfg.backend_concurrency, active=lambda: backend.active_requests
            )

        self._make_predictor = make_predictor
        self._utility = utility
        #: One gain table for the whole fleet (every session shares the
        #: application, and the table is immutable once built).
        self._gains = GainTable(utility, num_blocks)
        self._make_uplink = make_uplink

        # Armed before any session exists so its tick (and thus the
        # batched apply) keeps the same event ordering relative to the
        # sessions' own periodic tasks as the per-session managers had.
        self.schedule_service: Optional[FleetScheduleService] = (
            FleetScheduleService(sim, interval_s=cfg.session.prediction_interval_s)
            if cfg.batched_prediction
            else None
        )

        self.sessions: list[KhameleonSession] = []
        #: Global plan index of each admitted session, parallel to
        #: ``sessions`` (the identity mapping unless ``session_route``
        #: filters or churn rejects).
        self.session_indices: list[int] = []
        self.ports = []
        self.manager: Optional[SessionManager] = None
        if cfg.is_static:
            for i in range(cfg.num_sessions):
                if cfg.owns(i):
                    self.admit_session(i)
        else:
            self.manager = SessionManager(
                sim, self, cfg.arrival, route=cfg.session_route
            )

    def __len__(self) -> int:
        return len(self.sessions)

    # -- session attach / detach ---------------------------------------

    def _session_config(self, i: int) -> SessionConfig:
        base = self.config.session
        return replace(
            base,
            scheduler_seed=base.scheduler_seed + i,
            initial_bandwidth_bytes_per_s=(
                base.initial_bandwidth_bytes_per_s / self.config.expected_concurrency()
            ),
            backend_concurrency=None,  # the fleet-level throttle rules
        )

    def admit_session(self, i: int) -> KhameleonSession:
        """Build session ``i`` and attach its shared-resource handles.

        This is the acquisition point: the fair-share port and the
        metrics collector come into existence here — at arrival, not at
        fleet construction.
        """
        port = self.shared_downlink.port(
            self.config.weight_of(i), label=f"session{i}"
        )
        session = KhameleonSession(
            sim=self.sim,
            backend=self.backend,
            predictor=self._make_predictor(i),
            utility=self._utility,
            num_blocks=self._gains.num_blocks,
            downlink=port,
            uplink=self._make_uplink(i),
            config=self._session_config(i),
            throttle=self.throttle,
            schedule_service=self.schedule_service,
            gains=self._gains,
        )
        self.ports.append(port)
        self.sessions.append(session)
        self.session_indices.append(i)
        return session

    def retire_session(self, session: KhameleonSession) -> int:
        """Departure: stop the session and release its shared resources.

        Returns the number of backlogged bytes dropped from its port —
        queued-but-unsent data a departed user will never look at, which
        must not occupy capacity surviving sessions should get.
        """
        session.stop()
        return session.downlink.close()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start serving (call once, before running the simulator).

        Static fleets start every pre-built session; churn fleets start
        the lifecycle manager, which admits sessions as they arrive.
        """
        if self.manager is not None:
            self.manager.start()
        else:
            for session in self.sessions:
                session.start()

    def stop(self) -> None:
        """Stop every session's sender and periodic tasks (idempotent)."""
        if self.manager is not None:
            self.manager.stop()
        for session in self.sessions:
            session.stop()
        if self.schedule_service is not None:
            self.schedule_service.stop()

    # -- reporting -----------------------------------------------------

    def outcomes_by_session(self) -> list[list]:
        return [s.cache_manager.outcomes for s in self.sessions]

    def summary(self) -> FleetSummary:
        """Per-session and pooled §6.1 metrics."""
        return collect_fleet(self.outcomes_by_session())

    def link_fairness(self) -> float:
        """Jain's index over weight-normalized per-session throughput.

        Lifetime byte totals — correct for a static fleet, where every
        session is attached for the whole run.  Under churn
        :meth:`report` uses :meth:`churn_link_fairness` instead, which
        normalizes by attached duration.
        """
        if not self.ports:
            return 1.0  # a shard that owns no sessions is trivially fair
        return jain_fairness(
            [p.bytes_delivered / p.weight for p in self.ports]
        )

    def fairness_samples(self) -> list[float]:
        """The per-session values :meth:`report` feeds Jain's index.

        Static fleets: lifetime weight-normalized bytes per port; churn
        fleets: weight-normalized *attached-time* delivery rates.  A
        sharded coordinator concatenates every shard's samples and
        recomputes one fleet-wide index — Jain over the union, not a
        mean of per-shard indices.
        """
        if self.manager is None:
            return [p.bytes_delivered / p.weight for p in self.ports]
        rates = []
        for record in self.manager.admitted_records:
            port = record.session.downlink
            end = record.departed_at if record.departed_at is not None else self.sim.now
            duration = end - record.arrived_at
            if duration > 0:
                rates.append(port.bytes_delivered / (port.weight * duration))
        return rates

    def churn_link_fairness(self) -> float:
        """Jain's index over per-session *attached-time* delivery rate.

        Under churn, lifetime byte totals conflate fairness with dwell:
        a user who stayed 2 s inevitably received less than one who
        stayed 10 s even from a perfectly fair arbiter.  Dividing each
        session's weight-normalized bytes by its attached duration
        measures what the arbiter actually controls.
        """
        if self.manager is None:
            return self.link_fairness()
        rates = self.fairness_samples()
        return jain_fairness(rates) if rates else 1.0

    def shared_hit_rate(self) -> float:
        """Fraction of materialization demands absorbed by sharing.

        Counted at block-scheduling granularity: every pipeline entry
        needs its response materialized, and each demand is either a
        new backend fetch, a reuse of the (shared) response cache, or a
        piggyback on a fetch already in flight — the latter two are the
        sharing benefit.  Note same-request demands within one session
        also reuse; the N=1 fleet's rate is the self-sharing baseline.
        """
        stats = self.backend.stats
        calls = stats.fetches_started + stats.shared_hits
        return stats.shared_hits / calls if calls else 0.0

    def report(self) -> dict:
        """Fleet-level diagnostics to accompany the metric summary."""
        blocks_sent = sum(s.sender.blocks_sent for s in self.sessions)
        bytes_sent = sum(s.sender.bytes_sent for s in self.sessions)
        out = {
            "sessions": len(self.sessions),
            "blocks_sent": blocks_sent,
            "bytes_sent": bytes_sent,
            "blocks_deferred": sum(s.sender.blocks_deferred for s in self.sessions),
            "link_fairness": self.link_fairness(),
            "shared_hit_rate": self.shared_hit_rate(),
            "backend": self.backend.stats.snapshot(),
        }
        if self.schedule_service is not None:
            out["prediction"] = self.schedule_service.snapshot()
        if self.manager is not None:
            out["churn"] = self.manager.stats.snapshot()
            out["link_fairness"] = self.churn_link_fairness()
        if self.chaos_stack is not None:
            out["chaos"] = self.chaos_stack.snapshot()
        return out
