"""Environment configurations from §6.1–§6.2.

The experiments sweep:

* fixed bandwidth 1.5–15 MB/s (default 5.625 MB/s),
* request latency 20–400 ms (default 100 ms), split per §6.1 into a
  network share (5–100 ms) and a simulated backend-processing share
  (15–300 ms) — the paper's endpoint values imply a consistent 1:3
  split, which this module adopts (20 ms → 5 + 15, 400 ms → 100 + 300),
* client cache 10–100 MB (default 50 MB),
* emulated Verizon/AT&T LTE cellular links with a 100 ms minimum RTT
  (Fig. 13),

plus the §6.2 composite settings: **low** (1.5 MB/s, 10 MB), **medium**
(5.625 MB/s, 50 MB), and **high** (15 MB/s, 100 MB) resources.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.chaos import ChaosConfig
from repro.clock import Clock
from repro.core.session import SessionConfig
from repro.fleet import ArrivalConfig, CheckpointConfig, FleetConfig
from repro.sim.cellular import ATT_LTE, VERIZON_LTE, CellularTraceGenerator
from repro.sim.fairshare import SharedDownlink
from repro.sim.link import ControlChannel, FixedRateLink, Link, TraceDrivenLink
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator
from repro.workloads.trace import InteractionTrace

__all__ = [
    "EnvironmentConfig",
    "FleetEnvironment",
    "ImageExperimentScale",
    "DEFAULT_ENV",
    "DEFAULT_FLEET",
    "LOW_RESOURCE",
    "MED_RESOURCE",
    "HIGH_RESOURCE",
    "make_downlink",
    "make_uplink",
    "make_shared_downlink",
]

#: Fraction of the request-latency knob attributed to the network; the
#: §6.1 endpoints (20 ms = 5 net + 15 backend, 400 ms = 100 + 300) pin
#: this to 1/4.
NETWORK_SHARE = 0.25

#: Simulated seconds to keep running after the trace ends, so in-flight
#: blocks land and late upcalls fire (Khameleon pushes forever; classic
#: sessions instead drain their event queue completely).
DEFAULT_DRAIN_S = 3.0


@dataclass(frozen=True)
class EnvironmentConfig:
    """One experimental condition's resources."""

    name: str = "default"
    bandwidth_bytes_per_s: float = 5_625_000.0
    request_latency_s: float = 0.100
    cache_bytes: int = 50_000_000
    cellular: Optional[str] = None  # None | "verizon" | "att"
    min_rtt_s: Optional[float] = None  # override network RTT (cellular: 100 ms)

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.request_latency_s < 0:
            raise ValueError("request latency must be non-negative")
        if self.cache_bytes <= 0:
            raise ValueError("cache must be positive")
        if self.cellular not in (None, "verizon", "att"):
            raise ValueError(f"unknown cellular profile {self.cellular!r}")

    @property
    def network_rtt_s(self) -> float:
        """Round-trip network latency share of the request latency."""
        if self.min_rtt_s is not None:
            return self.min_rtt_s
        return self.request_latency_s * NETWORK_SHARE

    @property
    def one_way_latency_s(self) -> float:
        return self.network_rtt_s / 2.0

    @property
    def backend_delay_s(self) -> float:
        """Simulated backend-processing share of the request latency."""
        return self.request_latency_s * (1.0 - NETWORK_SHARE)

    def with_bandwidth(self, bytes_per_s: float) -> "EnvironmentConfig":
        return replace(self, bandwidth_bytes_per_s=bytes_per_s)

    def with_cache(self, cache_bytes: int) -> "EnvironmentConfig":
        return replace(self, cache_bytes=cache_bytes)

    def with_request_latency(self, latency_s: float) -> "EnvironmentConfig":
        return replace(self, request_latency_s=latency_s)


DEFAULT_ENV = EnvironmentConfig()


@dataclass(frozen=True)
class FleetEnvironment:
    """A multi-tenant serving condition: N users over one environment.

    The single-user sweeps hold the environment fixed and vary the
    system; fleet experiments additionally vary how many sessions
    contend for the one downlink and backend.  ``weights`` sets the
    downlink fair shares (None = equal); ``backend_concurrency`` sizes
    the *shared* §5.4 speculation budget over the common backend; and
    ``arrival`` selects the session churn process (None = the static
    all-at-t0 fleet).

    Validation of the fleet shape lives in
    :class:`repro.fleet.FleetConfig`, which :meth:`fleet_config` builds.
    """

    num_sessions: int = 8
    env: EnvironmentConfig = DEFAULT_ENV
    weights: Optional[tuple[float, ...]] = None
    backend_concurrency: Optional[int] = None
    arrival: Optional[ArrivalConfig] = None
    #: Fault schedule for robustness runs (None = well-behaved world).
    #: Backend faults are wrapped around the fleet's backend, link
    #: outages around the shared downlink, and worker-crash schedules
    #: are consumed by the sharded coordinator's supervision loop.
    chaos: Optional[ChaosConfig] = None
    #: Durable-session checkpointing (sharded runs): capture cadence
    #: plus the ``--checkpoint-out`` / ``--checkpoint-in`` drain and
    #: restore paths.  ``None`` (or an inert config) changes nothing —
    #: bit-identical to pre-checkpoint behavior (test-enforced).
    checkpoint: Optional[CheckpointConfig] = None

    def fleet_config(self, session: SessionConfig) -> FleetConfig:
        """Map this condition onto the fleet layer's config.

        ``session`` is the per-session :class:`SessionConfig` template;
        the single source of truth for field meaning and validation is
        :class:`repro.fleet.FleetConfig`.
        """
        return FleetConfig(
            num_sessions=self.num_sessions,
            weights=self.weights,
            backend_concurrency=self.backend_concurrency,
            arrival=self.arrival,
            session=session,
            chaos=self.chaos,
        )

    def with_sessions(self, n: int) -> "FleetEnvironment":
        return replace(self, num_sessions=n, weights=None)


DEFAULT_FLEET = FleetEnvironment()


@dataclass(frozen=True)
class ImageExperimentScale:
    """Reduced-scale knobs for the image-application sweeps.

    ``rows × cols`` thumbnails instead of 100 × 100, shorter traces,
    fewer simulated users.  Set ``paper()`` for the full configuration.
    """

    rows: int = 20
    cols: int = 20
    trace_duration_s: float = 20.0
    num_traces: int = 2
    seed: int = 0

    @classmethod
    def paper(cls) -> "ImageExperimentScale":
        return cls(rows=100, cols=100, trace_duration_s=180.0, num_traces=14)

    def build(self) -> tuple[ImageExplorationApp, list[InteractionTrace]]:
        app = ImageExplorationApp(rows=self.rows, cols=self.cols)
        gen = MouseTraceGenerator(app.layout, seed=self.seed)
        traces = gen.generate_corpus(self.num_traces, self.trace_duration_s)
        return app, traces

#: §6.2 composite resource settings for the think-time and convergence
#: experiments.
LOW_RESOURCE = EnvironmentConfig(
    name="low", bandwidth_bytes_per_s=1_500_000.0, cache_bytes=10_000_000
)
MED_RESOURCE = EnvironmentConfig(
    name="med", bandwidth_bytes_per_s=5_625_000.0, cache_bytes=50_000_000
)
HIGH_RESOURCE = EnvironmentConfig(
    name="high", bandwidth_bytes_per_s=15_000_000.0, cache_bytes=100_000_000
)


def make_downlink(sim: Clock, env: EnvironmentConfig, seed: int = 0) -> Link:
    """Server→client data link for a condition.

    Cellular conditions generate a Verizon/AT&T-like LTE delivery trace
    (Fig. 13); otherwise the link is the fixed-rate netem analogue.
    """
    if env.cellular is None:
        return FixedRateLink(
            sim,
            bytes_per_second=env.bandwidth_bytes_per_s,
            propagation_delay_s=env.one_way_latency_s,
        )
    profile = VERIZON_LTE if env.cellular == "verizon" else ATT_LTE
    trace = CellularTraceGenerator(profile, seed=seed).generate()
    return TraceDrivenLink(sim, trace, propagation_delay_s=env.one_way_latency_s)


def make_uplink(sim: Clock, env: EnvironmentConfig) -> ControlChannel:
    """Client→server control path (requests, predictor states, rates)."""
    return ControlChannel(sim, latency_s=env.one_way_latency_s)


def make_shared_downlink(
    sim: Clock,
    env: EnvironmentConfig,
    seed: int = 0,
    chaos: Optional[ChaosConfig] = None,
) -> SharedDownlink:
    """A weighted fair-sharing arbiter over the condition's downlink.

    With a chaos config carrying link outage windows, the underlying
    link is wrapped in an :class:`~repro.sim.failures.OutageLink`
    before the fair-share arbiter sees it — every session's fair share
    collapses together, as on a real dead link.
    """
    link = make_downlink(sim, env, seed=seed)
    if chaos is not None:
        link = chaos.wrap_link(link)
    return SharedDownlink(sim, link)
