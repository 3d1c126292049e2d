"""Chaos configuration: one knob panel for every fault source.

``ChaosConfig`` gathers the individual fault injectors —
:class:`~repro.backends.faults.ErraticBackend` (hard errors + latency
spikes, absorbed by a :class:`~repro.backends.retry.RetryingBackend`),
:class:`~repro.sim.failures.OutageLink` (dead-link windows), and
worker crash-at-round schedules consumed by the sharded fleet's
supervision loop — into a single declarative config threaded through
``FleetConfig``, the sharded path, and ``python -m repro fleet
--chaos ...``.

The CLI spec is a comma-separated list of faults::

    worker-crash:R       crash shard 0's worker before sync round R
    worker-crash:S@R     crash shard S's worker before sync round R
    backend-err:P        fraction P of fetches raise BackendFetchError
    spike:P@S            fraction P of fetches delayed by S seconds
    outage:A-B           link outage window [A, B) seconds
    disconnect:P@S       drop session P's live connection at S seconds
    disconnect:S         shorthand: drop session 0's connection at S
    drain:R              graceful drain after sync round R (mid-run
                         SIGTERM: stop, checkpoint, exit clean)
    partition:A-B@R      cut coordinator<->worker links for shards
                         A..B at sync round R (heals on its own)
    netdelay:MS:P        delay fraction P of transport frames by MS ms
    dup:P                duplicate fraction P of transport frames
    corrupt:P            bit-flip fraction P of transport frames

e.g. ``--chaos worker-crash:1,backend-err:0.05``.  Connection drops
are consumed by the serve frontend (``python -m repro serve --chaos``)
to exercise reconnect-and-resume; ``drain:R`` is consumed by the
sharded fleet runner to exercise the ``--checkpoint-out`` /
``--checkpoint-in`` drain/restore cycle.  The last four rows are
*network* faults injected inside the fleet transport driver itself —
they require ``--transport tcp`` (a pipe has no wire to corrupt) and
are defended by the frame CRC / ack-retransmit / dedup machinery in
:mod:`repro.fleet.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.backends.base import Backend, BackendWrapper
from repro.backends.faults import ErraticBackend
from repro.backends.retry import RetryingBackend, RetryPolicy
from repro.sim.failures import OutageLink
from repro.sim.link import Link

__all__ = ["ChaosConfig", "BackendFaultStack", "NetChaosSpec"]


@dataclass
class BackendFaultStack:
    """The wrapper chain a chaos config builds around a backend.

    ``top`` is what the fleet should use in place of the raw backend;
    the intermediate references exist so reports can surface injected
    and absorbed fault counts.
    """

    top: Backend | BackendWrapper
    erratic: Optional[ErraticBackend] = None
    retry: Optional[RetryingBackend] = None

    def snapshot(self) -> dict:
        out: dict = {}
        if self.erratic is not None:
            out["errors_injected"] = self.erratic.errors_injected
            out["spikes_injected"] = self.erratic.spikes_injected
        if self.retry is not None:
            out.update(self.retry.snapshot())
        return out


@dataclass(frozen=True)
class NetChaosSpec:
    """Picklable slice of :class:`ChaosConfig` for the fleet transport.

    Rates are per-frame probabilities drawn from a deterministic
    per-shard stream; ``partition:A-B@R`` is not here because cuts are
    anchored to barrier rounds by the coordinator (see ``cut_links``).
    """

    netdelay_ms: float = 0.0
    netdelay_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0

    @property
    def is_inert(self) -> bool:
        return self.netdelay_rate <= 0 and self.dup_rate <= 0 and self.corrupt_rate <= 0


@dataclass(frozen=True)
class ChaosConfig:
    """Declarative fault schedule for a fleet run.

    All fields default to "no fault"; an all-default config is inert
    (``wrap_backend`` returns the backend unchanged), which is what
    keeps chaos-disabled runs bit-identical to the un-instrumented
    paths.
    """

    backend_error_rate: float = 0.0
    backend_spike_rate: float = 0.0
    backend_spike_s: float = 1.0
    link_outages: tuple[tuple[float, float], ...] = ()
    worker_crashes: tuple[tuple[int, int], ...] = ()  # (shard, sync round)
    disconnects: tuple[tuple[int, float], ...] = ()  # (session, at seconds)
    drain_round: Optional[int] = None  # graceful drain after this sync round
    partitions: tuple[tuple[int, int, int], ...] = ()  # (shard lo, hi, round)
    netdelay_ms: float = 0.0
    netdelay_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.backend_error_rate <= 1.0:
            raise ValueError("backend_error_rate must be in [0, 1]")
        if not 0.0 <= self.backend_spike_rate <= 1.0:
            raise ValueError("backend_spike_rate must be in [0, 1]")
        for shard, round_ in self.worker_crashes:
            if shard < 0 or round_ < 0:
                raise ValueError(f"bad worker crash ({shard}, {round_})")
        for session, at_s in self.disconnects:
            if session < 0 or at_s < 0:
                raise ValueError(f"bad disconnect ({session}, {at_s})")
        if self.drain_round is not None and self.drain_round < 0:
            raise ValueError("drain_round must be >= 0")
        for lo, hi, round_ in self.partitions:
            if lo < 0 or hi < lo or round_ < 0:
                raise ValueError(f"bad partition ({lo}, {hi}, {round_})")
        for rate, label in (
            (self.netdelay_rate, "netdelay_rate"),
            (self.dup_rate, "dup_rate"),
            (self.corrupt_rate, "corrupt_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if self.netdelay_ms < 0:
            raise ValueError("netdelay_ms must be >= 0")

    # -- introspection ------------------------------------------------

    @property
    def has_backend_faults(self) -> bool:
        return self.backend_error_rate > 0.0 or self.backend_spike_rate > 0.0

    @property
    def has_link_faults(self) -> bool:
        return bool(self.link_outages)

    @property
    def has_worker_faults(self) -> bool:
        return bool(self.worker_crashes)

    @property
    def has_connection_faults(self) -> bool:
        return bool(self.disconnects)

    @property
    def has_drain(self) -> bool:
        return self.drain_round is not None

    @property
    def has_net_faults(self) -> bool:
        """Faults that live inside the transport driver's wire path."""
        return bool(self.partitions) or (
            self.netdelay_rate > 0.0
            or self.dup_rate > 0.0
            or self.corrupt_rate > 0.0
        )

    @property
    def is_inert(self) -> bool:
        return not (
            self.has_backend_faults
            or self.has_link_faults
            or self.has_worker_faults
            or self.has_connection_faults
            or self.has_drain
            or self.has_net_faults
        )

    def partitions_at(self, round_index: int) -> list[tuple[int, int]]:
        """``(lo, hi)`` shard ranges to cut before ``round_index``."""
        return [(lo, hi) for lo, hi, r in self.partitions if r == round_index]

    def net_spec(self) -> NetChaosSpec:
        """The picklable transport-level slice of this config."""
        return NetChaosSpec(
            netdelay_ms=self.netdelay_ms,
            netdelay_rate=self.netdelay_rate,
            dup_rate=self.dup_rate,
            corrupt_rate=self.corrupt_rate,
            seed=self.seed,
        )

    def crash_round(self, shard: int) -> Optional[int]:
        """The sync round before which ``shard``'s worker should crash."""
        for s, r in self.worker_crashes:
            if s == shard:
                return r
        return None

    def disconnect_at(self, session: int) -> Optional[float]:
        """Seconds at which ``session``'s connection should be dropped."""
        for s, at_s in self.disconnects:
            if s == session:
                return at_s
        return None

    # -- wiring -------------------------------------------------------

    def wrap_backend(self, backend: Backend) -> BackendFaultStack:
        """Build the fault-injection + retry chain around ``backend``.

        Order (inside out): erratic (hard errors / spikes) → retry
        (absorbs the hard errors).  The retry layer is added whenever
        errors can be injected, so no injected error ever propagates
        into the sender.
        """
        stack = BackendFaultStack(top=backend)
        if self.backend_error_rate > 0.0 or self.backend_spike_rate > 0.0:
            stack.erratic = ErraticBackend(
                stack.top,
                error_rate=self.backend_error_rate,
                spike_rate=self.backend_spike_rate,
                spike_s=self.backend_spike_s,
                seed=self.seed,
            )
            stack.top = stack.erratic
        if self.backend_error_rate > 0.0:
            stack.retry = RetryingBackend(stack.top, self.retry)
            stack.top = stack.retry
        return stack

    def wrap_link(self, link: Link) -> Link:
        """Wrap ``link`` in an OutageLink when outage windows are set."""
        if not self.link_outages:
            return link
        return OutageLink(link, self.link_outages)

    # -- CLI spec -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosConfig":
        """Parse a ``--chaos`` CLI spec (see module docstring)."""
        error_rate = 0.0
        spike_rate = 0.0
        spike_s = 1.0
        outages: list[tuple[float, float]] = []
        crashes: list[tuple[int, int]] = []
        disconnects: list[tuple[int, float]] = []
        drain_round: Optional[int] = None
        partitions: list[tuple[int, int, int]] = []
        netdelay_ms = 0.0
        netdelay_rate = 0.0
        dup_rate = 0.0
        corrupt_rate = 0.0
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ValueError(f"bad chaos fault {part!r} (expected name:value)")
            name, _, value = part.partition(":")
            name = name.strip().lower()
            value = value.strip()
            try:
                if name == "worker-crash":
                    if "@" in value:
                        shard_s, _, round_s = value.partition("@")
                        crashes.append((int(shard_s), int(round_s)))
                    else:
                        crashes.append((0, int(value)))
                elif name == "backend-err":
                    error_rate = float(value)
                elif name == "spike":
                    if "@" in value:
                        rate_s, _, dur_s = value.partition("@")
                        spike_rate = float(rate_s)
                        spike_s = float(dur_s)
                    else:
                        spike_rate = float(value)
                elif name == "outage":
                    start_s, _, end_s = value.partition("-")
                    outages.append((float(start_s), float(end_s)))
                elif name == "disconnect":
                    if "@" in value:
                        session_s, _, at_s = value.partition("@")
                        disconnects.append((int(session_s), float(at_s)))
                    else:
                        disconnects.append((0, float(value)))
                elif name == "drain":
                    drain_round = int(value)
                elif name == "partition":
                    range_s, _, round_s = value.partition("@")
                    lo_s, _, hi_s = range_s.partition("-")
                    hi_s = hi_s or lo_s  # partition:S@R cuts one shard
                    partitions.append((int(lo_s), int(hi_s), int(round_s)))
                elif name == "netdelay":
                    ms_s, _, rate_s = value.partition(":")
                    netdelay_ms = float(ms_s)
                    netdelay_rate = float(rate_s) if rate_s else 1.0
                elif name == "dup":
                    dup_rate = float(value)
                elif name == "corrupt":
                    corrupt_rate = float(value)
                else:
                    raise ValueError(f"unknown chaos fault {name!r}")
            except ValueError as exc:
                if "unknown chaos fault" in str(exc) or "bad chaos fault" in str(exc):
                    raise
                raise ValueError(f"bad chaos fault value {part!r}") from exc
        return cls(
            backend_error_rate=error_rate,
            backend_spike_rate=spike_rate,
            backend_spike_s=spike_s,
            link_outages=tuple(outages),
            worker_crashes=tuple(crashes),
            disconnects=tuple(disconnects),
            drain_round=drain_round,
            partitions=tuple(partitions),
            netdelay_ms=netdelay_ms,
            netdelay_rate=netdelay_rate,
            dup_rate=dup_rate,
            corrupt_rate=corrupt_rate,
            seed=seed,
        )
