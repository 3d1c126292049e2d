"""Khameleon server assembly (§3.2).

Glues the server-side pieces together: predictor decoding → sender
preemption → scheduler update, plus bandwidth-estimate reports from the
client.  The server's *slot duration* — how long one block occupies
the wire — is derived from the nominal block size and the current
bandwidth estimate; it is what maps schedule slots onto the
predictor's wall-clock horizons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # predictors sit above core
    from repro.predictors.base import ServerPredictor

from repro.core.distribution import RequestDistribution
from repro.core.scheduler import Scheduler
from repro.core.sender import Sender
from repro.sim.bandwidth import HarmonicMeanEstimator
from repro.clock import Clock

__all__ = ["KhameleonServer"]


class KhameleonServer:
    """Server endpoint: receives predictor states and rate reports."""

    def __init__(
        self,
        sim: Clock,
        scheduler: Scheduler,
        sender: Sender,
        predictor_server: ServerPredictor,
        deltas_s: Sequence[float],
        estimator: HarmonicMeanEstimator,
        nominal_block_bytes: int,
        num_requests: int,
    ) -> None:
        if nominal_block_bytes <= 0:
            raise ValueError("block size must be positive")
        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        self.sim = sim
        self.scheduler = scheduler
        self.sender = sender
        self.predictor_server = predictor_server
        self.deltas_s = tuple(deltas_s)
        self.estimator = estimator
        self.nominal_block_bytes = nominal_block_bytes
        self.num_requests = num_requests
        self.states_received = 0
        self.rate_reports_received = 0

    @property
    def slot_duration_s(self) -> float:
        """Transmission time of one block at the current estimate."""
        return self.nominal_block_bytes / self.estimator.estimate

    def start(self) -> None:
        """Begin pushing immediately, hedging uniformly until a
        prediction arrives (§3.2: all requests equally likely by
        default)."""
        self.scheduler.update_distribution(
            RequestDistribution.uniform(self.num_requests, self.deltas_s),
            self.slot_duration_s,
        )
        self.sender.start()

    def record_state_received(self) -> None:
        """Accounting for one ingested predictor state.

        The single definition of the receive-side bookkeeping: used by
        :meth:`decode_state` and by the fleet's batched decode (which
        produces the distribution in a stacked pass but must account
        identically per session).
        """
        self.states_received += 1

    def decode_state(self, state: Any) -> RequestDistribution:
        """Ingest one predictor state: accounting + decode.

        The single definition of the server-side state-receive step,
        shared by the per-session uplink path below and the fleet's
        batched :class:`~repro.fleet.schedule_service.FleetScheduleService`
        (which decodes a whole delivery group before applying any of it).
        """
        self.record_state_received()
        return self.predictor_server.decode(state, self.deltas_s)

    def apply_distribution(self, dist: RequestDistribution) -> None:
        """Preempt the sender and re-decide its unsent tail (§5.3.2).

        The one way a prediction takes effect, per-session or fleet:
        the unsent pipeline goes back to the scheduler first, so the new
        distribution's probability rows are built once, at the rewound
        position.
        """
        blocks = self.sender.take_pipeline()
        if blocks:
            self.scheduler.rollback(blocks, recompute=False)
        self.scheduler.update_distribution(dist, self.slot_duration_s)
        self.sender.resume()

    def on_predictor_state(self, state: Any) -> None:
        """Uplink delivery of a client predictor state."""
        self.apply_distribution(self.decode_state(state))

    def on_rate_report(self, bytes_per_s: float) -> None:
        """Uplink delivery of a client receive-rate measurement (§5.4)."""
        self.rate_reports_received += 1
        self.estimator.report(bytes_per_s)
