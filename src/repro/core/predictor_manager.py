"""Client-side Predictor Manager (§3.3, §4).

Owns the application-provided client predictor component: feeds it
interaction events and requests, and **periodically** (every 150 ms by
default, §6.1) asks it for its anytime state and ships that state to
the server.  The manager — not the predictor — controls how often
distributions are made and sent, which is the knob Appendix B.1
sweeps (50–350 ms).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # predictors sit above core
    from repro.predictors.base import ClientPredictor

from repro.clock import Clock

__all__ = ["PredictorManager"]


class PredictorManager:
    """Periodic state shipper wrapping a client predictor component.

    ``send_state`` typically wraps the uplink control channel and the
    server's ``on_predictor_state``.

    Under a fleet, the coalesced prediction tick
    (:class:`~repro.fleet.schedule_service.FleetScheduleService`)
    replaces the periodic task (``autostart=False``) and drives
    :meth:`poll` itself, so the snapshot, dedup and accounting stay
    per-session here whoever owns the cadence.  One manager exists per
    live session and is polled every 150 ms; ``__slots__`` keeps the
    fleet's N-session footprint flat.
    """

    __slots__ = (
        "sim",
        "client_predictor",
        "send_state",
        "interval_s",
        "send_unchanged",
        "_last_state",
        "_task",
        "states_sent",
        "state_bytes_sent",
    )

    DEFAULT_INTERVAL_S = 0.150

    def __init__(
        self,
        sim: Clock,
        client_predictor: ClientPredictor,
        send_state: Callable[[Any], None],
        interval_s: float = DEFAULT_INTERVAL_S,
        send_unchanged: bool = False,
        autostart: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.client_predictor = client_predictor
        self.send_state = send_state
        self.interval_s = interval_s
        self.send_unchanged = send_unchanged
        self._last_state: Any = object()  # sentinel != any real state
        # ``autostart=False`` hands the tick cadence to an external
        # driver (the fleet's coalesced prediction tick), which calls
        # :meth:`poll` instead of this manager owning a periodic task.
        self._task = sim.every(interval_s, self._tick) if autostart else None
        self.states_sent = 0
        self.state_bytes_sent = 0

    def observe_event(self, event: Any) -> None:
        """Forward a client interaction event to the predictor."""
        self.client_predictor.observe_event(self.sim.now, event)

    def observe_request(self, request: int) -> None:
        """Forward an issued request to the predictor."""
        self.client_predictor.observe_request(self.sim.now, request)

    def poll(self) -> Any:
        """The state that should ship now, or None (unchanged / not ready).

        Does everything one periodic tick does — snapshot
        (``client_predictor.state(sim.now)``), dedup against the last
        shipped state, accounting — except the actual send, so an
        external driver can transport the state itself.
        """
        state = self.client_predictor.state(self.sim.now)
        if state is None:
            return None
        if not self.send_unchanged and state == self._last_state:
            return None
        self._last_state = state
        self.states_sent += 1
        self.state_bytes_sent += self.client_predictor.state_size_bytes(state)
        return state

    def _tick(self) -> None:
        state = self.poll()
        if state is not None:
            self.send_state(state)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
