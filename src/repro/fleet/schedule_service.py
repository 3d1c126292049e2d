"""Fleet-coalesced prediction ticks.

In a per-session fleet, every :class:`~repro.core.predictor_manager.
PredictorManager` owns its own 150 ms periodic task and ships its state
over its uplink — N tick events and N uplink deliveries per prediction
interval, and one state decoded at a time.  At fleet scale that event
dispatch and the per-state decode setup dominate the server's
scheduling cost (the ROADMAP's "scheduler-side scaling" item).

:class:`FleetScheduleService` coalesces it:

* **one tick event** polls every registered session's predictor
  manager (:meth:`~repro.core.predictor_manager.PredictorManager.poll`
  takes the snapshot and keeps the dedup and accounting semantics —
  nothing is stacked on the client side: the Kalman snapshot is scalar
  arithmetic, cheaper per session than any batch that gathers it), and
* **one apply event** per uplink latency class decodes every changed
  session's state in one stacked pass per predictor family (Kalman
  truncated-Gaussian block masses, Markov chain rows, shared-chain
  crowd blends — see :meth:`_batch_decode`), then hands each session
  its distribution through the same
  :meth:`~repro.core.server.KhameleonServer.apply_distribution` the
  per-session uplink path ends in.

Nothing is stacked on the scheduler side either: installing a
distribution blends only the handful of probability rows before the
predictor's last horizon (:mod:`repro.core.greedy`), which is less work
per session than padding it into a fleet-wide array was.

Timing semantics vs the per-session path: states are still collected
on the prediction interval and applied one uplink latency later, so a
static fleet behaves identically.  Under churn the tick grid is
fleet-aligned (a session admitted mid-interval is first polled at the
next fleet tick) instead of phased per arrival — the one intentional
deviation, traded for O(1) events per interval.
"""

from __future__ import annotations

from typing import Optional

from repro.clock import Clock
from repro.core.session import KhameleonSession
from repro.predictors.kalman import KalmanServerPredictor
from repro.predictors.markov import MarkovServerPredictor
from repro.predictors.shared import SharedMarkovServerPredictor

__all__ = ["FleetScheduleService"]


def batch_probability_matrices() -> None:
    """Nothing: the stacked matrix pass is gone, and nothing calls this.

    The frozen ``bench/layers.py`` names it as the only target of its
    ``schedule_service.matrices`` span, and ``bench/test_bench.py``
    requires every span name to resolve; the span counts zero calls.
    Goes with the next ``[benchmark]`` PR (ROADMAP).
    """

class FleetScheduleService:
    """One prediction tick for a whole fleet (see module docstring).

    Sessions register at :meth:`~repro.core.session.KhameleonSession.
    start` and unregister at ``stop``; the service only ever touches
    ``session.active`` members.  The periodic task is armed at
    construction (matching a per-session manager's behaviour of ticking
    from creation) and cancelled by :meth:`stop`.
    """

    def __init__(self, sim: Clock, interval_s: float = 0.150) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_s = interval_s
        self._sessions: list[KhameleonSession] = []
        # session -> decode family, "kalman" | "markov" | "shared" |
        # None, classified once at registration (exact types only — a
        # subclass may override decode(), and the stacked passes would
        # silently bypass that) so the per-tick loops do no type scans.
        self._families: dict[KhameleonSession, Optional[str]] = {}
        self._task = sim.every(interval_s, self._tick)
        self.ticks = 0
        self.states_collected = 0
        self.batched_recomputes = 0
        self.sessions_recomputed = 0
        self.decode_batches = 0

    # -- membership ----------------------------------------------------

    @staticmethod
    def _classify(session: KhameleonSession) -> Optional[str]:
        """Which stacked decode pass (if any) serves a session."""
        sp = session.server.predictor_server
        if type(sp) is KalmanServerPredictor:
            return "kalman"
        if type(sp) is MarkovServerPredictor:
            return "markov"
        if type(sp) is SharedMarkovServerPredictor:
            return "shared"
        return None

    def register(self, session: KhameleonSession) -> None:
        if session not in self._sessions:
            self._sessions.append(session)
            self._families[session] = self._classify(session)

    def unregister(self, session: KhameleonSession) -> None:
        if session in self._sessions:
            self._sessions.remove(session)
            self._families.pop(session, None)

    @property
    def num_registered(self) -> int:
        return len(self._sessions)

    def stop(self) -> None:
        """Cancel the fleet tick (idempotent)."""
        self._task.cancel()

    def snapshot(self) -> dict:
        return {
            "ticks": self.ticks,
            "states_collected": self.states_collected,
            "batched_recomputes": self.batched_recomputes,
            "sessions_recomputed": self.sessions_recomputed,
            "decode_batches": self.decode_batches,
        }

    # -- the coalesced tick --------------------------------------------

    def _tick(self) -> None:
        """Poll every live session; ship changed states as one batch.

        Grouping by uplink latency preserves per-session delivery
        timing while keeping one apply event per latency class (a
        homogeneous fleet has exactly one).  Each manager's
        :meth:`~repro.core.predictor_manager.PredictorManager.poll`
        takes its own snapshot: a Kalman state is a few dozen scalar
        operations per horizon, less than stacking it with its
        neighbours' would cost.
        """
        self.ticks += 1
        by_latency: dict[float, list] = {}
        for session in list(self._sessions):
            if not session.active:
                continue
            state = session.predictor_manager.poll()
            if state is None:
                continue
            self.states_collected += 1
            by_latency.setdefault(session.uplink.latency_s, []).append(
                (session, state)
            )
        for latency in sorted(by_latency):
            self.sim.schedule(latency, self._apply, by_latency[latency])

    def _apply(self, group: list) -> None:
        """Server side of the batch: decode the group, then apply each.

        Every state is decoded before any distribution is applied (the
        shared-chain families learn in group order), and each session
        then takes its distribution exactly as the per-session
        ``on_predictor_state`` does.
        """
        decoded = self._batch_decode(group)
        entries = []
        for session, state in group:
            if not session.active:
                continue  # departed while the state was in flight
            server = session.server
            if session in decoded:
                server.record_state_received()
                dist = decoded[session]
            else:
                dist = server.decode_state(state)
            entries.append((server, dist))
        if not entries:
            return
        for server, dist in entries:
            server.apply_distribution(dist)
        self.batched_recomputes += 1
        self.sessions_recomputed += len(entries)

    def _batch_decode(self, group: list) -> dict:
        """Predictor state → distribution for a whole delivery group.

        Every stock predictor family decodes in a stacked pass —
        byte-identical per session to ``server.decode_state``:

        * **Kalman** sessions over the same layout (the common case: a
          homogeneous fleet sharing the application's layout object)
          decode through one truncated-Gaussian block-mass pass.
        * **Markov** sessions decode through
          :meth:`~repro.predictors.markov.MarkovServerPredictor.
          decode_batch` — learning side effects in group order, chain
          rows gathered once per version.
        * **Shared-chain** sessions (the SeLeP-style crowd prior) group
          by their prior so
          :meth:`~repro.predictors.shared.SharedMarkovServerPredictor.
          decode_batch` gathers each crowd row once per tick and lets
          cold sessions share distributions.

        Sessions with custom or subclassed predictors fall back to the
        per-session decode in :meth:`_apply`.
        """
        families = self._families
        kalman_groups: dict[tuple, list] = {}
        markov: list = []
        shared_groups: dict[int, list] = {}
        for session, state in group:
            if not session.active:
                continue
            family = families.get(session)
            sp = session.server.predictor_server
            if family == "kalman":
                key = (id(sp.layout), sp.truncate_sigmas, session.server.deltas_s)
                kalman_groups.setdefault(key, []).append((session, state, sp))
            elif family == "markov":
                markov.append((session, (sp, state, session.server.deltas_s)))
            elif family == "shared":
                shared_groups.setdefault(id(sp.prior), []).append(
                    (session, (sp, state, session.server.deltas_s))
                )
        out: dict = {}
        for members in kalman_groups.values():
            dists = members[0][2].decode_batch(
                [state for _s, state, _sp in members], members[0][0].server.deltas_s
            )
            self.decode_batches += 1
            for (session, _state, _sp), dist in zip(members, dists):
                out[session] = dist
        if markov:
            dists = MarkovServerPredictor.decode_batch([e for _s, e in markov])
            self.decode_batches += 1
            for (session, _e), dist in zip(markov, dists):
                out[session] = dist
        if shared_groups:
            for members in shared_groups.values():
                dists = SharedMarkovServerPredictor.decode_batch(
                    [e for _s, e in members]
                )
                self.decode_batches += 1
                for (session, _e), dist in zip(members, dists):
                    out[session] = dist
        return out
