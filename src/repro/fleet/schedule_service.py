"""Fleet-coalesced prediction ticks and batched probability recompute.

In a per-session fleet, every :class:`~repro.core.predictor_manager.
PredictorManager` owns its own 150 ms periodic task, ships its state
over its uplink, and the receiving server re-materializes that
session's ``(C, m)`` probability matrix — N sim events and N
independent numpy passes per prediction interval.  At fleet scale the
event dispatch and the per-session matrix setup dominate the server's
scheduling cost (the ROADMAP's "scheduler-side scaling" item).

:class:`FleetScheduleService` coalesces all of it:

* **one tick event** polls every registered session's predictor
  manager (:meth:`~repro.core.predictor_manager.PredictorManager.poll`
  takes the snapshot and keeps the dedup and accounting semantics —
  nothing is stacked on the client side: the Kalman snapshot is scalar
  arithmetic, cheaper per session than any batch that gathers it), and
* **one apply event** per uplink latency class preempts the affected
  senders, decodes every changed session's state in one stacked pass
  per predictor family (Kalman truncated-Gaussian block masses, Markov
  chain rows, shared-chain crowd blends — see :meth:`_batch_decode`),
  computes *all* changed sessions' probability matrices in a single
  stacked blend + reverse-cumsum pass
  (:func:`batch_probability_matrices`), installs them
  (:meth:`~repro.core.greedy.GreedyScheduler.install_distribution`),
  and resumes the senders.

The batched pass is **bit-identical** to the per-scheduler
:func:`~repro.core.greedy.probability_matrices` path: it reuses the
distribution's own vectorized interpolation weights and performs the
same elementwise blend/discount/cumsum arithmetic, just stacked along
a session axis (padded to the widest explicit set; the zero padding
and the zeroed rows past each session's remaining slots drop out of
the reverse cumulative sum exactly).

``batched_decode`` governs the decode step of the apply event only
(stacked per family vs ``server.decode_state`` per session); the tick
event and the stacked matrices are the same either way.

Timing semantics vs the per-session path: states are still collected
on the prediction interval and applied one uplink latency later, so a
static fleet behaves identically.  Under churn the tick grid is
fleet-aligned (a session admitted mid-interval is first polled at the
next fleet tick) instead of phased per arrival — the one intentional
deviation, traded for O(1) events per interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.distribution import RequestDistribution
from repro.clock import Clock

if TYPE_CHECKING:  # fleet assembles sessions; import for typing only
    from repro.core.session import KhameleonSession

__all__ = ["FleetScheduleService", "batch_probability_matrices"]

#: Soft cap on the stacked blend's transient (sessions × slots × ids)
#: element count; larger groups are processed in session chunks.
_MAX_STACK_ELEMENTS = 4_000_000


def batch_probability_matrices(
    specs: Sequence[tuple[RequestDistribution, int, int, float, float]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stacked :func:`~repro.core.greedy.probability_matrices`.

    ``specs`` holds one ``(dist, cache_blocks, position, slot_duration_s,
    gamma)`` tuple per scheduler; the result list is parallel.  Sessions
    are grouped by ``(cache_blocks, num_horizons)`` (identical across a
    homogeneous fleet), padded to the group's widest explicit set, and
    blended/discounted/reverse-cumsummed in one numpy pass per group.
    """
    out: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(specs)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (dist, C, t, _slot, _gamma) in enumerate(specs):
        if C - t <= 0:
            out[i] = (np.zeros((C, len(dist.explicit_ids))), np.zeros(C))
        else:
            groups.setdefault((C, len(dist.deltas_s)), []).append(i)
    for (C, _k), indices in groups.items():
        # Explicit-set sizes are the skewed dimension (a cold session
        # may track 0 ids while a hot one tracks hundreds); the stack
        # pads to the chunk maximum, so sort by m and cut a new chunk
        # when the padding waste would exceed 2x (or the element budget
        # is hit).
        indices.sort(
            key=lambda i: (len(specs[i][0].explicit_ids), specs[i][1] - specs[i][2]),
            reverse=True,
        )
        start = 0
        while start < len(indices):
            m_top = max(1, len(specs[indices[start]][0].explicit_ids))
            budget = max(1, _MAX_STACK_ELEMENTS // (C * m_top))
            end = start + 1
            while (
                end < len(indices)
                and end - start < budget
                and 2 * max(1, len(specs[indices[end]][0].explicit_ids)) >= m_top
            ):
                end += 1
            _stacked_pass(specs, indices[start:end], out)
            start = end
    return out  # type: ignore[return-value]


def _stacked_pass(
    specs: Sequence[tuple[RequestDistribution, int, int, float, float]],
    indices: list[int],
    out: list,
) -> None:
    """One ``(session, explicit-id, slot)`` stack: fill, discount, cumsum.

    Layout is ``(S, m, rows)`` so the reverse cumulative sum runs along
    the contiguous last axis.  Slots clamped outside a distribution's
    horizon range are constant rows (exact copies of the edge horizon —
    the same values :meth:`RequestDistribution.explicit_at` returns
    there), so only the interior slots pay the interpolation blend; the
    cumsum accumulates per ``(session, id)`` lane in the same order as
    the per-scheduler path, keeping results bit-identical.
    """
    S = len(indices)
    ms = [len(specs[i][0].explicit_ids) for i in indices]
    rems = [specs[i][1] - specs[i][2] for i in indices]
    m_max = max(ms)
    rows_max = max(rems)
    blended = np.zeros((S, m_max, rows_max))
    res = np.zeros((S, rows_max))
    for s, i in enumerate(indices):
        dist, C, t, slot, gamma = specs[i]
        m, rem = ms[s], rems[s]
        offsets = np.arange(1, rem + 1) * slot
        probs = dist.explicit_probs
        residual = dist.residual
        # Offsets are increasing, so the clamped slots form a head
        # (before the first horizon) and a tail (past the last).
        head, tail = dist.clamp_split(offsets)
        lane = blended[s, :m, :rem]
        if m:
            lane[:, :head] = probs[0][:, None]
            lane[:, tail:] = probs[-1][:, None]
        res[s, :head] = residual[0]
        res[s, tail:rem] = residual[-1]
        if tail > head:
            lo, hi, w = dist.interp_weights_vec(offsets[head:tail])
            if m:
                wc = w[:, None]
                lane[:, head:tail] = ((1 - wc) * probs[lo] + wc * probs[hi]).T
            res[s, head:tail] = (1 - w) * residual[lo] + w * residual[hi]
        if gamma < 1.0:
            discount = gamma ** np.arange(t, C)
            if m:
                lane *= discount[None, :]
            res[s, :rem] *= discount
    rev_probs = np.cumsum(blended[:, :, ::-1], axis=2)[:, :, ::-1]
    rev_res = np.cumsum(res[:, ::-1], axis=1)[:, ::-1]
    for s, i in enumerate(indices):
        _dist, C, t, _slot, _gamma = specs[i]
        rem = rems[s]
        pmat = np.zeros((C, ms[s]))
        pres = np.zeros(C)
        pmat[t:] = rev_probs[s, : ms[s], :rem].T
        pres[t:] = rev_res[s, :rem]
        out[i] = (pmat, pres)


class FleetScheduleService:
    """One prediction tick for a whole fleet (see module docstring).

    Sessions register at :meth:`~repro.core.session.KhameleonSession.
    start` and unregister at ``stop``; the service only ever touches
    ``session.active`` members.  The periodic task is armed at
    construction (matching a per-session manager's behaviour of ticking
    from creation) and cancelled by :meth:`stop`.
    """

    def __init__(
        self,
        sim: Clock,
        interval_s: float = 0.150,
        batched_decode: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_s = interval_s
        self.batched_decode = batched_decode
        self._sessions: list["KhameleonSession"] = []
        # session -> decode family, "kalman" | "markov" | "shared" |
        # None, classified once at registration (exact types only — a
        # subclass may override decode(), and the stacked passes would
        # silently bypass that) so the per-tick loops do no type scans.
        self._families: dict["KhameleonSession", Optional[str]] = {}
        self._task = sim.every(interval_s, self._tick)
        self.ticks = 0
        self.states_collected = 0
        self.batched_recomputes = 0
        self.sessions_recomputed = 0
        self.decode_batches = 0

    # -- membership ----------------------------------------------------

    @staticmethod
    def _classify(session: "KhameleonSession") -> Optional[str]:
        """Which stacked decode pass (if any) serves a session."""
        from repro.predictors.kalman import KalmanServerPredictor
        from repro.predictors.markov import MarkovServerPredictor
        from repro.predictors.shared import SharedMarkovServerPredictor

        sp = session.server.predictor_server
        if type(sp) is KalmanServerPredictor:
            return "kalman"
        if type(sp) is MarkovServerPredictor:
            return "markov"
        if type(sp) is SharedMarkovServerPredictor:
            return "shared"
        return None

    def register(self, session: "KhameleonSession") -> None:
        if session not in self._sessions:
            self._sessions.append(session)
            self._families[session] = self._classify(session)

    def unregister(self, session: "KhameleonSession") -> None:
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
            "batched_decode": self.batched_decode,
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
        """Server side of the batch: decode, preempt, recompute, resume.

        Mirrors the per-session ``on_predictor_state`` → ``refresh``
        sequence, but defers every scheduler's probability recompute
        into one stacked pass at the post-preemption positions (the
        per-session path computes matrices twice — once on update, once
        on the rollback — and only the second survives; the batch
        computes exactly that surviving one).
        """
        decoded = self._batch_decode(group) if self.batched_decode else {}
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
            entries.append((session, dist, server.slot_duration_s))
        if not entries:
            return
        for session, _dist, _slot in entries:
            blocks = session.sender.take_pipeline()
            if blocks:
                session.scheduler.rollback(blocks, recompute=False)
        specs = [
            (dist, session.scheduler.C, session.scheduler.position, slot,
             session.scheduler.gamma)
            for session, dist, slot in entries
        ]
        matrices = batch_probability_matrices(specs)
        for (session, dist, slot), (pmat, pres) in zip(entries, matrices):
            session.scheduler.install_distribution(dist, slot, pmat, pres)
            session.sender.resume()
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
            from repro.predictors.markov import MarkovServerPredictor

            dists = MarkovServerPredictor.decode_batch([e for _s, e in markov])
            self.decode_batches += 1
            for (session, _e), dist in zip(markov, dists):
                out[session] = dist
        if shared_groups:
            from repro.predictors.shared import SharedMarkovServerPredictor

            for members in shared_groups.values():
                dists = SharedMarkovServerPredictor.decode_batch(
                    [e for _s, e in members]
                )
                self.decode_batches += 1
                for (session, _e), dist in zip(members, dists):
                    out[session] = dist
        return out
