"""Kalman-filter mouse predictor (§4, [77]).

The paper's custom predictor for static layouts: a *naive Kalman
filter* tracks the mouse with a constant-velocity model on the client;
the shipped state is, per horizon Δ ∈ {50, 150, 250, 500 ms}, the
predicted position centroid plus a 2×2 position covariance — six
floats per horizon.  The server decodes each Gaussian into a request
distribution through the layout's bounding boxes; the longest horizon
is treated as uniform (the paper: "the 500 ms values follow a uniform
distribution"), because half a second of mouse inertia predicts very
little.

The filter is *anytime*: prediction to an arbitrary future time is a
closed-form extrapolation that doesn't mutate filter state.

It is also *cheap*, as a predictor that runs on every mouse sample
must be: the model's structure (see :class:`ConstantVelocityKalman`)
reduces the 4×4 matrix recursion to seven floats and a few dozen
scalar operations, with no numpy call per sample and none per shipped
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.distribution import RequestDistribution

from .base import ClientPredictor, MouseEvent, Predictor, ServerPredictor, DEFAULT_DELTAS_S
from .layout import ChartLayout, GridLayout

__all__ = [
    "ConstantVelocityKalman",
    "KalmanClientPredictor",
    "KalmanServerPredictor",
    "KalmanState",
    "make_kalman_predictor",
]

Layout = Union[GridLayout, ChartLayout]


@dataclass(frozen=True)
class KalmanState:
    """Wire state: per-horizon predicted centroid and position stddevs.

    ``means[j]`` is the (x, y) centroid at horizon j; ``stds[j]`` the
    per-axis standard deviations (the paper ships the full 2×2
    covariance; the layouts integrate axis-aligned boxes, so the
    diagonal is what they consume — 6 floats per horizon either way).
    ``uniform[j]`` marks horizons the client declares uninformative.
    """

    means: tuple[tuple[float, float], ...]
    stds: tuple[tuple[float, float], ...]
    uniform: tuple[bool, ...]

    @property
    def size_bytes(self) -> int:
        # 6 floats per horizon, 4 bytes each (f32 on the wire).
        return len(self.means) * 6 * 4


class ConstantVelocityKalman:
    """2-D constant-velocity Kalman filter over mouse samples.

    State vector ``[x, y, vx, vy]``; observations are positions.
    ``process_noise`` is the white-acceleration intensity (px/s²),
    ``measurement_noise`` the per-axis observation stddev (px).

    **Why three covariance numbers suffice.**  Order the state as
    ``(x, vx | y, vy)``.  The transition ``F(dt)`` moves each position
    by ``dt`` times *its own* velocity, the process noise ``Q(dt)`` is
    the same 2×2 white-acceleration block on each axis, ``H`` reads the
    two positions, ``R = r² I`` and the initial ``P`` is
    ``diag(position_var, velocity_var)`` on each axis.  Every one of
    those is block-diagonal with two *equal* 2×2 blocks, and predict
    (``F P Fᵀ + Q``) and update (``(I − K H) P`` with
    ``K = P Hᵀ (H P Hᵀ + R)⁻¹``) keep it so: the axes never couple and
    their blocks stay equal, because the covariance recursion never
    sees a measurement.  The whole 4×4 ``P`` is therefore one symmetric
    block ``[[p_pp, p_pv], [p_pv, p_vv]]`` — three floats — and the
    filter is those plus the four state floats.

    **One sample** (:meth:`observe`), per axis, with ``q² = q·q``:

    * predict over ``dt``: ``x += dt·vx`` and, writing
      ``a = p_pv + dt·p_vv`` (the off-diagonal of ``F P``),
      ``p_pp ← (p_pp + dt·p_pv) + dt·a + q²·dt⁴/4``,
      ``p_pv ← a + q²·dt³/2``, ``p_vv ← p_vv + q²·dt²``;
    * update with innovation ``e = z − x``: the innovation covariance
      ``S = H P Hᵀ + R`` is ``s·I`` with ``s = p_pp + r²``, so the gain
      is ``k_p = p_pp / s``, ``k_v = p_pv / s`` (computed as one
      reciprocal and two products, the way ``P Hᵀ S⁻¹`` rounds in the
      matrix form); the state moves by ``x += k_p·e``, ``vx += k_v·e``,
      and ``(I − K H) P`` reads ``p_pp ← (1 − k_p)·p_pp``,
      ``p_vv ← p_vv − k_v·p_pv``, with the off-diagonal coming out
      twice — ``(1 − k_p)·p_pv`` from the position row and
      ``p_pv − k_v·p_pp`` from the velocity row;
    * symmetrize: the two are equal in exact arithmetic (both are
      ``p_pv − p_pp·p_pv / s``) and differ by rounding, so their mean
      is stored — what ``½ (P + Pᵀ)`` does in the matrix form, which
      keeps the recursion from drifting off the symmetric PSD cone.

    The matrix form lives on as the oracle in
    ``tests/test_predictors_kalman.py``.
    """

    __slots__ = (
        "q",
        "r",
        "_last_t",
        "_x",
        "_y",
        "_vx",
        "_vy",
        "_pp",
        "_pv",
        "_vv",
    )

    def __init__(
        self,
        process_noise: float = 800.0,
        measurement_noise: float = 2.0,
        initial_position_var: float = 1e4,
        initial_velocity_var: float = 1e6,
    ) -> None:
        self.q = process_noise
        self.r = measurement_noise
        self._last_t: Optional[float] = None
        self._x = self._y = self._vx = self._vy = 0.0
        self._pp = float(initial_position_var)
        self._pv = 0.0
        self._vv = float(initial_velocity_var)

    @property
    def initialized(self) -> bool:
        return self._last_t is not None

    def observe(self, time_s: float, x: float, y: float) -> None:
        """Fold one position sample into the filter."""
        if self._last_t is None:
            # Anchored on the sample, under the initial covariance: the
            # update below collapses the position uncertainty.
            px, py, vx, vy = float(x), float(y), 0.0, 0.0
            pp, pv, vv = self._pp, self._pv, self._vv
        else:
            px, py, vx, vy, pp, pv, vv = self._extrapolate(time_s)
        self._last_t = time_s
        inv_s = 1.0 / (pp + self.r * self.r)
        k_p = pp * inv_s
        k_v = pv * inv_s
        ex = x - px
        ey = y - py
        self._x = px + k_p * ex
        self._y = py + k_p * ey
        self._vx = vx + k_v * ex
        self._vy = vy + k_v * ey
        self._pp = (1.0 - k_p) * pp
        self._pv = 0.5 * ((1.0 - k_p) * pv + (pv - k_v * pp))
        self._vv = vv - k_v * pv

    def _extrapolate(self, time_s: float) -> tuple[float, ...]:
        """``(x, y, vx, vy, p_pp, p_pv, p_vv)`` at absolute ``time_s`` (pure).

        The predict step; at or before the last sample (``dt = 0``)
        every term it adds is zero and it returns the filter's own
        state.
        """
        last_t = self._last_t
        if last_t is None:
            raise RuntimeError("filter has no observations yet")
        dt = max(0.0, time_s - last_t)
        q2 = self.q * self.q
        vx, vy, pv, vv = self._vx, self._vy, self._pv, self._vv
        a = pv + dt * vv
        return (
            self._x + dt * vx,
            self._y + dt * vy,
            vx,
            vy,
            (self._pp + dt * pv) + dt * a + dt**4 / 4.0 * q2,
            a + dt**3 / 2.0 * q2,
            vv + dt**2 * q2,
        )

    def predict_at(self, time_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (mean, covariance) at absolute ``time_s`` (pure).

        ``mean`` is ``[x, y, vx, vy]`` and ``covariance`` the 4×4 in
        that order: the shared per-axis block laid out twice, cross-axis
        terms exactly zero.
        """
        x, y, vx, vy, pp, pv, vv = self._extrapolate(time_s)
        cov = np.zeros((4, 4))
        cov[0, 0] = cov[1, 1] = pp
        cov[0, 2] = cov[2, 0] = cov[1, 3] = cov[3, 1] = pv
        cov[2, 2] = cov[3, 3] = vv
        return np.array([x, y, vx, vy]), cov


class KalmanClientPredictor(ClientPredictor):
    """Client half: runs the filter, emits :class:`KalmanState`.

    ``uniform_after_s`` marks horizons at or beyond that offset as
    uniform (paper default: the 500 ms horizon).  ``filter_factory`` is
    an extension point: any object with ``observe`` / ``predict_at`` /
    ``initialized`` works, subclasses of :class:`ConstantVelocityKalman`
    included.
    """

    def __init__(
        self,
        deltas_s: Sequence[float] = DEFAULT_DELTAS_S,
        uniform_after_s: float = 0.5,
        filter_factory=ConstantVelocityKalman,
    ) -> None:
        self.deltas_s = tuple(deltas_s)
        self.uniform_after_s = uniform_after_s
        self.filter = filter_factory()

    def observe_event(self, time_s: float, event: Any) -> None:
        if isinstance(event, MouseEvent):
            self.filter.observe(time_s, event.x, event.y)

    def state(self, time_s: float) -> Optional[KalmanState]:
        """Per-horizon Gaussians; None before any mouse sample."""
        f = self.filter
        if not f.initialized:
            return None
        means, stds = [], []
        # Exact type check: a subclass may override the dynamics, and
        # reading the stock filter's scalars would silently bypass that.
        if type(f) is ConstantVelocityKalman:
            for delta in self.deltas_s:
                x, y, _vx, _vy, pp, _pv, _vv = f._extrapolate(time_s + delta)
                std = math.sqrt(max(pp, 0.0))
                means.append((x, y))
                stds.append((std, std))
        else:
            for delta in self.deltas_s:
                mean, cov = f.predict_at(time_s + delta)
                means.append((float(mean[0]), float(mean[1])))
                stds.append(
                    (math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0)))
                )
        uniform = tuple(delta >= self.uniform_after_s for delta in self.deltas_s)
        return KalmanState(tuple(means), tuple(stds), uniform)

    def state_size_bytes(self, state: Any) -> int:
        return state.size_bytes if isinstance(state, KalmanState) else 1


class KalmanServerPredictor(ServerPredictor):
    """Server half: Gaussian state → request distribution via the layout."""

    def __init__(self, layout: Layout, truncate_sigmas: float = 3.0) -> None:
        self.layout = layout
        self.truncate_sigmas = truncate_sigmas

    def decode(
        self, state: Optional[KalmanState], deltas_s: Sequence[float]
    ) -> RequestDistribution:
        if state is None:
            return RequestDistribution.uniform(self.layout.num_requests, deltas_s)
        if isinstance(self.layout, GridLayout):
            return self.layout.gaussian_distribution(
                state.means,
                state.stds,
                deltas_s,
                truncate_sigmas=self.truncate_sigmas,
                uniform_rows=state.uniform,
            )
        return self.layout.gaussian_distribution(
            state.means, state.stds, deltas_s, uniform_rows=state.uniform
        )

    def decode_batch(
        self, states: Sequence[Optional[KalmanState]], deltas_s: Sequence[float]
    ) -> list[RequestDistribution]:
        """:meth:`decode` for many states in one truncated-Gaussian pass.

        Grid layouts stack every state's block-mass integration into a
        single :meth:`GridLayout.gaussian_distribution_batch` call —
        byte-identical per state to :meth:`decode`, which is what lets
        the fleet service swap per-session decodes for this without
        changing any schedule.  ``None`` states decode to uniform, and
        chart layouts (a handful of widgets) just loop.
        """
        out: list[Optional[RequestDistribution]] = [None] * len(states)
        if isinstance(self.layout, GridLayout):
            live = [(i, s) for i, s in enumerate(states) if s is not None]
            if live:
                dists = self.layout.gaussian_distribution_batch(
                    [(s.means, s.stds, s.uniform) for _i, s in live],
                    deltas_s,
                    truncate_sigmas=self.truncate_sigmas,
                )
                for (i, _s), dist in zip(live, dists):
                    out[i] = dist
            for i, s in enumerate(states):
                if s is None:
                    out[i] = RequestDistribution.uniform(
                        self.layout.num_requests, deltas_s
                    )
            return out  # type: ignore[return-value]
        return [self.decode(s, deltas_s) for s in states]


def make_kalman_predictor(
    layout: Layout,
    deltas_s: Sequence[float] = DEFAULT_DELTAS_S,
    process_noise: float = 800.0,
    measurement_noise: float = 2.0,
) -> Predictor:
    """The paper's experiment predictor: Kalman client + layout decoder."""
    client = KalmanClientPredictor(
        deltas_s=deltas_s,
        filter_factory=lambda: ConstantVelocityKalman(
            process_noise=process_noise, measurement_noise=measurement_noise
        ),
    )
    return Predictor(
        name="kalman",
        client=client,
        server=KalmanServerPredictor(layout),
        deltas_s=tuple(deltas_s),
    )
