"""Predictors behind the §4 client/server decomposition API.

Construction helpers return ready-to-register :class:`~repro.predictors.base.Predictor`
pairs:

- :func:`~repro.predictors.kalman.make_kalman_predictor` — the paper's
  experiment predictor (constant-velocity Kalman filter + layout).
- :func:`~repro.predictors.oracle.make_oracle_predictor` — perfect
  foresight from the trace (upper bound).
- :func:`~repro.predictors.simple.make_point_predictor` /
  :func:`~repro.predictors.simple.make_uniform_predictor` /
  :func:`~repro.predictors.simple.make_hover_predictor` — degenerate
  policies (§3.4, Fig. 12, Falcon's OnHover).
- :func:`~repro.predictors.markov.make_markov_predictor` — first-order
  request chain for click-based interfaces.
- :func:`~repro.predictors.shared.make_shared_markov_predictor` — the
  fleet deployment of the chain: a per-session model blended with a
  crowd-warmed :class:`~repro.predictors.shared.SharedTransitionPrior`
  so cold arrivals start from the fleet's aggregate structure.
"""

from .base import DEFAULT_DELTAS_S, ClientPredictor, MouseEvent, Predictor, ServerPredictor
from .kalman import (
    ConstantVelocityKalman,
    KalmanClientPredictor,
    KalmanServerPredictor,
    KalmanState,
    make_kalman_predictor,
)
from .layout import BoundingBox, ChartLayout, GridLayout
from .markov import MarkovModel, make_markov_predictor
from .oracle import make_oracle_predictor
from .shared import SharedTransitionPrior, make_shared_markov_predictor
from .simple import (
    HoverClientPredictor,
    make_hover_predictor,
    make_point_predictor,
    make_uniform_predictor,
)

__all__ = [
    "DEFAULT_DELTAS_S",
    "ClientPredictor",
    "ServerPredictor",
    "Predictor",
    "MouseEvent",
    "BoundingBox",
    "GridLayout",
    "ChartLayout",
    "ConstantVelocityKalman",
    "KalmanClientPredictor",
    "KalmanServerPredictor",
    "KalmanState",
    "make_kalman_predictor",
    "make_oracle_predictor",
    "make_point_predictor",
    "make_uniform_predictor",
    "make_hover_predictor",
    "HoverClientPredictor",
    "MarkovModel",
    "make_markov_predictor",
    "SharedTransitionPrior",
    "make_shared_markov_predictor",
]
