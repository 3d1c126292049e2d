"""Khameleon core: the paper's primary contribution.

Progressive blocks and caches (§3.3), the scheduling problem with its
greedy (§5.3) and ILP (§5.2) solvers, the paced sender (§5.3.2), and
the client/server assemblies (§3.2).
"""

from .blocks import Block, BlockSequence, ProgressiveResponse, RequestSpace
from .cache import LRUCache, RingBufferCache
from .cache_manager import CacheManager, RequestOutcome, Upcall
from .client import KhameleonClient
from .distribution import RequestDistribution
from .greedy import GreedyScheduler
from .ilp import ILPScheduler, ILPSolution
from .qlearning import QLearningConfig, QLearningScheduler
from .semantics import PredictionArrival, ReferenceScheduler
from .predictor_manager import PredictorManager
from .scheduler import GainTable, ScheduledBlock, Scheduler, expected_utility
from .sender import Sender
from .server import KhameleonServer
from .session import KhameleonSession, SessionConfig
from .utility import (
    LinearUtility,
    PiecewiseUtility,
    PowerUtility,
    UtilityFunction,
    ssim_image_utility,
)

__all__ = [
    "Block",
    "BlockSequence",
    "ProgressiveResponse",
    "RequestSpace",
    "RingBufferCache",
    "LRUCache",
    "CacheManager",
    "RequestOutcome",
    "Upcall",
    "RequestDistribution",
    "UtilityFunction",
    "LinearUtility",
    "PowerUtility",
    "PiecewiseUtility",
    "ssim_image_utility",
    "GainTable",
    "ScheduledBlock",
    "Scheduler",
    "expected_utility",
    "GreedyScheduler",
    "ILPScheduler",
    "ILPSolution",
    "QLearningScheduler",
    "QLearningConfig",
    "ReferenceScheduler",
    "PredictionArrival",
    "Sender",
    "KhameleonServer",
    "KhameleonClient",
    "KhameleonSession",
    "SessionConfig",
    "PredictorManager",
]
