"""Khameleon core: the paper's primary contribution.

Progressive blocks and caches (§3.3), the scheduling problem with its
greedy (§5.3) solver, the paced sender (§5.3.2) and §5.4 throttle, and
the client/server assemblies (§3.2).  The offline ILP reference (§5.2)
is :mod:`repro.core.ilp`, imported on its own so the serving path never
loads the LP solver.
"""

from .blocks import Block, BlockSequence, ProgressiveResponse
from .cache import LRUCache, RingBufferCache
from .cache_manager import CacheManager, RequestOutcome, Upcall
from .client import KhameleonClient
from .distribution import RequestDistribution
from .greedy import GreedyScheduler
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
    "Sender",
    "KhameleonServer",
    "KhameleonClient",
    "KhameleonSession",
    "SessionConfig",
    "PredictorManager",
]
