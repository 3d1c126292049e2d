"""Multi-tenant fleet serving: Khameleon sessions over shared
backend and downlink resources, under static or churning populations.

:mod:`repro.fleet.fleet` assembles the shared substrate — one backend
(cross-session fetch dedup, one shared §5.4 speculation budget) and
one weighted fair-shared downlink — and builds an independent
Khameleon stack per session.  :mod:`repro.fleet.lifecycle`
turns that static assembly into a *serving layer*: a
:class:`SessionManager` drives an open-loop arrival/departure process
(Poisson arrivals, lognormal dwell times, admission control when the
fleet is oversubscribed), with sessions acquiring their fair-share
port and metrics collector at arrival and releasing them at
departure.  The closed N-session fleet is exactly the
degenerate :class:`ArrivalConfig`: all arrivals at t = 0, no
departures.

Cold arrivals need not start ignorant: pair the fleet with a
:class:`repro.predictors.shared.SharedTransitionPrior` so each new
session's predictor is warmed by the crowd's aggregate transition
structure (see ``examples/fleet_serving.py``).

:mod:`repro.fleet.schedule_service` keeps the fleet's scheduling cost
sublinear in N: a :class:`FleetScheduleService` coalesces every
session's 150 ms prediction tick into one sim event and decodes all
changed predictor states in one stacked pass per predictor family
(bit-identical to the per-session path for static fleets).
"""

from .checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    FleetCheckpoint,
    SessionCheckpoint,
    ShardCheckpoint,
)
from .fleet import FleetConfig, KhameleonFleet
from .lifecycle import ArrivalConfig, SessionManager, SessionPlan, SessionRecord
from .ring import HashRing
from .schedule_service import FleetScheduleService
from .sharding import (
    ShardChannel,
    ShardError,
    ShardRecovery,
    ShardTask,
    SupervisionPolicy,
    assign_shards,
    run_sharded,
    shard_of,
)
from .transport import (
    FrameDecoder,
    FramedEndpoint,
    PipeTransport,
    TcpTransport,
    TransportCounters,
    TransportError,
)

__all__ = [
    "CheckpointConfig",
    "CheckpointStore",
    "FleetCheckpoint",
    "SessionCheckpoint",
    "ShardCheckpoint",
    "FleetConfig",
    "KhameleonFleet",
    "ArrivalConfig",
    "SessionManager",
    "SessionPlan",
    "SessionRecord",
    "FleetScheduleService",
    "ShardChannel",
    "ShardError",
    "ShardRecovery",
    "ShardTask",
    "SupervisionPolicy",
    "assign_shards",
    "run_sharded",
    "shard_of",
    "HashRing",
    "FrameDecoder",
    "FramedEndpoint",
    "PipeTransport",
    "TcpTransport",
    "TransportCounters",
    "TransportError",
]
