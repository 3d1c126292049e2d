"""Experiment drivers: one function per paper figure (§6, Appendix).

* :mod:`repro.experiments.configs` — the §6.1 environment grid
  (bandwidth, cache, request latency, cellular traces) and the
  low/medium/high resource settings of §6.2.
* :mod:`repro.experiments.runner` — end-to-end drivers that wire an
  application + trace + environment into a Khameleon session or a
  baseline session, replay the trace, and collect metrics.
* :mod:`repro.experiments.sharded` / :mod:`repro.experiments.shard_worker`
  — the coordinator and worker halves of the runner's sharded fleet.
* :mod:`repro.experiments.figures` — per-figure sweeps returning the
  rows each figure plots; the benchmark harness prints them.
"""

from .configs import (
    DEFAULT_ENV,
    DEFAULT_FLEET,
    HIGH_RESOURCE,
    LOW_RESOURCE,
    MED_RESOURCE,
    EnvironmentConfig,
    FleetEnvironment,
)
from .runner import (
    FleetRunResult,
    RunResult,
    run_classic,
    run_convergence,
    run_falcon,
    run_fleet,
    run_khameleon,
)

__all__ = [
    "EnvironmentConfig",
    "FleetEnvironment",
    "DEFAULT_ENV",
    "DEFAULT_FLEET",
    "LOW_RESOURCE",
    "MED_RESOURCE",
    "HIGH_RESOURCE",
    "RunResult",
    "FleetRunResult",
    "run_khameleon",
    "run_classic",
    "run_falcon",
    "run_fleet",
    "run_convergence",
]
