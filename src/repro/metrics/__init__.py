"""Measurement: the paper's performance metrics (§6.1).

For preemptive interactions the paper reports, per condition:

* **% preempted** — requests dropped because a later request was
  answered first;
* **% cache hits** — non-preempted requests with ≥ 1 block cached at
  registration time;
* **response latency** — registration → first upcall, for served
  requests;
* **response utility** — the utility of the block prefix at upcall
  time;
* **convergence** — how quickly utility reaches 1 after the user
  pauses (Fig. 10);
* **overpush rate** — fraction of pushed data never used by an upcall
  (Fig. 19 / §B.2).
"""

from .collector import MetricSummary, collect, convergence_curve, overpush_rate
from .fleet import (
    CohortSummary,
    FleetSummary,
    collect_cohorts,
    collect_fleet,
    early_hit_rate,
    jain_fairness,
)
from .report import format_table

__all__ = [
    "MetricSummary",
    "collect",
    "FleetSummary",
    "CohortSummary",
    "collect_fleet",
    "collect_cohorts",
    "early_hit_rate",
    "jain_fairness",
    "convergence_curve",
    "overpush_rate",
    "format_table",
]
