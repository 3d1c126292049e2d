"""Per-session and fleet-aggregate metric reports.

A fleet run produces one outcome stream per session.  Every session is
measured with the same §6.1 collector as a single-user run; the fleet
view adds (a) the aggregate over the *pooled* outcome stream — tail
latency across all users, not the mean of per-user tails — and (b)
resource-sharing diagnostics: Jain's fairness index over per-session
delivered bytes and the backend's cross-session dedup rate.

Under **churn** a single run-wide aggregate is misleading: sessions
that arrive into a loaded fleet see different service than the t = 0
pioneers, and a session's first seconds (cold predictor, empty cache)
differ from its steady state.  Two churn-aware views make metrics
comparable:

* :func:`collect_cohorts` — sessions grouped into arrival-time cohorts
  (all t = 0 sessions form one cohort in the static degenerate case);
* :func:`early_hit_rate` — the cache-hit rate over a session's first
  ``k`` requests, the cold-start number a shared predictor prior is
  meant to improve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.cache_manager import RequestOutcome

from .collector import MetricSummary, collect

__all__ = [
    "FleetSummary",
    "CohortSummary",
    "collect_fleet",
    "collect_cohorts",
    "early_hit_rate",
    "jain_fairness",
    "pool_snapshots",
    "pool_transport_counters",
]


@dataclass(frozen=True)
class FleetSummary:
    """§6.1 metrics for a fleet: one summary per session plus the pool.

    ``per_session[i]`` is ``None`` for a session that registered no
    requests (it contributes nothing to the aggregate either).
    """

    aggregate: MetricSummary
    per_session: tuple[Optional[MetricSummary], ...]

    @property
    def num_sessions(self) -> int:
        return len(self.per_session)

    def rows(
        self, labels: Optional[Sequence[str]] = None, **extra_columns
    ) -> list[dict]:
        """Per-session rows plus a final ``fleet`` aggregate row.

        ``labels`` names each session row (default: its position).
        Churn fleets pass the *plan* indices here — with rejected
        arrivals, position ``i`` is not user ``i``, and rows must stay
        joinable against per-user inputs (traces, weights).
        """
        if labels is not None and len(labels) != len(self.per_session):
            raise ValueError(
                f"{len(labels)} labels for {len(self.per_session)} sessions"
            )
        out = []
        for i, summary in enumerate(self.per_session):
            if summary is None:
                continue
            label = str(i) if labels is None else str(labels[i])
            out.append({"session": label, **extra_columns, **summary.as_dict()})
        out.append({"session": "fleet", **extra_columns, **self.aggregate.as_dict()})
        return out


def collect_fleet(
    outcomes_by_session: Sequence[Sequence[RequestOutcome]],
) -> FleetSummary:
    """Aggregate one outcome stream per session into a :class:`FleetSummary`."""
    pooled = [o for outcomes in outcomes_by_session for o in outcomes]
    if not pooled:
        raise ValueError("no outcomes in any session")
    return FleetSummary(
        aggregate=collect(pooled),
        per_session=tuple(
            collect(outcomes) if outcomes else None
            for outcomes in outcomes_by_session
        ),
    )


@dataclass(frozen=True)
class CohortSummary:
    """Pooled §6.1 metrics for sessions that arrived in one time bucket."""

    cohort_start_s: float
    num_sessions: int
    summary: Optional[MetricSummary]  # None when the cohort registered nothing

    def row(self, **extra_columns) -> dict:
        out = {
            "cohort_s": self.cohort_start_s,
            "sessions": self.num_sessions,
            **extra_columns,
        }
        if self.summary is not None:
            out.update(self.summary.as_dict())
        return out


def collect_cohorts(
    outcomes_by_session: Sequence[Sequence[RequestOutcome]],
    arrival_times: Sequence[float],
    cohort_width_s: float,
) -> list[CohortSummary]:
    """Group sessions into arrival-time cohorts and pool each cohort.

    ``arrival_times[i]`` is session ``i``'s arrival instant; sessions
    arriving within the same ``cohort_width_s`` bucket pool their
    outcomes.  A static fleet (everyone at t = 0) collapses to a single
    cohort, which is exactly the plain fleet aggregate.
    """
    if len(outcomes_by_session) != len(arrival_times):
        raise ValueError(
            f"{len(outcomes_by_session)} outcome streams for "
            f"{len(arrival_times)} arrival times"
        )
    if cohort_width_s <= 0:
        raise ValueError("cohort width must be positive")
    grouped: dict[int, list] = {}
    members: dict[int, int] = {}
    for outcomes, arrived in zip(outcomes_by_session, arrival_times):
        k = int(arrived // cohort_width_s)
        grouped.setdefault(k, []).extend(outcomes)
        members[k] = members.get(k, 0) + 1
    return [
        CohortSummary(
            cohort_start_s=k * cohort_width_s,
            num_sessions=members[k],
            summary=collect(grouped[k]) if grouped[k] else None,
        )
        for k in sorted(grouped)
    ]


def early_hit_rate(outcomes: Sequence[RequestOutcome], first_k: int = 5) -> float:
    """Cache-hit rate over a session's first ``k`` registered requests.

    The cold-start number: a freshly arrived session has an empty cache
    and an untrained predictor, so its earliest requests measure how
    fast the system warms it up (and what a crowd-shared prior buys).
    Preempted requests are excluded — they were answered by moving on,
    not by the cache.
    """
    if first_k < 1:
        raise ValueError("first_k must be >= 1")
    head = sorted(outcomes, key=lambda o: o.logical_ts)[:first_k]
    considered = [o for o in head if not o.preempted]
    if not considered:
        return 0.0
    return sum(1 for o in considered if o.cache_hit) / len(considered)


def pool_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold per-shard counter snapshots into one fleet-wide snapshot.

    A sharded fleet runs one backend / schedule service / churn manager
    per worker; their ``snapshot()`` dicts pool by key:

    * numeric counters sum (``bool`` is *not* numeric here — flags must
      agree across shards and pass through);
    * keys starting with ``peak_`` take the max — per-shard peaks never
      coincide, so the largest shard's peak is the honest fleet figure;
    * nested dicts recurse; any other equal values pass through.

    With one snapshot this is the identity, which is what keeps a W=1
    sharded report bit-identical to the unsharded one.  Mismatched key
    sets or contradictory non-numeric values raise — silently dropping
    a shard's counters would fake a healthy report.
    """
    if not snapshots:
        raise ValueError("nothing to pool")
    first = snapshots[0]
    for other in snapshots[1:]:
        if set(other) != set(first):
            raise ValueError(
                f"snapshot keys differ: {sorted(first)} vs {sorted(other)}"
            )
    out: dict = {}
    for key in first:
        values = [s[key] for s in snapshots]
        if isinstance(first[key], dict):
            out[key] = pool_snapshots(values)
        elif isinstance(first[key], (int, float)) and not isinstance(first[key], bool):
            out[key] = max(values) if key.startswith("peak_") else sum(values)
        else:
            if any(v != first[key] for v in values[1:]):
                raise ValueError(f"shards disagree on {key!r}: {values}")
            out[key] = first[key]
    return out


#: The shape of a :class:`repro.fleet.transport.TransportCounters`
#: snapshot — the totals row and the no-traffic placeholder both keep
#: this shape so downstream consumers (CLI title, serve /status) never
#: branch on driver.
TRANSPORT_COUNTER_ZERO = {
    "retransmits": 0,
    "crc_rejects": 0,
    "dup_drops": 0,
    "partitions_detected": 0,
    "heartbeat_rtt_ms_max": 0.0,
}


def pool_transport_counters(snapshots) -> dict:
    """Fold per-shard transport-counter snapshots into one totals row.

    Event counters (retransmits, CRC rejects, duplicate drops,
    partitions detected) sum across links; ``heartbeat_rtt_ms_max`` is
    a worst-case latency, so the fleet figure is the max.  An empty
    input (the pipe driver has no wire, hence no counters) yields the
    all-zero shape rather than raising — "no faults possible" and "no
    faults observed" print identically.
    """
    out = dict(TRANSPORT_COUNTER_ZERO)
    for snap in snapshots:
        for key, value in snap.items():
            if key == "heartbeat_rtt_ms_max":
                out[key] = max(out[key], value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog.

    Computed over per-session throughput (bytes delivered); weighted
    fleets should divide each session's bytes by its weight first.
    """
    if not values:
        raise ValueError("fairness needs at least one value")
    total = float(sum(values))
    if total == 0.0:
        return 1.0  # nobody got anything: trivially even
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares)
