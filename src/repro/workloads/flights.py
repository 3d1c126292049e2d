"""Synthetic flights dataset for the Falcon experiments (§6.4).

The paper builds two databases from the Falcon flights dataset: *Small*
(1M records) and *Big* (7M records).  The original corpus (US domestic
flight performance) is not bundled here, so this module generates a
statistically plausible substitute with the same schema and the
correlations that make Falcon's linked views interesting:

* ``distance``  — trip distance in miles, log-normal-ish mixture of
  short-haul and long-haul;
* ``air_time``  — minutes in the air, linear in distance plus noise;
* ``dep_delay`` — departure delay in minutes, heavy-tailed with a
  point mass near zero;
* ``arr_delay`` — arrival delay, departure delay plus en-route noise
  (flights recover a little on average);
* ``dep_time``  — scheduled departure hour-of-day with morning/evening
  banks;
* ``day``       — day-of-year, near-uniform with seasonal ripple.

The histogram *queries* over this table are computed exactly by
:class:`repro.backends.database.ColumnTable`; only the latencies are
simulated (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.database import ColumnTable, HistogramQuery, RangeFilter

__all__ = ["ChartSpec", "FLIGHT_CHARTS", "FlightsDataset"]


@dataclass(frozen=True)
class ChartSpec:
    """One Falcon view: a binned 1-D histogram over a column."""

    name: str
    column: str
    bins: int
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.domain[1] <= self.domain[0]:
            raise ValueError("empty domain")

    def query(self, filters: tuple[RangeFilter, ...] = ()) -> HistogramQuery:
        """The chart's histogram query under a set of range filters."""
        return HistogramQuery(
            column=self.column, bins=self.bins, domain=self.domain, filters=filters
        )

    def middle_filter(self, fraction: float = 0.5) -> RangeFilter:
        """A centered range selection covering ``fraction`` of the domain."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        lo, hi = self.domain
        span = (hi - lo) * fraction
        mid = (lo + hi) / 2.0
        return RangeFilter(self.column, mid - span / 2.0, mid + span / 2.0)


#: Falcon's six linked views over the flights table (Fig. 1b).
FLIGHT_CHARTS: tuple[ChartSpec, ...] = (
    ChartSpec("Distance", "distance", bins=25, domain=(0.0, 4000.0)),
    ChartSpec("Departure Delay", "dep_delay", bins=25, domain=(-20.0, 160.0)),
    ChartSpec("Arrival Delay", "arr_delay", bins=25, domain=(-60.0, 180.0)),
    ChartSpec("Air Time", "air_time", bins=25, domain=(0.0, 500.0)),
    ChartSpec("Departure Hour", "dep_time", bins=24, domain=(0.0, 24.0)),
    ChartSpec("Day of Year", "day", bins=25, domain=(0.0, 365.0)),
)


class FlightsDataset:
    """Deterministic generator for the synthetic flights table.

    The paper's scales are ``small`` (1M rows) and ``big`` (7M); the
    benchmark harness uses row counts reduced by a constant factor —
    latency is simulated from the paper's measurements either way, so
    only in-process histogram cost changes (the scales run are in
    ``benchmarks/results/fig14_falcon.txt``).
    """

    SMALL_ROWS = 1_000_000
    BIG_ROWS = 7_000_000

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed

    def generate(self, num_rows: int) -> ColumnTable:
        """Materialize ``num_rows`` synthetic flights."""
        if num_rows < 1:
            raise ValueError("need at least one row")
        rng = np.random.default_rng(self.seed)

        # Distance: mixture of short-haul (~400 mi) and long-haul (~1800 mi).
        long_haul = rng.random(num_rows) < 0.25
        distance = np.where(
            long_haul,
            rng.normal(1800.0, 600.0, num_rows),
            rng.gamma(shape=2.2, scale=220.0, size=num_rows),
        )
        distance = np.clip(distance, 50.0, 4500.0)

        # Air time: cruise ≈ 7.5 miles/minute plus taxi/climb overhead.
        air_time = distance / 7.5 + 18.0 + rng.normal(0.0, 9.0, num_rows)
        air_time = np.clip(air_time, 15.0, 600.0)

        # Departure delay: 60% effectively on time, heavy right tail.
        on_time = rng.random(num_rows) < 0.6
        dep_delay = np.where(
            on_time,
            rng.normal(-2.0, 4.0, num_rows),
            rng.exponential(28.0, num_rows) + 5.0,
        )
        dep_delay = np.clip(dep_delay, -25.0, 600.0)

        # Arrival delay: departure delay minus slight en-route recovery.
        arr_delay = dep_delay - 4.0 + rng.normal(0.0, 11.0, num_rows)
        arr_delay = np.clip(arr_delay, -70.0, 650.0)

        # Departure hour: morning (8h) and evening (17h) banks.
        bank = rng.random(num_rows)
        dep_time = np.where(
            bank < 0.45,
            rng.normal(8.0, 2.0, num_rows),
            np.where(
                bank < 0.85,
                rng.normal(17.0, 2.5, num_rows),
                rng.uniform(0.0, 24.0, num_rows),
            ),
        )
        dep_time = np.mod(dep_time, 24.0)

        # Day of year: uniform with a mild summer peak.
        day = rng.uniform(0.0, 365.0, num_rows)
        summer = rng.random(num_rows) < 0.15
        day = np.where(summer, rng.normal(200.0, 30.0, num_rows) % 365.0, day)

        return ColumnTable(
            {
                "distance": distance,
                "air_time": air_time,
                "dep_delay": dep_delay,
                "arr_delay": arr_delay,
                "dep_time": dep_time,
                "day": day,
            }
        )

    def small(self, scale: float = 1.0) -> ColumnTable:
        """The 1M-row database, optionally scaled down for CI."""
        return self.generate(max(1, int(self.SMALL_ROWS * scale)))

    def big(self, scale: float = 1.0) -> ColumnTable:
        """The 7M-row database, optionally scaled down for CI."""
        return self.generate(max(1, int(self.BIG_ROWS * scale)))
