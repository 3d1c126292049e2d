"""The Falcon visualization application, ported to Khameleon (§6.4).

Falcon renders six linked histograms; hovering a chart makes Falcon
issue five SQL queries (one data slice per *other* chart) so that
subsequent brushing in the hovered chart updates the others
instantaneously.  The paper calls this five-query group **a single
request**: the request universe is the set of views, the hovered view
is the request id.

This module provides

* :class:`FalconApp` — layout, chart specs, per-request query
  generation, selection state, and factories for the two backends the
  paper compares (PostgreSQL-like with a 15-query concurrency limit vs
  the "ScalableSQL" simulation);
* :class:`FalconBackend` — a Khameleon backend that executes the five
  histogram queries (for real, over the synthetic flights table),
  combines the result rows, and row-sample-encodes them into the
  configured number of blocks per response (Fig. 14's x-axis);
* :class:`FalconTraceGenerator` — hover/brush sessions over the chart
  row, calibrated to the long-think-time CDF of Fig. 5.

Fidelity note (DESIGN.md §6): like the paper's own port, selections on
non-hovered charts are fixed while the user interacts with one chart;
the replayed traces fix them per session.  Changing a selection at
runtime invalidates the backend's response cache
(:meth:`FalconApp.set_selection` → :meth:`FalconBackend.invalidate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from repro.backends.base import Backend
from repro.backends.database import (
    ColumnTable,
    HistogramQuery,
    RangeFilter,
    SimulatedSQLDatabase,
)
from repro.backends.scalable import ScalableSQLDatabase
from repro.core.blocks import ProgressiveResponse
from repro.core.utility import LinearUtility, UtilityFunction
from repro.encoding.rowsample import RowSampleEncoder
from repro.predictors.base import DEFAULT_DELTAS_S, Predictor
from repro.predictors.kalman import make_kalman_predictor
from repro.predictors.layout import BoundingBox, ChartLayout
from repro.predictors.oracle import make_oracle_predictor
from repro.predictors.simple import make_hover_predictor, make_uniform_predictor
from repro.sim.engine import Simulator

from .flights import FLIGHT_CHARTS, ChartSpec, FlightsDataset
from .trace import InteractionTrace, TraceEvent

__all__ = [
    "FalconApp",
    "FalconBackend",
    "FalconTrace",
    "FalconTraceGenerator",
    "SelectionEvent",
    "SQLDatabase",
]


class SQLDatabase(Protocol):
    """What :class:`FalconBackend` needs from a query engine."""

    @property
    def active_queries(self) -> int: ...

    def execute(
        self, query: HistogramQuery, on_complete: Callable[[np.ndarray], None]
    ) -> float: ...


def _chart_row_layout(
    num_charts: int, chart_w: float, chart_h: float, gutter: float
) -> ChartLayout:
    """Falcon's charts in two rows of three with gutters between."""
    cols = math.ceil(num_charts / 2)
    boxes = []
    for i in range(num_charts):
        row, col = divmod(i, cols)
        x0 = gutter + col * (chart_w + gutter)
        y0 = gutter + row * (chart_h + gutter)
        boxes.append(BoundingBox(x0, y0, x0 + chart_w, y0 + chart_h))
    return ChartLayout(boxes)


class FalconApp:
    """Experiment bundle for the Falcon port.

    Parameters
    ----------
    blocks_per_response:
        ``Nb`` — how many row-sample blocks each five-query response is
        encoded into (Fig. 14 sweeps 1, 2, 4).
    charts:
        View specifications (defaults to the six flights charts).
    selection_fraction:
        Width of the initial centered range selection applied to every
        chart (Falcon sessions always have active selections).
    """

    #: Paper measurement: PostgreSQL degrades beyond 15 concurrent queries.
    POSTGRES_CONCURRENT_QUERIES = 15

    def __init__(
        self,
        blocks_per_response: int = 2,
        charts: Sequence[ChartSpec] = FLIGHT_CHARTS,
        chart_width_px: float = 360.0,
        chart_height_px: float = 240.0,
        gutter_px: float = 60.0,
        selection_fraction: float = 0.5,
        utility: Optional[UtilityFunction] = None,
    ) -> None:
        if blocks_per_response < 1:
            raise ValueError("need at least one block per response")
        if len(charts) < 2:
            raise ValueError("Falcon needs at least two linked charts")
        self.charts = tuple(charts)
        self.layout = _chart_row_layout(
            len(self.charts), chart_width_px, chart_height_px, gutter_px
        )
        self.blocks_per_response = blocks_per_response
        # Paper default for Falcon: the conservative linear utility (§6.1).
        self.utility = utility if utility is not None else LinearUtility()
        self.selections: dict[int, Optional[RangeFilter]] = {
            i: spec.middle_filter(selection_fraction)
            for i, spec in enumerate(self.charts)
        }
        self._version = 0
        self._backends: list["FalconBackend"] = []

    @property
    def num_requests(self) -> int:
        return len(self.charts)

    @property
    def num_blocks(self) -> list[int]:
        """Per-request block counts (uniform for Falcon)."""
        return [self.blocks_per_response] * self.num_requests

    @property
    def queries_per_request(self) -> int:
        """Hovering one chart queries each of the others."""
        return self.num_requests - 1

    @property
    def max_concurrent_requests(self) -> int:
        """§6.4 throttle input: requests the DB can absorb at once."""
        return max(1, self.POSTGRES_CONCURRENT_QUERIES // self.queries_per_request)

    def queries_for(self, request: int) -> list[HistogramQuery]:
        """The five data-slice queries issued when ``request`` is hovered.

        Each non-hovered chart's histogram is filtered by the selections
        on every chart other than itself and the hovered one (the
        hovered chart's selection is the free dimension of the slice).
        """
        if not 0 <= request < self.num_requests:
            raise IndexError(f"no chart {request}")
        queries = []
        for target, spec in enumerate(self.charts):
            if target == request:
                continue
            filters = tuple(
                f
                for owner, f in self.selections.items()
                if f is not None and owner not in (target, request)
            )
            queries.append(spec.query(filters))
        return queries

    def set_selection(self, chart: int, filt: Optional[RangeFilter]) -> None:
        """Change a chart's range selection; invalidates cached responses."""
        if not 0 <= chart < self.num_requests:
            raise IndexError(f"no chart {chart}")
        self.selections[chart] = filt
        self._version += 1
        for backend in self._backends:
            backend.invalidate()

    def apply_selection(self, event: SelectionEvent) -> None:
        """Apply a trace's committed brush (replay hook)."""
        spec = self.charts[event.chart]
        self.set_selection(
            event.chart, RangeFilter(spec.column, event.lo, event.hi)
        )

    @property
    def selection_version(self) -> int:
        """Bumps on every selection change (cache-staleness marker)."""
        return self._version

    # -- factories -----------------------------------------------------

    def make_db(
        self, sim: Simulator, scale: str = "small", scalable: bool = False, seed: int = 0
    ) -> Union[SimulatedSQLDatabase, ScalableSQLDatabase]:
        """A query engine calibrated to the paper's two databases.

        ``scale='small'`` ≈ 0.8 s isolated query latency (1M rows);
        ``scale='big'`` ≈ 1.5–2.5 s (7M rows).  ``scalable=True``
        returns the ScalableSQL simulation (no concurrency penalty).
        """
        if scale == "small":
            table = FlightsDataset(seed=42).small(scale=0.01)
            base, jitter = 0.8, 0.25
        elif scale == "big":
            table = FlightsDataset(seed=42).big(scale=0.01)
            base, jitter = 2.0, 0.5
        else:
            raise ValueError(f"unknown scale {scale!r} (want 'small' or 'big')")
        if scalable:
            return ScalableSQLDatabase(sim, table, base, jitter=jitter, seed=seed)
        return SimulatedSQLDatabase(
            sim,
            table,
            base,
            concurrency_limit=self.POSTGRES_CONCURRENT_QUERIES,
            jitter=jitter,
            seed=seed,
        )

    def make_backend(self, sim: Simulator, db: SQLDatabase) -> "FalconBackend":
        backend = FalconBackend(sim, self, db)
        self._backends.append(backend)
        return backend

    def make_predictor(
        self,
        name: str,
        trace: Optional[InteractionTrace] = None,
        deltas_s: Sequence[float] = DEFAULT_DELTAS_S,
    ) -> Predictor:
        """Predictor by experiment name: kalman / onhover / oracle / uniform."""
        if name == "kalman":
            return make_kalman_predictor(self.layout, deltas_s=deltas_s)
        if name == "onhover":
            return make_hover_predictor(self.layout, deltas_s=deltas_s)
        if name == "oracle":
            if trace is None:
                raise ValueError("oracle predictor needs the replay trace")

            def future_request(t: float) -> Optional[int]:
                x, y = trace.position_at(t)
                return self.layout.request_at(x, y)

            return make_oracle_predictor(
                self.num_requests, future_request, deltas_s=deltas_s
            )
        if name == "uniform":
            return make_uniform_predictor(self.num_requests, deltas_s=deltas_s)
        raise ValueError(f"unknown predictor {name!r}")

    def nominal_block_bytes(self, bytes_per_row: int = 16) -> int:
        """Wire size of one block (total slice rows striped over Nb)."""
        total_rows = sum(spec.bins for spec in self.charts) - max(
            spec.bins for spec in self.charts
        )
        rows_per_block = math.ceil(total_rows / self.blocks_per_response)
        return max(1, rows_per_block * bytes_per_row)


class FalconBackend(Backend):
    """Executes a request's five queries and encodes the combined rows.

    Result rows are ``(bin, count, target_chart)`` triples; the
    row-sample encoder stripes them round-robin so any block prefix is
    a uniform sample of every chart's slice (Falcon's own progressive
    scheme, §6.1).  The five queries run concurrently on the database —
    on the PostgreSQL-like backend they contend for its 15-query
    scalability budget, which is exactly the §6.4 bottleneck.
    """

    def __init__(self, sim: Simulator, app: FalconApp, db: SQLDatabase) -> None:
        super().__init__(sim)
        self.app = app
        self.db = db
        self.encoder = RowSampleEncoder(app.blocks_per_response)

    @property
    def scalable_concurrency(self) -> Optional[int]:
        return self.app.max_concurrent_requests

    def _start(self, request: int) -> None:
        """Run the five queries concurrently; the slowest completes the
        fetch with the combined, encoded rows."""
        queries = self.app.queries_for(request)
        targets = [t for t in range(self.app.num_requests) if t != request]
        results: dict[int, np.ndarray] = {}

        def on_query(target: int, rows: np.ndarray) -> None:
            results[target] = rows
            if len(results) == len(queries):
                self._complete(request, self._encode(request, results))

        for target, query in zip(targets, queries):
            self.db.execute(query, lambda rows, t=target: on_query(t, rows))

    def _encode(
        self, request: int, results: dict[int, np.ndarray]
    ) -> ProgressiveResponse:
        parts = []
        for target in sorted(results):
            rows = results[target]
            tagged = np.column_stack(
                [rows, np.full(len(rows), target, dtype=rows.dtype)]
            )
            parts.append(tagged)
        return self.encoder.encode(request, np.vstack(parts))

    def invalidate(self) -> None:
        """Selections changed: every cached slice is stale."""
        self._cache.clear()


@dataclass(frozen=True)
class SelectionEvent:
    """A committed brush: chart ``chart``'s range selection changed.

    Selection changes are what make Falcon's request universe hard:
    every other chart's data slice is filtered by this chart's
    selection, so a change invalidates all cached responses — client
    blocks, the server's scheduler mirror, and the backend's response
    cache alike.
    """

    time_s: float
    chart: int
    lo: float
    hi: float


@dataclass
class FalconTrace:
    """A Falcon session: mouse interaction plus selection commits."""

    interaction: InteractionTrace
    selections: list[SelectionEvent]

    @property
    def name(self) -> str:
        return self.interaction.name

    @property
    def duration_s(self) -> float:
        return self.interaction.duration_s

    @property
    def num_requests(self) -> int:
        return self.interaction.num_requests


@dataclass(frozen=True)
class FalconSessionParams:
    """Hover/brush session tunables, calibrated to Fig. 5's vis CDF."""

    sample_rate_hz: float = 60.0
    brush_log_mean: float = math.log(2.0)
    brush_log_sigma: float = 1.4
    quick_switch_prob: float = 0.25
    long_pause_prob: float = 0.08
    long_pause_scale_s: float = 45.0
    travel_speed_px_s: float = 1500.0
    #: Brushes shorter than this are scrubs that commit no selection.
    commit_min_brush_s: float = 0.5

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if not 0 <= self.quick_switch_prob <= 1:
            raise ValueError("quick_switch_prob must lie in [0, 1]")
        if not 0 <= self.long_pause_prob <= 1:
            raise ValueError("long_pause_prob must lie in [0, 1]")


class FalconTraceGenerator:
    """Hover/brush sessions over the Falcon chart row.

    A session alternates *brush* phases (mouse wiggles inside the
    current chart — interactions served client-side, no requests) and
    *travel* phases (mouse crosses gutters to another chart; entering
    it fires the hover request).  Quick chart-to-chart scrubbing
    produces the sub-second think times in Fig. 5; long reading pauses
    produce the minutes-long tail.
    """

    def __init__(
        self,
        app: FalconApp,
        params: Optional[FalconSessionParams] = None,
        seed: int = 0,
    ) -> None:
        self.app = app
        self.params = params or FalconSessionParams()
        self.seed = seed

    def generate(self, duration_s: float = 300.0, trace_id: int = 0) -> FalconTrace:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = np.random.default_rng((self.seed, trace_id, 17))
        p = self.params
        layout = self.app.layout
        dt = 1.0 / p.sample_rate_hz

        chart = int(rng.integers(0, self.app.num_requests))
        x, y = self._chart_center(chart, rng)
        t = 0.0
        events: list[TraceEvent] = [TraceEvent(t, x, y, request=chart)]
        selections: list[SelectionEvent] = []

        while t + dt <= duration_s:
            # -- brush phase inside the current chart.
            brush = float(rng.lognormal(p.brush_log_mean, p.brush_log_sigma))
            if rng.random() < p.quick_switch_prob:
                brush = float(rng.uniform(0.05, 0.4))
            if rng.random() < p.long_pause_prob:
                brush += float(rng.exponential(p.long_pause_scale_s))
            box = layout.bbox(chart)
            brush_end = min(t + brush, duration_s)
            # Substantial brushes commit a new range selection partway
            # through — the user drags the handles, then reads.  This is
            # the event that staleness (and thus prefetch value) hinges
            # on: it invalidates every other chart's cached slice.
            commit_at = t + brush * float(rng.uniform(0.2, 0.6))
            committed = brush < p.commit_min_brush_s
            while t + dt <= brush_end:
                t += dt
                x = float(np.clip(x + rng.normal(0.0, 6.0), box.x0 + 1, box.x1 - 1))
                y = float(np.clip(y + rng.normal(0.0, 3.0), box.y0 + 1, box.y1 - 1))
                events.append(TraceEvent(t, x, y))
                if not committed and t >= commit_at:
                    committed = True
                    selections.append(self._random_selection(t, chart, rng))
            if t >= duration_s:
                break

            # -- travel phase to a different chart.
            nxt = int(rng.integers(0, self.app.num_requests - 1))
            if nxt >= chart:
                nxt += 1
            tx, ty = self._chart_center(nxt, rng)
            dist = math.hypot(tx - x, ty - y)
            steps = max(1, int(math.ceil(dist / (p.travel_speed_px_s * dt))))
            entered = False
            for step in range(1, steps + 1):
                if t + dt > duration_s:
                    break
                t += dt
                s = step / steps
                ease = s * s * (3.0 - 2.0 * s)
                nx = x + (tx - x) * ease
                ny = y + (ty - y) * ease
                inside = layout.request_at(nx, ny)
                request = nxt if (inside == nxt and not entered) else None
                if request is not None:
                    entered = True
                events.append(TraceEvent(t, nx, ny, request=request))
            x, y = events[-1].x, events[-1].y
            if entered:
                chart = nxt

        return FalconTrace(
            interaction=InteractionTrace(events, name=f"falcon-{trace_id}"),
            selections=selections,
        )

    def generate_corpus(
        self, num_traces: int = 70, duration_s: float = 300.0
    ) -> list[FalconTrace]:
        """The paper's 70-session benchmark corpus."""
        if num_traces < 1:
            raise ValueError("need at least one trace")
        return [self.generate(duration_s, trace_id=i) for i in range(num_traces)]

    def _random_selection(
        self, time_s: float, chart: int, rng: np.random.Generator
    ) -> SelectionEvent:
        """A committed brush: random sub-range of the chart's domain."""
        spec = self.app.charts[chart]
        lo_d, hi_d = spec.domain
        width = (hi_d - lo_d) * float(rng.uniform(0.2, 0.7))
        start = lo_d + float(rng.uniform(0.0, (hi_d - lo_d) - width))
        return SelectionEvent(time_s=time_s, chart=chart, lo=start, hi=start + width)

    def _chart_center(
        self, chart: int, rng: np.random.Generator
    ) -> tuple[float, float]:
        box = self.app.layout.bbox(chart)
        return (
            float(rng.uniform(box.x0 + 5, box.x1 - 5)),
            float(rng.uniform(box.y0 + 5, box.y1 - 5)),
        )
