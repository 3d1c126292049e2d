"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's figures at a reduced —
but structurally identical — scale, prints the figure's rows, and
writes them to ``benchmarks/results/<figure>.txt``.  Tables of wall-clock
timings differ on every run, so they go to the ignored
``benchmarks/results/scratch_<figure>.txt`` instead: a test run leaves
the working tree as it found it.  Scale is selected with
``REPRO_BENCH_SCALE``:

* ``quick``   — smallest sweep that still exercises every code path;
* ``default`` — the scale ``benchmarks/results/`` records (a few minutes total);
* ``paper``   — the paper's full configuration (10k thumbnails,
  3-minute traces, 14 users; hours of simulation — not for CI).
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Sequence

import pytest

from repro.experiments.configs import ImageExperimentScale
from repro.metrics.report import format_table

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {
    "quick": ImageExperimentScale(rows=12, cols=12, trace_duration_s=10.0, num_traces=1),
    "default": ImageExperimentScale(rows=16, cols=16, trace_duration_s=15.0, num_traces=1),
    "paper": ImageExperimentScale.paper(),
}


@pytest.fixture(scope="session")
def bench_scale() -> ImageExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE={name!r}; want one of {sorted(_SCALES)}")
    return _SCALES[name]


@pytest.fixture(scope="session")
def bench_report():
    """Print a figure's rows and persist them under benchmarks/results/.

    ``wall_clock=True`` marks a table whose numbers are timings of this
    machine on this run: it is written to the ignored ``scratch_`` path,
    never to a tracked file.
    """

    RESULTS_DIR.mkdir(exist_ok=True)

    def report(
        name: str, rows: Sequence[dict], title: str = "", wall_clock: bool = False
    ) -> None:
        text = format_table(rows, title=title or name)
        print()
        print(text)
        stem = f"scratch_{name}" if wall_clock else name
        (RESULTS_DIR / f"{stem}.txt").write_text(text + "\n")

    return report


def mean_of(rows: Sequence[dict], system: str, column: str) -> float:
    """Average a metric over one system's rows (shape assertions)."""
    values = [r[column] for r in rows if r.get("system") == system and column in r]
    if not values:
        raise AssertionError(f"no rows for system={system!r} column={column!r}")
    return statistics.fmean(values)
