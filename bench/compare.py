#!/usr/bin/env python3
"""Compare two ``bench/suite.py`` result files, row by row.

    python3 bench/compare.py bench/out/suite-base.json bench/out/suite-new.json

One row per workload × end-to-end metric: both medians, how much worse
the second is (as a share of the first), the first's own run-to-run
spread, and a verdict by the rule of the choosing-metrics guide (§6.5):
``regressed`` if worse by more than the metric's bound, ``unresolved``
if the first file's spread is wider than the bound (unless every run of
the second reads better than every run of the first), else ``ok``.
Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from bench.stats import compare, median, spread  # noqa: E402
from bench.suite import metric_values  # noqa: E402


def rows(spec: dict, base: dict, new: dict) -> list[tuple]:
    out = []
    for workload in base:
        if workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = metric_values(base[workload], name)
            b = metric_values(new[workload], name)
            worse_by, verdict = compare(a, b, metric["better"], metric["bound"])
            out.append((workload, name, median(a), median(b), worse_by,
                        spread(a), metric["bound"], verdict))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    table = rows(spec, json.loads(args.base.read_text()), json.loads(args.new.read_text()))
    print(f"{'workload':<18}{'metric':<22}{'base':>12}{'new':>12}{'worse by':>10}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for workload, name, a, b, worse_by, share, bound, verdict in table:
        print(f"{workload:<18}{name:<22}{a:>12.4f}{b:>12.4f}{worse_by:>+10.3f}"
              f"{share:>8.3f}{bound:>7.2f}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
