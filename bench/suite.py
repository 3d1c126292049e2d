#!/usr/bin/env python3
"""Run the ``BENCHMARK.json`` command over several seeds; report steadiness.

    python3 bench/suite.py --label base --seeds 1-10
    python3 bench/suite.py --label base --seeds 1-10 --workload live2_kalman

Every run's result line goes into one file, ``bench/out/suite-<label>.json``
(the input of ``bench/compare.py``), and for each workload × end-to-end
metric the median, quartiles and spread (interquartile distance as a
share of the median — the driver's steadiness number) are printed next
to the metric's bound.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(REPO))

from bench.stats import quartiles, spread  # noqa: E402

RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` (or a mix) → seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark command; its parsed last stdout line."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=REPO, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def metric_values(by_seed: dict, name: str) -> list[float]:
    """One end-to-end metric over the runs of one workload."""
    return [run["metrics"][name]["value"] for run in by_seed.values()]


def report(spec: dict, runs: dict) -> str:
    """The steadiness table of ``runs[workload][seed] = result``."""
    lines = [
        f"{'workload':<18}{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'spread':>9}{'bound':>8}"
    ]
    for workload, by_seed in runs.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = metric_values(by_seed, name)
            q1, q2, q3 = quartiles(values)
            share = spread(values)
            # The driver exempts setup_s from the spread check.
            flag = "  <-- above bound/3" if share > metric["bound"] / 3 and name != "setup_s" else ""
            lines.append(
                f"{workload:<18}{name:<22}{q2:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                f"{share:>9.3f}{metric['bound']:>8.2f}{flag}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict = {}
    for workload in names:
        runs[workload] = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(spec, workload, seed, trace=0)
            runs[workload][str(seed)] = result
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']}", file=sys.stderr)
    out = BENCH_DIR / "out" / f"suite-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(report(spec, runs))
    print(f"\nwrote {out.relative_to(REPO)}")
    return 0 if all(r["correct"] for w in runs.values() for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
