#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

    python3 bench/run.py --workload fleet32_kalman --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only if every output check passed.  Works from a bare
checkout: it puts ``<repo>/src`` on the path itself and writes only
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = BENCH_DIR / "out"

#: A run that has not finished by now is a failed run, not a hang.
HARD_TIMEOUT_S = 160
#: How long a child gets to end after each signal when the run is over.
STOP_DEADLINE_S = 3.0

WORKLOADS = ("fleet32_kalman", "single10k_kalman", "sharded2_markov", "live2_kalman")


def bootstrap() -> None:
    """Make ``repro`` and ``bench`` importable here and in child processes."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC}/repro not found; run from a checkout of the repo")
    paths = [str(SRC), str(REPO)]
    # Run as a script, bench/ itself leads sys.path; its module names
    # (stats, live, ...) must not shadow anyone's top-level imports.
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != BENCH_DIR]
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + [p for p in inherited.split(os.pathsep) if p and p not in paths]
    )


bootstrap()  # at import: spawn workers re-import this module as __mp_main__


class RunStopped(BaseException):
    """The hard timeout, or SIGTERM.  Not an ``Exception``: ``TimeoutError``
    is an ``OSError``, which the program's pipe and socket teardown absorbs."""


def _on_signal(signum, frame) -> None:
    why = f"run exceeded {HARD_TIMEOUT_S} s" if signum == signal.SIGALRM else "terminated"
    raise RunStopped(why)


def _child_pids() -> list[int]:
    """Direct children of this process, zombies included (from ``/proc``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # gone between listdir and read
                continue
            if int(stat.rpartition(")")[2].split()[1]) == me:
                pids.append(int(entry))
    return pids


def _wait_for(pid: int, deadline_s: float) -> bool:
    """Reap child ``pid`` if it ends within ``deadline_s``; True once gone."""
    end = time.monotonic() + deadline_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:  # its Popen / Process object reaped it
            return True
        if time.monotonic() >= end:
            return False
        time.sleep(0.01)


def reap_children() -> None:
    """Stop and wait for every process this run started.

    After a good run the drivers have joined their workers and reaped the
    server child, and the one child left is multiprocessing's resource
    tracker: the spawn start method launches it beside the first worker,
    it stops only on EOF of a pipe this process and every worker hold,
    and so it outlives the run — as a zombie where nothing adopts
    orphans.  After a failed run anything may be left, including a
    worker multiprocessing itself has lost track of (an exception in the
    middle of ``Process.start``), so children are taken from ``/proc``.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        if pid == tracker._pid:
            continue
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                break
            if _wait_for(pid, STOP_DEADLINE_S):
                break
    if tracker._fd is not None and tracker._pid is not None:
        os.close(tracker._fd)  # EOF, now that no worker holds a copy
        tracker._fd = None
        if not _wait_for(tracker._pid, STOP_DEADLINE_S):
            os.kill(tracker._pid, signal.SIGKILL)  # it ignores SIGTERM
            os.waitpid(tracker._pid, 0)
        tracker._pid = None


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Dispatch to the workload; returns the full result (with problems)."""
    if name == "live2_kalman":
        from bench import live

        return live.run_live(live.LIVE_SHAPE, seed, seconds, traced, OUT_DIR)
    from bench import workloads

    return workloads.run_des(workloads.SHAPES[name], seed, seconds, traced)


def write_span_table(result: dict, name: str, seed: int) -> None:
    """Leave the traced run's span table under bench/out/ for reading."""
    table = result.get("span_table")
    if table is None:
        return
    OUT_DIR.mkdir(exist_ok=True)
    lines = [f"{'span':<28}{'calls':>10}{'total_ms':>12}{'self_ms':>12}"]
    lines += [f"{n:<28}{c:>10}{t:>12.1f}{s:>12.1f}" for n, c, t, s in table.rows()]
    (OUT_DIR / f"{name}-seed{seed}.spans.txt").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)  # so that the children are reaped
    signal.alarm(HARD_TIMEOUT_S)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        reap_children()
    write_span_table(result, args.workload, args.seed)
    for problem in result["problems"]:
        print(f"bench: INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
