#!/usr/bin/env python
"""Reachability census: which functions under ``src/repro/`` does a real
entry point run?

A function that only tests reach is a candidate for deletion: an oracle
stays beside the tests that compare production against it, and a
paper-named extension point stays only if a figure or a CLI path runs
it.  This script gathers that evidence instead of guessing it from
``grep``:

1. ``collect`` copies a source tree (default: this checkout's working
   tree) to a temporary directory, because the benchmark tests rewrite
   ``benchmarks/results/``.  It puts a generated ``sitecustomize.py``
   first on ``PYTHONPATH``.  That module loads in every Python process,
   spawned shard workers and the live server child included.  It records
   every code object entered (``sys.setprofile`` and
   ``threading.setprofile``) and, at exit, writes the ones under
   ``src/repro/`` to a file per process.
2. It runs the entry points in :data:`RUNS`: the six CI ``repro fleet``
   smokes, both live serving smokes, the other examples,
   ``benchmarks/perf_smoke.py``, the four ``bench/run.py`` workloads,
   every figure subcommand at quick scale, and the benchmark tests that
   are not figures.
3. It saves the reached set with the tree's function inventory as JSON.

``report`` turns one or two such files (before and after a change) into
a table of the outermost functions no run entered, by file, with their
line counts::

    python benchmarks/census.py collect --tree ../parent --out before.json
    python benchmarks/census.py collect --out after.json
    python benchmarks/census.py report before.json after.json \\
        > benchmarks/results/census.txt

A collect takes about twenty minutes on two cores, ten of them ``fig14``
(the Falcon sweep) under the profiler.  pytest-benchmark calls
``sys.setprofile(None)`` around every benchmarked call, so pytest runs
with ``--benchmark-disable``; otherwise every figure would read as
unreached.  That flag makes ``benchmarks/test_shared_row_cache.py`` fail
where it reads the timings, and the quick scale makes
``benchmarks/test_fleet_churn.py`` miss a shape bound; both fail after
their code has run, so the census is complete.  A worker that the chaos
smoke kills leaves no file; the other runs cover its code.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

REPO = Path(__file__).resolve().parent.parent

#: A run still going after this long is killed and reported as a timeout.
RUN_TIMEOUT_S = 1800

SITECUSTOMIZE = '''\
import atexit, os, signal, sys, threading, time

_root = os.environ["CENSUS_SRC"]
_out = os.environ["CENSUS_OUT"]
_seen = set()
_add = _seen.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    # A coordinator terminates a shard worker right after its result
    # arrives, which can land mid-dump: hold SIGTERM until the file is
    # whole, and publish it by rename so a reader never sees part of one.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    rows = sorted(
        f"{c.co_filename}\\t{c.co_firstlineno}\\t{c.co_name}"
        for c in list(_seen)
        if c.co_filename.startswith(_root)
    )
    path = os.path.join(_out, f"reached-{os.getpid()}-{time.time_ns()}.txt")
    with open(path + ".part", "w") as fh:
        fh.write("\\n".join(rows))
    os.replace(path + ".part", path)


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

_FLEET = ["-m", "repro", "fleet", "--sessions", "6", "--scale", "quick"]
_SHARDED = [*_FLEET, "--predictor", "shared-markov", "--shards", "2"]
_LIVE = ["examples/live_serving.py", "--spawn-server", "--check"]
_FIGURES = [
    "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig19", "appb1",
]
_EXAMPLES = [
    "quickstart", "fleet_serving", "image_exploration",
    "falcon_dashboard", "custom_predictor", "sharded_fleet",
]
_WORKLOADS = ["fleet32_kalman", "single10k_kalman", "sharded2_markov", "live2_kalman"]

#: (label, argv after ``python``).  ``{tmp}`` is a scratch directory.
RUNS: list[tuple[str, list[str]]] = [
    ("smoke:churn", [*_FLEET, "--arrivals", "0.8", "--dwell", "4",
                     "--max-concurrent", "3", "--predictor", "shared-markov"]),
    ("smoke:sharded", [*_SHARDED, "--sync-interval", "0.5"]),
    ("smoke:chaos", [*_FLEET, "--shards", "2",
                     "--chaos", "worker-crash:1,backend-err:0.05,outage:1-2",
                     "--checkpoint-every", "1"]),
    ("smoke:tcp", [*_SHARDED, "--transport", "tcp", "--chaos",
                   "partition:0-1@1,dup:0.05,corrupt:0.05,netdelay:20:0.1"]),
    ("smoke:drain", [*_SHARDED, "--sync-interval", "0.5", "--chaos", "drain:1",
                     "--checkpoint-out", "{tmp}/fleet_ckpt.json"]),
    ("smoke:restore", [*_SHARDED, "--sync-interval", "0.5",
                       "--checkpoint-in", "{tmp}/fleet_ckpt.json"]),
    ("smoke:live", [*_LIVE, "--duration", "5"]),
    ("smoke:live-resume", [*_LIVE, "--duration", "6", "--disconnect-at", "2.5"]),
    *[(f"example:{name}", [f"examples/{name}.py"]) for name in _EXAMPLES],
    ("perf_smoke", ["benchmarks/perf_smoke.py"]),
    *[
        (f"bench:{w}", ["bench/run.py", "--workload", w, "--seed", "1",
                        "--seconds", "6", "--trace", "1"])
        for w in _WORKLOADS
    ],
    *[(f"figure:{f}", ["-m", "repro", f, "--scale", "quick"]) for f in _FIGURES],
    ("benchmark-tests", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "--benchmark-disable", "{nonfigure_tests}"]),
]


# -- inventory ---------------------------------------------------------


def inventory(src: Path) -> dict[str, list[list]]:
    """Every function under ``src/repro``: file -> rows.

    A row is ``[qualname, first_line, last_line, parent]``: ``first_line``
    is the code object's ``co_firstlineno`` (the first decorator's line
    when decorated), and ``parent`` indexes the enclosing function's row
    in the same file (``-1`` for a module-level function or a method).
    """
    out: dict[str, list[list]] = {}
    root = src / "repro"
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(src.parent).as_posix()
        rows: list[list] = []

        def visit(node: ast.AST, prefix: str, parent: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    name = f"{prefix}{child.name}"
                    rows.append([name, first, child.end_lineno, parent])
                    visit(child, f"{name}.<locals>.", len(rows) - 1)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(path.read_text(), str(path)), "", -1)
        out[rel] = rows
    return out


# -- collect -----------------------------------------------------------


def _copy_tree(tree: Path, dest: Path) -> None:
    shutil.copytree(
        tree,
        dest,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
            ".benchmarks", "*.egg-info", "out",
        ),
    )
    (dest / "bench" / "out").mkdir(exist_ok=True)


def collect(tree: Path, out: Path, only: Optional[list[str]]) -> dict:
    work = Path(tempfile.mkdtemp(prefix="census-"))
    try:
        copy = work / "tree"
        _copy_tree(tree, copy)
        site = work / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        reached_dir = work / "reached"
        reached_dir.mkdir()
        scratch = work / "scratch"
        scratch.mkdir()
        src = copy / "src"
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([str(site), str(src)]),
            CENSUS_SRC=str(src / "repro") + os.sep,
            CENSUS_OUT=str(reached_dir),
            REPRO_BENCH_SCALE="quick",
            OPENBLAS_NUM_THREADS="1",
        )
        nonfigure = sorted(
            p.relative_to(copy).as_posix()
            for p in (copy / "benchmarks").glob("test_*.py")
            if not p.name.startswith(("test_fig", "test_appb1"))
        )
        runs = []
        for label, argv in RUNS:
            if only and not any(label.startswith(o) for o in only):
                continue
            args: list[str] = []
            for a in argv:
                if a == "{nonfigure_tests}":
                    args.extend(nonfigure)
                else:
                    args.append(a.replace("{tmp}", str(scratch)))
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, *args],
                    cwd=copy,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    timeout=RUN_TIMEOUT_S,
                )
                code, output = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, output = "timeout", ""
            seconds = time.perf_counter() - t0
            runs.append({"label": label, "exit": code, "seconds": round(seconds, 1)})
            print(f"census: {label:28s} exit={code} {seconds:6.1f} s", flush=True)
            if code != 0:
                print(output[-2000:], file=sys.stderr)
        reached = set()
        prefix = str(copy) + os.sep
        for f in reached_dir.glob("*.txt"):
            for line in f.read_text().splitlines():
                filename, first, name = line.split("\t")
                reached.add(f"{filename[len(prefix):]}:{first}:{name}")
        result = {
            "tree": str(tree),
            "runs": runs,
            "inventory": inventory(src),
            "reached": sorted(reached),
        }
        out.write_text(json.dumps(result, indent=1))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- report ------------------------------------------------------------


def unreached(census: dict) -> dict[str, list[tuple[str, int]]]:
    """File -> outermost unreached functions as ``(qualname, lines)``.

    A nested function inside an unreached one is not listed: its lines
    are already counted in the outer function.
    """
    reached = set(census["reached"])
    out: dict[str, list[tuple[str, int]]] = {}
    for rel, rows in census["inventory"].items():
        hit = [
            f"{rel}:{first}:{name.rsplit('.', 1)[-1]}" in reached
            for name, first, _, _ in rows
        ]
        listed = [
            (name, last - first + 1)
            for (name, first, last, parent), h in zip(rows, hit)
            if not h and (parent < 0 or hit[parent])
        ]
        if listed:
            out[rel] = listed
    return out


def _lines(entries: list[tuple[str, int]]) -> int:
    return sum(n for _, n in entries)


def report(files: list[Path]) -> str:
    censuses = [json.loads(f.read_text()) for f in files]
    tables = [unreached(c) for c in censuses]
    names = ["before", "after"][: len(files)]
    out = [
        "Reachability census: functions under src/repro/ that no entry point enters.",
        "Made by benchmarks/census.py (see its docstring for the runs); a",
        "function is listed when it is unreached and its enclosing function",
        "(if any) was reached.  Lines count the whole def.",
        "",
    ]
    for name, census in zip(names, censuses):
        failed = [r["label"] for r in census["runs"] if r["exit"] != 0]
        out.append(
            f"{name}: {len(census['runs'])} runs, "
            f"{sum(r['seconds'] for r in census['runs']):.0f} s, "
            f"failed: {', '.join(failed) or 'none'}"
        )
    out.append("")
    header = f"{'file':48s}" + "".join(f"{n + ' fns':>12s}{n + ' lines':>14s}" for n in names)
    out.append(header)
    files_all = sorted(set().union(*tables))
    for rel in files_all:
        row = f"{rel.removeprefix('src/'):48s}"
        for census, table in zip(censuses, tables):
            if rel not in census["inventory"]:
                row += f"{'deleted':>12s}{'':>14s}"
            else:
                entries = table.get(rel, [])
                row += f"{len(entries):>12d}{_lines(entries):>14d}"
        out.append(row)
    total = f"{'total':48s}"
    for table in tables:
        total += f"{sum(len(e) for e in table.values()):>12d}"
        total += f"{sum(_lines(e) for e in table.values()):>14d}"
    out.append(total)
    for name, table in zip(names, tables):
        out.extend(["", f"== {name}: unreached functions by file"])
        for rel in sorted(table):
            out.append(rel.removeprefix("src/"))
            for qualname, n in table[rel]:
                out.append(f"    {qualname:60s} {n:5d}")
    return "\n".join(out) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the entry points and save the reached set")
    c.add_argument("--tree", type=Path, default=REPO, help="source tree to measure")
    c.add_argument("--out", type=Path, required=True, help="JSON file to write")
    c.add_argument(
        "--only", nargs="*",
        help="run only the runs whose label starts with one of these",
    )
    r = sub.add_parser("report", help="print the unreached-function table")
    r.add_argument("censuses", type=Path, nargs="+", help="before [after] JSON files")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args.tree.resolve(), args.out, args.only)
    else:
        if len(args.censuses) > 2:
            parser.error("report takes one or two census files")
        sys.stdout.write(report(args.censuses))


if __name__ == "__main__":
    main()
