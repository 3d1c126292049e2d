"""Self-test of the benchmark: helpers unit-tested, workloads run at toy size.

Collected by the tier-1 command.  The toy runs take the same code paths
as the real ones (spawned workers, a spawned server, the traced
launcher) and check the same output verifications, in a few seconds.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from bench import run as bench_run  # importing it makes repro importable
from bench import layers, live, workloads
from bench.spans import SpanTable, Tracer, install, self_times
from bench.stats import compare, percentile, quartiles, spread
from repro.predictors.layout import GridLayout

SPEC = json.loads((bench_run.REPO / "BENCHMARK.json").read_text())


# -- helpers ------------------------------------------------------------


def test_quartiles_match_the_drivers_definition():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(5.5 / 5.5)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert percentile([], 95) == 0.0
    assert percentile([0.0, 10.0], 50) == 5.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare(steady, [104.0] * 5, "lower", 0.05) == (pytest.approx(0.04), "ok")
    assert compare(steady, [106.0] * 5, "lower", 0.05)[1] == "regressed"
    assert compare(steady, [94.0] * 5, "higher", 0.05) == (pytest.approx(0.06), "regressed")
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert compare(noisy, [100.0] * 5, "lower", 0.05)[1] == "unresolved"
    # ... unless every new run beats every base run.
    assert compare(noisy, [70.0] * 5, "lower", 0.05)[1] == "ok"


def test_self_time_is_duration_minus_direct_children():
    #        0: [0, 100)  root
    #        1: [10, 40)  child of 0
    #        2: [20, 30)  child of 1
    #        3: [50, 90)  child of 0
    own = self_times([0, 10, 20, 50], [100, 40, 30, 90], [-1, 0, 1, 0])
    assert own.tolist() == [100 - 30 - 40, 30 - 10, 10, 40]
    assert own.sum() == 100  # self times partition the root


def test_tracer_nests_folds_and_probes():
    tracer = Tracer(keep_samples=("outer",))

    def inner(x):
        return [x] * x

    traced_inner = tracer.wrap("layer.inner", inner, probe=lambda first, result: len(result))

    def outer():
        traced_inner(2)
        traced_inner(3)

    tracer.wrap("outer", outer)()
    table = tracer.fold()
    assert table.count("outer") == 1 and table.count("layer.inner") == 2
    assert table.values["layer.inner"] == [2, 3]
    assert len(table.samples_ns["outer"]) == 1
    # Children's time is not the parent's own.
    assert table.self_ns["outer"] == table.total_ns["outer"] - table.total_ns["layer.inner"]
    assert table.layer_self_s("layer") == table.self_s("layer.inner")
    assert tracer.fold().spans() == 0  # folded spans are forgotten
    assert SpanTable.from_json(json.loads(json.dumps(table.to_json()))).calls == table.calls


def test_install_wraps_restores_and_skips_missing_targets(capsys):
    from repro.core.cache import RingBufferCache

    original = RingBufferCache.has
    tracer = Tracer()
    uninstall = install(
        tracer,
        [("cache.has", "repro.core.cache:RingBufferCache.has"),
         ("gone.away", "repro.core.cache:RingBufferCache.no_such_method")],
    )
    assert "no_such_method" in capsys.readouterr().err
    assert RingBufferCache(4).has(1) is False
    uninstall()
    assert RingBufferCache.has is original
    assert tracer.fold().count("cache.has") == 1


def test_every_span_target_resolves():
    tracer = Tracer()
    uninstall = install(tracer, layers.SPANS)
    uninstall()
    assert len(tracer.names) == len({name for name, *_ in layers.SPANS})


def test_benchmark_json_matches_the_code_and_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


def test_seeded_traces_repeat_and_differ():
    layout = GridLayout(12, 12, 20.0, 20.0)
    a, seed_a = workloads.seeded_traces(layout, 3, 0.5, 0.2, seed=5, iteration=1)
    b, seed_b = workloads.seeded_traces(layout, 3, 0.5, 0.2, seed=5, iteration=1)
    c, seed_c = workloads.seeded_traces(layout, 3, 0.5, 0.2, seed=6, iteration=1)
    assert [t.events for t in a] == [t.events for t in b] and seed_a == seed_b
    assert [t.events for t in a] != [t.events for t in c] and seed_a != seed_c
    # A reflected trace still requests the cell its pointer is over.
    for trace in a:
        for e in trace.events:
            if e.request is not None:
                assert layout.request_at(e.x, e.y) == e.request


def test_reap_children_stops_strays_and_the_spawn_resource_tracker():
    import os
    import subprocess
    import sys
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker.ensure_running()  # what starting a spawn worker does
    tracker_pid = tracker._pid
    # A child nobody will wait for, holding the tracker's pipe open like a
    # worker whose Process.start was interrupted.
    stray = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"], pass_fds=[tracker._fd]
    )
    assert {tracker_pid, stray.pid} <= set(bench_run._child_pids())
    bench_run.reap_children()
    assert tracker._fd is None and tracker._pid is None
    assert bench_run._child_pids() == []
    for pid in (tracker_pid, stray.pid):
        with pytest.raises(ChildProcessError):  # already waited for: no zombie
            os.waitpid(pid, os.WNOHANG)
    stray.wait()  # Popen copes with the lost exit status
    bench_run.reap_children()  # nothing running: a no-op


# -- the four workloads at toy size -------------------------------------

TOY = {
    "fleet32_kalman": dict(sessions=4, trace_s=1.0, hold_s=0.5, iteration_s=1.0),
    "single10k_kalman": dict(trace_s=1.0, hold_s=0.5, iteration_s=1.0),
    "sharded2_markov": dict(sessions=8, trace_s=1.0, hold_s=0.5, iteration_s=1.0),
}


def _check_result(result: dict, expected_names: list[str]) -> None:
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == expected_names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize("name", sorted(TOY))
def test_des_workload_toy_untraced(name):
    shape = replace(workloads.SHAPES[name], **TOY[name])
    result = workloads.run_des(shape, seed=3, seconds=2.0, traced=False)
    _check_result(result, [n for n, _, _ in workloads.END_TO_END])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_des_workload_toy_traced():
    shape = replace(workloads.SHAPES["fleet32_kalman"], **TOY["fleet32_kalman"])
    result = workloads.run_des(shape, seed=3, seconds=2.0, traced=True)
    _check_result(result, [m.name for m in layers.METRICS])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.coverage_pct"] >= 80.0
    assert values["trace.overhead_x"] > 0
    assert values["greedy.blocks_drawn"] >= values["sender.blocks_sent"] > 0
    assert values["serve.blocks_pushed"] == 0  # a layer that did not run reads 0


def test_live_workload_toy(tmp_path):
    seconds = live.OVERHEAD_S + 2.0
    shape = live.LIVE_SHAPE
    untraced = live.run_live(shape, seed=3, seconds=seconds, traced=False, out_dir=tmp_path)
    _check_result(untraced, [n for n, _, _ in workloads.END_TO_END])
    traced = live.run_live(shape, seed=3, seconds=seconds, traced=True, out_dir=tmp_path)
    _check_result(traced, [m.name for m in layers.METRICS])
    assert traced["metrics"]["serve.blocks_pushed"]["value"] > 0
    assert traced["metrics"]["serve.encode_block_us"]["value"] > 0
    assert list(tmp_path.iterdir()) == []  # the spans file is read and removed
