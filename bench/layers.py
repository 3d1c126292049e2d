"""The layer table: which calls become spans, and which numbers they yield.

Two declarative lists and nothing under ``src/`` changes:

* :data:`SPANS` — ``(span name, target[, probe])``.  The span name is
  ``<layer>.<operation>`` with ``layer`` the program module's name; the
  target is the callable the benchmark process wraps (``bench/spans.py``
  :func:`~bench.spans.install`).  Targets are each layer's entry points
  as its callers see them: public methods where the caller is code, and
  the callbacks a layer hands to the clock where the caller is the
  event loop (those are private names, but they *are* the boundary the
  simulator or asyncio crosses).
* :data:`METRICS` — every per-layer metric of ``BENCHMARK.json``, each a
  function of the folded span table, the tick count the spans cover and
  the program's own counters.  A layer that does not run on a workload
  reads 0.

``bench/README.md`` records which end-to-end metric each of these is
expected to move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .spans import SpanTable
from .stats import percentile

__all__ = ["SPANS", "KEEP_SAMPLES", "METRICS", "Metric", "layer_metrics"]


def _queue_delay_s(port, arrival_estimate: float) -> float:
    """The queueing delay ``FairSharePort.send`` saw (its return value is
    now + queue_delay() + propagation)."""
    shared = port.shared
    return arrival_estimate - shared.sim.now - shared.link.propagation_delay_s


SPANS: list[tuple] = [
    # -- the event loop itself (DES): root of every in-process span -----
    ("engine.run", "repro.sim.engine:Simulator.run"),
    # -- predictors: client-side observe, server-side decode ------------
    ("predictors.observe", "repro.core.predictor_manager:PredictorManager.observe_event"),
    ("predictors.observe", "repro.core.predictor_manager:PredictorManager.observe_request"),
    ("predictors.poll", "repro.core.predictor_manager:PredictorManager.poll"),
    ("predictors.poll", "repro.predictors.kalman:KalmanClientPredictor.batch_states"),
    ("predictors.decode", "repro.fleet.schedule_service:FleetScheduleService._batch_decode"),
    ("predictors.decode", "repro.core.server:KhameleonServer.decode_state"),
    # -- the fleet's coalesced prediction tick --------------------------
    ("schedule_service.tick", "repro.fleet.schedule_service:FleetScheduleService._tick"),
    ("schedule_service.apply", "repro.fleet.schedule_service:FleetScheduleService._apply"),
    ("schedule_service.matrices", "repro.fleet.schedule_service:batch_probability_matrices"),
    # -- greedy scheduler: install a distribution, draw, roll back ------
    ("greedy.install", "repro.core.greedy:GreedyScheduler.install_distribution"),
    ("greedy.install", "repro.core.greedy:GreedyScheduler.update_distribution"),
    ("greedy.install", "repro.core.greedy:GreedyScheduler._recompute_probabilities"),
    ("greedy.draw", "repro.core.greedy:GreedyScheduler.schedule_batch",
     lambda scheduler, blocks: len(blocks)),
    ("greedy.rollback", "repro.core.greedy:GreedyScheduler.rollback"),
    ("greedy.on_sent", "repro.core.greedy:GreedyScheduler.on_sent"),
    # -- sender: every way control enters it -----------------------------
    ("sender.start", "repro.core.sender:Sender.start"),
    ("sender.refresh", "repro.core.sender:Sender.refresh"),
    ("sender.take_pipeline", "repro.core.sender:Sender.take_pipeline"),
    ("sender.resume", "repro.core.sender:Sender.resume"),
    ("sender.transmit", "repro.core.sender:Sender._transmit"),
    ("sender.idle_tick", "repro.core.sender:Sender._idle_tick"),
    ("sender.on_fetched", "repro.core.sender:Sender._on_fetched"),
    # -- backend and progressive encoding -------------------------------
    ("backends.fetch", "repro.backends.base:Backend.fetch"),
    ("backends.complete", "repro.backends.base:Backend._complete"),
    ("encoding.encode", "repro.encoding.image:ProgressiveImageEncoder.encode"),
    # -- downlink: fair-share arbiter over the physical link ------------
    ("fairshare.send", "repro.sim.fairshare:FairSharePort.send", _queue_delay_s),
    ("fairshare.wire_free", "repro.sim.fairshare:SharedDownlink._on_wire_free"),
    ("fairshare.deliver", "repro.sim.fairshare:SharedDownlink._deliver"),
    ("link.send", "repro.sim.link:Link.send"),
    ("link.deliver", "repro.sim.link:Link._deliver"),
    ("link.control", "repro.sim.link:ControlChannel.send"),
    # -- client model ----------------------------------------------------
    ("cache_manager.register", "repro.core.cache_manager:CacheManager.register"),
    ("cache_manager.on_block", "repro.core.cache_manager:CacheManager.on_block"),
    # -- sharded coordinator (workers are separate, uninstrumented) -----
    ("sharding.run", "repro.fleet.sharding:run_sharded"),
    ("sharding.spawn", "repro.fleet.sharding:_Supervisor.spawn"),
    ("sharding.merge", "repro.predictors.shared:SharedTransitionPrior.merge_delta"),
    ("transport.recv", "repro.fleet.sharding:_Supervisor.gather"),
    ("transport.send", "repro.fleet.sharding:_Supervisor.broadcast"),
    # -- live frontend (installed inside the server child) --------------
    ("serve.push_block", "repro.serve.app:KhameleonServeApp._push_block"),
    ("serve.encode_block", "repro.serve.protocol:encode_block"),
    ("serve.ws_send", "repro.serve.ws:WebSocket.send_binary"),
    ("serve.decode_msg", "repro.serve.protocol:decode_message"),
]

#: Spans whose individual durations are kept (a percentile is reported).
KEEP_SAMPLES = ("schedule_service.apply",)

#: Spans that contain a whole drive; coverage is measured inside them.
_ROOTS = ("engine.run", "sharding.run")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    value: Callable[[SpanTable, int, Mapping[str, float]], float]


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def _per_call_us(*names: str) -> Callable:
    """Mean time of one call, children included, in microseconds."""
    return lambda t, ticks, c: _ratio(t.total_s(*names), t.count(*names), 1e6)


def _self_ms_per_tick(*names: str) -> Callable:
    return lambda t, ticks, c: _ratio(t.self_s(*names), ticks, 1e3)


def _layer_ms_per_tick(layer: str) -> Callable:
    return lambda t, ticks, c: _ratio(t.layer_self_s(layer), ticks, 1e3)


def _counter(name: str) -> Callable:
    return lambda t, ticks, c: float(c.get(name, 0.0))


def _blocks_drawn(t: SpanTable) -> float:
    return float(sum(t.values.get("greedy.draw", ())))


def _coverage_pct(t: SpanTable, ticks: int, c: Mapping[str, float]) -> float:
    """Share of the drive spent inside named spans below the root.

    In-process and coordinator runs have a root span (the simulator's
    ``run`` / ``run_sharded``); what is left as the root's *self* time
    is event-loop overhead plus callbacks the table does not name.  The
    live server has no root, so its spans are set against the CPU the
    server process used.
    """
    root_total = t.total_s(*_ROOTS)
    if root_total:
        return 100.0 * (root_total - t.self_s(*_ROOTS)) / root_total
    named = sum(t.self_ns.values()) / 1e9
    return _ratio(named, c.get("serve.cpu_total_s", 0.0), 100.0)


METRICS: list[Metric] = [
    Metric("predictors.observe_us", "us", "lower", _per_call_us("predictors.observe")),
    Metric("predictors.observe_calls", "count", "lower",
           lambda t, ticks, c: float(t.count("predictors.observe"))),
    Metric("predictors.decode_ms_per_tick", "ms", "lower",
           _self_ms_per_tick("predictors.decode", "predictors.poll")),
    Metric("predictors.states_decoded", "count", "higher", _counter("states_decoded")),
    Metric("schedule_service.tick_ms", "ms", "lower",
           lambda t, ticks, c: _ratio(
               t.total_s("schedule_service.tick", "schedule_service.apply"), ticks, 1e3)),
    Metric("schedule_service.tick_p95_ms", "ms", "lower",
           lambda t, ticks, c: percentile(
               t.samples_ns.get("schedule_service.apply", ()), 95) / 1e6),
    Metric("schedule_service.self_ms_per_tick", "ms", "lower",
           _self_ms_per_tick("schedule_service.tick", "schedule_service.apply")),
    Metric("schedule_service.matrices_ms_per_tick", "ms", "lower",
           _self_ms_per_tick("schedule_service.matrices")),
    Metric("schedule_service.states_per_batch", "count", "higher",
           lambda t, ticks, c: _ratio(
               c.get("sessions_recomputed", 0.0), c.get("batched_recomputes", 0.0))),
    Metric("schedule_service.ticks", "count", "higher",
           lambda t, ticks, c: float(ticks)),
    Metric("greedy.install_ms_per_tick", "ms", "lower", _self_ms_per_tick("greedy.install")),
    Metric("greedy.draw_ms_per_tick", "ms", "lower", _self_ms_per_tick("greedy.draw")),
    Metric("greedy.draw_us_per_block", "us", "lower",
           lambda t, ticks, c: _ratio(t.self_s("greedy.draw"), _blocks_drawn(t), 1e6)),
    Metric("greedy.rollback_ms_per_tick", "ms", "lower", _self_ms_per_tick("greedy.rollback")),
    Metric("greedy.blocks_drawn", "count", "lower", lambda t, ticks, c: _blocks_drawn(t)),
    Metric("greedy.drawn_sent_pct", "%", "higher",
           lambda t, ticks, c: _ratio(c.get("blocks_sent", 0.0), _blocks_drawn(t), 100.0)),
    Metric("sender.self_ms_per_tick", "ms", "lower", _layer_ms_per_tick("sender")),
    Metric("sender.blocks_sent", "count", "higher", _counter("blocks_sent")),
    Metric("sender.blocks_deferred", "count", "lower", _counter("blocks_deferred")),
    Metric("sender.overpush_pct", "%", "lower", _counter("overpush_pct")),
    Metric("backends.fetch_us", "us", "lower",
           lambda t, ticks, c: _ratio(
               t.layer_self_s("backends"), t.count("backends.fetch"), 1e6)),
    Metric("backends.fetches_started", "count", "lower", _counter("fetches_started")),
    Metric("backends.shared_hit_pct", "%", "higher", _counter("shared_hit_pct")),
    Metric("backends.peak_concurrency", "count", "lower", _counter("peak_concurrency")),
    Metric("encoding.encode_us", "us", "lower", _per_call_us("encoding.encode")),
    Metric("fairshare.send_us", "us", "lower", _per_call_us("fairshare.send")),
    Metric("fairshare.queue_delay_p95_ms", "ms", "lower",
           lambda t, ticks, c: 1e3 * percentile(t.values.get("fairshare.send", ()), 95)),
    Metric("fairshare.jain_index", "ratio", "higher", _counter("jain_index")),
    Metric("engine.events", "count", "lower", _counter("events")),
    Metric("engine.self_us_per_event", "us", "lower",
           lambda t, ticks, c: _ratio(t.self_s("engine.run"), c.get("events", 0.0), 1e6)),
    Metric("cache_manager.on_block_us", "us", "lower", _per_call_us("cache_manager.on_block")),
    Metric("cache_manager.register_us", "us", "lower", _per_call_us("cache_manager.register")),
    Metric("cache_manager.first_block_mean_ms", "ms", "lower", _counter("first_block_mean_ms")),
    Metric("cache_manager.first_block_p95_ms", "ms", "lower", _counter("first_block_p95_ms")),
    Metric("cache_manager.preempted_pct", "%", "lower", _counter("preempted_pct")),
    Metric("cache_manager.unanswered", "count", "lower", _counter("unanswered")),
    Metric("sharding.spawn_s", "s", "lower",
           lambda t, ticks, c: _ratio(t.total_s("sharding.spawn"), c.get("sharded_runs", 0.0))),
    Metric("sharding.barrier_wait_pct", "%", "lower", _counter("barrier_wait_pct")),
    Metric("sharding.imbalance_x", "x", "lower", _counter("imbalance_x")),
    Metric("sharding.sync_rounds", "count", "lower", _counter("sync_rounds")),
    Metric("sharding.transitions_merged", "count", "higher", _counter("transitions_merged")),
    Metric("transport.send_us", "us", "lower", _per_call_us("transport.send")),
    Metric("transport.recv_wait_ms", "ms", "lower",
           lambda t, ticks, c: _ratio(t.total_s("transport.recv"), t.count("transport.recv"), 1e3)),
    Metric("transport.codec_mb_s", "MB/s", "higher", _counter("codec_mb_s")),
    Metric("serve.boot_s", "s", "lower", _counter("serve.boot_s")),
    Metric("serve.cpu_total_s", "s", "lower", _counter("serve.cpu_total_s")),
    Metric("serve.push_block_us", "us", "lower", _per_call_us("serve.push_block")),
    Metric("serve.encode_block_us", "us", "lower", _per_call_us("serve.encode_block")),
    Metric("serve.ws_send_us", "us", "lower", _per_call_us("serve.ws_send")),
    Metric("serve.decode_msg_us", "us", "lower", _per_call_us("serve.decode_msg")),
    Metric("serve.blocks_pushed", "count", "higher", _counter("serve.blocks_pushed")),
    Metric("serve.events_received", "count", "higher", _counter("serve.events_received")),
    Metric("serve.frames_dropped_pct", "%", "lower", _counter("serve.frames_dropped_pct")),
    Metric("serve.push_gap_p50_ms", "ms", "lower", _counter("serve.push_gap_p50_ms")),
    Metric("serve.push_gap_p99_ms", "ms", "lower", _counter("serve.push_gap_p99_ms")),
    Metric("client.generator_late_p95_ms", "ms", "lower", _counter("client.generator_late_p95_ms")),
    Metric("client.generator_late_max_ms", "ms", "lower", _counter("client.generator_late_max_ms")),
    Metric("trace.overhead_x", "x", "lower", _counter("trace.overhead_x")),
    Metric("trace.spans", "count", "lower", lambda t, ticks, c: float(t.spans())),
    Metric("trace.coverage_pct", "%", "higher", _coverage_pct),
]


def layer_metrics(
    table: SpanTable, ticks: int, counters: Mapping[str, float]
) -> dict[str, dict]:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
    return {
        m.name: {"value": float(m.value(table, ticks, counters)), "unit": m.unit}
        for m in METRICS
    }
