"""Command-line interface: regenerate any paper figure.

Usage::

    python -m repro list
    python -m repro fig6                 # default reduced scale
    python -m repro fig9 --scale quick
    python -m repro fig14 --out results.txt
    python -m repro serve --port 0      # live WebSocket frontend

Scales mirror the benchmark harness: ``quick`` / ``default`` /
``paper`` (the last takes hours — it is the authors' full
configuration run in a pure-Python simulator).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments.configs import ImageExperimentScale
from repro.metrics.report import format_table

__all__ = ["main", "FIGURES"]

_SCALES = {
    "quick": ImageExperimentScale(rows=12, cols=12, trace_duration_s=10.0, num_traces=1),
    "default": ImageExperimentScale(rows=16, cols=16, trace_duration_s=15.0, num_traces=1),
    "paper": ImageExperimentScale.paper(),
}

#: Figure name -> (driver in :mod:`repro.experiments.figures`,
#: takes_image_scale, description).  Drivers are looked up by name when
#: a figure runs, so the other subcommands never load the LP solver.
FIGURES: dict[str, tuple[str, bool, str]] = {
    "fig3": ("fig3_utility_curves", False, "utility curves (image SSIM vs linear)"),
    "fig5": ("fig5_thinktime_cdf", True, "think-time CDFs of both trace corpora"),
    "fig6": ("fig6_bandwidth_cache", True, "metrics vs bandwidth x cache"),
    "fig7": ("fig7_latency_vs_utility", True, "latency vs utility scatter"),
    "fig8": ("fig8_request_latency", True, "metrics vs request latency"),
    "fig9": ("fig9_think_time", True, "metrics vs think time x resources"),
    "fig10": ("fig10_convergence", True, "utility convergence after a pause"),
    "fig11": ("fig11_ablation", True, "ablation: predictor / progressive arms"),
    "fig12": ("fig12_predictors", True, "predictor sensitivity"),
    "fig13": ("fig13_cellular", True, "Verizon/AT&T LTE cellular links"),
    "fig14": ("fig14_falcon", False, "Falcon port (blocks x predictor x backend)"),
    "fig15": ("fig15_ilp_runtime", False, "ILP scheduler runtime"),
    "fig16": ("fig16_greedy_runtime", False, "greedy scheduler runtime"),
    "fig17": ("fig17_greedy_vs_ilp", False, "greedy vs ILP schedule utility"),
    "fig19": ("fig19_overpush", True, "overpush rate"),
    "appb1": ("appb1_prediction_frequency", True, "prediction-interval sensitivity"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Continuous Prefetch for "
        "Interactive Data Applications' (Khameleon).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures")
    fleet = sub.add_parser(
        "fleet",
        help="multi-session fleet serving over a shared backend + downlink",
    )
    fleet.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="sessions to build (static) or plan as arrivals (churn) (default: 8)",
    )
    fleet.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="application scale (default: reduced 'default' scale)",
    )
    fleet.add_argument(
        "--predictor",
        default="kalman",
        help="per-session predictor; 'shared-markov' adds the fleet-wide "
        "crowd prior (default: kalman)",
    )
    fleet.add_argument(
        "--backend-concurrency",
        type=int,
        default=None,
        help="shared backend throttle budget (default: unthrottled)",
    )
    fleet.add_argument(
        "--arrivals",
        type=float,
        default=0.0,
        metavar="RATE",
        help="Poisson session arrival rate per second; 0 = everyone at "
        "t=0, the static fleet (default: 0)",
    )
    fleet.add_argument(
        "--dwell",
        type=float,
        default=None,
        metavar="SECONDS",
        help="mean session dwell time (lognormal); default: stay to the end",
    )
    fleet.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="admission cap: arrivals beyond this many live sessions are "
        "rejected (default: admit all)",
    )
    fleet.add_argument(
        "--arrival-seed",
        type=int,
        default=0,
        help="seed for the arrival/dwell draws (default: 0)",
    )
    fleet.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="fault schedule, e.g. "
        "'worker-crash:1,backend-err:0.05,spike:0.02@1.0,outage:2-3' "
        "(default: well-behaved world)",
    )
    fleet.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault draws (default: 0)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="W",
        help="partition the fleet across this many worker processes "
        "(hash-routed sessions, CRDT crowd-prior sync, pooled report); "
        "default: run in-process, unsharded",
    )
    fleet.add_argument(
        "--sync-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="crowd-prior delta exchange cadence between shards "
        "(shared-markov only; default: 0.5)",
    )
    fleet.add_argument(
        "--transport",
        choices=["pipe", "tcp"],
        default="pipe",
        help="coordinator/worker link for sharded runs: in-process pipes, "
        "or framed loopback TCP with CRC checks, acks, retransmit, and "
        "partition detection (default: pipe)",
    )
    fleet.add_argument(
        "--prior-in",
        default=None,
        metavar="NPZ",
        help="warm-start the crowd prior from this file (shared-markov only)",
    )
    fleet.add_argument(
        "--prior-out",
        default=None,
        metavar="NPZ",
        help="save the (pooled) crowd prior here afterwards "
        "(shared-markov only)",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="snapshot every shard's recoverable state at this sync-round "
        "cadence so crashed workers resume instead of replaying "
        "(sharded runs only; 0 disables; default: 0)",
    )
    fleet.add_argument(
        "--checkpoint-out",
        default=None,
        metavar="JSON",
        help="persist the final fleet checkpoint bundle here (implies "
        "checkpointing; pairs with --chaos drain:R for a graceful drain)",
    )
    fleet.add_argument(
        "--checkpoint-in",
        default=None,
        metavar="JSON",
        help="resume every shard from this checkpoint bundle (sessions "
        "continue from their saved progress)",
    )
    fleet.add_argument("--out", help="also write the table to this file")
    serve = sub.add_parser(
        "serve",
        help="serve the fleet stack live over WebSockets (wall-clock time)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind host")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port; 0 picks an ephemeral port (printed at startup)",
    )
    serve.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="application grid scale (default: quick)",
    )
    serve.add_argument(
        "--predictor",
        default="kalman",
        help="live predictor: kalman / uniform / point / markov / "
        "shared-markov (default: kalman)",
    )
    serve.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        metavar="BYTES_PER_S",
        help="modeled egress bandwidth (default: the paper's 5.625 MB/s)",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=8,
        help="expected concurrent population (bandwidth prior divisor)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="admission cap (default: --sessions)",
    )
    serve.add_argument(
        "--backend-concurrency",
        type=int,
        default=None,
        help="shared backend throttle budget (default: unthrottled)",
    )
    serve.add_argument(
        "--prior-in",
        default=None,
        metavar="NPZ",
        help="warm-start the crowd prior from this file (shared-markov only)",
    )
    serve.add_argument(
        "--prior-out",
        default=None,
        metavar="NPZ",
        help="persist the crowd prior here on shutdown (shared-markov only)",
    )
    serve.add_argument(
        "--outbox-depth",
        type=int,
        default=1024,
        metavar="FRAMES",
        help="per-session outbox backpressure bound: frames beyond this "
        "depth are shed and counted, not buffered (default: 1024)",
    )
    serve.add_argument(
        "--ping-interval",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="probe idle WebSocket connections with a ping this often; "
        "0 disables liveness probing (default: 20)",
    )
    serve.add_argument(
        "--ping-misses",
        type=int,
        default=3,
        metavar="N",
        help="close a connection after this many consecutive unanswered "
        "pings (default: 3)",
    )
    serve.add_argument(
        "--run-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long then exit cleanly (default: forever)",
    )
    serve.add_argument(
        "--resume-grace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="park abruptly disconnected sessions this long; a hello "
        "carrying the session's resume token reattaches with pipeline, "
        "weight, and metrics intact (0 disables; default: 0)",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="server-side fault injection, e.g. 'disconnect:0@1.5' aborts "
        "session 0's socket 1.5 s after admission (default: none)",
    )
    for name, (_fn, _scaled, desc) in FIGURES.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument(
            "--scale",
            choices=sorted(_SCALES),
            default="default",
            help="experiment scale (default: reduced 'default' scale)",
        )
        p.add_argument("--out", help="also write the table to this file")
    return parser


def _run_fleet_command(args) -> list[tuple[list[dict], str]]:
    """Run a (static or churning) fleet; returns (rows, title) tables."""
    from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
    from repro.experiments.runner import run_fleet, run_fleet_sharded
    from repro.fleet import ArrivalConfig
    from repro.workloads.image_app import ImageExplorationApp
    from repro.workloads.mouse import MouseTraceGenerator

    scale = _SCALES[args.scale]
    app = ImageExplorationApp(rows=scale.rows, cols=scale.cols)
    traces = [
        MouseTraceGenerator(app.layout, seed=100 + i).generate(
            duration_s=scale.trace_duration_s
        )
        for i in range(args.sessions)
    ]
    arrival = None
    if args.arrivals > 0 or args.dwell is not None or args.max_concurrent is not None:
        arrival = ArrivalConfig(
            rate_per_s=args.arrivals,
            mean_dwell_s=args.dwell,
            max_concurrent=args.max_concurrent,
            seed=args.arrival_seed,
        )
    chaos = None
    if args.chaos:
        from repro.chaos import ChaosConfig

        chaos = ChaosConfig.parse(args.chaos, seed=args.chaos_seed)
        if chaos.has_worker_faults and args.shards is None:
            raise SystemExit("--chaos worker-crash needs --shards")
        if chaos.has_drain and args.shards is None:
            raise SystemExit("--chaos drain needs --shards")
    checkpoint = None
    if args.checkpoint_every or args.checkpoint_out or args.checkpoint_in:
        from repro.fleet import CheckpointConfig

        if args.shards is None:
            raise SystemExit("--checkpoint-* flags need --shards")
        if args.checkpoint_every < 0:
            raise SystemExit("--checkpoint-every must be >= 0")
        cadence = args.checkpoint_every
        if cadence == 0 and (args.checkpoint_out or args.checkpoint_in):
            cadence = 1  # persisting or resuming implies capturing
        checkpoint = CheckpointConfig(
            cadence_rounds=cadence,
            out_path=args.checkpoint_out,
            in_path=args.checkpoint_in,
        )
    fleet_env = FleetEnvironment(
        num_sessions=args.sessions,
        env=DEFAULT_ENV,
        backend_concurrency=args.backend_concurrency,
        arrival=arrival,
        chaos=chaos,
        checkpoint=checkpoint,
    )
    if (args.prior_in or args.prior_out) and args.predictor != "shared-markov":
        raise SystemExit("--prior-in/--prior-out need --predictor shared-markov")
    if args.shards is None and args.transport != "pipe":
        raise SystemExit("--transport needs --shards")
    if args.sync_interval < 0:
        raise SystemExit("--sync-interval must be >= 0")
    if args.shards is not None:
        if args.shards < 1:
            raise SystemExit("--shards must be >= 1")
        result = run_fleet_sharded(
            app,
            traces,
            fleet_env,
            num_shards=args.shards,
            predictor=args.predictor,
            sync_interval_s=args.sync_interval,
            shared_prior=args.prior_in,
            prior_out=args.prior_out,
            transport=args.transport,
        )
    else:
        prior = None
        if args.prior_in or args.prior_out:
            from repro.predictors.shared import SharedTransitionPrior

            # run_fleet observes into the prior it is handed, so saving
            # afterwards captures this run's contribution too — the
            # same contract as the sharded runner's pooled prior.
            prior = (
                SharedTransitionPrior.load(args.prior_in, n=app.num_requests)
                if args.prior_in
                else SharedTransitionPrior(app.num_requests)
            )
        result = run_fleet(
            app, traces, fleet_env,
            predictor=args.predictor, shared_prior=prior,
        )
        if args.prior_out:
            prior.save(args.prior_out)
    d = result.diagnostics
    title = (
        f"fleet: {args.sessions} sessions | link fairness "
        f"{d['link_fairness']:.3f} | shared backend hits "
        f"{100 * d['shared_hit_rate']:.1f}%"
    )
    churn = d.get("churn")
    if churn is not None:
        title += (
            f" | admitted {churn['admitted']}/{churn['arrivals']}"
            f" (rejected {churn['rejected']}, departed {churn['departed']})"
            f" | early hit {100 * d['early_hit_rate']:.1f}%"
        )
    sharding = d.get("sharding")
    if sharding is not None:
        title += (
            f" | shards {sharding['shards']}"
            f" ({sharding['sync_rounds']} sync rounds, "
            f"{sharding['transitions_merged']} transitions merged, "
            f"max shard CPU {max(sharding['cpu_run_s']):.2f}s)"
        )
        if chaos is not None or sharding["restarts"]:
            title += (
                f" | shards_recovered={sharding['shards_recovered']}"
                f" shards_lost={sharding['shards_lost']}"
                f" sessions_lost={sharding['sessions_lost']}"
            )
        if "sessions_resumed" in sharding:
            title += (
                f" | sessions_resumed={sharding['sessions_resumed']}"
                f" restore_verified={sharding['restore_verified']}"
                f" checkpoints={sharding['checkpoints_taken']}"
            )
            if sharding.get("drained_at_round") is not None:
                title += f" drained@r{sharding['drained_at_round']}"
        transport_d = sharding.get("transport")
        if transport_d is not None and transport_d["driver"] != "pipe":
            totals = transport_d["totals"]
            title += (
                f" | transport={transport_d['driver']}"
                f" retransmits={totals['retransmits']}"
                f" crc_rejects={totals['crc_rejects']}"
                f" partitions_detected={totals['partitions_detected']}"
            )
    chaos_d = d.get("chaos")
    if chaos_d is not None:
        title += (
            f" | chaos: {chaos_d['errors_injected']} errors, "
            f"{chaos_d['spikes_injected']} spikes, "
            f"{chaos_d['retries_scheduled']} retries, "
            f"{chaos_d['fetches_abandoned']} abandoned"
        )
    tables = [(result.rows(), title)]
    if result.cohorts:
        tables.append((result.cohort_rows(), "arrival cohorts (5 s buckets)"))
    return tables


def _run_serve_command(args) -> int:
    """Boot the wall-clock serving frontend (blocks until shutdown)."""
    import asyncio

    from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
    from repro.fleet import ArrivalConfig
    from repro.predictors.shared import SharedTransitionPrior
    from repro.serve import create_app

    scale = _SCALES[args.scale]
    env = DEFAULT_ENV
    if args.bandwidth is not None:
        env = env.with_bandwidth(args.bandwidth)
    arrival = (
        ArrivalConfig(max_concurrent=args.max_concurrent)
        if args.max_concurrent is not None
        else None
    )
    fleet_env = FleetEnvironment(
        num_sessions=args.sessions,
        env=env,
        backend_concurrency=args.backend_concurrency,
        arrival=arrival,
    )
    if (args.prior_in or args.prior_out) and args.predictor != "shared-markov":
        raise SystemExit("--prior-in/--prior-out need --predictor shared-markov")
    prior = None
    if args.prior_in:
        prior = SharedTransitionPrior.load(args.prior_in, n=scale.rows * scale.cols)
        print(f"prior: loaded {prior.transitions_observed} transitions "
              f"from {args.prior_in}", flush=True)
    chaos = None
    if args.chaos:
        from repro.chaos import ChaosConfig

        chaos = ChaosConfig.parse(args.chaos)
    app = create_app(
        fleet_env,
        rows=scale.rows,
        cols=scale.cols,
        predictor=args.predictor,
        host=args.host,
        port=args.port,
        prior=prior,
        outbox_depth=args.outbox_depth,
        ping_interval_s=args.ping_interval,
        ping_max_misses=args.ping_misses,
        resume_grace_s=args.resume_grace,
        chaos=chaos,
    )

    async def _serve() -> None:
        import signal

        await app.start()
        # Machine-parseable: the smoke client greps this line for the
        # bound port (required when --port 0 picks an ephemeral one).
        print(f"serving on ws://{app.host}:{app.port}/ "
              f"({app.app.num_requests} requests, predictor={args.predictor}, "
              f"cap={app.max_concurrent})", flush=True)
        # SIGTERM = graceful drain: stop admitting, close every live
        # socket with 1001 "going away", exit 0.
        drain = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, drain.set)
            loop.add_signal_handler(signal.SIGINT, drain.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loop: Ctrl-C still raises KeyboardInterrupt

        async def _until_drained(awaitable) -> None:
            drained = asyncio.ensure_future(drain.wait())
            work = asyncio.ensure_future(awaitable)
            try:
                await asyncio.wait(
                    {drained, work}, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                drained.cancel()
                work.cancel()

        try:
            if args.run_for is not None:
                await _until_drained(asyncio.sleep(args.run_for))
            else:
                await _until_drained(app.serve_forever())
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            if drain.is_set():
                print("drain: SIGTERM received, retiring sessions", flush=True)
            await app.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    s = app.stats
    print(
        f"served: {s.sessions_admitted} admitted, {s.sessions_rejected} "
        f"rejected, {s.sessions_detached} detached, {s.blocks_pushed} "
        f"blocks ({s.bytes_pushed} B) pushed, {s.frames_dropped} frames "
        f"dropped, {s.pings_sent} pings sent, {s.idle_closed} idle-closed",
        flush=True,
    )
    if s.sessions_parked or s.sessions_resumed or s.resume_rejected:
        print(
            f"resume: {s.sessions_parked} parked, {s.sessions_resumed} "
            f"resumed, {s.resume_rejected} rejected",
            flush=True,
        )
    if args.prior_out:
        app.prior.save(args.prior_out)
        print(
            f"prior: saved {app.prior.transitions_observed} transitions "
            f"to {args.prior_out}",
            flush=True,
        )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(n) for n in FIGURES)
        for name, (_fn, _scaled, desc) in FIGURES.items():
            print(f"{name:<{width}}  {desc}")
        return 0

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "fleet":
        table = "\n\n".join(
            format_table(rows, title=title)
            for rows, title in _run_fleet_command(args)
        )
    else:
        from repro.experiments import figures

        driver_name, takes_scale, desc = FIGURES[args.command]
        driver = getattr(figures, driver_name)
        rows = driver(scale=_SCALES[args.scale]) if takes_scale else driver()
        title = f"{args.command}: {desc}"
        table = format_table(rows, title=title)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
