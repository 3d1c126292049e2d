"""``live2_kalman``: the one workload through ``repro.serve`` and a real socket.

A spawned ``python -m repro serve`` child on an ephemeral port, and as
many :class:`~repro.serve.client.LiveClient` connections as the box has
cores, all driven by one single-threaded asyncio generator.  The
generator is **open-loop**: every event of the (seeded, fixed-corpus)
mouse traces is due at its trace time whether or not earlier events
went out late, requests are timed from when they were *due*, and how
late the generator ran is reported.

The client side rebuilds the §6.1 accounting by replaying the received
``(t, block)`` and due ``(t, request)`` streams through the program's
own :class:`~repro.core.cache_manager.CacheManager` over a
:class:`~repro.core.cache.RingBufferCache`, so preemption and utility
mean exactly what they mean in the simulated workloads.

Child hygiene: 30 s readiness deadline, a hard deadline on the session,
and the server is always reaped (SIGTERM, then SIGKILL) — a failure is
a reported failure, never a hang or an orphan.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.core.blocks import Block
from repro.core.cache import RingBufferCache
from repro.core.cache_manager import CacheManager, RequestOutcome
from repro.experiments.configs import DEFAULT_ENV
from repro.predictors.layout import GridLayout
from repro.serve.client import LiveClient, LiveReport
from repro.workloads.image_app import ImageExplorationApp

from . import layers
from .spans import SpanTable
from .stats import median, percentile
from .workloads import TICK_S, client_counters, end_to_end, quality, seeded_traces

__all__ = ["LiveShape", "LIVE_SHAPE", "run_live", "ServerChild"]

READY_DEADLINE_S = 30.0
STOP_DEADLINE_S = 10.0
#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Wall seconds of a run that are not trace replay (boots, drain, byes).
OVERHEAD_S = 4.0
#: Frames the server may have counted as pushed but not yet written
#: when a client says bye (its outbox and the socket buffer).
IN_FLIGHT_FRAMES = 4



@dataclass(frozen=True)
class LiveShape:
    """Size of the live workload (the trace length comes from ``--seconds``)."""

    sessions: int = 2  # = cores of the reference box: one generator, one server
    bandwidth_per_session: float = 1_500_000.0
    predictor: str = "kalman"
    #: Stationary samples after the trace, as in the simulated workloads.
    hold_s: float = 1.0


LIVE_SHAPE = LiveShape()

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerChild:
    """A ``repro serve`` child process, always reaped on exit."""

    def __init__(self, shape: LiveShape, spans_out: Optional[Path] = None) -> None:
        args = [
            "serve", "--port", "0", "--scale", "quick",
            "--sessions", str(shape.sessions),
            "--bandwidth", str(int(shape.sessions * shape.bandwidth_per_session)),
            "--predictor", shape.predictor,
        ]
        if spans_out is None:
            self.command = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            self.command = [sys.executable, str(launcher), "--spans-out", str(spans_out), *args]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.boot_s = 0.0
        self.output = b""

    def __enter__(self) -> "ServerChild":
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, bufsize=0
        )
        try:
            self.port = self._await_ready(started + READY_DEADLINE_S)
        except BaseException:
            self._reap()
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def _await_ready(self, deadline: float) -> int:
        fd = self.proc.stdout.fileno()
        while True:
            match = re.search(rb"serving on ws://[^:]+:(\d+)/", self.output)
            if match:
                return int(match.group(1))
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"server not ready within {READY_DEADLINE_S:.0f} s")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"server exited early (rc={self.proc.wait()}): "
                        f"{self.output.decode(errors='replace')[-400:]}"
                    )
                self.output += chunk

    def cpu_s(self) -> float:
        """User + system CPU the child has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; the exit code, 0 if clean."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_DEADLINE_S)
            self.output += rest or b""
        except subprocess.TimeoutExpired:
            pass
        return self._reap()

    def _reap(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return code

    def __exit__(self, *exc) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                pass
            self._reap()


@dataclass
class Session:
    """What one replay against one server produced."""

    setup_s: float
    boot_s: float
    wall_s: float
    window_s: float  # first welcome -> last bye
    cpu_s: float  # server CPU inside the window
    peak_rss_mb: float
    outcomes: list[list[RequestOutcome]]
    bytes_received: int
    gaps_ms: list[float]
    late_ms: list[float]
    status: dict
    problems: list[str] = field(default_factory=list)

    @property
    def tick_cpu_ms(self) -> float:
        return 1e3 * self.cpu_s / (self.window_s / TICK_S)


async def _http_status(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /status HTTP/1.1\r\nHost: bench\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


class _ReplayClock:
    now = 0.0


def _client_outcomes(
    app: ImageExplorationApp, due_requests: list[tuple[float, int]], blocks: list
) -> list[RequestOutcome]:
    """§6.1 accounting of one connection, from its two wire streams."""
    clock = _ReplayClock()
    num_blocks = app.num_blocks
    manager = CacheManager(
        clock=clock,
        cache=RingBufferCache(DEFAULT_ENV.cache_bytes // app.block_bytes),
        num_blocks_of=num_blocks.__getitem__,
        utility=app.utility,
    )
    # Ties: a block that arrived at the instant a request was due is there.
    merged = [(t, 0, b) for t, b in blocks] + [(t, 1, r) for t, r in due_requests]
    for t, is_request, item in sorted(merged, key=lambda e: e[:2]):
        clock.now = t
        if is_request:
            manager.register(item)
        else:
            manager.on_block(item)
    return manager.outcomes


async def _replay(server: ServerChild, shape: LiveShape, trace_s: float, seed: int) -> Session:
    problems: list[str] = []
    connect_started = time.perf_counter()
    clients = [
        await LiveClient.connect("127.0.0.1", server.port) for _ in range(shape.sessions)
    ]
    welcomed = time.perf_counter()
    cpu0 = server.cpu_s()
    welcome = clients[0].report.welcome
    layout = GridLayout(
        welcome["rows"], welcome["cols"], welcome["cell_width"], welcome["cell_height"]
    )
    traces, _ = seeded_traces(layout, shape.sessions, trace_s, shape.hold_s, seed, 0)
    events = sorted(
        ((e.time_s, i, e) for i, trace in enumerate(traces) for e in trace.events),
        key=lambda item: item[:2],
    )
    due_requests: list[list[tuple[float, int]]] = [[] for _ in clients]
    late_ms: list[float] = []

    loop = asyncio.get_running_loop()
    start = loop.time()
    offsets = [client.now for client in clients]  # client clock at replay start
    for due, i, event in events:
        await asyncio.sleep(max(0.0, start + due - loop.time()))
        late_ms.append(1e3 * (loop.time() - start - due))
        clients[i].send_event(event.x, event.y)
        if event.request is not None:
            clients[i].send_request(event.request)
            due_requests[i].append((due, event.request))
    for client in clients:
        await client.drain()
    await asyncio.sleep(0.25)  # let blocks pushed for the last samples land
    reports: list[LiveReport] = [await client.bye() for client in clients]
    ended = time.perf_counter()
    cpu1 = server.cpu_s()
    status = await _http_status(server.port)

    app = ImageExplorationApp(
        rows=layout.rows, cols=layout.cols, block_bytes=welcome["block_bytes"]
    )
    outcomes, gaps_ms, received = [], [], 0
    for report, offset, requests in zip(reports, offsets, due_requests):
        stats = report.server_stats
        if stats is None:
            problems.append("a connection ended without server stats (frame decode failed?)")
            continue
        times = [b.t - offset for b in report.blocks]
        gaps_ms += [1e3 * (b - a) for a, b in zip(times, times[1:])]
        received += report.bytes_received
        short = stats["blocks_pushed"] - len(report.blocks)
        short_bytes = stats["bytes_pushed"] - report.bytes_received
        if not (0 <= short <= IN_FLIGHT_FRAMES and short_bytes == short * app.block_bytes):
            problems.append(
                f"server pushed {stats['blocks_pushed']} blocks / {stats['bytes_pushed']} B, "
                f"client decoded {len(report.blocks)} / {report.bytes_received} B"
            )
        if stats["frames_dropped"]:
            problems.append(f"{stats['frames_dropped']} frames shed")
        blocks = [
            (t, Block(request=b.request, index=b.index, size_bytes=b.size_bytes))
            for t, b in zip(times, report.blocks)
        ]
        outcomes.append(_client_outcomes(app, requests, blocks))
    sent = {"requests": sum(len(r) for r in due_requests), "events": len(events)}
    for kind, count in sent.items():
        if status[f"{kind}_received"] != count:
            problems.append(f"server received {status[f'{kind}_received']} {kind}, {count} sent")
    if status["sessions_rejected"]:
        problems.append(f"{status['sessions_rejected']} sessions rejected")
    return Session(
        setup_s=server.boot_s + (welcomed - connect_started),
        boot_s=server.boot_s,
        wall_s=ended - connect_started,
        window_s=ended - welcomed,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=server.peak_rss_mb(),
        outcomes=outcomes,
        bytes_received=received,
        gaps_ms=gaps_ms,
        late_ms=late_ms,
        status=status,
        problems=problems,
    )


def _serve_once(
    shape: LiveShape, trace_s: float, seed: int, spans_out: Optional[Path] = None
) -> Session:
    """Boot a server, replay ``trace_s`` of trace against it, drain it."""
    deadline = trace_s + shape.hold_s + 30.0
    with ServerChild(shape, spans_out) as server:
        session = asyncio.run(
            asyncio.wait_for(_replay(server, shape, trace_s, seed), deadline)
        )
        code = server.stop()
        if code != 0:
            session.problems.append(f"server exited {code} on SIGTERM")
    return session


def run_live(shape: LiveShape, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """One benchmark run of the live workload.

    Untraced: ``SETUP_BOOTS - 1`` short sessions (for the set-up
    median), then one that replays ``seconds - OVERHEAD_S`` of trace.
    Traced: two half-length sessions, the second behind
    ``serve_traced.py``; their CPU ratio is the tracing overhead.
    """
    trace_s = max(0.5, seconds - OVERHEAD_S - shape.hold_s)
    if not traced:
        probe = replace(shape, hold_s=0.25)
        sessions = [_serve_once(probe, 0.25, seed) for _ in range(SETUP_BOOTS - 1)]
        main = _serve_once(shape, trace_s, seed)
        sessions.append(main)
        table = None
    else:
        half_s = max(0.5, (seconds - OVERHEAD_S) / 2 - shape.hold_s)
        plain = _serve_once(shape, half_s, seed)
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"live-server-{os.getpid()}.spans.json"
        try:
            main = _serve_once(shape, half_s, seed, spans_out=spans_path)
            table = SpanTable.from_json(json.loads(spans_path.read_text()))
        finally:
            spans_path.unlink(missing_ok=True)
        sessions = [plain, main]

    problems = [p for s in sessions for p in s.problems]
    pooled = [o for stream in main.outcomes for o in stream]
    if not pooled:
        problems.append("no request was registered")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": problems, "span_table": table}

    if not traced:
        reported = end_to_end({
            "setup_s": median([s.setup_s for s in sessions]),
            "tick_cpu_ms": main.tick_cpu_ms,
            "run_wall_s": main.wall_s,
            **quality(pooled),
            "push_mb_s": main.bytes_received / main.window_s / 1e6,
            "peak_rss_mb": main.peak_rss_mb,
        })
    else:
        status = main.status
        pushed = status["blocks_pushed"]
        counters = {
            "blocks_sent": pushed,
            **client_counters(pooled),
            "serve.boot_s": main.boot_s,
            "serve.cpu_total_s": main.cpu_s,
            "serve.blocks_pushed": pushed,
            "serve.events_received": status["events_received"],
            "serve.frames_dropped_pct": 100.0 * status["frames_dropped"]
            / max(1, pushed + status["frames_dropped"]),
            "serve.push_gap_p50_ms": percentile(main.gaps_ms, 50),
            "serve.push_gap_p99_ms": percentile(main.gaps_ms, 99),
            "client.generator_late_p95_ms": percentile(main.late_ms, 95),
            "client.generator_late_max_ms": max(main.late_ms),
            "trace.overhead_x": main.tick_cpu_ms / plain.tick_cpu_ms,
        }
        reported = layers.layer_metrics(table, round(main.window_s / TICK_S), counters)

    return {
        "correct": not problems,
        "attempted": len(pooled) + shape.sessions,
        "failed": len(problems),
        "metrics": reported,
        "problems": problems,
        "span_table": table,
    }
