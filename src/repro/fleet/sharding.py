"""Multiprocess fleet sharding: spawn workers, lock-step delta sync.

One Python process tops out near the N=32 fleet bench — the 150 ms
scheduling tick (PAPER.md §5) cannot amortize across more sessions
than one core can recompute in 150 ms.  The only cross-session state
in the whole stack is the crowd prior
(:class:`~repro.predictors.shared.SharedTransitionPrior`), and PR 7
makes it a CRDT, so the fleet partitions cleanly: hash-assign every
session to one of W worker processes, run a full, independent
``Simulator`` + ``FleetScheduleService`` + shared-backend stack per
shard, and exchange prior deltas at a configurable cadence.  Nothing
on any worker's hot path ever takes a lock or crosses a process
boundary.

This module is the *generic* half — routing, process lifecycle, the
barrier protocol, and worker supervision; it knows nothing about
fleets or priors beyond "workers exchange picklable payloads".  The
experiment-aware half lives in :mod:`repro.experiments`:
:class:`~repro.experiments.sharded.ShardCoordinator` keeps the
coordinator's state and supplies :func:`run_sharded`'s hooks,
:mod:`repro.experiments.shard_worker` runs one shard's fleet, and
:func:`~repro.experiments.runner.run_fleet_sharded` pools the results.

Protocol (bulk-synchronous, coordinator-relayed)::

    worker w:  for each sync point: run sim chunk; exchange(offer)
               then: result(report)
    coordinator: per round, gather one payload from every worker,
               broadcast each worker the OTHER workers' payloads;
               finally gather one result per worker.

Workers advance their discrete-event simulators to identical barrier
times between exchanges, so every shard sees every other shard's
transitions with bounded staleness (one sync interval).  The relay
gives O(W) pipe pairs instead of O(W²), and the coordinator is idle
between barriers — all CPU burns in the workers.

Supervision (optional): with a :class:`SupervisionPolicy` and a
``respawn`` factory, a worker is dead when its process exits or when a
gather hears nothing from it within ``timeout_s``; either way it is
quarantined and replaced — the factory builds a fresh
:class:`ShardTask` that re-runs the shard from the last completed sync
round (in the fleet case, replaying from the start the peer payloads
its predecessor received, which ``on_round`` sees keyed by shard, so
the replacement reaches the same state).  There is no other liveness
signal: a worker speaks only at barriers and with its result, so
``timeout_s`` must exceed a worker's longest stretch between them.
Restarts back off exponentially up to a per-shard budget; past it the
shard is *dropped*, its result slot left ``None`` and the loss
recorded in a :class:`ShardRecovery` log instead of tearing down the
surviving fleet; the fleet coordinator replays it from its last
checkpoint once the barriers are over.

Boot: workers use the spawn start method (fork would snapshot the
coordinator's heap, and the default differs across platforms).  The
coordinator starts every worker before it hands any of them its
:class:`ShardTask`, and the task travels over a one-shot pipe after
``Process.start`` rather than inside the spawn pickle.  A task carries
the whole fleet's traces, far more than the 64 KiB spawn pipe holds,
and the child imports ``repro`` in the middle of unpickling it; inside
the spawn pickle, ``start`` would block through that import and each
worker would boot only after the previous one had.  Entry points are
``"module:function"`` strings rather than callables, so the task is
plain data.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable, Optional, Sequence

from .ring import HashRing
from .transport import PipeTransport

__all__ = [
    "shard_of",
    "assign_shards",
    "ShardTask",
    "ShardChannel",
    "ShardError",
    "SupervisionPolicy",
    "ShardRecovery",
    "run_sharded",
]

# Rings are immutable per membership size; shard_of is on the routing
# hot path for every session of every worker, so cache per W.
_ring_cache: dict[int, HashRing] = {}


def _ring_for(num_shards: int) -> HashRing:
    ring = _ring_cache.get(num_shards)
    if ring is None:
        ring = _ring_cache[num_shards] = HashRing(range(num_shards))
    return ring


def shard_of(key: Any, num_shards: int) -> int:
    """Stable hash route: which shard owns ``key``?

    Routes over a consistent-hash ring (BLAKE2b based — Python's
    builtin ``hash`` is salted per process, which would route the same
    session to different shards in the coordinator and a worker).  For
    a given W the route is fixed: a session stays on one shard for the
    whole run.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return _ring_for(num_shards).route(key)


def assign_shards(keys, num_shards: int) -> list[list[Any]]:
    """Partition ``keys`` by :func:`shard_of`, preserving input order."""
    shards: list[list[Any]] = [[] for _ in range(num_shards)]
    for key in keys:
        shards[shard_of(key, num_shards)].append(key)
    return shards


@dataclass
class ShardTask:
    """Everything one worker process needs, as picklable data."""

    #: ``"package.module:function"`` resolved inside the worker; called
    #: as ``function(spec, channel)`` and its return value becomes this
    #: shard's entry in :func:`run_sharded`'s result list.
    entry: str
    #: Arbitrary picklable payload for the entry function.
    spec: Any
    shard: int
    num_shards: int


class ShardChannel:
    """Worker-side handle on the coordinator pipe."""

    def __init__(self, conn: Connection, shard: int, num_shards: int) -> None:
        self._conn = conn
        self.shard = shard
        self.num_shards = num_shards

    def exchange(self, payload: Any) -> list[Any]:
        """Barrier: offer ``payload``, receive every peer's offering.

        Blocks until all workers reach the same round.  Returns the
        other live workers' payloads (empty list when W=1 — the
        degenerate fleet syncs with nobody, which is what makes the
        W=1 run bit-identical to the unsharded one; also fewer than
        ``num_shards - 1`` entries once a supervised peer is lost).
        """
        self._conn.send(("sync", payload))
        kind, peers = self._conn.recv()
        if kind != "peers":  # pragma: no cover - protocol bug guard
            raise RuntimeError(f"expected peers, got {kind!r}")
        return peers

    def result(self, value: Any) -> None:
        """Ship the shard's final report to the coordinator."""
        self._conn.send(("result", value))


class ShardError(RuntimeError):
    """A worker process failed; carries the remote traceback."""

    def __init__(self, shard: int, remote_traceback: str) -> None:
        super().__init__(
            f"shard {shard} failed:\n{remote_traceback}"
        )
        self.shard = shard
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the coordinator reacts to a dead or wedged worker.

    Each shard gets ``max_restarts`` replacement attempts; the delay
    before attempt *k* is ``backoff_s * backoff_factor**(k-1)``.  A
    worker whose process exits, or that sends nothing within
    :func:`run_sharded`'s ``timeout_s``, is recycled the same way.
    """

    max_restarts: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_before(self, attempt: int) -> float:
        """Sleep before restart number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)


@dataclass
class ShardRecovery:
    """What supervision did during one :func:`run_sharded` call."""

    #: One entry per replacement worker spawned: (shard, round, attempt#).
    restarts: list[tuple[int, int, int]] = field(default_factory=list)
    #: Shards dropped after exhausting their restart budget.
    lost_shards: list[int] = field(default_factory=list)

    @property
    def recovered_shards(self) -> list[int]:
        """Shards that died at least once but finished the run."""
        return sorted(
            {s for s, _, _ in self.restarts} - set(self.lost_shards)
        )

    def snapshot(self, reabsorbed: Sequence[int] = ()) -> dict:
        """The report's supervision counts; shards in ``reabsorbed`` were
        lost but replayed to completion afterwards, so they are not lost."""
        return {
            "shards_recovered": len(self.recovered_shards),
            "shards_lost": sum(1 for k in self.lost_shards if k not in reabsorbed),
            "restarts": len(self.restarts),
        }


def _worker_entry(task_conn: Connection, conn) -> None:
    """Spawn target: read the task, then run its entry point on the channel.

    ``task_conn`` is the read end of a one-shot pipe that carries this
    worker's :class:`ShardTask` (see :meth:`_Supervisor.spawn`).
    ``conn`` is either a pipe ``Connection`` (the pipe transport hands
    the child its fd directly) or a connect-on-arrival spec like
    :class:`~repro.fleet.transport.TcpWorkerSpec` — anything with a
    ``connect()`` method is dialed here, inside the fresh process, once
    the task has arrived.
    """
    try:
        with task_conn:
            task: ShardTask = task_conn.recv()
        if hasattr(conn, "connect"):
            conn = conn.connect()
        module_name, _, func_name = task.entry.partition(":")
        fn: Callable = getattr(importlib.import_module(module_name), func_name)
        channel = ShardChannel(conn, task.shard, task.num_shards)
        value = fn(task.spec, channel)
        channel.result(value)
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


def _ensure_importable() -> None:
    """Make sure spawned children can ``import repro``.

    Spawn re-imports the target's module by name in a fresh
    interpreter; when the parent got ``repro`` from a ``sys.path``
    entry (pytest rootdir magic) rather than ``PYTHONPATH``, the child
    would not.  Prepend the package parent to ``PYTHONPATH`` so the
    child inherits it.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            root + (os.pathsep + existing if existing else "")
        )


def _recv(
    conn: Connection,
    proc: mp.process.BaseProcess,
    shard: int,
    timeout_s: Optional[float],
) -> tuple[str, Any]:
    """Receive one message, surfacing worker death instead of hanging.

    A worker is dead when its process exits or when nothing arrives
    within ``timeout_s``, measured on the monotonic clock from the call.
    """
    poll_s = 0.2
    started = time.monotonic()
    while True:
        if conn.poll(poll_s):
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError) as exc:
                # poll() also wakes on EOF: the worker died with its
                # pipe end open (os._exit, SIGKILL) and left no message.
                raise ShardError(
                    shard,
                    f"worker pipe closed mid-protocol "
                    f"(exit code {proc.exitcode}): {exc!r}",
                ) from exc
            if kind == "error":
                raise ShardError(shard, payload)
            return kind, payload
        if not proc.is_alive():
            # One last poll: the message may have raced process exit.
            if conn.poll(0):
                continue
            raise ShardError(
                shard, f"worker exited with code {proc.exitcode} mid-protocol"
            )
        if timeout_s is not None and time.monotonic() - started >= timeout_s:
            raise ShardError(shard, f"no message within {timeout_s:.0f}s")


def _dispose_proc(proc: mp.process.BaseProcess) -> None:
    """Stop one worker without leaving a zombie: terminate, then kill."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
        proc.kill()
        proc.join(timeout=5.0)


class _Supervisor:
    """Coordinator-side state for one supervised :func:`run_sharded`."""

    def __init__(
        self,
        ctx,
        tasks: list[ShardTask],
        policy: Optional[SupervisionPolicy],
        respawn: Optional[Callable[[int, int], ShardTask]],
        recovery: ShardRecovery,
        transport=None,
    ) -> None:
        self.ctx = ctx
        self.tasks = list(tasks)
        self.policy = policy
        self.respawn = respawn
        self.recovery = recovery
        self.transport = transport if transport is not None else PipeTransport()
        self.procs: list[Optional[mp.process.BaseProcess]] = [None] * len(tasks)
        self.pipes: list[Optional[Any]] = [None] * len(tasks)
        self.alive = [True] * len(tasks)
        self.attempts = [0] * len(tasks)

    @property
    def supervised(self) -> bool:
        return self.policy is not None and self.respawn is not None

    def spawn(self, slots: Iterable[int]) -> None:
        """Boot the workers in ``slots`` side by side.

        ``Process.start`` gets only small args — the read end of a
        one-shot task pipe and the transport's worker handle — so every
        start returns at once and the children import ``repro`` in
        parallel.  Each :class:`ShardTask` follows over its pipe once
        every slot has started.  A task inside the spawn pickle would
        overflow the 64 KiB spawn pipe and make ``start`` block while
        the child imports ``repro`` to unpickle it, serializing the
        boots.  A worker that dies before reading its task is not an
        error here: its next :meth:`gather` surfaces the death.
        """
        handoffs = []
        for i in slots:
            parent_conn, worker_handle = self.transport.open_endpoint(
                self.tasks[i].shard, self.attempts[i]
            )
            task_reader, task_writer = self.ctx.Pipe(duplex=False)
            proc = self.ctx.Process(
                target=_worker_entry, args=(task_reader, worker_handle), daemon=True
            )
            proc.start()
            # Drop the parent's copies of the child ends so EOF (and a
            # broken hand-off) propagates; a TCP worker spec holds
            # nothing to release.
            task_reader.close()
            self.transport.release_worker_handle(worker_handle)
            self.procs[i] = proc
            self.pipes[i] = parent_conn
            handoffs.append((i, task_writer))
        for i, task_writer in handoffs:
            with task_writer:
                try:
                    task_writer.send(self.tasks[i])
                except (BrokenPipeError, OSError):
                    pass

    def dispose(self, i: int) -> None:
        conn = self.pipes[i]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            self.pipes[i] = None
        proc = self.procs[i]
        if proc is not None:
            _dispose_proc(proc)
            self.procs[i] = None

    def gather(self, i: int, expect: str, next_round: int, timeout_s: Optional[float]) -> Any:
        """Receive one ``expect`` message from worker ``i``, recovering
        from worker death when supervision allows.

        Returns the payload, or ``None`` with ``alive[i]`` cleared when
        the shard had to be dropped.  Unsupervised, the first failure
        propagates as :class:`ShardError` exactly as before.
        """
        while True:
            try:
                kind, payload = _recv(
                    self.pipes[i],
                    self.procs[i],
                    self.tasks[i].shard,
                    timeout_s,
                )
                if kind != expect:
                    raise ShardError(
                        self.tasks[i].shard, f"expected {expect}, got {kind!r}"
                    )
                return payload
            except ShardError:
                if not self.supervised:
                    raise
                self.dispose(i)
                shard = self.tasks[i].shard
                self.attempts[i] += 1
                if self.attempts[i] > self.policy.max_restarts:
                    self.alive[i] = False
                    self.recovery.lost_shards.append(shard)
                    return None
                self.recovery.restarts.append((shard, next_round, self.attempts[i]))
                time.sleep(self.policy.backoff_before(self.attempts[i]))
                self.tasks[i] = self.respawn(shard, next_round)
                self.spawn([i])

    def broadcast(self, i: int, message: tuple[str, Any]) -> None:
        """Best-effort send; a dead receiver is caught at its next gather."""
        conn = self.pipes[i]
        if conn is None:
            return
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    def teardown(self) -> None:
        # Close parent pipe ends FIRST: a child blocked in exchange()
        # sees EOF and unwinds, instead of deadlocking against a parent
        # that is itself blocked in join().
        for conn in self.pipes:
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        for proc in self.procs:
            if proc is not None:
                _dispose_proc(proc)
        # Counters survive close(), so callers can snapshot after.
        self.transport.close()


def run_sharded(
    tasks: list[ShardTask],
    sync_rounds: int = 0,
    timeout_s: Optional[float] = None,
    on_round: Optional[Callable[[int, dict[int, Any]], None]] = None,
    supervision: Optional[SupervisionPolicy] = None,
    respawn: Optional[Callable[[int, int], ShardTask]] = None,
    recovery: Optional[ShardRecovery] = None,
    transport=None,
    before_round: Optional[Callable[[int], None]] = None,
) -> list[Any]:
    """Run one process per task with ``sync_rounds`` barrier exchanges.

    Every worker must call :meth:`ShardChannel.exchange` exactly
    ``sync_rounds`` times before returning — the coordinator gathers
    one payload per worker per round and relays each worker the
    others' payloads.  ``on_round(round_index, payloads)`` observes
    each completed barrier; ``payloads`` maps each live worker's shard
    to its payload, in the order every worker receives its peers' (the
    fleet coordinator folds them into an aggregate and logs them for a
    replacement worker to replay).  Returns the workers' entry-function
    return values, indexed by shard.

    Without ``supervision``, any worker failure tears the whole fleet
    down and raises :class:`ShardError` with the remote traceback —
    the original contract.  With ``supervision`` *and* a ``respawn``
    factory — called as ``respawn(shard, next_round)`` and expected to
    return a :class:`ShardTask` whose worker performs only the
    remaining ``sync_rounds - next_round`` exchanges — a worker whose
    process exits, or that sends nothing within ``timeout_s`` of a
    gather, is replaced with exponential backoff up to the policy's
    restart budget, and past it the shard is dropped: its result slot
    stays ``None``, the loss lands in ``recovery``, and the survivors
    finish.  Only when *every* shard is lost does the call still
    raise.  A dropped shard is the caller's to recover once the call
    returns; the fleet coordinator replays it from its last checkpoint.

    Optional hooks, off by default so the plain pipe protocol is unchanged:

    * ``transport`` — a driver with the :class:`PipeTransport` duck
      type; default is the pipe driver, ``TcpTransport`` carries the
      same protocol over framed loopback/LAN sockets.
    * ``before_round(round_index)`` — runs before each round's
      gathers; the chaos harness uses it to cut TCP links at an exact
      barrier.
    """
    if {t.shard for t in tasks} != set(range(len(tasks))):
        raise ValueError("task shard indices must be exactly 0..W-1")
    if supervision is not None and respawn is None:
        raise ValueError("supervision requires a respawn factory")
    _ensure_importable()
    ctx = mp.get_context("spawn")
    if recovery is None:
        recovery = ShardRecovery()
    sup = _Supervisor(ctx, tasks, supervision, respawn, recovery, transport)
    try:
        n = len(tasks)
        sup.spawn(range(n))
        for round_index in range(sync_rounds):
            if before_round is not None:
                before_round(round_index)
            offers: list[Optional[Any]] = [None] * n
            for i in range(n):
                if not sup.alive[i]:
                    continue
                offers[i] = sup.gather(i, "sync", round_index, timeout_s)
            if not any(sup.alive):
                raise ShardError(
                    sup.tasks[-1].shard, "all shards lost — nothing to supervise"
                )
            for i in range(n):
                if not sup.alive[i]:
                    continue
                peers = [
                    offers[j]
                    for j in range(n)
                    if j != i and sup.alive[j]
                ]
                sup.broadcast(i, ("peers", peers))
            if on_round is not None:
                on_round(
                    round_index,
                    {sup.tasks[i].shard: offers[i] for i in range(n) if sup.alive[i]},
                )
        results: list[Any] = [None] * n
        for i in range(n):
            if not sup.alive[i]:
                continue
            value = sup.gather(i, "result", sync_rounds, timeout_s)
            if sup.alive[i]:
                results[sup.tasks[i].shard] = value
        if not any(sup.alive):
            raise ShardError(
                sup.tasks[-1].shard, "all shards lost — nothing to supervise"
            )
        return results
    finally:
        sup.teardown()
