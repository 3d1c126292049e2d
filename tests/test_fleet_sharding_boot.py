"""Boot order of :func:`run_sharded`, over a stub multiprocessing context.

No process starts and nothing is timed.  The stub context logs every
``Process.start`` and every task hand-off in one list; a stub worker
"runs" the moment its task arrives, queueing the messages its task
scripts on its coordinator link.  That is enough to check the boot
contract: every worker starts before any task is handed over, a
respawned worker gets its task, and a worker that dies before reading
its task is reported (or replaced) instead of hanging the coordinator.
"""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.fleet import (
    ShardError,
    ShardRecovery,
    ShardTask,
    SupervisionPolicy,
    run_sharded,
    sharding,
)


class StubLink:
    """Coordinator end of a worker link; the stub worker fills ``inbox``."""

    def __init__(self):
        self.inbox = deque()

    def poll(self, timeout=0.0):
        return bool(self.inbox)

    def recv(self):
        if not self.inbox:
            raise EOFError("stub worker sent nothing more")
        return self.inbox.popleft()

    def send(self, message):
        pass

    def close(self):
        pass


class StubTransport:
    """The worker handle names its slot and carries the link to fill."""

    def open_endpoint(self, shard, attempt):
        link = StubLink()
        return link, SimpleNamespace(shard=shard, attempt=attempt, link=link)

    def release_worker_handle(self, handle):
        pass

    def close(self):
        pass


class StubProcess:
    def __init__(self, ctx, task_reader, handle):
        self.ctx = ctx
        self.handle = handle
        self.exitcode = None
        self.alive = False
        task_reader.proc = self

    @property
    def key(self):
        return self.handle.shard, self.handle.attempt

    def start(self):
        self.ctx.log.append(("start", *self.key))
        if self.key in self.ctx.dies_at_boot:
            self.exitcode = 23
        else:
            self.alive = True

    def run(self, task):
        """Queue what the task scripts: one sync per round, then a
        result — or exit before ``crash_before_round``."""
        spec = task.spec
        for r in range(spec["rounds"]):
            if spec.get("crash_before_round") == r:
                self.alive, self.exitcode = False, 23
                return
            self.handle.link.inbox.append(("sync", f"{spec['tag']}:r{r}"))
        self.handle.link.inbox.append(
            ("result", {"tag": spec["tag"], "rounds_done": spec["rounds"]})
        )

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive, self.exitcode = False, -15

    def join(self, timeout=None):
        pass


class StubTaskReader:
    proc = None

    def close(self):
        pass  # the parent's copy; the stub child keeps reading


class StubTaskWriter:
    def __init__(self, reader, log):
        self.reader = reader
        self.log = log

    def send(self, task):
        proc = self.reader.proc
        if not proc.alive:
            raise BrokenPipeError("stub worker exited before reading its task")
        self.log.append(("task", *proc.key))
        proc.run(task)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class StubContext:
    def __init__(self, dies_at_boot=()):
        self.log = []
        self.dies_at_boot = set(dies_at_boot)

    def Pipe(self, duplex=True):
        assert not duplex
        reader = StubTaskReader()
        return reader, StubTaskWriter(reader, self.log)

    def Process(self, target, args, daemon):
        assert target is sharding._worker_entry and daemon
        return StubProcess(self, *args)


@pytest.fixture
def stub_ctx(monkeypatch):
    def install(**kwargs):
        ctx = StubContext(**kwargs)
        monkeypatch.setattr(
            sharding, "mp", SimpleNamespace(get_context=lambda method: ctx)
        )
        return ctx

    return install


def task(shard, num_shards, rounds, **extra):
    return ShardTask(
        entry="unused:stub",
        spec={"tag": f"s{shard}", "rounds": rounds, **extra},
        shard=shard,
        num_shards=num_shards,
    )


def run(tasks, rounds, **kwargs):
    # Stub links never wait: a stub worker has queued its messages or
    # exited by the time the coordinator polls, so timeout_s never runs out.
    return run_sharded(
        tasks, sync_rounds=rounds, timeout_s=5.0, transport=StubTransport(), **kwargs
    )


POLICY = SupervisionPolicy(max_restarts=2, backoff_s=0.0)


def test_every_worker_starts_before_the_first_task_handoff(stub_ctx):
    ctx = stub_ctx()
    results = run([task(k, 3, rounds=2) for k in range(3)], rounds=2)
    assert ctx.log == [
        ("start", 0, 0),
        ("start", 1, 0),
        ("start", 2, 0),
        ("task", 0, 0),
        ("task", 1, 0),
        ("task", 2, 0),
    ]
    assert [r["rounds_done"] for r in results] == [2, 2, 2]


def test_supervised_respawn_receives_its_task(stub_ctx):
    ctx = stub_ctx()
    recovery = ShardRecovery()
    results = run(
        [task(0, 2, rounds=3), task(1, 2, rounds=3, crash_before_round=1)],
        rounds=3,
        supervision=POLICY,
        respawn=lambda shard, next_round: task(shard, 2, rounds=3 - next_round),
        recovery=recovery,
    )
    assert recovery.restarts == [(1, 1, 1)]
    assert ctx.log[-2:] == [("start", 1, 1), ("task", 1, 1)]
    assert results[1]["rounds_done"] == 2


def test_worker_dead_before_its_task_raises_when_unsupervised(stub_ctx):
    ctx = stub_ctx(dies_at_boot={(1, 0)})
    with pytest.raises(ShardError, match="exited with code 23"):
        run([task(0, 2, rounds=1), task(1, 2, rounds=1)], rounds=1)
    assert ("task", 1, 0) not in ctx.log


def test_worker_dead_before_its_task_is_restarted_when_supervised(stub_ctx):
    ctx = stub_ctx(dies_at_boot={(1, 0)})
    recovery = ShardRecovery()
    results = run(
        [task(0, 2, rounds=1), task(1, 2, rounds=1)],
        rounds=1,
        supervision=POLICY,
        respawn=lambda shard, next_round: task(shard, 2, rounds=1 - next_round),
        recovery=recovery,
    )
    assert recovery.restarts == [(1, 0, 1)]
    assert ("task", 1, 0) not in ctx.log
    assert ctx.log[-2:] == [("start", 1, 1), ("task", 1, 1)]
    assert [r["rounds_done"] for r in results] == [1, 1]
