"""Shard liveness over a stub link and a patched clock.

A worker is dead when its process exits or when nothing arrives within
``timeout_s``: a silent worker trips that timeout on time, and a
message a gather does not expect (a liveness beacon, say) is a protocol
error rather than something to skip.  Nothing sleeps: the stub link
advances the fake clock by what a poll would wait.
"""

from types import SimpleNamespace

import pytest

from repro.fleet import ShardError, sharding


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


class StubLink:
    """A worker that sends ``message`` once, at ``at`` (never when None)."""

    def __init__(self, clock, at=None, message=("sync", "payload")):
        self.clock = clock
        self.at = at
        self.message = message

    def poll(self, timeout):
        if self.at is not None and self.at <= self.clock.now + timeout:
            self.clock.now = max(self.clock.now, self.at)
            return True
        self.clock.now += timeout
        return False

    def recv(self):
        self.at = None
        return self.message


ALIVE = SimpleNamespace(is_alive=lambda: True, exitcode=None)


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(sharding, "time", fake)
    return fake


def test_a_silent_worker_trips_the_timeout_on_time(clock):
    with pytest.raises(ShardError, match="no message within 10s"):
        sharding._recv(StubLink(clock), ALIVE, 0, timeout_s=10.0)
    assert 10.0 <= clock.now <= 10.2


def test_a_beacon_is_a_protocol_error(clock):
    task = sharding.ShardTask(entry="m:f", spec=None, shard=0, num_shards=1)
    sup = sharding._Supervisor(None, [task], None, None, sharding.ShardRecovery())
    sup.pipes[0] = StubLink(clock, at=0.5, message=("hb", None))
    sup.procs[0] = ALIVE
    with pytest.raises(ShardError, match="expected sync, got 'hb'"):
        sup.gather(0, "sync", 0, timeout_s=10.0)
    assert clock.now == 0.5
