"""``sharding._recv`` timeouts, over a stub link and a patched clock.

A worker that keeps sending heartbeats but never a data message must
trip the total ``timeout_s`` on time: the polls a heartbeat ends count
towards it.  A silent worker trips the shorter quiet timeout, and
heartbeats keep a slow but live worker from tripping it.  Nothing
sleeps: the stub link advances the fake clock by what a poll would wait.
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
    """A worker that beacons every ``hb_s`` and sends ``data_at`` once."""

    def __init__(self, clock, hb_s=None, data_at=None):
        self.clock = clock
        self.next_hb = hb_s
        self.hb_s = hb_s
        self.data_at = data_at

    def _next_message(self):
        due = [t for t in (self.next_hb, self.data_at) if t is not None]
        return min(due) if due else None

    def poll(self, timeout):
        due = self._next_message()
        if due is not None and due <= self.clock.now + timeout:
            self.clock.now = max(self.clock.now, due)
            return True
        self.clock.now += timeout
        return False

    def recv(self):
        if self.data_at is not None and self.data_at <= self.clock.now:
            self.data_at = None
            return "sync", "payload"
        self.next_hb += self.hb_s
        return "hb", None


ALIVE = SimpleNamespace(is_alive=lambda: True, exitcode=None)


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(sharding, "time", fake)
    return fake


def test_heartbeats_do_not_stretch_the_total_timeout(clock):
    # 0.5 s beacons end every third 0.2 s poll early; counting only the
    # polls that timed out read 10 s of waiting at 12.5 s.
    link = StubLink(clock, hb_s=0.5)
    with pytest.raises(ShardError, match="no message within 10s"):
        sharding._recv(link, ALIVE, 0, timeout_s=10.0, quiet_timeout_s=3.0)
    assert 10.0 <= clock.now <= 10.2


def test_a_silent_worker_trips_the_quiet_timeout(clock):
    link = StubLink(clock)
    with pytest.raises(ShardError, match="wedged"):
        sharding._recv(link, ALIVE, 0, timeout_s=10.0, quiet_timeout_s=1.0)
    assert 1.0 <= clock.now <= 1.2


def test_heartbeats_hold_off_the_quiet_timeout(clock):
    link = StubLink(clock, hb_s=0.5, data_at=6.0)
    assert sharding._recv(link, ALIVE, 0, timeout_s=None, quiet_timeout_s=1.0) == (
        "sync",
        "payload",
    )
    assert clock.now == 6.0
