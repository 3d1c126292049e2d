"""Tests for the weighted fair-shared downlink."""

import pytest

from repro.sim import FixedRateLink, SharedDownlink, Simulator
from repro.sim.traces import MahimahiTrace
from repro.sim.link import TraceDrivenLink


def make_shared(bw=1_000_000, delay=0.0):
    sim = Simulator()
    link = FixedRateLink(sim, bytes_per_second=bw, propagation_delay_s=delay)
    return sim, SharedDownlink(sim, link)


def saturate(sim, port, nbytes, count, record):
    """Keep ``count`` payloads of ``nbytes`` flowing through ``port``."""
    for _ in range(count):
        port.send(nbytes, lambda p: record.append((sim.now, p)), port.label)


class TestSinglePort:
    def test_sole_port_gets_full_capacity(self):
        sim, shared = make_shared(bw=1_000_000)
        port = shared.port()
        got = []
        saturate(sim, port, 50_000, 20, got)
        sim.run()
        # 20 x 50 KB at 1 MB/s: last delivery at t = 1.0 exactly.
        assert sim.now == pytest.approx(1.0)
        assert port.bytes_delivered == 1_000_000

    def test_fifo_order_within_port(self):
        sim, shared = make_shared()
        port = shared.port()
        got = []
        for i in range(5):
            port.send(10_000, got.append, i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_propagation_delay_applied(self):
        sim, shared = make_shared(bw=1_000_000, delay=0.1)
        port = shared.port()
        got = []
        port.send(50_000, lambda p: got.append(sim.now), None)
        sim.run()
        assert got == [pytest.approx(0.15)]


class TestFairness:
    def test_equal_weights_split_evenly(self):
        sim, shared = make_shared(bw=1_000_000)
        a, b = shared.port(label="a"), shared.port(label="b")
        got = []
        saturate(sim, a, 50_000, 40, got)
        saturate(sim, b, 50_000, 40, got)
        sim.run(until=1.0)
        # While both are backlogged each should get ~500 KB/s.
        assert a.bytes_delivered == pytest.approx(500_000, rel=0.15)
        assert b.bytes_delivered == pytest.approx(500_000, rel=0.15)

    def test_weighted_split_follows_weights(self):
        sim, shared = make_shared(bw=1_200_000)
        heavy = shared.port(weight=2.0, label="heavy")
        light = shared.port(weight=1.0, label="light")
        got = []
        saturate(sim, heavy, 40_000, 60, got)
        saturate(sim, light, 40_000, 60, got)
        sim.run(until=1.0)
        assert heavy.bytes_delivered / light.bytes_delivered == pytest.approx(
            2.0, rel=0.2
        )

    def test_aggressive_sender_cannot_starve_late_joiner(self):
        """The core multi-tenant guarantee: a port that dumps its whole
        backlog first must not monopolize the wire once another port
        has traffic."""
        sim, shared = make_shared(bw=1_000_000)
        hog, meek = shared.port(label="hog"), shared.port(label="meek")
        got = []
        # The hog enqueues 5 MB (5 seconds of wire time) at t=0.
        saturate(sim, hog, 100_000, 50, got)

        # The meek port sends one block shortly after.
        arrival = []
        sim.schedule(0.05, lambda: meek.send(50_000, lambda p: arrival.append(sim.now)))
        sim.run(until=6.0)
        # On a raw FIFO link the meek block would wait behind 5 MB
        # (~5 s); fair queueing serves it within a couple of payloads.
        assert arrival and arrival[0] < 0.5

    def test_unbacklogged_port_does_not_waste_capacity(self):
        """Work-conserving: an idle port's share goes to the busy one."""
        sim, shared = make_shared(bw=1_000_000)
        busy, idle = shared.port(), shared.port()
        got = []
        saturate(sim, busy, 50_000, 20, got)
        sim.run()
        assert sim.now == pytest.approx(1.0)  # full rate despite 2 ports


class TestQueueDelay:
    def test_queue_delay_reflects_fair_share_rate(self):
        sim, shared = make_shared(bw=1_000_000)
        a, b = shared.port(), shared.port()
        got = []
        saturate(sim, a, 100_000, 5, got)
        saturate(sim, b, 100_000, 5, got)
        # Each port holds ~500KB backlog minus what is serializing; at a
        # fair rate of 500 KB/s that is close to 1 s, far more than the
        # 0.5 s a raw-rate estimate would give.
        assert a.queue_delay() > 0.6
        assert b.queue_delay() > 0.6

    def test_empty_port_sees_only_physical_delay(self):
        sim, shared = make_shared(bw=1_000_000)
        a, b = shared.port(), shared.port()
        got = []
        saturate(sim, a, 100_000, 2, got)
        assert b.queue_delay() <= a.queue_delay()

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_backlogged_weight_equals_the_port_order_sum(self, seed):
        """The arbiter keeps the backlogged ports' total weight between
        the zero crossings of their backlogs; after every step of a
        random open / send / dispatch / close sequence it must be the
        very float a fresh sum in port order gives."""
        import random

        rng = random.Random(seed)
        sim, shared = make_shared(bw=1_000_000)
        live = []

        def check():
            fresh = sum(p.weight for p in shared.ports if p._queued_bytes > 0)
            assert shared._backlogged_weight() == (fresh if fresh > 0 else 1.0)
            for p in live:
                want = fresh if p._queued_bytes > 0 else fresh + p.weight
                assert shared._backlogged_weight(include=p) == want

        for _ in range(400):
            op = rng.random()
            if not live or op < 0.1:
                live.append(shared.port(weight=rng.uniform(0.1, 3.7)))
            elif op < 0.6:
                rng.choice(live).send(rng.choice((0, 1, 700, 20_000)), lambda p: None)
            elif op < 0.9:
                sim.run(until=sim.now + rng.uniform(0.0, 0.03))
            else:
                live.pop(rng.randrange(len(live))).close()
            check()
        assert shared.ports_retired > 0 and shared.payloads_dispatched > 0

    def test_trace_driven_link_rate_is_learned(self):
        sim = Simulator()
        trace = MahimahiTrace.constant_rate(1_500_000)
        shared = SharedDownlink(sim, TraceDrivenLink(sim, trace))
        port = shared.port()
        assert shared.rate_hint() is None
        got = []
        saturate(sim, port, 15_000, 10, got)
        sim.run(until=0.5)
        assert shared.rate_hint() == pytest.approx(1_500_000, rel=0.2)


class TestRetirement:
    """Session departure: a port closed mid-backlog must not stall the
    arbiter's virtual clock or strand capacity the survivors should get."""

    def test_close_drops_backlog_and_reports_it(self):
        sim, shared = make_shared(bw=1_000_000)
        port = shared.port(label="leaver")
        got = []
        saturate(sim, port, 100_000, 10, got)
        sim.run(until=0.15)  # one payload serialized, one on the wire
        dropped = port.close()
        assert port.closed
        assert dropped > 0
        assert port.backlog_bytes == 0
        assert shared.bytes_dropped == dropped
        assert shared.ports_retired == 1
        sim.run()
        # Only what was already on the physical serializer still lands.
        assert port.bytes_delivered < 10 * 100_000

    def test_close_is_idempotent(self):
        sim, shared = make_shared()
        port = shared.port()
        got = []
        saturate(sim, port, 50_000, 4, got)
        first = port.close()
        assert first > 0
        assert port.close() == 0
        assert shared.ports_retired == 1

    def test_departing_backlog_does_not_starve_survivors(self):
        """Regression: the departed port's queued megabytes must neither
        stall the virtual clock nor steal wire time from the survivor."""
        sim, shared = make_shared(bw=1_000_000)
        leaver = shared.port(label="leaver")
        stayer = shared.port(label="stayer")
        got = []
        # The leaver parks 5 MB (5 s of wire time); the stayer has 1 MB.
        saturate(sim, leaver, 100_000, 50, got)
        saturate(sim, stayer, 50_000, 20, got)
        sim.schedule(0.2, leaver.close)
        arrivals = []
        original_deliver = stayer._on_delivered

        def tracking(nbytes):
            arrivals.append(sim.now)
            original_deliver(nbytes)

        stayer._on_delivered = tracking
        sim.run(until=3.0)
        # After the departure the stayer owns the full 1 MB/s: its last
        # payload lands well before the shared-to-the-end ~1.9 s point,
        # and nothing the leaver queued occupies the wire after ~0.2 s.
        assert stayer.bytes_delivered == 1_000_000
        assert arrivals[-1] < 1.5
        # Survivor keeps transmitting after the departure (no stall).
        assert any(t > 0.25 for t in arrivals)

    def test_new_port_after_retirement_gets_capacity(self):
        """The arbiter keeps scheduling arrivals that come after a churn."""
        sim, shared = make_shared(bw=1_000_000)
        first = shared.port(label="first")
        got = []
        saturate(sim, first, 100_000, 10, got)
        sim.schedule(0.1, first.close)

        late_got = []

        def join():
            late = shared.port(label="late")
            saturate(sim, late, 50_000, 4, late_got)

        sim.schedule(0.2, join)
        sim.run()
        assert len(late_got) == 4

    def test_send_on_closed_port_is_an_error(self):
        sim, shared = make_shared()
        port = shared.port()
        port.close()
        with pytest.raises(ValueError):
            port.send(1_000, lambda p: None)


class TestValidation:
    def test_rejects_bad_weight_and_size(self):
        sim, shared = make_shared()
        with pytest.raises(ValueError):
            shared.port(weight=0.0)
        port = shared.port()
        with pytest.raises(ValueError):
            port.send(-1, lambda p: None)
