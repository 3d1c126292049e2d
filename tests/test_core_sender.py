"""Tests for the paced, pipelined sender."""

import numpy as np
import pytest

import repro.core.sender as sender_module
from repro.backends import FileSystemBackend
from repro.core import (
    GainTable,
    GreedyScheduler,
    LinearUtility,
    RequestDistribution,
    RingBufferCache,
    Sender,
)
from repro.core.throttle import BackendThrottle
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.sim import FixedRateLink, HarmonicMeanEstimator, Simulator


def make_world(
    n=4,
    nb=3,
    block=50_000,
    bw=1_000_000,
    fetch_delay=0.0,
    C=12,
    throttle_capacity=None,
    hedge=False,
    lookahead=4,
    warm=(),
    backend_cls=FileSystemBackend,
    mirrored=True,
):
    sim = Simulator()
    assets = {i: ImageAsset(image_id=i, size_bytes=nb * block) for i in range(n)}
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=block)
    backend = backend_cls(sim, encoder, fetch_delay_s=fetch_delay)
    if warm:  # responses the backend already holds when the sender starts
        for request in warm:
            backend.fetch(request, lambda _response: None)
        sim.run(until=fetch_delay + 1e-6)
    link = FixedRateLink(sim, bytes_per_second=bw)
    estimator = HarmonicMeanEstimator(bw)
    gains = GainTable(LinearUtility(), [nb] * n)
    mirror = RingBufferCache(C) if mirrored else None
    scheduler = GreedyScheduler(
        gains, cache_blocks=C, mirror=mirror, hedge_when_idle=hedge, seed=0
    )
    received = []
    throttle = None
    if throttle_capacity is not None:
        throttle = BackendThrottle(
            throttle_capacity, active=lambda: backend.active_requests
        )
    sender = Sender(
        sim=sim,
        scheduler=scheduler,
        backend=backend,
        link=link,
        estimator=estimator,
        deliver=lambda b: received.append((b, sim.now)),
        mirror=mirror,
        throttle=throttle,
        lookahead=lookahead,
    )
    return sim, scheduler, sender, backend, received, mirror


class LoadedBackend(FileSystemBackend):
    """A store that slows under concurrent reads: a fetch takes the base
    delay plus a tenth of it per read already in flight, so a burst's
    completions spread out in issue order instead of landing at once."""

    def _delay_s(self, request):
        return self.fetch_delay_s * (1.0 + 0.1 * self.active_requests)


def track_depth(sender):
    """Pipeline depth after every append (the fill's high-water marks)."""
    depths = []
    append = sender._append_pipeline

    def tracked(block):
        append(block)
        depths.append(len(sender._pipeline))

    sender._append_pipeline = tracked
    return depths


def sent(received):
    return [(b.request, b.index) for b, t in received]


class TestSending:
    def test_sends_scheduled_blocks_in_order(self):
        sim, sched, sender, backend, received, _ = make_world()
        sched.update_distribution(RequestDistribution.point(4, 2), 0.05)
        sender.start()
        sim.run(until=2.0)
        blocks = [b for b, t in received]
        assert [(b.request, b.index) for b in blocks[:3]] == [(2, 0), (2, 1), (2, 2)]

    def test_pacing_matches_bandwidth_estimate(self):
        """50 KB blocks at 1 MB/s: one block every 50 ms."""
        sim, sched, sender, backend, received, _ = make_world()
        sched.update_distribution(RequestDistribution.point(4, 1), 0.05)
        sender.start()
        sim.run(until=0.2)
        times = [t for b, t in received]
        assert times[0] == pytest.approx(0.05)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.05, abs=1e-6) for g in gaps)

    def test_fetch_delay_overlaps_with_transmission(self):
        """Fetch-ahead: backend latency shouldn't serialize with sends."""
        sim, sched, sender, backend, received, _ = make_world(
            n=8, fetch_delay=0.075, hedge=True
        )
        sched.update_distribution(RequestDistribution.uniform(8), 0.05)
        sender.start()
        sim.run(until=1.0)
        # 1 MB/s / 50 KB = 20 blocks/s.  After the initial fetch stall
        # (75 ms) the stream must run at wire rate — a serial
        # fetch+send loop would manage only 1/(0.075+0.05) = 8 blocks/s.
        assert len(received) >= 15
        times = [t for b, t in received]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.05, abs=1e-6) for g in gaps)

    def test_mirror_tracks_sent_blocks(self):
        sim, sched, sender, backend, received, mirror = make_world()
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()
        sim.run(until=0.5)
        assert mirror.block_count(0) == 3

    def test_counters(self):
        sim, sched, sender, backend, received, _ = make_world()
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()
        sim.run(until=0.5)
        assert sender.blocks_sent == 3
        assert sender.bytes_sent == 3 * 50_000


class TestRefresh:
    def test_new_distribution_reroutes_unsent_blocks(self):
        sim, sched, sender, backend, received, _ = make_world(fetch_delay=0.2)
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()

        def switch():
            sched.update_distribution(RequestDistribution.point(4, 3), 0.05)
            sender.refresh()

        sim.schedule(0.01, switch)  # before the first fetch completes
        sim.run(until=2.0)
        requests = [b.request for b, t in received]
        # After the switch, request 3's blocks dominate the stream.
        assert 3 in requests
        assert requests.count(3) == 3

    def test_refresh_before_start_is_safe(self):
        sim, sched, sender, backend, received, _ = make_world()
        sender.refresh()
        assert received == []


class TestStop:
    def test_stop_mid_pipeline_freezes_sends(self):
        """stop() must silence transmit events already on the heap.

        At 1 MB/s, 50 KB blocks go out at t = 0, 0.03, 0.08 (backlog
        pacing); stopping at t = 0.05 leaves the third transmit already
        scheduled — it must not put a block on the wire.
        """
        sim, sched, sender, backend, received, _ = make_world()
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()
        frozen = {}

        def stop_now():
            sender.stop()
            frozen["blocks"] = sender.blocks_sent
            frozen["bytes"] = sender.bytes_sent

        sim.schedule(0.05, stop_now)
        sim.run(until=5.0)
        assert frozen["blocks"] == 2  # fails without the _started guard
        assert sender.blocks_sent == frozen["blocks"]
        assert sender.bytes_sent == frozen["bytes"]
        # In-flight deliveries still land (the stop() contract).
        assert len(received) == frozen["blocks"]

    def test_stop_before_run_sends_nothing(self):
        sim, sched, sender, backend, received, _ = make_world()
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()  # schedules the first transmit at t=0
        sender.stop()
        sim.run(until=1.0)
        assert sender.blocks_sent == 0
        assert received == []


class TestThrottle:
    def test_backend_concurrency_respected(self):
        """With capacity 1, at most one uncached request fetches at a time."""
        sim, sched, sender, backend, received, _ = make_world(
            fetch_delay=0.5, throttle_capacity=1, hedge=True
        )
        sched.update_distribution(RequestDistribution.uniform(4), 0.05)
        sender.start()
        peak = []
        sim.every(0.01, lambda: peak.append(backend.active_requests))
        sim.run(until=0.4)
        assert max(peak) <= 1
        assert sender.blocks_deferred > 0

    def test_inflight_fetch_counts_as_materialized_after_refresh(self):
        """§5.4 admits "cached or in flight" requests without a slot.

        refresh() clears the pipeline while the head request's backend
        fetch is still running; re-admitting that request must ride the
        in-flight fetch instead of being deferred against the exhausted
        slot budget.
        """
        sim, sched, sender, backend, received, _ = make_world(
            fetch_delay=0.5, throttle_capacity=1
        )
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()

        def preempt():
            assert backend.is_inflight(0)
            sender.refresh()  # same distribution: request 0 reschedules

        sim.schedule(0.1, preempt)
        sim.run(until=2.0)
        assert sender.blocks_deferred == 0  # fails without is_inflight()
        assert [(b.request, b.index) for b, t in received] == [(0, 0), (0, 1), (0, 2)]


class TestPipelineCounts:
    """The O(1) _admit membership structure must mirror the deque exactly."""

    @staticmethod
    def counts_of(sender):
        actual = {}
        for entry in sender._pipeline:
            actual[entry.request] = actual.get(entry.request, 0) + 1
        return actual

    def test_counts_track_append_and_popleft(self):
        sim, sched, sender, backend, received, _ = make_world(n=8, hedge=True)
        sched.update_distribution(RequestDistribution.uniform(8), 0.05)
        sender.start()
        for until in (0.05, 0.15, 0.3, 0.6):
            sim.run(until=until)
            assert sender._pipeline_counts == self.counts_of(sender)

    def test_counts_cleared_on_refresh(self):
        sim, sched, sender, backend, received, _ = make_world(fetch_delay=0.2)
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()

        def preempt():
            sender.refresh()
            assert sender._pipeline_counts == self.counts_of(sender)

        sim.schedule(0.01, preempt)
        sim.run(until=1.0)
        assert sender._pipeline_counts == self.counts_of(sender)

    def test_take_pipeline_hands_back_blocks_and_clears(self):
        sim, sched, sender, backend, received, _ = make_world(fetch_delay=0.5)
        sched.update_distribution(RequestDistribution.point(4, 1), 0.05)
        sender.start()
        sim.run(until=0.01)
        assert len(sender._pipeline) > 0
        blocks = sender.take_pipeline()
        assert blocks
        assert len(sender._pipeline) == 0
        assert sender._pipeline_counts == {}
        # Contract: the caller owns the rollback.
        sched.rollback(blocks)
        assert sched.position == 0

    def test_throttled_fill_survives_batch_reset_boundary(self):
        """A deferral's rollback must never straddle a batch reset.

        With a tiny batch (C=3 < lookahead) the fill crosses resets
        constantly; if a window were drawn across one, rolling its tail
        back would hit cleared per-batch counts and raise.  The fill
        caps each pull at the remaining batch instead.
        """
        sim = Simulator()
        n, nb, block, C = 8, 3, 50_000, 3
        assets = {i: ImageAsset(image_id=i, size_bytes=nb * block) for i in range(n)}
        encoder = ProgressiveImageEncoder(assets, block_size_bytes=block)
        backend = FileSystemBackend(sim, encoder, fetch_delay_s=0.3)
        gains = GainTable(LinearUtility(), [nb] * n)
        # No mirror: per-batch counts clear on reset, so a rollback
        # that crossed the boundary would hit unallocated blocks.
        sched = GreedyScheduler(gains, cache_blocks=C, hedge_when_idle=True, seed=0)
        sender = Sender(
            sim=sim,
            scheduler=sched,
            backend=backend,
            link=FixedRateLink(sim, bytes_per_second=1_000_000),
            estimator=HarmonicMeanEstimator(1_000_000.0),
            deliver=lambda b: None,
            throttle=BackendThrottle(1, active=lambda: backend.active_requests),
            lookahead=8,
        )
        sched.update_distribution(RequestDistribution.uniform(n), 0.05)
        sender.start()
        sim.run(until=2.0)  # raises without the batch-boundary cap
        assert sender.blocks_sent > 0

    def test_admit_uses_counts_not_scan(self):
        """An in-pipeline request must admit without consuming a slot
        even when the backend has not materialized it yet."""
        sim, sched, sender, backend, received, _ = make_world(
            fetch_delay=0.5, throttle_capacity=1
        )
        sched.update_distribution(RequestDistribution.point(4, 2), 0.05)
        sender.start()
        sim.run(until=0.05)
        # Multiple blocks of request 2 sit in the pipeline behind one
        # in-flight fetch holding the only slot; none were deferred.
        assert sender._pipeline_counts.get(2, 0) >= 2
        assert sender.blocks_deferred == 0


class TestDemandSizedWindow:
    """Depth follows cached-ness: ``lookahead`` only while a queued
    request awaits the backend, :data:`READY_WINDOW` otherwise."""

    READY = sender_module.READY_WINDOW

    def test_cached_backend_sends_the_prefix_of_a_deep_fill(self):
        """What reaches the wire is the head of the same draw stream a
        ``lookahead``-deep fill reads — only the discarded tail differs."""
        world = dict(n=16, nb=3, C=48, hedge=True, lookahead=32, warm=range(16))
        sim, sched, sender, backend, received, _ = make_world(**world)
        _, reference, *_ = make_world(**world)
        dist = RequestDistribution.uniform(16)
        for scheduler in (sched, reference):
            scheduler.update_distribution(dist, 0.05)
        deep_fill = [(b.request, b.index) for b in reference.schedule_batch(32)]

        depths = track_depth(sender)
        start = sim.now
        sender.start()
        sim.run(until=start + 0.5)  # ~10 sends at 50 ms per block
        k = sender.blocks_sent
        assert 8 <= k < 32
        sender.stop()
        sim.run(until=start + 1.0)  # land what is on the wire
        assert sent(received) == deep_fill[:k]
        assert max(depths) == self.READY
        # The preemption hands back a ready window, not a lookahead.
        unsent = sender.take_pipeline()
        assert len(unsent) == self.READY
        assert [(b.request, b.index) for b in unsent] == deep_fill[k : k + self.READY]
        sched.rollback(unsent)
        assert sched.position == k

    def test_uncached_backend_matches_a_lookahead_deep_window(self, monkeypatch):
        """Every draw a new request, its 75+ ms fetch outlasting the
        50 ms between sends: something queued always awaits the backend,
        the window stays at ``lookahead``, and sends and fetch-issue
        times are those of a sender whose ready window *is*
        ``lookahead``."""

        def run(ready_window):
            monkeypatch.setattr(sender_module, "READY_WINDOW", ready_window)
            sim, sched, sender, backend, received, _ = make_world(
                n=200, nb=1, C=200, fetch_delay=0.075, hedge=True, lookahead=8,
                backend_cls=LoadedBackend,
            )
            issued = []
            fetch = backend.fetch

            def recording_fetch(request, on_complete):
                issued.append((sim.now, request))
                fetch(request, on_complete)

            backend.fetch = recording_fetch
            depths = track_depth(sender)
            sched.update_distribution(RequestDistribution.uniform(200), 0.05)
            sender.start()
            sim.run(until=2.0)
            return [(b.request, b.index, t) for b, t in received], issued, depths

        got, got_issued, depths = run(self.READY)
        want, want_issued, _ = run(8)
        assert len(got) > 30
        assert got == want
        assert got_issued == want_issued
        assert depths[:8] == list(range(1, 9))  # the opening fill ...
        assert set(depths[8:]) == {8}  # ... and one refill per send after it

    def test_uncached_draw_deepens_within_the_same_pump(self):
        sim, sched, sender, backend, received, _ = make_world(
            n=4, nb=20, C=60, fetch_delay=0.2, lookahead=16, warm=[0]
        )
        sched.update_distribution(RequestDistribution.point(4, 0), 0.05)
        sender.start()
        assert len(sender._pipeline) == self.READY
        assert not sender._awaiting

        sched.update_distribution(RequestDistribution.point(4, 1), 0.05)
        sender.refresh()  # one _pump: shallow pull, uncached, deepen
        assert len(sender._pipeline) == 16
        assert sender._awaiting == {1}
        assert backend.is_inflight(1)

        # Once the fetch lands the deep queue drains without drawing,
        # then rides the ready window again.
        depths = track_depth(sender)
        sim.run(until=sim.now + 1.5)
        assert not sender._awaiting
        assert len(sender._pipeline) <= self.READY
        assert max(depths, default=0) <= self.READY

    def test_awaiting_is_the_uncached_part_of_the_pipeline(self):
        """The incrementally kept set equals the scan it replaces."""
        sim, sched, sender, backend, received, _ = make_world(
            n=12, nb=2, C=12, fetch_delay=0.12, hedge=True, lookahead=8, warm=[0, 1, 2]
        )
        sched.update_distribution(RequestDistribution.uniform(12), 0.05)
        sender.start()
        seen_deep = seen_shallow = False
        for step in range(1, 120):
            sim.run(until=0.12 + step * 0.013)
            if step == 40:
                sender.refresh()
            queued = set(sender._pipeline_counts)
            assert sender._awaiting == {r for r in queued if not backend.is_cached(r)}
            seen_deep |= bool(sender._awaiting)
            seen_shallow |= not sender._awaiting
        assert seen_deep and seen_shallow

    def test_throttle_deferral_rolls_back_from_a_shallow_window(self):
        """§5.4 from the ready window: cached draws queue, the first
        draw needing a slot is deferred with the rest of its pull, and
        the scheduler's books still match the pipeline."""
        sim, sched, sender, backend, received, _ = make_world(
            n=8, nb=3, C=24, fetch_delay=5.0, throttle_capacity=1, hedge=True,
            warm=[0, 1, 2, 3], lookahead=16,
        )
        sender.throttle = BackendThrottle(1, active=lambda: 1)  # a peer holds the slot
        depths = track_depth(sender)
        sched.update_distribution(RequestDistribution.uniform(8), 0.05)
        sender.start()
        for step in range(1, 60):
            sim.run(until=5.0 + step * 0.01)
            assert sum(sched._pending.values()) == len(sender._pipeline)
        assert sender.blocks_deferred > 0
        assert sender.blocks_sent > 0
        assert {r for r, _ in sent(received)} <= {0, 1, 2, 3}
        assert max(depths) <= self.READY

    def test_shallow_window_survives_batch_reset_boundary(self):
        """``C`` below the ready window, no mirror (per-batch counts
        clear on reset), deferrals on a cached backend: no pull, hence
        no rollback, may straddle a reset."""
        C = 3
        sim, sched, sender, backend, received, _ = make_world(
            n=8, nb=3, C=C, fetch_delay=5.0, throttle_capacity=1, hedge=True,
            warm=[0, 1, 2, 3], lookahead=8, mirrored=False,
        )
        sender.throttle = BackendThrottle(1, active=lambda: 1)  # a peer holds the slot
        assert C < self.READY < sender.lookahead
        depths = track_depth(sender)
        sched.update_distribution(RequestDistribution.uniform(8), 0.05)
        sender.start()
        sim.run(until=8.0)  # rollback raises if a pull crossed a reset
        assert sender.blocks_deferred > 0
        assert sender.blocks_sent > 3 * C
        assert max(depths) <= self.READY

    @pytest.mark.parametrize("lookahead", [1, 2])
    @pytest.mark.parametrize("fetch_delay", [0.0, 0.2])
    def test_lookahead_below_the_ready_window_still_caps(self, lookahead, fetch_delay):
        assert lookahead < self.READY
        sim, sched, sender, backend, received, _ = make_world(
            n=8, hedge=True, fetch_delay=fetch_delay, lookahead=lookahead
        )
        depths = track_depth(sender)
        sched.update_distribution(RequestDistribution.uniform(8), 0.05)
        sender.start()
        sim.run(until=1.5)
        assert sender.blocks_sent > 5
        assert max(depths) == lookahead


class TestIdle:
    """An exhausted scheduler sleeps; the events that can give it work
    wake it (module docstring, *Idle*)."""

    def exhaust(self, monkeypatch):
        """Two 2-block requests under hedging, all four blocks sent."""
        ticks = []
        idle_tick = Sender._idle_tick
        monkeypatch.setattr(
            Sender, "_idle_tick", lambda self: (ticks.append(1), idle_tick(self))
        )
        world = make_world(n=2, nb=2, C=12, hedge=True)
        sim, sched, sender, backend, received, mirror = world
        sched.update_distribution(RequestDistribution.uniform(2), 0.05)
        sender.start()
        sim.run(until=1.0)
        assert sender.blocks_sent == 4 and len(received) == 4
        return world, ticks

    def test_exhausted_sender_schedules_nothing(self, monkeypatch):
        (sim, sched, sender, *_), ticks = self.exhaust(monkeypatch)
        events = sim.events_processed
        sim.run(until=5.0)
        assert sim.events_processed == events
        assert sim.pending_events == 0
        assert ticks == []
        assert sender.blocks_sent == 4

    def test_mirror_clear_wakes_the_sender_at_once(self, monkeypatch):
        """The clear makes every request incomplete again; the sender's
        evict listener re-pumps it in the same instant."""
        (sim, sched, sender, backend, received, mirror), _ = self.exhaust(monkeypatch)
        sent_at = []
        send = sender.link.send
        sender.link.send = lambda *a: (sent_at.append(sim.now), send(*a))
        sim.schedule_at(2.0, mirror.clear)
        sim.run(until=2.0)
        assert sent_at == [2.0]
        sim.run(until=3.0)
        assert sender.blocks_sent == 8

    def test_full_ring_books_match_after_every_event(self):
        """A ring smaller than the app evicts a live block on every
        send, so the listener fires mid-``_transmit``; it must not pump
        there, and the scheduler's pending count tracks the pipeline."""
        sim, sched, sender, backend, received, mirror = make_world(
            n=8, nb=3, C=4, hedge=True, fetch_delay=0.03
        )
        checked = []
        schedule_at = sim.schedule_at

        def checking(time, callback, *args):
            def fire(*a):
                callback(*a)
                assert sum(sched._pending.values()) == len(sender._pipeline)
                checked.append(1)

            return schedule_at(time, fire, *args)

        sim.schedule_at = checking
        put = mirror.put

        def put_drawing_nothing(block):
            drawn = sched.blocks_allocated
            evicted = put(block)
            assert sched.blocks_allocated == drawn  # no pump mid-send
            return evicted

        mirror.put = put_drawing_nothing
        # Every request explicit: a meta-pool draw can pick a request the
        # ring holds whole, and the sender's skip path then keeps its
        # pending count; that path is not what this test is about.
        dist = RequestDistribution.from_dense(np.ones((1, 8)), (0.05,))
        sched.update_distribution(dist, 0.05)
        sender.start()
        sim.run(until=2.0)
        assert mirror.blocks_received > 2 * mirror.capacity_blocks
        assert len(checked) > sender.blocks_sent > 20
        assert sender.blocks_skipped == 0


class TestValidation:
    def test_bad_params(self):
        sim, sched, sender, backend, received, _ = make_world()
        with pytest.raises(ValueError):
            Sender(
                sim=sim,
                scheduler=sched,
                backend=backend,
                link=FixedRateLink(sim, 1.0),
                estimator=HarmonicMeanEstimator(1.0),
                deliver=lambda b: None,
                lookahead=0,
            )
