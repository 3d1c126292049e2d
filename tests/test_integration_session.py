"""End-to-end integration: a full Khameleon session over a simulated link.

These tests exercise the whole §3.2 architecture at once: predictor
manager → control channel → server decode → scheduler → sender →
downlink → client cache → upcalls.
"""

from collections import Counter

import pytest

from repro.backends import FileSystemBackend
from repro.core import KhameleonSession, SessionConfig, ssim_image_utility
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.predictors import (
    GridLayout,
    MouseEvent,
    make_kalman_predictor,
    make_point_predictor,
    make_uniform_predictor,
)
from repro.sim import ControlChannel, FixedRateLink, Simulator


def build_session(
    n_side=5,
    image_bytes=150_000,
    block=50_000,
    bw=1_000_000,
    cache_bytes=600_000,
    latency_s=0.0125,
    predictor=None,
):
    sim = Simulator()
    grid = GridLayout(rows=n_side, cols=n_side, cell_width=50, cell_height=50)
    n = grid.num_requests
    assets = {i: ImageAsset(image_id=i, size_bytes=image_bytes) for i in range(n)}
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=block)
    backend = FileSystemBackend(sim, encoder, fetch_delay_s=0.0375)
    downlink = FixedRateLink(sim, bytes_per_second=bw, propagation_delay_s=latency_s)
    uplink = ControlChannel(sim, latency_s=latency_s)
    predictor = predictor or make_kalman_predictor(grid)
    session = KhameleonSession(
        sim=sim,
        backend=backend,
        predictor=predictor,
        utility=ssim_image_utility(),
        num_blocks=[encoder.num_blocks(r) for r in range(n)],
        downlink=downlink,
        uplink=uplink,
        config=SessionConfig(
            cache_bytes=cache_bytes,
            block_bytes=block,
            initial_bandwidth_bytes_per_s=bw,
        ),
    )
    return sim, session, grid


class TestPushPipeline:
    def test_blocks_flow_without_any_request(self):
        """The server hedges uniformly from t=0 — push, not pull."""
        sim, session, grid = build_session()
        session.start()
        sim.run(until=1.0)
        assert session.client.blocks_received > 10

    def test_client_cache_and_mirror_agree(self):
        """The server's FIFO mirror replicates the client cache exactly.

        The mirror records blocks at *send* time and the client at
        *delivery* time, so the comparison is made after stopping the
        sender and draining in-flight blocks.
        """
        sim, session, grid = build_session()
        session.start()
        sim.run(until=2.0)
        session.sender.stop()
        sim.run(until=3.0)  # drain the delivery pipeline
        client_view = {
            r: session.cache.block_indices(r) for r in session.cache.cached_requests()
        }
        mirror_view = {
            r: session.mirror.block_indices(r) for r in session.mirror.cached_requests()
        }
        assert client_view == mirror_view

    def test_request_for_cached_data_hits(self):
        sim, session, grid = build_session()
        session.start()
        sim.run(until=2.0)
        cached = sorted(session.cache.cached_requests())
        assert cached
        outcome = session.client.request(cached[0])
        assert outcome.cache_hit
        assert outcome.latency_s == 0.0

    def test_request_for_uncached_data_waits_for_push(self):
        """A point predictor steers the stream to the missed request."""
        sim, session, grid = build_session(predictor=make_point_predictor(25))
        session.start()

        outcomes = []
        sim.schedule(0.2, lambda: outcomes.append(session.client.request(24)))
        sim.run(until=3.0)
        outcome = outcomes[0]
        assert outcome.served
        assert outcome.latency_s < 1.0

    def test_mouse_events_steer_the_stream(self):
        """Hovering near a cell makes its blocks arrive preferentially.

        Counted over the hover window, not read off the 12-block FIFO
        ring at one instant: the ring turns over in 0.6 s at this link
        rate, so whether the target is resident at a given moment says
        more about the sample time than about the steering.
        """
        sim, session, grid = build_session()
        target = grid.request_at(125, 125)  # centre cell
        arrived = Counter()
        downstream = session.sender.deliver

        def deliver(block):
            arrived[block.request] += 1
            downstream(block)

        session.sender.deliver = deliver
        session.start()

        def hover(i):
            session.client.observe(MouseEvent(125.0, 125.0))

        for i in range(40):
            sim.schedule(0.02 * i, hover, i)
        sim.run(until=1.0)  # the 0.8 s hover plus its blocks' transit
        per_request_mean = sum(arrived.values()) / grid.num_requests
        assert arrived[target] > per_request_mean

    def test_bandwidth_estimator_converges_to_link_rate(self):
        sim, session, grid = build_session(bw=2_000_000)
        # Deliberately misconfigure the initial estimate.
        session.estimator._initial = 500_000.0
        session.start()
        sim.run(until=3.0)
        assert session.estimator.estimate == pytest.approx(2_000_000, rel=0.2)

    def test_utility_converges_when_user_pauses(self):
        """Fig. 10 mechanism: paused request climbs to utility 1."""
        sim, session, grid = build_session(predictor=make_point_predictor(25))
        session.start()
        outcomes = []
        sim.schedule(0.1, lambda: outcomes.append(session.client.request(12)))
        sim.run(until=4.0)
        outcome = outcomes[0]
        assert outcome.served
        final_utility = (
            outcome.improvements[-1].utility
            if outcome.improvements
            else outcome.utility_at_upcall
        )
        assert final_utility == pytest.approx(1.0)

    def test_stop_cancels_periodic_work(self):
        sim, session, grid = build_session()
        session.start()
        sim.run(until=0.5)
        session.stop()
        sim.run(until=1.0)  # in-flight fetches, states and blocks land
        landed = sim.events_processed
        sim.run(until=5.0)
        assert sim.events_processed == landed
        assert session.predictor_manager._task.cancelled


class TestResourceSensitivity:
    def test_more_bandwidth_fills_cache_faster(self):
        def occupancy(bw):
            sim, session, grid = build_session(bw=bw)
            session.start()
            sim.run(until=1.0)
            return session.cache.occupancy()

        assert occupancy(2_000_000) > occupancy(500_000)

    def test_cache_never_exceeds_configured_blocks(self):
        sim, session, grid = build_session(cache_bytes=300_000, block=50_000)
        session.start()
        sim.run(until=3.0)
        assert session.cache.occupancy() <= 6

    def test_uniform_predictor_spreads_cache_across_requests(self):
        sim, session, grid = build_session(
            predictor=make_uniform_predictor(25), cache_bytes=1_200_000
        )
        session.start()
        sim.run(until=3.0)
        assert len(session.cache.cached_requests()) >= 8
