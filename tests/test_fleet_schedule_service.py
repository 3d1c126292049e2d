"""Tests for the fleet-coalesced prediction tick."""

import pytest

from repro.backends import FileSystemBackend
from repro.core import LinearUtility, SessionConfig
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.fleet import (
    ArrivalConfig,
    FleetConfig,
    FleetScheduleService,
    KhameleonFleet,
)
from repro.predictors.simple import make_point_predictor
from repro.sim import ControlChannel, FixedRateLink, Simulator

BLOCK = 50_000


def make_fleet(
    num_sessions,
    batched,
    n=6,
    nb=3,
    bw=1_000_000,
    cache_blocks=24,
    arrival=None,
):
    sim = Simulator()
    assets = {i: ImageAsset(image_id=i, size_bytes=nb * BLOCK) for i in range(n)}
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=BLOCK)
    backend = FileSystemBackend(sim, encoder, fetch_delay_s=0.0)
    link = FixedRateLink(sim, bytes_per_second=bw, propagation_delay_s=0.01)
    fleet = KhameleonFleet(
        sim=sim,
        backend=backend,
        make_predictor=lambda i: make_point_predictor(n),
        utility=LinearUtility(),
        num_blocks=[nb] * n,
        downlink=link,
        make_uplink=lambda i: ControlChannel(sim, latency_s=0.01),
        config=FleetConfig(
            num_sessions=num_sessions,
            batched_prediction=batched,
            arrival=arrival,
            session=SessionConfig(
                cache_bytes=cache_blocks * BLOCK,
                block_bytes=BLOCK,
                initial_bandwidth_bytes_per_s=float(bw),
                lookahead=4,
            ),
        ),
    )
    return sim, fleet, backend


def run_static(num_sessions, batched, until=1.0):
    """Drive every session with a deterministic request script."""
    sim, fleet, backend = make_fleet(num_sessions, batched)
    for i, session in enumerate(fleet.sessions):
        # Requests at staggered times so predictor states keep changing.
        sim.schedule(0.02 + 0.05 * i, session.client.request, i % 6)
        sim.schedule(0.40 + 0.05 * i, session.client.request, (i + 2) % 6)
    fleet.start()
    sim.run(until=until)
    fleet.stop()
    streams = tuple(
        tuple(
            (o.request, o.latency_s, o.utility_at_upcall, o.blocks_at_upcall)
            for o in s.cache_manager.outcomes
        )
        for s in fleet.sessions
    )
    sent = tuple((s.sender.blocks_sent, s.sender.bytes_sent) for s in fleet.sessions)
    states = tuple(s.server.states_received for s in fleet.sessions)
    return sim, fleet, streams, sent, states


class TestStaticFleetEquivalence:
    def test_results_unchanged_vs_per_session_recompute(self):
        """The whole point: coalescing the ticks must not change what
        any session receives, serves, or measures."""
        _, _, streams_a, sent_a, states_a = run_static(5, batched=False)
        _, _, streams_b, sent_b, states_b = run_static(5, batched=True)
        assert streams_a == streams_b
        assert sent_a == sent_b
        assert states_a == states_b

    def test_one_batched_event_per_tick(self):
        """events_processed accounting: per-session mode pays one tick
        event + one uplink delivery per session per interval; batched
        mode pays one tick + one apply for the whole fleet."""
        sim_a, fleet_a, *_ = run_static(8, batched=False)
        sim_b, fleet_b, *_ = run_static(8, batched=True)
        service = fleet_b.schedule_service
        assert service is not None
        assert service.ticks > 0
        # Every tick where states changed coalesced into ONE apply event.
        assert service.batched_recomputes <= service.ticks
        assert service.sessions_recomputed >= 8 * 2  # both request waves
        # The coalesced fleet processes strictly fewer events, by at
        # least the (2 events/session - 2 events/fleet) tick savings.
        ticks = service.ticks
        assert sim_b.events_processed <= sim_a.events_processed - (ticks - 2)

    def test_service_disabled_leaves_no_service(self):
        _, fleet, _ = make_fleet(2, batched=False)
        assert fleet.schedule_service is None
        assert all(s.predictor_manager._task is not None for s in fleet.sessions)

    def test_service_enabled_owns_the_cadence(self):
        _, fleet, _ = make_fleet(2, batched=True)
        assert isinstance(fleet.schedule_service, FleetScheduleService)
        # Sessions register at start, not at construction.
        assert fleet.schedule_service.num_registered == 0
        fleet.start()
        assert fleet.schedule_service.num_registered == 2
        assert all(s.predictor_manager._task is None for s in fleet.sessions)

    def test_report_includes_prediction_diagnostics(self):
        _, fleet, _, _, _ = run_static(3, batched=True)
        report = fleet.report()
        assert "prediction" in report
        assert report["prediction"]["batched_recomputes"] > 0


class TestChurnWithService:
    def test_sessions_register_and_unregister_across_churn(self):
        arrival = ArrivalConfig(rate_per_s=4.0, mean_dwell_s=0.8, dwell_sigma=0.0, seed=1)
        sim, fleet, _ = make_fleet(6, batched=True, arrival=arrival)
        fleet.start()
        sim.run(until=4.0)
        fleet.stop()
        service = fleet.schedule_service
        assert fleet.manager.stats.admitted == 6
        assert fleet.manager.stats.departed > 0
        # Departed sessions must have unregistered themselves.
        assert service.num_registered == 0
        assert service.ticks > 0

    def test_departed_session_is_not_polled(self):
        arrival = ArrivalConfig(rate_per_s=50.0, mean_dwell_s=0.05, dwell_sigma=0.0, seed=2)
        sim, fleet, _ = make_fleet(3, batched=True, arrival=arrival)
        fleet.start()
        sim.run(until=2.0)
        fleet.stop()
        for session in fleet.sessions:
            assert not session.active
