"""Tests for dynamic fleet serving: arrivals, admission, departures."""

import pytest

from repro.backends import FileSystemBackend
from repro.core import LinearUtility, SessionConfig
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.fleet import ArrivalConfig, FleetConfig, KhameleonFleet
from repro.predictors.simple import make_point_predictor, make_uniform_predictor
from repro.sim import ControlChannel, FixedRateLink, Simulator

BLOCK = 50_000


def make_fleet(
    num_sessions,
    n=6,
    nb=3,
    bw=1_000_000,
    weights=None,
    arrival=None,
    predictor="point",
    cache_blocks=24,
):
    sim = Simulator()
    assets = {i: ImageAsset(image_id=i, size_bytes=nb * BLOCK) for i in range(n)}
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=BLOCK)
    backend = FileSystemBackend(sim, encoder)
    link = FixedRateLink(sim, bytes_per_second=bw, propagation_delay_s=0.01)
    make = make_point_predictor if predictor == "point" else make_uniform_predictor
    fleet = KhameleonFleet(
        sim=sim,
        backend=backend,
        make_predictor=lambda i: make(n),
        utility=LinearUtility(),
        num_blocks=[nb] * n,
        downlink=link,
        make_uplink=lambda i: ControlChannel(sim, latency_s=0.01),
        config=FleetConfig(
            num_sessions=num_sessions,
            weights=weights,
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


class TestArrivalConfig:
    def test_default_is_static(self):
        assert ArrivalConfig().is_static
        assert not ArrivalConfig(rate_per_s=1.0).is_static
        assert not ArrivalConfig(mean_dwell_s=5.0).is_static
        assert not ArrivalConfig(max_concurrent=2).is_static

    def test_plan_is_deterministic(self):
        cfg = ArrivalConfig(rate_per_s=0.5, mean_dwell_s=4.0, seed=3)
        assert cfg.plan(10) == cfg.plan(10)
        other = ArrivalConfig(rate_per_s=0.5, mean_dwell_s=4.0, seed=4)
        assert cfg.plan(10) != other.plan(10)

    def test_static_plan_puts_everyone_at_t0_forever(self):
        plans = ArrivalConfig().plan(4)
        assert [p.arrival_s for p in plans] == [0.0, 0.0, 0.0, 0.0]
        assert all(p.dwell_s is None for p in plans)

    def test_poisson_arrivals_are_ordered_and_positive(self):
        plans = ArrivalConfig(rate_per_s=2.0, seed=1).plan(20)
        times = [p.arrival_s for p in plans]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_dwells_follow_the_configured_mean(self):
        plans = ArrivalConfig(rate_per_s=1.0, mean_dwell_s=6.0, seed=0).plan(400)
        mean = sum(p.dwell_s for p in plans) / len(plans)
        assert mean == pytest.approx(6.0, rel=0.15)

    def test_zero_sigma_makes_dwell_exact(self):
        plans = ArrivalConfig(mean_dwell_s=3.0, dwell_sigma=0.0).plan(5)
        assert all(p.dwell_s == pytest.approx(3.0) for p in plans)

    def test_expected_concurrency_is_littles_law_capped(self):
        assert ArrivalConfig().expected_concurrency(8) == 8.0
        # rate x dwell = 2 live sessions expected.
        assert ArrivalConfig(rate_per_s=0.5, mean_dwell_s=4.0).expected_concurrency(8) == 2.0
        assert ArrivalConfig(rate_per_s=10.0, mean_dwell_s=10.0, max_concurrent=3).expected_concurrency(8) == 3.0
        assert ArrivalConfig(rate_per_s=0.001, mean_dwell_s=1.0).expected_concurrency(8) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalConfig(rate_per_s=-1.0)
        with pytest.raises(ValueError):
            ArrivalConfig(mean_dwell_s=0.0)
        with pytest.raises(ValueError):
            ArrivalConfig(dwell_sigma=-0.1)
        with pytest.raises(ValueError):
            ArrivalConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            ArrivalConfig().plan(0)


class TestDegenerateCase:
    def test_manager_path_with_static_process_matches_static_fleet(self):
        """Rate-0 arrivals through the SessionManager must reproduce the
        eagerly built fleet bit for bit (same requests, same outcomes)."""
        n_sessions = 3

        def drive_static():
            sim, fleet, backend = make_fleet(n_sessions)
            assert fleet.manager is None
            for i, session in enumerate(fleet.sessions):
                sim.schedule_at(0.1 * (i + 1), session.client.request, i)
            fleet.start()
            sim.run(until=2.0)
            fleet.stop()
            return fleet

        def drive_dynamic():
            # max_concurrent forces the manager path; the process itself
            # is still "everyone at t=0, no departures".
            arrival = ArrivalConfig(max_concurrent=n_sessions)
            sim, fleet, backend = make_fleet(n_sessions, arrival=arrival)
            assert fleet.manager is not None

            def on_admit(record):
                sim.schedule_at(
                    0.1 * (record.index + 1),
                    record.session.client.request,
                    record.index,
                )

            fleet.manager.on_admit = on_admit
            fleet.start()
            sim.run(until=2.0)
            fleet.stop()
            return fleet

        static = drive_static()
        dynamic = drive_dynamic()
        assert len(dynamic.sessions) == n_sessions

        def fingerprint(fleet):
            return [
                [
                    (o.request, o.logical_ts, o.registered_at, o.served_at,
                     o.cache_hit, o.preempted, o.blocks_at_upcall)
                    for o in outcomes
                ]
                for outcomes in fleet.outcomes_by_session()
            ]

        assert fingerprint(static) == fingerprint(dynamic)
        assert [s.sender.blocks_sent for s in static.sessions] == [
            s.sender.blocks_sent for s in dynamic.sessions
        ]
        assert [p.bytes_delivered for p in static.ports] == [
            p.bytes_delivered for p in dynamic.ports
        ]


class TestAdmissionControl:
    def test_oversubscribed_fleet_rejects_at_the_door(self):
        # 4 planned arrivals, nobody departs, at most 2 admitted.
        arrival = ArrivalConfig(rate_per_s=5.0, max_concurrent=2, seed=2)
        sim, fleet, backend = make_fleet(4, arrival=arrival)
        fleet.start()
        sim.run(until=5.0)
        fleet.stop()
        stats = fleet.manager.stats
        assert stats.arrivals == 4
        assert stats.admitted == 2
        assert stats.rejected == 2
        assert stats.peak_concurrent == 2
        assert len(fleet.sessions) == 2
        rejected = [r for r in fleet.manager.records if r.rejected]
        assert len(rejected) == 2
        assert all(r.session is None for r in rejected)

    def test_departures_free_admission_slots(self):
        # Short dwells: by the time later users arrive, earlier ones left.
        arrival = ArrivalConfig(
            rate_per_s=1.0, mean_dwell_s=0.3, dwell_sigma=0.0,
            max_concurrent=1, seed=5,
        )
        sim, fleet, backend = make_fleet(4, arrival=arrival)
        fleet.start()
        sim.run(until=30.0)
        fleet.stop()
        stats = fleet.manager.stats
        assert stats.admitted > 1  # the cap of 1 did not block everyone
        assert stats.admitted + stats.rejected == stats.arrivals == 4
        assert stats.departed == stats.admitted


class TestDeparture:
    def test_departure_releases_port_and_stops_session(self):
        arrival = ArrivalConfig(mean_dwell_s=0.5, dwell_sigma=0.0, max_concurrent=4)
        sim, fleet, backend = make_fleet(2, arrival=arrival, predictor="uniform")
        fleet.start()
        sim.run(until=3.0)
        fleet.stop()
        assert fleet.manager.stats.departed == 2
        for session, port in zip(fleet.sessions, fleet.ports):
            assert not session.active
            assert port.closed
        # Retired ports left the arbiter entirely.
        assert fleet.shared_downlink.ports == []
        assert fleet.shared_downlink.ports_retired == 2

    def test_no_events_after_departure(self):
        arrival = ArrivalConfig(mean_dwell_s=0.4, dwell_sigma=0.0, max_concurrent=4)
        sim, fleet, backend = make_fleet(1, arrival=arrival)

        def on_admit(record):
            # One request before departure, one after.
            sim.schedule_at(0.1, record.session.client.request, 0)
            sim.schedule_at(1.0, record.session.client.request, 1)

        fleet.manager.on_admit = on_admit
        fleet.start()
        sim.run(until=3.0)
        fleet.stop()
        session = fleet.sessions[0]
        outcomes = session.cache_manager.outcomes
        # Only the pre-departure request registered.
        assert [o.request for o in outcomes] == [0]
        # And nothing upcalled after the departure instant.
        departed_at = fleet.manager.records[0].departed_at
        assert departed_at == pytest.approx(0.4)
        for outcome in outcomes:
            if outcome.served:
                assert outcome.served_at <= departed_at

    def test_departing_backlog_does_not_starve_survivor(self):
        """A departure with queued downlink bytes must hand the wire to
        the surviving session immediately."""
        arrival = ArrivalConfig(mean_dwell_s=1.0, dwell_sigma=0.0, max_concurrent=2)
        # Session 1 would depart at t=1.0 too; keep only session 0's
        # departure interesting by looking at deliveries after t=1.0.
        sim, fleet, backend = make_fleet(
            2, n=20, nb=6, arrival=arrival, predictor="uniform", cache_blocks=120
        )
        fleet.start()
        sim.run(until=0.9)
        live_ports = list(fleet.ports)
        delivered_before = [p.bytes_delivered for p in live_ports]
        sim.run(until=1.0)  # departures fire
        assert all(p.closed for p in live_ports)
        dropped = fleet.manager.stats.bytes_dropped_on_departure
        assert dropped >= 0  # backlog (if any) was reclaimed, not stranded
        # The wire itself never stalls: the physical link kept busy
        # right through the churn while senders were backlogged.
        assert sum(p.bytes_delivered for p in live_ports) >= sum(delivered_before)

    def test_stop_cancels_pending_arrivals(self):
        """A stopped fleet admits nobody, even if the simulator keeps
        running past pending arrival events."""
        arrival = ArrivalConfig(rate_per_s=0.5, max_concurrent=4, seed=1)
        sim, fleet, backend = make_fleet(4, arrival=arrival)
        fleet.start()
        sim.run(until=0.5)  # before most arrivals (mean gap 2 s)
        admitted_before = fleet.manager.stats.admitted
        fleet.stop()
        sim.run(until=60.0)  # shared simulator keeps going
        assert fleet.manager.stats.admitted == admitted_before
        assert len(fleet.sessions) == admitted_before
        fleet.stop()  # idempotent

    def test_churn_fairness_normalizes_by_attached_time(self):
        """Lifetime byte totals under churn conflate fairness with
        dwell; the reported index divides by attached duration."""
        arrival = ArrivalConfig(rate_per_s=1.0, seed=4, max_concurrent=8)
        sim, fleet, backend = make_fleet(
            4, n=40, nb=6, arrival=arrival, predictor="uniform", cache_blocks=240
        )
        fleet.start()
        sim.run(until=6.0)
        fleet.stop()
        # Staggered arrivals make lifetime totals unequal even though
        # the arbiter shared the wire fairly while each was attached.
        assert fleet.churn_link_fairness() >= fleet.link_fairness()
        assert fleet.report()["link_fairness"] == fleet.churn_link_fairness()

    def test_session_start_stop_idempotent(self):
        sim, fleet, backend = make_fleet(1)
        session = fleet.sessions[0]
        session.start()
        session.start()
        assert session.active
        session.stop()
        session.stop()
        assert not session.active
        assert session.client.request(0) is None  # closed client


class TestOracleUnderChurn:
    def test_oracle_trace_is_rebased_to_the_arrival_instant(self):
        """The oracle reads the future by absolute sim time; a session
        admitted at t > 0 must read a trace shifted to its arrival, or
        it would predict from the wrong point in the user's session."""
        from repro.experiments.runner import _fleet_predictor_factory
        from repro.workloads.image_app import ImageExplorationApp
        from repro.workloads.trace import InteractionTrace, TraceEvent

        # One row of 10 cells; the user sweeps one cell per second, so
        # at trace-time t they hover request int(t).
        app = ImageExplorationApp(rows=1, cols=10, cell_px=10.0)
        trace = InteractionTrace(
            [
                TraceEvent(float(t), 10.0 * t + 5.0, 5.0, request=t)
                for t in range(10)
            ],
            name="sweep",
        )
        sim = Simulator()
        make_predictor, _ = _fleet_predictor_factory(app, "oracle", [trace], sim)
        built = {}
        # The factory is invoked at admission time, here t = 3.0.
        sim.schedule_at(3.0, lambda: built.setdefault("p", make_predictor(0)))
        sim.run(until=3.0)
        dist = built["p"].server.decode(sim.now + 0.1, (0.05,))
        # Just after arrival the user is at the *start* of their trace
        # (trace-time 0.15 -> request 0); the unshifted reading would
        # be absolute time 3.15 -> request 3.
        assert dist.prob_of(0, 0.05) == pytest.approx(1.0)
        assert dist.prob_of(3, 0.05) < 0.01
