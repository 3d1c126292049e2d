"""Tests for multi-session fleet serving over shared resources."""

import pytest

from repro.backends import FileSystemBackend
from repro.core import LinearUtility, SessionConfig
from repro.encoding import ImageAsset, ProgressiveImageEncoder
from repro.fleet import FleetConfig, KhameleonFleet
from repro.metrics import collect_fleet, jain_fairness
from repro.predictors.simple import make_point_predictor, make_uniform_predictor
from repro.sim import ControlChannel, FixedRateLink, Simulator

BLOCK = 50_000


def make_fleet(
    num_sessions,
    n=6,
    nb=3,
    bw=1_000_000,
    fetch_delay=0.0,
    weights=None,
    backend_concurrency=None,
    predictor="point",
    cache_blocks=24,
):
    sim = Simulator()
    assets = {i: ImageAsset(image_id=i, size_bytes=nb * BLOCK) for i in range(n)}
    encoder = ProgressiveImageEncoder(assets, block_size_bytes=BLOCK)
    backend = FileSystemBackend(sim, encoder, fetch_delay_s=fetch_delay)
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
            backend_concurrency=backend_concurrency,
            session=SessionConfig(
                cache_bytes=cache_blocks * BLOCK,
                block_bytes=BLOCK,
                initial_bandwidth_bytes_per_s=float(bw),
                # Small fetch-ahead window so pipeline fills keep
                # happening after fetches complete (exercises the
                # cached-reuse accounting, not just piggybacking).
                lookahead=4,
            ),
        ),
    )
    return sim, fleet, backend


class TestAssembly:
    def test_sessions_are_independent_stacks_over_shared_resources(self):
        sim, fleet, backend = make_fleet(3)
        assert len(fleet) == 3
        schedulers = {id(s.scheduler) for s in fleet.sessions}
        caches = {id(s.cache) for s in fleet.sessions}
        assert len(schedulers) == len(caches) == 3
        assert all(s.backend is backend for s in fleet.sessions)
        ports = {id(s.downlink) for s in fleet.sessions}
        assert len(ports) == 3  # one fair-share port each

    def test_sessions_share_one_gain_table(self):
        """The table is immutable and the same for every session of an
        application: built once per fleet, not once per session."""
        sim, fleet, backend = make_fleet(3)
        tables = {id(s.gains) for s in fleet.sessions}
        tables |= {id(s.scheduler.gains) for s in fleet.sessions}
        assert len(tables) == 1
        assert fleet.sessions[0].gains.num_blocks.tolist() == [3] * 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_sessions=0)
        with pytest.raises(ValueError):
            FleetConfig(num_sessions=2, weights=[1.0])

    def test_single_session_fleet_runs_at_wire_rate(self):
        """N = 1 must degenerate to the plain single-session path."""
        sim, fleet, backend = make_fleet(1)
        fleet.start()
        sim.schedule(0.0, fleet.sessions[0].client.request, 2)
        sim.run(until=1.0)
        fleet.stop()
        # 3 blocks of 50 KB at 1 MB/s arrive within ~0.2 s; the user's
        # request is served.
        summary = fleet.summary()
        assert summary.aggregate.num_served == 1
        assert fleet.sessions[0].cache.block_count(2) == 3


class TestBackendSharing:
    def test_cross_session_fetch_dedup(self):
        """One backend fetch per distinct request, fleet-wide."""
        sim, fleet, backend = make_fleet(
            4, n=6, fetch_delay=0.05, predictor="uniform"
        )
        fleet.start()
        sim.run(until=3.0)
        fleet.stop()
        # Four uniform-hedging senders want all 6 requests each; the
        # shared cache + in-flight piggybacking collapse that to at
        # most one real fetch per request.
        assert backend.stats.fetches_started <= 6
        assert fleet.shared_hit_rate() > 0.0
        assert backend.stats.piggybacked > 0  # overlapped in-flight fetches
        assert backend.stats.cache_hits > 0  # post-completion cache reuse

    def test_shared_throttle_caps_global_backend_concurrency(self):
        sim, fleet, backend = make_fleet(
            3, n=12, fetch_delay=0.3, predictor="uniform", backend_concurrency=2
        )
        assert fleet.throttle is not None
        assert all(s.throttle is fleet.throttle for s in fleet.sessions)
        fleet.start()
        peak = []
        sim.every(0.01, lambda: peak.append(backend.active_requests))
        sim.run(until=2.0)
        fleet.stop()
        assert max(peak) <= 2
        assert backend.stats.peak_concurrency <= 2


class TestLinkSharing:
    def test_concurrent_sessions_share_capacity_fairly(self):
        sim, fleet, backend = make_fleet(2, n=20, nb=6, predictor="uniform")
        fleet.start()
        sim.run(until=2.0)
        fleet.stop()
        assert fleet.link_fairness() > 0.95
        a, b = fleet.ports
        assert a.bytes_delivered > 0 and b.bytes_delivered > 0

    def test_weighted_sessions_split_by_weight(self):
        sim, fleet, backend = make_fleet(
            2, n=40, nb=6, predictor="uniform", weights=[3.0, 1.0], cache_blocks=240
        )
        fleet.start()
        sim.run(until=2.0)
        fleet.stop()
        a, b = fleet.ports
        assert a.bytes_delivered / b.bytes_delivered == pytest.approx(3.0, rel=0.25)
        # Weight-normalized fairness is still near perfect.
        assert fleet.link_fairness() > 0.9


class TestReporting:
    def test_summary_pools_outcomes_across_sessions(self):
        sim, fleet, backend = make_fleet(3)
        fleet.start()
        for i, session in enumerate(fleet.sessions):
            sim.schedule(0.1 * (i + 1), session.client.request, i)
        sim.run(until=3.0)
        fleet.stop()
        summary = fleet.summary()
        assert summary.num_sessions == 3
        assert summary.aggregate.num_requests == 3
        per = [s for s in summary.per_session if s is not None]
        assert sum(s.num_requests for s in per) == 3
        rows = summary.rows()
        assert rows[-1]["session"] == "fleet"
        assert len(rows) == 4

    def test_report_diagnostics(self):
        sim, fleet, backend = make_fleet(2, predictor="uniform")
        fleet.start()
        sim.run(until=1.0)
        fleet.stop()
        report = fleet.report()
        assert report["sessions"] == 2
        assert report["blocks_sent"] == sum(
            s.sender.blocks_sent for s in fleet.sessions
        )
        assert 0.0 <= report["shared_hit_rate"] <= 1.0
        assert 0.0 < report["link_fairness"] <= 1.0

    def test_collect_fleet_skips_empty_sessions(self):
        sim, fleet, backend = make_fleet(2)
        fleet.start()
        sim.schedule(0.1, fleet.sessions[0].client.request, 1)
        sim.run(until=2.0)
        fleet.stop()
        summary = collect_fleet(fleet.outcomes_by_session())
        assert summary.per_session[1] is None
        assert summary.aggregate.num_requests == 1

    def test_collect_fleet_rejects_all_empty(self):
        with pytest.raises(ValueError):
            collect_fleet([[], []])


class TestJainFairness:
    def test_even_allocation_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            jain_fairness([])
