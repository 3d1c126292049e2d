"""Tests for failure injection (outage links, backend latency spikes)."""

import pytest

from repro.backends.faults import ErraticBackend
from repro.backends.filesystem import FileSystemBackend
from repro.encoding.naive import SingleBlockEncoder
from repro.sim.engine import Simulator
from repro.sim.failures import OutageLink
from repro.sim.link import FixedRateLink


class TestOutageLink:
    def make(self, outages, rate=1000.0):
        sim = Simulator()
        inner = FixedRateLink(sim, bytes_per_second=rate)
        return sim, OutageLink(inner, outages)

    def test_transfer_before_outage_unaffected(self):
        sim, link = self.make([(10.0, 20.0)])
        got = []
        link.send(1000, got.append, "a")  # 1 second at 1000 B/s
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_start_inside_outage_stalls_to_end(self):
        sim, link = self.make([(0.0, 5.0)])
        got = []
        link.send(1000, got.append, "a")
        sim.run()
        assert got == ["a"]
        assert sim.now == pytest.approx(6.0)  # 5 s stall + 1 s transfer

    def test_transfer_spanning_outage_pauses(self):
        sim, link = self.make([(0.5, 3.5)])
        got = []
        link.send(1000, got.append, "a")  # would finish at 1.0
        sim.run()
        assert sim.now == pytest.approx(4.0)  # + 3 s outage

    def test_queue_backs_up_behind_outage(self):
        sim, link = self.make([(0.0, 5.0)])
        arrivals = []
        link.send(1000, lambda p: arrivals.append(sim.now), "a")
        link.send(1000, lambda p: arrivals.append(sim.now), "b")
        sim.run()
        assert arrivals == [pytest.approx(6.0), pytest.approx(7.0)]

    def test_empty_window_rejected(self):
        sim = Simulator()
        inner = FixedRateLink(sim, 1000.0)
        with pytest.raises(ValueError):
            OutageLink(inner, [(5.0, 5.0)])


class TestErraticBackendSpike:
    def make(self, spike_rate=0.5, spike_s=0.5):
        sim = Simulator()
        encoder = SingleBlockEncoder(lambda r: 100)
        inner = FileSystemBackend(sim, encoder, fetch_delay_s=0.1)
        return sim, ErraticBackend(inner, spike_rate=spike_rate, spike_s=spike_s)

    def test_callbacks_always_fire(self):
        """Spikes delay completion but never lose it — the invariant
        the sender depends on."""
        sim, backend = self.make(spike_rate=0.5)
        got = []
        for r in range(12):
            backend.fetch(r, got.append)
        sim.run()
        assert 0 < backend.spikes_injected < 12
        assert len(got) == 12

    def test_spike_delays_completion_by_spike_s(self):
        sim, backend = self.make(spike_rate=1.0, spike_s=0.5)
        done_at = []
        backend.fetch(0, lambda resp: done_at.append(sim.now))
        sim.run()
        assert backend.spikes_injected == 1
        assert done_at[0] == pytest.approx(0.6)  # 0.5 spike + 0.1 fetch

    def test_materialized_fetches_never_spike(self):
        sim, backend = self.make(spike_rate=1.0, spike_s=0.5)
        done_at = []
        backend.fetch(0, lambda r: done_at.append(sim.now))
        # At 0.55 s the spiked fetch has reached the inner backend and is
        # in flight; a second fetch piggybacks on it instead of spiking.
        sim.schedule_at(0.55, backend.fetch, 0, lambda r: done_at.append(sim.now))
        sim.run()
        assert backend.spikes_injected == 1
        assert done_at == [pytest.approx(0.6), pytest.approx(0.6)]
        backend.fetch(0, lambda r: done_at.append(sim.now))  # served from cache
        sim.run()
        assert backend.spikes_injected == 1
        assert len(done_at) == 3

    def test_parameter_validation(self):
        sim, backend = self.make()
        for kwargs in (
            {"spike_rate": -0.1},
            {"spike_rate": 1.5},
            {"spike_s": -1.0},
            {"error_rate": 1.5},
        ):
            with pytest.raises(ValueError):
                ErraticBackend(backend.inner, **kwargs)


class TestEndToEndDegradation:
    def test_khameleon_survives_an_outage(self):
        """A mid-session outage degrades metrics without wedging the
        pipeline: blocks flow again after the link recovers."""
        from repro.core.session import KhameleonSession, SessionConfig
        from repro.experiments.configs import DEFAULT_ENV, make_uplink
        from repro.workloads.image_app import ImageExplorationApp
        from repro.workloads.mouse import MouseTraceGenerator
        from repro.predictors.base import MouseEvent

        sim = Simulator()
        app = ImageExplorationApp(rows=5, cols=5)
        trace = MouseTraceGenerator(app.layout, seed=2).generate(6.0)
        inner = FixedRateLink(sim, 2_000_000.0, propagation_delay_s=0.0125)
        downlink = OutageLink(inner, [(2.0, 4.0)])
        session = KhameleonSession(
            sim=sim,
            backend=app.make_backend(sim, fetch_delay_s=0.05),
            predictor=app.make_predictor("kalman"),
            utility=app.utility,
            num_blocks=app.num_blocks,
            downlink=downlink,
            uplink=make_uplink(sim, DEFAULT_ENV),
            config=SessionConfig(cache_bytes=5_000_000),
        )
        for e in trace.events:
            sim.schedule_at(e.time_s, session.client.observe, MouseEvent(e.x, e.y))
            if e.request is not None:
                sim.schedule_at(e.time_s, session.client.request, e.request)
        session.start()
        sim.run(until=2.0)
        before_outage = session.client.blocks_received
        sim.run(until=4.0)
        during = session.client.blocks_received
        sim.run(until=7.0)
        after = session.client.blocks_received
        session.stop()
        assert before_outage > 0
        # Nothing (or almost nothing: one in-flight block) lands mid-outage.
        assert during - before_outage <= 1
        assert after > during  # recovery
