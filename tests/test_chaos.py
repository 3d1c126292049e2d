"""Tests for the chaos harness config (repro.chaos)."""

import pytest

from repro.backends.faults import ErraticBackend
from repro.backends.filesystem import FileSystemBackend
from repro.backends.retry import RetryingBackend
from repro.chaos import ChaosConfig
from repro.encoding.naive import SingleBlockEncoder
from repro.sim.engine import Simulator
from repro.sim.failures import OutageLink
from repro.sim.link import FixedRateLink


def make_backend(sim):
    encoder = SingleBlockEncoder(lambda r: 100)
    return FileSystemBackend(sim, encoder, fetch_delay_s=0.0)


class TestParse:
    def test_full_spec(self):
        cfg = ChaosConfig.parse(
            "worker-crash:1,backend-err:0.05,spike:0.02@1.5,outage:2-3",
            seed=9,
        )
        assert cfg.worker_crashes == ((0, 1),)
        assert cfg.backend_error_rate == pytest.approx(0.05)
        assert cfg.backend_spike_rate == pytest.approx(0.02)
        assert cfg.backend_spike_s == pytest.approx(1.5)
        assert cfg.link_outages == ((2.0, 3.0),)
        assert cfg.seed == 9

    def test_worker_crash_shard_at_round(self):
        cfg = ChaosConfig.parse("worker-crash:2@4")
        assert cfg.worker_crashes == ((2, 4),)
        assert cfg.crash_round(2) == 4
        assert cfg.crash_round(0) is None

    def test_spike_without_duration_keeps_default(self):
        cfg = ChaosConfig.parse("spike:0.1")
        assert cfg.backend_spike_rate == pytest.approx(0.1)
        assert cfg.backend_spike_s == pytest.approx(1.0)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            ChaosConfig.parse("meteor:0.5")

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="name:value"):
            ChaosConfig.parse("backend-err")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad chaos fault value"):
            ChaosConfig.parse("backend-err:lots")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(backend_error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(worker_crashes=((-1, 0),))
        with pytest.raises(ValueError):
            ChaosConfig(disconnects=(((-1, 0.5)),))
        with pytest.raises(ValueError):
            ChaosConfig(disconnects=((0, -0.5),))
        with pytest.raises(ValueError):
            ChaosConfig(drain_round=-1)

    def test_disconnect_session_at_time(self):
        cfg = ChaosConfig.parse("disconnect:3@1.5")
        assert cfg.disconnects == ((3, 1.5),)
        assert cfg.disconnect_at(3) == pytest.approx(1.5)
        assert cfg.disconnect_at(0) is None

    def test_disconnect_bare_time_targets_session_zero(self):
        cfg = ChaosConfig.parse("disconnect:2.5")
        assert cfg.disconnects == ((0, 2.5),)
        assert cfg.disconnect_at(0) == pytest.approx(2.5)

    def test_drain_at_round(self):
        cfg = ChaosConfig.parse("drain:4")
        assert cfg.drain_round == 4
        assert cfg.has_drain
        assert not cfg.is_inert

    def test_drain_combines_with_other_faults(self):
        cfg = ChaosConfig.parse("drain:2,worker-crash:1,disconnect:0@1")
        assert cfg.drain_round == 2
        assert cfg.worker_crashes == ((0, 1),)
        assert cfg.disconnects == ((0, 1.0),)


class TestIntrospection:
    def test_default_is_inert(self):
        cfg = ChaosConfig()
        assert cfg.is_inert
        assert not cfg.has_backend_faults
        assert not cfg.has_link_faults
        assert not cfg.has_worker_faults

    def test_fault_classes_flip_the_right_flags(self):
        assert ChaosConfig(backend_error_rate=0.1).has_backend_faults
        assert ChaosConfig(backend_spike_rate=0.1).has_backend_faults
        assert ChaosConfig(link_outages=((0.0, 1.0),)).has_link_faults
        assert ChaosConfig(worker_crashes=((0, 1),)).has_worker_faults
        assert not ChaosConfig(worker_crashes=((0, 1),)).is_inert
        assert ChaosConfig(disconnects=((0, 1.0),)).has_connection_faults
        assert not ChaosConfig(disconnects=((0, 1.0),)).is_inert
        assert ChaosConfig(drain_round=0).has_drain
        assert not ChaosConfig(drain_round=0).is_inert


class TestWrapBackend:
    def test_inert_config_returns_backend_unchanged(self):
        sim = Simulator()
        backend = make_backend(sim)
        stack = ChaosConfig().wrap_backend(backend)
        assert stack.top is backend
        assert stack.erratic is None
        assert stack.retry is None
        assert stack.snapshot() == {}

    def test_error_rate_builds_erratic_under_retry(self):
        sim = Simulator()
        stack = ChaosConfig(backend_error_rate=0.5).wrap_backend(make_backend(sim))
        assert isinstance(stack.top, RetryingBackend)
        assert isinstance(stack.erratic, ErraticBackend)
        assert set(stack.snapshot()) == {
            "errors_injected",
            "spikes_injected",
            "fetches_failed",
            "retries_scheduled",
            "fetches_abandoned",
        }

    def test_spike_only_needs_no_retry_layer(self):
        sim = Simulator()
        stack = ChaosConfig(backend_spike_rate=0.5).wrap_backend(make_backend(sim))
        assert isinstance(stack.top, ErraticBackend)
        assert stack.retry is None

    def test_wrapped_stack_still_completes_fetches(self):
        sim = Simulator()
        stack = ChaosConfig(
            backend_error_rate=0.3, backend_spike_rate=0.3, seed=1
        ).wrap_backend(make_backend(sim))
        got = []
        for r in range(12):
            stack.top.fetch(r, got.append)
        sim.run()
        # Every injected error was absorbed by a retry; no fetch lost.
        snapshot = stack.snapshot()
        assert snapshot["errors_injected"] > 0
        assert snapshot["fetches_abandoned"] == 0
        assert len(got) == 12


class TestWrapLink:
    def test_no_outages_is_identity(self):
        sim = Simulator()
        link = FixedRateLink(sim, 1000.0)
        assert ChaosConfig().wrap_link(link) is link

    def test_outages_build_an_outage_link(self):
        sim = Simulator()
        link = FixedRateLink(sim, 1000.0)
        wrapped = ChaosConfig(link_outages=((1.0, 2.0),)).wrap_link(link)
        assert isinstance(wrapped, OutageLink)
        assert wrapped.outages == ((1.0, 2.0),)


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self):
        def draw_schedule(seed):
            sim = Simulator()
            stack = ChaosConfig(
                backend_error_rate=0.3, seed=seed
            ).wrap_backend(make_backend(sim))
            for r in range(20):
                stack.top.fetch(r, lambda resp: None)
            sim.run()
            return stack.snapshot()

        assert draw_schedule(7) == draw_schedule(7)
        assert draw_schedule(7) != draw_schedule(8)


class TestNetFaultGrammar:
    """The wire-fault grammar rides the same --chaos string as backend
    faults but lands in the transport driver, not the backend wrap."""

    def test_full_net_spec(self):
        cfg = ChaosConfig.parse(
            "partition:0-1@2,netdelay:25:0.3,dup:0.1,corrupt:0.05", seed=4
        )
        assert cfg.partitions == ((0, 1, 2),)
        assert cfg.netdelay_ms == pytest.approx(25.0)
        assert cfg.netdelay_rate == pytest.approx(0.3)
        assert cfg.dup_rate == pytest.approx(0.1)
        assert cfg.corrupt_rate == pytest.approx(0.05)
        assert cfg.has_net_faults
        assert not cfg.is_inert
        assert not cfg.has_backend_faults

    def test_single_shard_partition_shorthand(self):
        assert ChaosConfig.parse("partition:2@1").partitions == ((2, 2, 1),)

    def test_partitions_at_filters_by_round(self):
        cfg = ChaosConfig.parse("partition:0-1@1,partition:1-2@3")
        assert cfg.partitions_at(1) == [(0, 1)]
        assert cfg.partitions_at(3) == [(1, 2)]
        assert cfg.partitions_at(0) == []

    def test_net_spec_carries_rates_and_seed(self):
        cfg = ChaosConfig.parse("netdelay:25:0.3,corrupt:0.05", seed=7)
        spec = cfg.net_spec()
        assert spec.netdelay_ms == pytest.approx(25.0)
        assert spec.netdelay_rate == pytest.approx(0.3)
        assert spec.corrupt_rate == pytest.approx(0.05)
        assert spec.dup_rate == 0.0
        assert spec.seed == 7
        assert not spec.is_inert
        # Partition-only chaos has an inert frame-level spec: cuts are
        # coordinator-anchored, not probabilistic.
        assert ChaosConfig.parse("partition:0-1@1").net_spec().is_inert

    def test_net_faults_do_not_wrap_the_backend(self):
        cfg = ChaosConfig.parse("corrupt:0.2,dup:0.2")
        backend = object()
        stack = cfg.wrap_backend(backend)
        assert stack.top is backend  # no fault layer was added
        assert stack.erratic is None

    def test_validation_rejects_bad_net_values(self):
        with pytest.raises(ValueError, match="corrupt_rate"):
            ChaosConfig(corrupt_rate=1.5)
        with pytest.raises(ValueError, match="netdelay_ms"):
            ChaosConfig(netdelay_ms=-1.0)
        with pytest.raises(ValueError, match="bad partition"):
            ChaosConfig(partitions=((2, 1, 0),))
