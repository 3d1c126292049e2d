"""Tests for the framed socket transport (repro.fleet.transport).

Three layers, three contracts:

* **codec** — ``encode_frame``/``FrameDecoder`` roundtrip exactly, and
  under *arbitrary* byte mangling (truncation, bit flips, duplication,
  garbage splices) the decoder delivers only frames that were actually
  sent — corruption is counted and skipped, never surfaced;
* **endpoint** — a ``FramedEndpoint`` pair over a socketpair delivers
  objects exactly once, in order, through an injector that corrupts
  and duplicates frames; close() lingers until the peer has acked, so
  "send result, exit" never loses the result to an in-flight fault;
* **driver** — ``run_sharded`` over ``TcpTransport`` relays barrier
  payloads exactly, chaos or not, and its counter snapshots pool into
  the fleet-report totals row.
"""

import os
import pickle
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import NetChaosSpec
from repro.fleet.sharding import ShardTask, run_sharded
from repro.fleet.transport import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    T_DATA,
    T_HELLO,
    FrameDecoder,
    FramedEndpoint,
    PipeTransport,
    TcpTransport,
    TransportCounters,
    TransportError,
    _FaultInjector,
    encode_frame,
)
from repro.metrics.fleet import TRANSPORT_COUNTER_ZERO, pool_transport_counters


class TestCodec:
    def test_roundtrip_single_frame(self):
        frame = encode_frame(T_DATA, 7, b"hello")
        assert FrameDecoder().feed(frame) == [(T_DATA, 7, b"hello")]

    def test_roundtrip_across_arbitrary_chunking(self):
        frames = b"".join(
            encode_frame(T_DATA, i, bytes([i]) * (i * 37 % 256)) for i in range(20)
        )
        rng = random.Random(5)
        decoder = FrameDecoder()
        got = []
        i = 0
        while i < len(frames):
            j = min(len(frames), i + rng.randrange(1, 64))
            got.extend(decoder.feed(frames[i:j]))
            i = j
        assert got == [(T_DATA, i, bytes([i]) * (i * 37 % 256)) for i in range(20)]

    def test_payload_cap_enforced_at_encode(self):
        with pytest.raises(TransportError, match="exceeds cap"):
            encode_frame(T_DATA, 0, b"x" * (MAX_PAYLOAD + 1))

    def test_corrupt_length_cannot_stall_the_stream(self):
        """A flipped length byte fails the header CRC, so the decoder
        resyncs instead of waiting forever for phantom bytes."""
        bad = bytearray(encode_frame(T_DATA, 0, b"abc"))
        bad[12] ^= 0xFF  # inside the length field
        decoder = FrameDecoder()
        assert decoder.feed(bytes(bad)) == []
        follow = encode_frame(T_DATA, 1, b"def")
        assert decoder.feed(follow) == [(T_DATA, 1, b"def")]
        assert decoder.counters.crc_rejects >= 1


class TestDecoderFuzz:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mangled_stream_never_delivers_corruption(self, seed):
        """Whatever the wire does — truncate, flip, duplicate, splice
        garbage — every delivered frame is byte-identical to a sent
        one.  (Delivered ⊆ sent; no crash; no stall.)"""
        rng = random.Random(seed)
        sent = {}
        stream = bytearray()
        for i in range(12):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            sent[i] = payload
            stream += encode_frame(T_DATA, i, payload)
        # Mangle: a few cuts, flips, and duplications at random spots.
        for _ in range(rng.randrange(0, 6)):
            op = rng.choice(("truncate", "flip", "dup", "garbage"))
            if not stream:
                break
            pos = rng.randrange(len(stream))
            if op == "truncate":
                del stream[pos : pos + rng.randrange(1, 40)]
            elif op == "flip":
                stream[pos] ^= 1 << rng.randrange(8)
            elif op == "dup":
                chunk = stream[pos : pos + rng.randrange(1, 80)]
                stream[pos:pos] = chunk
            else:
                stream[pos:pos] = bytes(rng.randrange(256) for _ in range(11))
        decoder = FrameDecoder()
        delivered = []
        i = 0
        while i < len(stream):
            j = min(len(stream), i + rng.randrange(1, 97))
            delivered.extend(decoder.feed(bytes(stream[i : j])))
            i = j
        for ftype, seq, payload in delivered:
            if ftype == T_DATA and seq in sent:
                assert payload == sent[seq]


def endpoint_pair(spec=None, seed=0, **kw):
    a, b = socket.socketpair()
    injector = None
    if spec is not None:
        injector = _FaultInjector(spec, shard=seed)
    left = FramedEndpoint(a, TransportCounters(), injector=injector, **kw)
    right = FramedEndpoint(b, TransportCounters(), **kw)
    return left, right


class TestFramedEndpoint:
    def test_exactly_once_in_order_under_faults(self):
        spec = NetChaosSpec(corrupt_rate=0.2, dup_rate=0.2, seed=3)
        left, right = endpoint_pair(spec)
        try:
            for i in range(50):
                left.send({"i": i, "blob": b"x" * (i * 61 % 512)})
            got = [right.recv() for _ in range(50)]
            assert [g["i"] for g in got] == list(range(50))
        finally:
            left.close()
            right.close()
        assert left.counters.retransmits + right.counters.dup_drops >= 0

    def test_close_lingers_until_acked(self):
        """The regression that made chaotic fleet runs nondeterministic:
        a worker that sends its result and immediately exits must not
        lose the result to a corrupted final frame — close() waits for
        the ack while the retransmit timer repairs the loss."""
        spec = NetChaosSpec(corrupt_rate=1.0, seed=1)
        left, right = endpoint_pair(spec)
        # Corrupt exactly one frame: the first DATA-sized one (pings
        # are header-only and pass through untouched).
        orig_corrupt = left._injector.corrupt
        fired = []

        def corrupt_once(data):
            if fired or len(data) <= HEADER_SIZE:
                return None
            fired.append(True)
            return orig_corrupt(data)

        left._injector.corrupt = corrupt_once
        try:
            left.send("the result")
            left.close()  # returns only after the retransmit got acked
            assert right.recv() == "the result"
        finally:
            left.close()
            right.close()
        assert left.counters.retransmits >= 1
        assert right.counters.crc_rejects >= 1

    def test_peer_close_surfaces_as_eof(self):
        left, right = endpoint_pair()
        left.close()
        with pytest.raises(EOFError):
            right.recv()
        assert right.poll(0.0) is True  # wakes into the error, not a hang
        right.close()

    def test_send_after_close_raises(self):
        left, right = endpoint_pair()
        left.close()
        right.close()
        with pytest.raises(BrokenPipeError):
            left.send(1)

    def test_cut_heals_and_detects_partition(self):
        left, right = endpoint_pair(rto_s=0.05, partition_after_s=0.15)
        try:
            left.send("before")
            assert right.recv() == "before"
            left.cut(0.4)
            left.send("during")  # queued against the cut, retransmitted after
            assert right.recv() == "during"
            assert left.counters.partitions_detected >= 1
        finally:
            left.close()
            right.close()


class TestTcpDriver:
    def test_run_sharded_echo_over_tcp(self):
        transport = TcpTransport()
        tasks = [
            ShardTask(
                entry="_shard_helpers:echo_worker",
                spec=f"hello-{k}",
                shard=k,
                num_shards=3,
            )
            for k in range(3)
        ]
        results = run_sharded(tasks, sync_rounds=1, timeout_s=60.0, transport=transport)
        for k, got in enumerate(results):
            assert sorted(got) == sorted(f"hello-{j}" for j in range(3) if j != k)
        snaps = transport.counter_snapshots()
        assert set(snaps) == {0, 1, 2}
        for snap in snaps.values():
            assert set(snap) == set(TRANSPORT_COUNTER_ZERO)

    def test_run_sharded_echo_over_noisy_tcp(self):
        spec = NetChaosSpec(corrupt_rate=0.1, dup_rate=0.1, seed=2)
        transport = TcpTransport(chaos=spec)
        tasks = [
            ShardTask(
                entry="_shard_helpers:crashable_worker",
                spec={"rounds": 3, "tag": f"w{k}"},
                shard=k,
                num_shards=2,
            )
            for k in range(2)
        ]
        results = run_sharded(tasks, sync_rounds=3, timeout_s=60.0, transport=transport)
        for k, got in enumerate(results):
            assert got["rounds_done"] == 3
            for r, peers in enumerate(got["peers"]):
                assert sorted(peers) == sorted(
                    f"w{j}:r{r}" for j in range(2) if j != k
                )

    def test_handshake_never_unpickles_a_hello(self, tmp_path):
        """A local process that knows no token sends a HELLO that is a
        pickle whose load would run code.  The coordinator rejects it
        without running it, and the real worker still gets the slot."""
        target = tmp_path / "pwned"

        class Payload:
            def __reduce__(self):
                return os.mkdir, (str(target),)

        transport = TcpTransport()
        try:
            parent_conn, worker_spec = transport.open_endpoint(0, 0)
            hello = pickle.dumps(
                {"version": 1, "shard": 0, "attempt": 0, "token": Payload()}
            )
            with socket.create_connection((transport.host, transport.port)) as raw:
                raw.settimeout(10.0)
                raw.sendall(encode_frame(T_HELLO, 0, hello))
                assert raw.recv(1024) == b""  # refused and closed
            assert not target.exists()

            worker = worker_spec.connect()
            try:
                worker.send("after")
                assert parent_conn.recv() == "after"
            finally:
                worker.close()
        finally:
            transport.close()

    def test_pipe_transport_has_no_wire(self):
        transport = PipeTransport()
        assert transport.counter_snapshots() == {}
        with pytest.raises(TransportError):
            transport.cut_links([0], 0.1)


class TestCounterPooling:
    def test_totals_sum_and_max(self):
        a = {"retransmits": 1, "crc_rejects": 2, "dup_drops": 0,
             "partitions_detected": 1, "heartbeat_rtt_ms_max": 4.0}
        b = {"retransmits": 2, "crc_rejects": 0, "dup_drops": 3,
             "partitions_detected": 0, "heartbeat_rtt_ms_max": 9.5}
        totals = pool_transport_counters([a, b])
        assert totals == {"retransmits": 3, "crc_rejects": 2, "dup_drops": 3,
                          "partitions_detected": 1, "heartbeat_rtt_ms_max": 9.5}

    def test_empty_input_is_the_zero_shape(self):
        assert pool_transport_counters([]) == TRANSPORT_COUNTER_ZERO

    def test_counters_snapshot_matches_zero_shape(self):
        assert set(TransportCounters().snapshot()) == set(TRANSPORT_COUNTER_ZERO)
