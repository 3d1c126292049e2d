"""Tests for the framed socket transport (repro.fleet.transport).

Four layers, four contracts:

* **codec** — ``encode_frame``/``FrameDecoder`` roundtrip exactly, and
  under *arbitrary* byte mangling (truncation, bit flips, duplication,
  garbage splices) the decoder delivers only frames that were actually
  sent — corruption is counted and skipped, never surfaced;
* **protocol** — a ``FrameProtocol`` pair joined by an in-memory wire
  on a fake clock (no socket, thread or sleep) delivers every payload
  exactly once and in order under seeded loss, duplication, corruption,
  delay and cuts; an unacked frame past the send deadline breaks the
  link; each cut counts as one partition, on entry; and the retransmit
  that close()'s linger waits for repairs a corrupted final frame;
* **endpoint** — a ``FramedEndpoint`` pair over a socketpair delivers
  objects exactly once, in order, through an injector that corrupts
  and duplicates frames, and surfaces a closed peer as ``EOFError``;
* **driver** — ``run_sharded`` over ``TcpTransport`` relays barrier
  payloads exactly, chaos or not, and its counter snapshots pool into
  the fleet-report totals row.
"""

import ast
import inspect
import os
import pickle
import random
import socket
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import NetChaosSpec
from repro.fleet.sharding import ShardTask, run_sharded
from repro.fleet.transport import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    PARTITION_AFTER_S,
    PING_INTERVAL_S,
    RTO_S,
    SEND_DEADLINE_S,
    T_DATA,
    T_HELLO,
    FrameDecoder,
    FrameProtocol,
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


#: the fake clock's epoch: far from zero, as ``time.monotonic()`` is
T0 = 1e9


class MemoryWire:
    """Two ``FrameProtocol`` ends joined back to back on a fake clock.

    Bytes one end writes reach the other at the same instant, unless
    the wire's own seeded loss drops the whole chunk.  The clock only
    moves from one protocol deadline to the next, so every timer fires
    exactly on time and nothing sleeps.  A broken end stops: it is no
    longer ticked, read or written, as its socket driver would stop.
    """

    def __init__(self, left, right, *, loss=0.0, seed=0):
        self.left, self.right = left, right
        self.now = T0
        self.loss = loss
        self._rng = random.Random(seed)

    def settle(self):
        """Exchange bytes at ``now`` until both ends have nothing due."""
        moved = True
        while moved:
            moved = False
            for src, dst in ((self.left, self.right), (self.right, self.left)):
                if src.broken:
                    continue
                data = bytes(src.outbox)
                src.wrote(len(data), self.now)
                if data:
                    moved = True
                    if not dst.broken and self._rng.random() >= self.loss:
                        dst.receive_data(data, self.now)

    def advance(self, t, until=lambda: False):
        """Fire every deadline up to ``t``, stopping early once ``until()``."""
        while True:
            live = [p for p in (self.left, self.right) if not p.broken]
            due = min([p.tick(self.now) for p in live], default=float("inf"))
            self.settle()
            if until():
                return
            assert due > self.now, "tick left a timer due"
            if due > t:
                self.now = max(self.now, t)
                return
            self.now = due


def protocol_pair(spec=None, seed=0, loss=0.0):
    injector = _FaultInjector(spec, shard=seed) if spec is not None else None
    left = FrameProtocol(T0, injector=injector)
    right = FrameProtocol(T0)
    return MemoryWire(left, right, loss=loss, seed=seed)


_faults = st.fixed_dictionaries(
    {
        "loss": st.sampled_from([0.0, 0.05, 0.1]),
        "dup": st.sampled_from([0.0, 0.1, 0.2]),
        "corrupt": st.sampled_from([0.0, 0.05, 0.1]),
        "delay": st.sampled_from([0.0, 0.1, 0.3]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def _spec(faults):
    return NetChaosSpec(
        netdelay_ms=20.0,
        netdelay_rate=faults["delay"],
        dup_rate=faults["dup"],
        corrupt_rate=faults["corrupt"],
        seed=faults["seed"],
    )


class TestFrameProtocol:
    @settings(max_examples=40, deadline=None)
    @given(
        faults=_faults,
        sends=st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=6.0)),
            min_size=1,
            max_size=25,
        ),
        cuts=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),  # gap before the cut
                st.floats(min_value=0.6, max_value=2.0),  # cut length
            ),
            max_size=3,
        ),
    )
    def test_exactly_once_in_order_and_one_partition_per_cut(
        self, faults, sends, cuts
    ):
        """Under any seeded loss/dup/corrupt/delay/cut schedule both
        directions deliver every payload exactly once and in order, and
        the cut end detects each cut as one partition, on entry: while
        inbound is cut nothing re-arms the detector, so it fires at most
        once per cut — exactly once when no frame is ever lost."""
        wire = protocol_pair(_spec(faults), seed=faults["seed"], loss=faults["loss"])
        left, right = wire.left, wire.right
        # (time, order at that time, kind, arg); sends may land inside cuts
        events = [(T0 + at, 0, "send", (i, to_right)) for i, (to_right, at) in enumerate(sends)]
        entry_s = PARTITION_AFTER_S + PING_INTERVAL_S
        start = T0 + 0.5
        for k, (gap, length) in enumerate(cuts):
            start += gap + 1.0  # a healed second between cuts re-arms detection
            events += [
                (start, 1, "cut", length),
                (start + entry_s, 2, "entered", k),
                (start + length, 3, "healed", k),
            ]
            start += length
        expected = {True: [], False: []}
        counts = {}
        for at, _order, kind, arg in sorted(events):
            wire.advance(at)
            detected = left.counters.partitions_detected
            if kind == "send":
                i, to_right = arg
                payload = f"{i}:{'lr' if to_right else 'rl'}".encode() * (i % 7 + 1)
                expected[to_right].append(payload)
                (left if to_right else right).send(payload, wire.now)
                wire.settle()
            elif kind == "cut":
                left.cut(wire.now + arg)
                counts[len(counts)] = [detected]
            else:
                counts[arg].append(detected)
        partition_rises = []
        for before, entered, healed in counts.values():
            assert healed == entered  # nothing re-arms while inbound is cut
            partition_rises.append(entered - before)
        wire.advance(wire.now + 5.0, until=lambda: not left.unacked and not right.unacked)
        assert not left.broken and not right.broken
        assert list(right.inbox) == expected[True]
        assert list(left.inbox) == expected[False]
        assert all(r <= 1 for r in partition_rises)
        if faults["loss"] == 0 and faults["corrupt"] == 0:
            assert partition_rises == [1] * len(cuts)

    @settings(max_examples=30, deadline=None)
    @given(
        faults=_faults,
        before=st.integers(min_value=0, max_value=8),
        after=st.lists(st.floats(min_value=0.0, max_value=0.45), min_size=1, max_size=4),
    )
    def test_frame_unacked_past_send_deadline_breaks(self, faults, before, after):
        """Traffic flows under faults, then the link is cut for good.
        The end breaks exactly when its oldest unacked frame turns
        ``SEND_DEADLINE_S`` old, and not an instant before."""
        wire = protocol_pair(_spec(faults), seed=faults["seed"], loss=faults["loss"])
        left, right = wire.left, wire.right
        for i in range(before):
            left.send(b"pre-%d" % i, wire.now)
            wire.advance(wire.now + 0.1)
        wire.advance(wire.now + 1.5, until=lambda: not left.unacked)
        assert left.unacked == 0 and not left.broken
        left.cut(float("inf"))
        first = None
        for k, gap in enumerate(after):  # all inside the first send's deadline
            wire.advance(wire.now + gap)
            left.send(b"post-%d" % k, wire.now)
            first = wire.now if first is None else first
        wire.advance(first + SEND_DEADLINE_S - 1e-6)
        assert not left.broken
        wire.advance(first + SEND_DEADLINE_S)
        assert left.broken
        assert list(right.inbox) == [b"pre-%d" % i for i in range(before)]

    def test_close_lingers_until_acked(self):
        """The regression that made chaotic fleet runs nondeterministic:
        a worker that sends its result and exits at once lost it to a
        corrupted final frame.  ``FramedEndpoint.close`` lingers until
        ``unacked == 0``; here the one corrupted frame stays unacked
        until its retransmit, exactly one RTO later, is acked."""
        spec = NetChaosSpec(corrupt_rate=1.0, seed=1)
        wire = protocol_pair(spec)
        left, right = wire.left, wire.right
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
        left.send(b"the result", wire.now)
        wire.settle()
        assert left.unacked == 1 and not right.inbox
        wire.advance(T0 + 1.0, until=lambda: not left.unacked)
        assert wire.now == T0 + RTO_S  # the first RTO, to the tick
        assert list(right.inbox) == [b"the result"]
        assert left.counters.retransmits == 1
        assert right.counters.crc_rejects == 1

    def test_no_resend_while_a_frame_waits_behind_a_full_socket(self):
        """Bytes the socket has not taken yet are late, not lost: the
        frame is resent only one full RTO after its last byte is out."""
        left = FrameProtocol(T0)
        left.send(b"x" * 1000, T0)
        left.wrote(100, T0)  # the socket took only part of the frame
        left.tick(T0 + 5.0)
        assert left.counters.retransmits == 0
        drained = T0 + 5.0
        left.wrote(len(left.outbox), drained)
        left.tick(drained + RTO_S - 1e-6)
        assert left.counters.retransmits == 0
        left.tick(drained + RTO_S)
        assert left.counters.retransmits == 1

    def test_cut_heals_and_detects_partition(self):
        wire = protocol_pair()
        left, right = wire.left, wire.right
        left.send(b"before", wire.now)
        wire.settle()
        assert list(right.inbox) == [b"before"]
        heal_s = 2 * PARTITION_AFTER_S
        left.cut(wire.now + heal_s)
        left.send(b"during", wire.now)  # eaten by the cut, retransmitted after
        wire.advance(T0 + 1.5 * PARTITION_AFTER_S)
        assert left.counters.partitions_detected == 1
        assert len(right.inbox) == 1
        wire.advance(T0 + heal_s + 1.0, until=lambda: len(right.inbox) == 2)
        assert list(right.inbox) == [b"before", b"during"]
        assert T0 + heal_s <= wire.now < T0 + heal_s + RTO_S + 1e-9
        assert left.counters.partitions_detected == 1

    def test_protocol_does_no_io(self):
        """The protocol and everything it calls name no socket, thread,
        ``select`` or clock: ``now`` is the only time it knows."""
        for obj in (FrameProtocol, FrameDecoder, _FaultInjector, encode_frame):
            tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            assert not names & {"socket", "threading", "select", "time"}, obj


def endpoint_pair(spec=None, seed=0):
    a, b = socket.socketpair()
    injector = None
    if spec is not None:
        injector = _FaultInjector(spec, shard=seed)
    left = FramedEndpoint(a, TransportCounters(), injector=injector)
    right = FramedEndpoint(b, TransportCounters())
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

    def test_one_driver_thread_per_endpoint(self):
        before = set(threading.enumerate())
        left, right = endpoint_pair()
        try:
            started = set(threading.enumerate()) - before
            assert len(started) == 2
        finally:
            left.close()
            right.close()
        assert not any(t.is_alive() for t in started)  # close() joins its driver

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
        assert PipeTransport().counter_snapshots() == {}


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
