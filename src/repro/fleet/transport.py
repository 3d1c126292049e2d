"""Pluggable fleet transport: Pipe and framed-TCP coordinator links.

PR 7's coordinator protocol is pure message passing — ``("sync", …)``
up, ``("peers", …)`` down, ``("hb", None)`` beacons, ``("result", …)``
at the end — but it rode exclusively on ``multiprocessing.Pipe``,
which pins every worker to the coordinator's host and, more subtly,
never loses, duplicates, reorders, or corrupts a message.  Real links
do all four.  This module makes the transport a seam:

* :class:`PipeTransport` — the existing path, byte-for-byte: a spawn
  context ``Pipe()`` per worker.  The seam contract is that ``W=1``
  fleet output over either driver is bit-identical.
* :class:`TcpTransport` — loopback-or-LAN sockets carrying
  length-prefixed frames (magic, version, type, sequence number,
  payload CRC-32, header CRC-32), with a hello/version handshake,
  per-message acks, idempotent retransmit, in-order dedup delivery,
  ping/pong heartbeats, and explicit partition detection
  (missed-heartbeat silence plus a hard send deadline).

Failure semantics mirror ``Pipe`` so the PR-8 supervisor needs no new
cases: a dead peer or an exceeded send deadline makes ``recv`` raise
``EOFError`` and ``send`` raise ``BrokenPipeError``, exactly what
``_recv`` already converts into a ``ShardError``.

Chaos (``partition:A-B@R``, ``netdelay:MS:P``, ``dup:P``,
``corrupt:P``) is injected *inside* the coordinator-side endpoint —
below the protocol, above the socket — so the defense being tested is
the framing/ack machinery itself, not a mock of it.
"""

from __future__ import annotations

import hmac
import json
import pickle
import secrets
import socket
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.chaos import NetChaosSpec

__all__ = [
    "FRAME_VERSION",
    "FrameDecoder",
    "FramedEndpoint",
    "PipeTransport",
    "TcpTransport",
    "TcpWorkerSpec",
    "TransportCounters",
    "TransportError",
]

MAGIC = b"KHMT"
FRAME_VERSION = 1

#: frame types
T_DATA = 1
T_ACK = 2
T_PING = 3
T_PONG = 4
T_HELLO = 5
T_HELLO_ACK = 6

# magic, version, ftype, seq, payload length, payload crc  + header crc
_HEAD = struct.Struct(">4sBBQII")
_HEAD_CRC = struct.Struct(">I")
HEADER_SIZE = _HEAD.size + _HEAD_CRC.size

#: hard cap on a single frame's payload; a corrupted length field can
#: never make the decoder wait on more than this.
MAX_PAYLOAD = 64 * 1024 * 1024


class TransportError(Exception):
    """Unrecoverable transport fault (handshake refused, bad version)."""


def encode_frame(ftype: int, seq: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise TransportError(f"payload of {len(payload)} bytes exceeds cap")
    head = _HEAD.pack(
        MAGIC, FRAME_VERSION, ftype, seq, len(payload), zlib.crc32(payload)
    )
    return head + _HEAD_CRC.pack(zlib.crc32(head)) + payload


@dataclass
class TransportCounters:
    """Per-shard wire health, accumulated across respawn attempts.

    Every count is a *defense firing*, not a failure: a retransmit
    means a loss was repaired, a crc_reject means corruption was
    caught before delivery, a dup_drop means idempotence held.
    """

    retransmits: int = 0
    crc_rejects: int = 0
    dup_drops: int = 0
    partitions_detected: int = 0
    heartbeat_rtt_ms_max: float = 0.0

    def record_rtt(self, rtt_s: float) -> None:
        self.heartbeat_rtt_ms_max = max(self.heartbeat_rtt_ms_max, rtt_s * 1e3)

    def snapshot(self) -> dict:
        return {
            "retransmits": self.retransmits,
            "crc_rejects": self.crc_rejects,
            "dup_drops": self.dup_drops,
            "partitions_detected": self.partitions_detected,
            "heartbeat_rtt_ms_max": round(self.heartbeat_rtt_ms_max, 3),
        }


class _FaultInjector:
    """Deterministic per-link fault source, applied at frame granularity."""

    def __init__(self, spec: NetChaosSpec, shard: int) -> None:
        import random

        self.spec = spec
        self._rng = random.Random(10_007 * (spec.seed + 1) + shard)

    def corrupt(self, data: bytes) -> Optional[bytes]:
        """Return a bit-flipped copy of ``data`` with probability
        ``corrupt_rate``; None means leave it alone."""
        if self.spec.corrupt_rate > 0 and self._rng.random() < self.spec.corrupt_rate:
            # Flip one payload bit so the header still parses and the
            # payload CRC is what catches it — the realistic case.
            flipped = bytearray(data)
            if len(flipped) > HEADER_SIZE:
                pos = self._rng.randrange(HEADER_SIZE, len(flipped))
            else:
                pos = self._rng.randrange(len(flipped))
            flipped[pos] ^= 1 << self._rng.randrange(8)
            return bytes(flipped)
        return None

    def duplicate(self) -> bool:
        return self.spec.dup_rate > 0 and self._rng.random() < self.spec.dup_rate

    def delay_s(self) -> float:
        if (
            self.spec.netdelay_rate > 0
            and self.spec.netdelay_ms > 0
            and self._rng.random() < self.spec.netdelay_rate
        ):
            return self.spec.netdelay_ms / 1e3
        return 0.0


class FrameDecoder:
    """Incremental frame parser with CRC validation and resync.

    Corruption never surfaces as a payload: a frame whose header CRC
    or payload CRC fails is counted in ``crc_rejects`` and skipped by
    scanning forward to the next magic marker.  A corrupted *length*
    therefore cannot stall the stream — the header CRC rejects the
    header before the bogus length is trusted.
    """

    def __init__(self, counters: Optional[TransportCounters] = None) -> None:
        self.counters = counters or TransportCounters()
        self._buf = bytearray()

    def _resync(self) -> None:
        """Drop bytes up to the next plausible frame start."""
        self.counters.crc_rejects += 1
        nxt = self._buf.find(MAGIC, 1)
        del self._buf[: nxt if nxt != -1 else len(self._buf)]

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        """Absorb raw bytes; return complete ``(ftype, seq, payload)``."""
        self._buf.extend(data)
        frames: list[tuple[int, int, bytes]] = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                break
            head = bytes(self._buf[: _HEAD.size])
            (stored_hcrc,) = _HEAD_CRC.unpack_from(self._buf, _HEAD.size)
            magic, version, ftype, seq, length, pcrc = _HEAD.unpack(head)
            if (
                magic != MAGIC
                or version != FRAME_VERSION
                or length > MAX_PAYLOAD
                or zlib.crc32(head) != stored_hcrc
            ):
                self._resync()
                continue
            if len(self._buf) < HEADER_SIZE + length:
                break  # wait for the rest; length is CRC-vouched
            payload = bytes(self._buf[HEADER_SIZE : HEADER_SIZE + length])
            if zlib.crc32(payload) != pcrc:
                self._resync()
                continue
            del self._buf[: HEADER_SIZE + length]
            frames.append((ftype, seq, payload))
        return frames


class FramedEndpoint:
    """A ``multiprocessing.Connection`` work-alike over a stream socket.

    Guarantees to the coordinator protocol layered on top:

    * **at-least-once + idempotent** — every DATA frame is acked; the
      sender retransmits unacked frames past an RTO; the receiver
      drops duplicate sequence numbers.
    * **in-order** — out-of-sequence arrivals (retransmit races,
      injected delays) are stashed and delivered contiguously.
    * **fail-explicit** — peer EOF or a frame unacked past the send
      deadline flips the link to broken: ``recv`` raises ``EOFError``,
      ``send`` raises ``BrokenPipeError``, and ``poll`` returns True
      so a blocked reader wakes into the error instead of hanging.
    * **partition-aware** — sustained inbound silence while frames
      await acks increments ``partitions_detected`` (edge-triggered;
      any inbound frame re-arms it).
    """

    def __init__(
        self,
        sock: socket.socket,
        counters: Optional[TransportCounters] = None,
        *,
        injector: Optional[_FaultInjector] = None,
        rto_s: float = 0.2,
        ping_interval_s: float = 0.15,
        partition_after_s: float = 0.45,
        send_deadline_s: float = 10.0,
        linger_s: float = 5.0,
    ) -> None:
        self.counters = counters or TransportCounters()
        self._sock = sock
        self._injector = injector
        self._rto_s = rto_s
        self._ping_interval_s = ping_interval_s
        self._partition_after_s = partition_after_s
        self._send_deadline_s = send_deadline_s
        self._linger_s = linger_s

        self._cond = threading.Condition()
        self._inbox: deque[bytes] = deque()
        self._decoder = FrameDecoder(self.counters)
        self._next_deliver = 0
        self._stash: dict[int, bytes] = {}

        self._wlock = threading.Lock()
        self._send_seq = 0
        self._pending: dict[int, tuple[bytes, float, float]] = {}
        # Pings number themselves from a separate space: DATA sequence
        # numbers must stay contiguous or the receiver's in-order
        # delivery would wait forever on a "hole" that was a ping.
        self._ping_seq = 0
        self._pings: dict[int, float] = {}

        self._blocked_until = 0.0
        self._in_partition = False
        self._last_recv = time.monotonic()
        self._last_send = time.monotonic()
        self._broken = False
        self._closed = False
        self._timers: list[threading.Timer] = []

        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        self._ticker = threading.Thread(target=self._tick_loop, daemon=True)
        self._ticker.start()

    # -- chaos hooks ---------------------------------------------------

    def cut(self, heal_s: float) -> None:
        """Sever the link both ways for ``heal_s`` wall seconds."""
        with self._cond:
            self._blocked_until = time.monotonic() + heal_s

    def _cut_active(self) -> bool:
        return time.monotonic() < self._blocked_until

    # -- raw writes ----------------------------------------------------

    def _write_raw(self, data: bytes) -> None:
        with self._wlock:
            if self._closed or self._broken:
                return
            try:
                self._sock.sendall(data)
                self._last_send = time.monotonic()
            except OSError:
                self._mark_broken()

    def _emit(self, frame: bytes, *, faultable: bool = True) -> None:
        """One frame onto the wire, through the fault injector."""
        if self._cut_active():
            return  # dropped on the floor; retransmit machinery repairs
        inj = self._injector if faultable else None
        if inj is not None:
            delay = inj.delay_s()
            if delay > 0:
                t = threading.Timer(delay, self._write_raw, args=(frame,))
                t.daemon = True
                t.start()
                self._timers.append(t)
                return
            corrupted = inj.corrupt(frame)
            if corrupted is not None:
                self._write_raw(corrupted)
                return
            if inj.duplicate():
                self._write_raw(frame)
        self._write_raw(frame)

    # -- Connection API ------------------------------------------------

    def send(self, obj: Any) -> None:
        if self._closed or self._broken:
            raise BrokenPipeError("transport endpoint is closed")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with self._cond:
            seq = self._send_seq
            self._send_seq += 1
            frame = encode_frame(T_DATA, seq, payload)
            now = time.monotonic()
            # Register before emitting: a frame eaten by chaos is
            # already on the retransmit schedule.
            self._pending[seq] = (frame, now, now)
        self._emit(frame)

    def recv(self) -> Any:
        with self._cond:
            while not self._inbox:
                if self._broken or self._closed:
                    raise EOFError("transport endpoint lost its peer")
                self._cond.wait(timeout=0.5)
            payload = self._inbox.popleft()
        return pickle.loads(payload)

    def poll(self, timeout: float = 0.0) -> bool:
        deadline = time.monotonic() + max(timeout, 0.0)
        with self._cond:
            while True:
                if self._inbox or self._broken or self._closed:
                    return True  # recv() will yield a value or raise EOFError
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.5))

    def close(self) -> None:
        # Linger until the peer has acked every outstanding frame (the
        # tick loop keeps retransmitting while we wait).  A process
        # that exits right after its final send would otherwise race
        # the wire: one corrupted result frame, and the retransmit
        # that would have saved it dies with the socket.
        deadline = time.monotonic() + self._linger_s
        with self._cond:
            if self._closed:
                return
            while self._pending and not self._broken:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 0.05))
            self._closed = True
            self._cond.notify_all()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- internals -----------------------------------------------------

    def _mark_broken(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def _read_loop(self) -> None:
        while not self._closed:
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                self._mark_broken()
                return
            if not chunk:
                self._mark_broken()
                return
            if self._cut_active():
                continue  # the partition eats inbound bytes too
            self._on_chunk(chunk)

    def _on_chunk(self, chunk: bytes) -> None:
        inj = self._injector
        if inj is not None:
            corrupted = inj.corrupt(chunk)
            if corrupted is not None:
                chunk = corrupted
            elif inj.duplicate():
                # Replayed bytes re-parse into valid duplicate frames;
                # the seq dedup below is what must absorb them.
                chunk = chunk + chunk
        for ftype, seq, payload in self._decoder.feed(chunk):
            self._on_frame(ftype, seq, payload)

    def _on_frame(self, ftype: int, seq: int, payload: bytes) -> None:
        with self._cond:
            self._last_recv = time.monotonic()
            self._in_partition = False
        if ftype == T_DATA:
            # Always ack, even duplicates: the original ack may be the
            # thing that was lost.
            self._emit(encode_frame(T_ACK, seq, b""), faultable=False)
            with self._cond:
                if seq < self._next_deliver or seq in self._stash:
                    self.counters.dup_drops += 1
                    return
                self._stash[seq] = payload
                while self._next_deliver in self._stash:
                    self._inbox.append(self._stash.pop(self._next_deliver))
                    self._next_deliver += 1
                self._cond.notify_all()
        elif ftype == T_ACK:
            with self._cond:
                entry = self._pending.pop(seq, None)
            if entry is not None:
                self.counters.record_rtt(time.monotonic() - entry[2])
        elif ftype == T_PING:
            self._emit(encode_frame(T_PONG, seq, b""), faultable=False)
        elif ftype == T_PONG:
            with self._cond:
                sent = self._pings.pop(seq, None)
            if sent is not None:
                self.counters.record_rtt(time.monotonic() - sent)

    def _tick_loop(self) -> None:
        while not self._closed and not self._broken:
            time.sleep(0.05)
            now = time.monotonic()
            with self._cond:
                pending = list(self._pending.items())
                waiting = bool(self._pending) or bool(self._pings)
                quiet_s = now - self._last_recv
                idle_send_s = now - self._last_send
            for seq, (frame, first, last) in pending:
                if now - first > self._send_deadline_s:
                    self._mark_broken()
                    return
                if now - last > self._rto_s:
                    with self._cond:
                        if seq in self._pending:
                            self._pending[seq] = (frame, first, now)
                            self.counters.retransmits += 1
                        else:
                            continue
                    self._emit(frame)
            # Partition: we are owed frames (acks or pongs) and the
            # inbound side has been silent past the threshold.
            if waiting and quiet_s > self._partition_after_s:
                with self._cond:
                    if not self._in_partition:
                        self._in_partition = True
                        self.counters.partitions_detected += 1
            # Stale unanswered pings must not pin `waiting` forever.
            with self._cond:
                self._pings = {
                    s: t for s, t in self._pings.items() if now - t < 5.0
                }
            if idle_send_s > self._ping_interval_s:
                with self._cond:
                    seq = self._ping_seq
                    self._ping_seq += 1
                    self._pings[seq] = now
                self._emit(encode_frame(T_PING, seq, b""))


# ---------------------------------------------------------------------------
# handshake helpers (raw socket, before FramedEndpoint wraps it)
# ---------------------------------------------------------------------------


# HELLO and HELLO_ACK travel as JSON: a HELLO arrives from any local
# process before its token is checked, so it is never unpickled.


def _sock_send_frame(sock: socket.socket, ftype: int, obj: dict) -> None:
    sock.sendall(encode_frame(ftype, 0, json.dumps(obj).encode("utf-8")))


def _sock_recv_frame(sock: socket.socket, timeout_s: float) -> tuple[int, Any]:
    sock.settimeout(timeout_s)
    decoder = FrameDecoder()
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise TransportError("peer closed during handshake")
            frames = decoder.feed(chunk)
            if frames:
                ftype, _seq, payload = frames[0]
                return ftype, json.loads(payload)
    finally:
        sock.settimeout(None)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class PipeTransport:
    """The original driver: one spawn-context ``Pipe()`` per worker.

    Kept free of any wrapping so the ``W=1`` seam contract — TCP and
    Pipe produce bit-identical pooled summaries — compares TCP against
    the exact pre-seam byte path.
    """

    name = "pipe"

    def __init__(self) -> None:
        import multiprocessing as mp

        self._ctx = mp.get_context("spawn")

    def open_endpoint(self, shard: int, attempt: int):
        parent_conn, child_conn = self._ctx.Pipe()
        return parent_conn, child_conn

    def release_worker_handle(self, handle) -> None:
        # The parent's copy of the child end must close so EOF
        # propagates when the worker dies — unchanged from PR 7.
        handle.close()

    def counters_for(self, shard: int) -> TransportCounters:
        return TransportCounters()  # pipes have no wire to count

    def counter_snapshots(self) -> dict[int, dict]:
        return {}

    def cut_links(self, shards: Iterable[int], heal_s: float) -> None:
        raise TransportError("partition chaos requires the tcp transport")

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class TcpWorkerSpec:
    """Everything a spawned worker needs to dial home.  Picklable —
    this object rides the spawn pickle stream instead of a pipe fd."""

    host: str
    port: int
    shard: int
    attempt: int
    token: str
    rto_s: float = 0.2
    send_deadline_s: float = 10.0

    def connect(self) -> FramedEndpoint:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _sock_send_frame(
            sock,
            T_HELLO,
            {
                "version": FRAME_VERSION,
                "shard": self.shard,
                "attempt": self.attempt,
                "token": self.token,
            },
        )
        ftype, ack = _sock_recv_frame(sock, timeout_s=10.0)
        if ftype != T_HELLO_ACK:
            sock.close()
            raise TransportError(f"expected HELLO_ACK, got frame type {ftype}")
        if ack.get("version") != FRAME_VERSION:
            sock.close()
            raise TransportError(
                f"coordinator speaks frame version {ack.get('version')}, "
                f"worker speaks {FRAME_VERSION}"
            )
        return FramedEndpoint(
            sock,
            TransportCounters(),
            rto_s=self.rto_s,
            send_deadline_s=self.send_deadline_s,
        )


class _Slot:
    """Rendezvous between ``open_endpoint`` and the accept thread."""

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.endpoint: Optional[FramedEndpoint] = None
        self.error: Optional[str] = None

    def fulfill(self, endpoint: FramedEndpoint) -> None:
        self.endpoint = endpoint
        self.ready.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.ready.set()


class _SlotConn:
    """Coordinator-side endpoint that may not have accepted yet.

    ``run_sharded`` creates endpoints before spawning workers; the TCP
    connection lands asynchronously.  Until then, ``poll`` simply has
    nothing, ``send`` waits for the dial-in, and a worker that dies
    without ever connecting is caught by the supervisor's liveness
    check — the same way a pipe-worker that dies pre-handshake is.
    """

    def __init__(self, slot: _Slot, connect_deadline_s: float) -> None:
        self._slot = slot
        self._deadline_s = connect_deadline_s
        self._closed = False

    def _endpoint(self, wait_s: float) -> Optional[FramedEndpoint]:
        if self._slot.ready.wait(timeout=wait_s):
            if self._slot.error is not None:
                raise BrokenPipeError(self._slot.error)
            return self._slot.endpoint
        return None

    def send(self, obj: Any) -> None:
        if self._closed:
            raise BrokenPipeError("endpoint closed")
        ep = self._endpoint(self._deadline_s)
        if ep is None:
            raise BrokenPipeError("worker never completed the TCP handshake")
        ep.send(obj)

    def recv(self) -> Any:
        ep = self._endpoint(self._deadline_s)
        if ep is None:
            raise EOFError("worker never completed the TCP handshake")
        return ep.recv()

    def poll(self, timeout: float = 0.0) -> bool:
        start = time.monotonic()
        ep = self._endpoint(timeout)
        if ep is None:
            return False
        remaining = max(0.0, timeout - (time.monotonic() - start))
        return ep.poll(remaining)

    def close(self) -> None:
        self._closed = True
        if self._slot.ready.is_set() and self._slot.endpoint is not None:
            self._slot.endpoint.close()


class TcpTransport:
    """Coordinator-side listener + per-shard framed endpoints.

    One instance serves a whole fleet run: workers (original and
    respawned) dial the same port and are routed to their slot by the
    ``(shard, attempt)`` pair in their HELLO.  A shared random token
    keeps stray local processes from joining the fleet.
    """

    name = "tcp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: Optional[NetChaosSpec] = None,
        *,
        connect_deadline_s: float = 30.0,
        rto_s: float = 0.2,
        ping_interval_s: float = 0.15,
        partition_after_s: float = 0.45,
        send_deadline_s: float = 10.0,
    ) -> None:
        self.host = host
        self.chaos = chaos if chaos is not None and not chaos.is_inert else None
        self._connect_deadline_s = connect_deadline_s
        self._rto_s = rto_s
        self._ping_interval_s = ping_interval_s
        self._partition_after_s = partition_after_s
        self._send_deadline_s = send_deadline_s
        self._token = secrets.token_hex(8)
        self._lock = threading.Lock()
        self._slots: dict[tuple[int, int], _Slot] = {}
        self._counters: dict[int, TransportCounters] = {}
        self._live: dict[int, FramedEndpoint] = {}
        self._closed = False

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    # -- seam API ------------------------------------------------------

    def open_endpoint(self, shard: int, attempt: int):
        with self._lock:
            counters = self._counters.setdefault(shard, TransportCounters())
            slot = _Slot()
            self._slots[(shard, attempt)] = slot
        spec = TcpWorkerSpec(
            host=self.host,
            port=self.port,
            shard=shard,
            attempt=attempt,
            token=self._token,
            rto_s=self._rto_s,
            send_deadline_s=self._send_deadline_s,
        )
        del counters  # per-shard counters attach at accept time
        return _SlotConn(slot, self._connect_deadline_s), spec

    def release_worker_handle(self, handle) -> None:
        pass  # a TcpWorkerSpec holds no parent-side resource

    def counters_for(self, shard: int) -> TransportCounters:
        with self._lock:
            return self._counters.setdefault(shard, TransportCounters())

    def counter_snapshots(self) -> dict[int, dict]:
        with self._lock:
            return {k: c.snapshot() for k, c in sorted(self._counters.items())}

    def cut_links(self, shards: Iterable[int], heal_s: float) -> None:
        """Sever coordinator↔worker links for ``shards``; they heal on
        their own after ``heal_s`` wall seconds.  Retransmit + dedup
        must make the run indistinguishable from an uncut one."""
        with self._lock:
            endpoints = [self._live[k] for k in shards if k in self._live]
        for ep in endpoints:
            ep.cut(heal_s)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = list(self._live.values())
        try:
            self._listener.close()
        except OSError:
            pass
        for ep in live:
            ep.close()

    # -- accept path ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            t = threading.Thread(
                target=self._handshake, args=(sock,), daemon=True
            )
            t.start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            ftype, hello = _sock_recv_frame(sock, timeout_s=10.0)
            if ftype != T_HELLO or not isinstance(hello, dict):
                raise TransportError("expected HELLO")
            token = hello.get("token")
            if not isinstance(token, str) or not hmac.compare_digest(
                token.encode("utf-8"), self._token.encode("utf-8")
            ):
                raise TransportError("bad fleet token")
            if hello.get("version") != FRAME_VERSION:
                raise TransportError(
                    f"worker frame version {hello.get('version')} != "
                    f"{FRAME_VERSION}"
                )
            shard = int(hello["shard"])
            attempt = int(hello["attempt"])
            with self._lock:
                slot = self._slots.get((shard, attempt))
            if slot is None or slot.ready.is_set():
                raise TransportError(
                    f"no open slot for shard {shard} attempt {attempt}"
                )
            _sock_send_frame(sock, T_HELLO_ACK, {"version": FRAME_VERSION})
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            injector = (
                _FaultInjector(self.chaos, shard) if self.chaos is not None else None
            )
            endpoint = FramedEndpoint(
                sock,
                self.counters_for(shard),
                injector=injector,
                rto_s=self._rto_s,
                ping_interval_s=self._ping_interval_s,
                partition_after_s=self._partition_after_s,
                send_deadline_s=self._send_deadline_s,
            )
            with self._lock:
                self._live[shard] = endpoint
            slot.fulfill(endpoint)
        except (TransportError, OSError, KeyError, TypeError, ValueError):
            try:
                sock.close()
            except OSError:
                pass
