"""Pluggable fleet transport: Pipe and framed-TCP coordinator links.

The coordinator protocol is message passing (``("sync", …)`` up,
``("peers", …)`` down, ``("result", …)`` at the end) over one of two
drivers:

* :class:`PipeTransport` — a spawn-context ``Pipe()`` per worker.  The
  seam contract is that ``W=1`` fleet output over either driver is
  bit-identical.
* :class:`TcpTransport` — sockets behind a JSON hello/token handshake,
  carrying CRC-checked frames.  :class:`FrameProtocol` is one end of a
  link in the style of h11 (https://sans-io.readthedocs.io/): framing,
  acks, retransmit, dedup, heartbeats, partition detection and wire
  chaos, with no socket, thread, lock or clock inside.  One thread per
  :class:`FramedEndpoint` drives it over a socket; the tests drive a
  pair over an in-memory wire on a fake clock.

Every wire timing is a module constant below, so both ends of a link
read the same values by construction.

A dead peer or an exceeded send deadline makes ``recv`` raise
``EOFError`` and ``send`` raise ``BrokenPipeError``, as a ``Pipe``
does, so the supervisor needs no TCP-only case.
"""

from __future__ import annotations

import heapq
import hmac
import json
import pickle
import random
import secrets
import select
import socket
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional

from repro.chaos import NetChaosSpec

__all__ = [
    "FRAME_VERSION",
    "FrameDecoder",
    "FrameProtocol",
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

#: an unacked DATA frame is resent this long after its last send.
RTO_S = 0.2
#: a ping goes out after this much outbound silence.
PING_INTERVAL_S = 0.15
#: inbound silence this long while acks or pongs are owed is a partition.
PARTITION_AFTER_S = 0.45
#: a DATA frame still unacked this long after its first send breaks the link.
SEND_DEADLINE_S = 10.0
#: an unanswered ping older than this stops counting as owed.
PING_EXPIRY_S = 5.0
#: ``FramedEndpoint.close`` waits at most this long for outstanding acks.
LINGER_S = 5.0
#: how long the coordinator waits for a spawned worker to dial in.
CONNECT_DEADLINE_S = 30.0


class TransportError(Exception):
    """Unrecoverable transport fault (handshake refused, bad version)."""


def encode_frame(ftype: int, seq: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise TransportError(f"payload of {len(payload)} bytes exceeds cap")
    pcrc = zlib.crc32(payload)
    head = _HEAD.pack(MAGIC, FRAME_VERSION, ftype, seq, len(payload), pcrc)
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
        rtt = round(self.heartbeat_rtt_ms_max, 3)
        return {**asdict(self), "heartbeat_rtt_ms_max": rtt}


class _FaultInjector:
    """Deterministic per-link fault source, applied at frame granularity."""

    def __init__(self, spec: NetChaosSpec, shard: int) -> None:
        self.spec = spec
        self._rng = random.Random(10_007 * (spec.seed + 1) + shard)

    def corrupt(self, data: bytes) -> Optional[bytes]:
        """Return a bit-flipped copy of ``data`` with probability
        ``corrupt_rate``; None means leave it alone."""
        if self.spec.corrupt_rate > 0 and self._rng.random() < self.spec.corrupt_rate:
            # Flip one payload bit so the header still parses and the
            # payload CRC is what catches it — the realistic case.
            flipped = bytearray(data)
            lo = HEADER_SIZE if len(flipped) > HEADER_SIZE else 0
            pos = self._rng.randrange(lo, len(flipped))
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
        while len(self._buf) >= HEADER_SIZE:
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


class FrameProtocol:
    """One end of a framed link, as a state machine over ``now``.

    Peer bytes (:meth:`receive_data`), payloads (:meth:`send`) and the
    time go in; ``inbox``, ``outbox`` (bytes to write, then report with
    :meth:`wrote`), ``counters``, ``broken`` and the next deadline (from
    :meth:`tick`) come out.

    * **exactly once, in order** — DATA frames are acked, resent every
      :data:`RTO_S` until they are, deduplicated and delivered in sequence.
    * **fail-explicit** — peer EOF (``receive_data(b"")``) or a frame
      unacked :data:`SEND_DEADLINE_S` after its first send sets ``broken``.
    * **partition-aware** — inbound silence past :data:`PARTITION_AFTER_S`
      while acks or pongs are owed counts one partition, on entry; a
      ping goes out after :data:`PING_INTERVAL_S` of outbound silence.

    Chaos sits below the acks, so what it tests is this machinery, not a
    mock: :meth:`cut` drops every frame both ways until a given time, and
    the coordinator side's injector corrupts, duplicates and delays.
    """

    def __init__(
        self,
        now: float,
        counters: Optional[TransportCounters] = None,
        *,
        injector: Optional[_FaultInjector] = None,
    ) -> None:
        self.counters = counters or TransportCounters()
        #: delivered payloads, in order, for the caller to pop
        self.inbox: deque[bytes] = deque()
        self.broken = False
        self._injector = injector

        self._decoder = FrameDecoder(self.counters)
        self._next_deliver = 0
        self._stash: dict[int, bytes] = {}

        self._send_seq = 0
        # seq -> (frame, first sent, last sent)
        self._pending: dict[int, tuple[bytes, float, float]] = {}
        # Pings number themselves from a separate space: DATA sequence
        # numbers must stay contiguous or the receiver's in-order
        # delivery would wait forever on a "hole" that was a ping.
        self._ping_seq = 0
        self._pings: dict[int, float] = {}

        self.outbox = bytearray()
        self._backlog_end = now
        self._delayed: list[tuple[float, bytes]] = []  # heap of (due, frame)
        self._blocked_until = float("-inf")
        self._in_partition = False
        self._last_recv = now
        self._last_send = now

    @property
    def unacked(self) -> int:
        return len(self._pending)

    def cut(self, until: float) -> None:
        """Sever the link both ways until ``until``."""
        self._blocked_until = until

    def send(self, payload: bytes, now: float) -> None:
        seq = self._send_seq
        self._send_seq += 1
        frame = encode_frame(T_DATA, seq, payload)
        # Register before emitting: a frame eaten by chaos is already
        # on the retransmit schedule.
        self._pending[seq] = (frame, now, now)
        self._emit(frame, now)

    def receive_data(self, data: bytes, now: float) -> None:
        """Absorb bytes read from the peer; ``b""`` is the peer's EOF."""
        if not data:
            self.broken = True
            return
        if now < self._blocked_until:
            return  # the partition eats inbound bytes too
        inj = self._injector
        if inj is not None:
            corrupted = inj.corrupt(data)
            if corrupted is not None:
                data = corrupted
            elif inj.duplicate():
                # Replayed bytes re-parse into valid duplicate frames;
                # the seq dedup is what must absorb them.
                data = data + data
        for ftype, seq, payload in self._decoder.feed(data):
            self._on_frame(ftype, seq, payload, now)

    def wrote(self, n: int, now: float) -> None:
        """The driver wrote ``outbox[:n]``; no resend while bytes still wait."""
        del self.outbox[:n]
        self._backlog_end = float("inf") if self.outbox else min(self._backlog_end, now)

    def tick(self, now: float) -> float:
        """Fire every timer due by ``now`` (send deadline, retransmit, delayed
        frame, ping, partition, ping expiry); return when the next is due."""
        while self._delayed and self._delayed[0][0] <= now:
            self.outbox += heapq.heappop(self._delayed)[1]
        due = []
        for seq, (frame, first, last) in list(self._pending.items()):
            if now >= first + SEND_DEADLINE_S:
                self.broken = True
                return float("inf")  # a broken link has no more timers
            # Bytes queued behind a full socket are late, not lost: the
            # RTO runs from when the last of them went out.
            resend_at = max(last, self._backlog_end) + RTO_S
            if now >= resend_at:
                self._pending[seq] = (frame, first, now)
                self.counters.retransmits += 1
                self._emit(frame, now)
                resend_at = now + RTO_S
            due.append(min(first + SEND_DEADLINE_S, resend_at))
        if now >= self._last_send + PING_INTERVAL_S:
            self._pings[self._ping_seq] = now
            self._emit(encode_frame(T_PING, self._ping_seq, b""), now)
            self._ping_seq += 1
        due.append(self._last_send + PING_INTERVAL_S)
        # Partition: we are owed frames (acks or pongs) and the inbound
        # side has been silent past the threshold.
        if (self._pending or self._pings) and not self._in_partition:
            if now >= self._last_recv + PARTITION_AFTER_S:
                self._in_partition = True
                self.counters.partitions_detected += 1
            else:
                due.append(self._last_recv + PARTITION_AFTER_S)
        # Stale unanswered pings must not pin the partition check forever.
        while self._pings and now >= next(iter(self._pings.values())) + PING_EXPIRY_S:
            del self._pings[next(iter(self._pings))]
        if self._pings:
            due.append(next(iter(self._pings.values())) + PING_EXPIRY_S)
        if self._delayed:
            due.append(self._delayed[0][0])
        return min(due)

    def _emit(self, frame: bytes, now: float, *, faultable: bool = True) -> None:
        """One frame into the outbox, through the fault injector."""
        self._last_send = now
        if now < self._blocked_until:
            return  # dropped on the floor; retransmit repairs it
        inj = self._injector if faultable else None
        if inj is not None:
            delay = inj.delay_s()
            if delay > 0:
                heapq.heappush(self._delayed, (now + delay, frame))
                return
            corrupted = inj.corrupt(frame)
            if corrupted is not None:
                self.outbox += corrupted
                return
            if inj.duplicate():
                self.outbox += frame
        self.outbox += frame

    def _on_frame(self, ftype: int, seq: int, payload: bytes, now: float) -> None:
        self._last_recv = now
        self._in_partition = False
        if ftype == T_DATA:
            # Always ack, even duplicates: the original ack may be the
            # thing that was lost.
            self._emit(encode_frame(T_ACK, seq, b""), now, faultable=False)
            if seq < self._next_deliver or seq in self._stash:
                self.counters.dup_drops += 1
                return
            self._stash[seq] = payload
            while self._next_deliver in self._stash:
                self.inbox.append(self._stash.pop(self._next_deliver))
                self._next_deliver += 1
        elif ftype == T_ACK:
            entry = self._pending.pop(seq, None)
            if entry is not None:
                self.counters.record_rtt(now - entry[2])
        elif ftype == T_PING:
            self._emit(encode_frame(T_PONG, seq, b""), now, faultable=False)
        elif ftype == T_PONG:
            sent = self._pings.pop(seq, None)
            if sent is not None:
                self.counters.record_rtt(now - sent)


class FramedEndpoint:
    """A ``multiprocessing.Connection`` work-alike over a stream socket.

    One driver thread owns the socket and the :class:`FrameProtocol`:
    it sleeps in ``select`` until the socket is ready, a ``send`` wakes
    it or the protocol's next deadline comes, then feeds the protocol,
    fires its timers and writes without blocking.  A broken link makes
    ``recv`` raise ``EOFError``, ``send`` raise ``BrokenPipeError`` and
    ``poll`` return True.
    """

    def __init__(
        self,
        sock: socket.socket,
        counters: Optional[TransportCounters] = None,
        *,
        injector: Optional[_FaultInjector] = None,
    ) -> None:
        self._proto = FrameProtocol(time.monotonic(), counters, injector=injector)
        self.counters = self._proto.counters
        self._sock = sock
        self._cond = threading.Condition()
        self._closed = False
        # A send wakes the driver out of select through this pair.
        self._wake_r, self._wake_w = socket.socketpair()
        for s in (sock, self._wake_r, self._wake_w):
            s.setblocking(False)
        self._driver = threading.Thread(target=self._drive, daemon=True)
        self._driver.start()

    def cut(self, heal_s: float) -> None:
        """Sever the link both ways for ``heal_s`` wall seconds."""
        with self._cond:
            self._proto.cut(time.monotonic() + heal_s)

    def send(self, obj: Any) -> None:
        if self._closed or self._proto.broken:
            raise BrokenPipeError("transport endpoint is closed")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with self._cond:
            self._proto.send(payload, time.monotonic())
        self._wake()

    def _ready(self) -> bool:
        return bool(self._proto.inbox) or self._proto.broken or self._closed

    def recv(self) -> Any:
        with self._cond:
            self._cond.wait_for(self._ready)
            if not self._proto.inbox:
                raise EOFError("transport endpoint lost its peer")
            payload = self._proto.inbox.popleft()
        return pickle.loads(payload)

    def poll(self, timeout: float = 0.0) -> bool:
        with self._cond:
            return self._cond.wait_for(self._ready, timeout=max(timeout, 0.0))

    def close(self) -> None:
        # Linger until the peer has acked every outstanding frame (the
        # driver keeps retransmitting meanwhile): a worker that exits
        # right after sending its result must not lose it to one
        # corrupted frame whose retransmit dies with the socket.
        with self._cond:
            if self._closed:
                return
            self._cond.wait_for(
                lambda: not self._proto.unacked or self._proto.broken,
                timeout=LINGER_S,
            )
            self._closed = True
        self._wake()
        self._driver.join()  # nothing blocks on the sockets after this
        for s in (self._sock, self._wake_r, self._wake_w):
            s.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a full pair already holds a wake; a closed one needs none

    def _drive(self) -> None:
        proto, sock = self._proto, self._sock
        chunk: Optional[bytes] = None
        while True:
            with self._cond:
                now = time.monotonic()
                if chunk is not None:
                    proto.receive_data(chunk, now)
                deadline = proto.tick(now)
                try:
                    if proto.outbox:
                        proto.wrote(sock.send(proto.outbox), now)
                except BlockingIOError:
                    pass
                except OSError:
                    proto.receive_data(b"", now)
                self._cond.notify_all()
                if self._closed or proto.broken:
                    return
                timeout = max(0.0, deadline - now)
                writers = [sock] if proto.outbox else []
            chunk = None
            try:
                ready, _, _ = select.select([sock, self._wake_r], writers, [], timeout)
                if self._wake_r in ready:
                    self._wake_r.recv(4096)
                if sock in ready:
                    chunk = sock.recv(65536)
            except BlockingIOError:
                pass
            except (OSError, ValueError):
                chunk = b""  # a dead socket reads as the peer's EOF


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
        return self._ctx.Pipe()  # (parent end, worker handle)

    def release_worker_handle(self, handle) -> None:
        # The parent's copy of the child end must close so EOF
        # propagates when the worker dies — unchanged from PR 7.
        handle.close()

    def counter_snapshots(self) -> dict[int, dict]:
        return {}  # pipes have no wire to count

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

    def connect(self) -> FramedEndpoint:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = {"version": FRAME_VERSION, "shard": self.shard,
                 "attempt": self.attempt, "token": self.token}
        _sock_send_frame(sock, T_HELLO, hello)
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
        return FramedEndpoint(sock)


class _Slot:
    """Rendezvous between ``open_endpoint`` and the accept thread."""

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.endpoint: Optional[FramedEndpoint] = None

    def fulfill(self, endpoint: FramedEndpoint) -> None:
        self.endpoint = endpoint
        self.ready.set()


class _SlotConn:
    """Coordinator-side endpoint that may not have accepted yet.

    ``run_sharded`` creates endpoints before spawning workers; the TCP
    connection lands asynchronously.  Until then, ``poll`` simply has
    nothing, ``send`` waits for the dial-in, and a worker that dies
    without ever connecting is caught by the supervisor's liveness
    check — the same way a pipe-worker that dies pre-handshake is.
    """

    def __init__(self, slot: _Slot) -> None:
        self._slot = slot
        self._closed = False

    def _endpoint(self, wait_s: float) -> Optional[FramedEndpoint]:
        if self._slot.ready.wait(timeout=wait_s):
            return self._slot.endpoint
        return None

    def send(self, obj: Any) -> None:
        if self._closed:
            raise BrokenPipeError("endpoint closed")
        ep = self._endpoint(CONNECT_DEADLINE_S)
        if ep is None:
            raise BrokenPipeError("worker never completed the TCP handshake")
        ep.send(obj)

    def recv(self) -> Any:
        ep = self._endpoint(CONNECT_DEADLINE_S)
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
    ) -> None:
        self.host = host
        self.chaos = chaos if chaos is not None and not chaos.is_inert else None
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
            self._counters.setdefault(shard, TransportCounters())
            slot = _Slot()
            self._slots[(shard, attempt)] = slot
        spec = TcpWorkerSpec(
            host=self.host,
            port=self.port,
            shard=shard,
            attempt=attempt,
            token=self._token,
        )
        return _SlotConn(slot), spec

    def release_worker_handle(self, handle) -> None:
        pass  # a TcpWorkerSpec holds no parent-side resource

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
            threading.Thread(target=self._handshake, args=(sock,), daemon=True).start()

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
                counters = self._counters.get(shard)  # made with the slot
            if slot is None or slot.ready.is_set():
                raise TransportError(
                    f"no open slot for shard {shard} attempt {attempt}"
                )
            _sock_send_frame(sock, T_HELLO_ACK, {"version": FRAME_VERSION})
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            injector = (
                _FaultInjector(self.chaos, shard) if self.chaos is not None else None
            )
            endpoint = FramedEndpoint(sock, counters, injector=injector)
            with self._lock:
                self._live[shard] = endpoint
            slot.fulfill(endpoint)
        except (TransportError, OSError, KeyError, TypeError, ValueError):
            try:
                sock.close()
            except OSError:
                pass
