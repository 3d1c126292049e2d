"""Tests for the live serving frontend (repro.serve).

Three layers, bottom-up:

* the from-scratch RFC 6455 framing (mask/unmask, length encodings,
  control frames) round-trips over a loopback socket pair;
* the wire protocol encodes/decodes control messages and block frames;
* the full app — real WallClock, real TCP listener on port 0, the
  scripted :class:`~repro.serve.client.LiveClient` — admits a session,
  pushes scheduled blocks down the socket, answers ``bye`` with stats,
  detaches cleanly, and enforces the admission cap with a ``reject``.
"""

import asyncio

import pytest

from repro.core.blocks import Block
from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.fleet import ArrivalConfig
from repro.metrics.fleet import TRANSPORT_COUNTER_ZERO
from repro.serve import create_app
from repro.serve import protocol, ws
from repro.serve.client import AdmissionRejected, LiveClient


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


# ---------------------------------------------------------------------------
# WebSocket framing
# ---------------------------------------------------------------------------


class TestWebSocketFraming:
    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536, 200_000])
    def test_payload_length_encodings_roundtrip(self, size):
        """7-bit, 16-bit and 64-bit payload lengths all survive the wire."""
        payload = bytes(i % 251 for i in range(size))
        for mask in (False, True):
            frame = ws._encode_frame(ws.OP_BINARY, payload, mask=mask)
            if mask:
                assert frame[1] & 0x80  # mask bit set
            else:
                assert not frame[1] & 0x80

    def test_masking_is_reversible(self):
        data = bytes(range(256)) * 3
        key = b"\x12\x34\x56\x78"
        assert ws._apply_mask(ws._apply_mask(data, key), key) == data

    def test_accept_key_matches_rfc_example(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            ws._accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_echo_over_loopback(self):
        """Server accept + client connect + bidirectional text/binary."""

        async def main():
            async def on_conn(reader, writer):
                sock = await ws.accept(reader, writer)
                while True:
                    item = await sock.recv()
                    if item is None:
                        break
                    opcode, payload = item
                    if opcode == ws.OP_TEXT:
                        sock.send_text(payload.decode() + "!")
                    else:
                        sock.send_binary(payload[::-1])
                    await sock.drain()
                await sock.close()

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ws.connect("127.0.0.1", port)
            client.send_text("hello")
            client.send_binary(b"\x01\x02\x03")
            await client.drain()
            first = await client.recv()
            second = await client.recv()
            assert first == (ws.OP_TEXT, b"hello!")
            assert second == (ws.OP_BINARY, b"\x03\x02\x01")
            await client.close()
            server.close()
            await server.wait_closed()

        run(main())

    def test_ping_is_answered_with_pong(self):
        async def main():
            pongs = []

            async def on_conn(reader, writer):
                sock = await ws.accept(reader, writer)
                sock._send(ws.OP_PING, b"beat")
                await sock.drain()
                # recv() swallows pongs by design, so watch the raw
                # frame stream: the client must answer ping with pong.
                frame = await sock._read_frame()
                pongs.append(frame)
                await sock.close()
                writer.close()

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ws.connect("127.0.0.1", port)
            assert await client.recv() is None  # server closed after pong
            await client.close()
            server.close()
            await server.wait_closed()
            assert pongs == [(ws.OP_PONG, b"beat")]

        run(main())

    def test_plain_http_request_is_rejected(self):
        async def main():
            async def on_conn(reader, writer):
                with pytest.raises(ws.WebSocketError):
                    await ws.accept(reader, writer)
                writer.close()

            server = await asyncio.start_server(on_conn, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            reply = await reader.read(64)
            assert reply.startswith(b"HTTP/1.1 400")
            writer.close()
            server.close()
            await server.wait_closed()

        run(main())


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_message_roundtrip(self):
        text = protocol.encode_message("hello", protocol=1, weight=2.5)
        msg = protocol.decode_message(text)
        assert msg == {"type": "hello", "protocol": 1, "weight": 2.5}

    def test_garbage_decodes_to_none(self):
        assert protocol.decode_message("{not json") is None
        assert protocol.decode_message('{"no_type": 1}') is None

    def test_block_frame_roundtrip(self):
        block = Block(request=7, index=3, size_bytes=50_000)
        frame = protocol.encode_block(block)
        assert len(frame) == protocol.BLOCK_HEADER.size + 50_000
        decoded = protocol.decode_block(frame)
        assert (decoded.request, decoded.index, decoded.size_bytes) == (7, 3, 50_000)

    def test_bad_magic_rejected(self):
        frame = b"XXXX" + bytes(12)
        with pytest.raises(ValueError):
            protocol.decode_block(frame)


# ---------------------------------------------------------------------------
# Full app over a real port
# ---------------------------------------------------------------------------


def make_env(max_concurrent=None):
    return FleetEnvironment(
        num_sessions=2,
        env=DEFAULT_ENV.with_bandwidth(2_000_000.0),
        arrival=(
            ArrivalConfig(max_concurrent=max_concurrent)
            if max_concurrent is not None
            else None
        ),
    )


class TestServeApp:
    def test_session_receives_pushed_blocks_and_detaches_cleanly(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                welcome = client.report.welcome
                assert welcome["num_requests"] == 36
                assert welcome["rows"] == welcome["cols"] == 6
                # Hover the top-left cell, request it, then wander; the
                # uniform prior pushes blocks for everything.
                client.send_event(5.0, 5.0)
                await client.drain()
                await asyncio.sleep(1.2)
                client.send_request(0)
                await client.drain()
                await asyncio.sleep(1.0)
                report = await client.bye()

                assert report.blocks, "server never pushed a block"
                assert report.prefetched_hits >= 1, (
                    "request 0 should have been answered by a block "
                    "pushed before it was issued"
                )
                assert report.unrequested_blocks > 0  # speculation is real
                assert report.server_stats is not None
                assert report.server_stats["blocks_pushed"] == len(report.blocks)
                summary = report.summary()
                assert summary.num_requests == 1
                assert summary.cache_hit_rate == 1.0
            finally:
                await app.stop()
            assert app.stats.sessions_admitted == 1
            assert app.stats.sessions_detached == 1
            assert app.stats.blocks_pushed > 0
            assert app.stats.frames_dropped == 0

        run(main())

    def test_admission_cap_rejects_excess_sessions(self):
        async def main():
            app = create_app(
                make_env(max_concurrent=1), rows=6, cols=6,
                predictor="uniform", port=0,
            )
            await app.start()
            try:
                first = await LiveClient.connect("127.0.0.1", app.port)
                with pytest.raises(AdmissionRejected):
                    await LiveClient.connect("127.0.0.1", app.port)
                await first.bye()
                # Capacity freed: a third connect now succeeds.
                third = await LiveClient.connect("127.0.0.1", app.port)
                await third.bye()
            finally:
                await app.stop()
            assert app.stats.sessions_admitted == 2
            assert app.stats.sessions_rejected == 1

        run(main())

    def test_abrupt_disconnect_detaches_without_stopping_fleet(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                client.send_event(5.0, 5.0)
                await client.drain()
                await asyncio.sleep(0.3)
                await client.close()  # no bye: TCP just goes away
                await asyncio.sleep(0.5)
                assert app.stats.sessions_detached == 1
                # The server survives to serve someone else.
                again = await LiveClient.connect("127.0.0.1", app.port)
                await again.bye()
            finally:
                await app.stop()
            assert app.stats.sessions_admitted == 2

        run(main())

    def test_weight_is_clamped_into_fair_share_bounds(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0
            )
            await app.start()
            try:
                client = await LiveClient.connect(
                    "127.0.0.1", app.port, weight=1e9
                )
                assert app.fleet.config.weights[0] == pytest.approx(10.0)
                await client.bye()
            finally:
                await app.stop()

        run(main())


async def http_get(port, path):
    """Plain HTTP/1.1 GET against the serve port; returns (status, body)."""
    import json

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read(65536)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, (json.loads(body) if body else None)


class TestStatusEndpoint:
    def test_status_reports_live_fleet_stats(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="shared-markov", port=0
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                client.send_event(5.0, 5.0)
                await client.drain()
                await asyncio.sleep(0.8)
                status, body = await http_get(app.port, "/status")
                assert status == 200
                assert body["sessions_live"] == 1
                assert body["sessions_admitted"] == 1
                assert body["predictor"] == "shared-markov"
                assert body["outbox_depth"] == app.outbox_depth
                assert body["blocks_pushed"] >= 0
                assert body["prior_version_mass"] >= 0
                # One process, no coordinator wire: the transport block
                # is present (same shape as a sharded fleet's pooled
                # totals) and structurally zero.
                assert body["transport"]["driver"] == "local"
                assert body["transport"]["totals"] == TRANSPORT_COUNTER_ZERO
                assert body == app.status_snapshot()
                await client.bye()
                # The WebSocket side is untouched by the HTTP sidecar.
                status, body = await http_get(app.port, "/status")
                assert body["sessions_detached"] == 1
            finally:
                await app.stop()

        run(main())

    def test_unknown_path_gets_404(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0
            )
            await app.start()
            try:
                status, body = await http_get(app.port, "/nope")
                assert status == 404
                assert body == {"error": "not found"}
            finally:
                await app.stop()

        run(main())


class TestOutboxBackpressure:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="outbox_depth"):
            create_app(make_env(), rows=6, cols=6, outbox_depth=0)

    def test_overflow_counts_per_connection_and_globally(self):
        """A full outbox sheds the frame and bumps both drop counters."""
        from repro.serve.app import _Connection

        app = create_app(
            make_env(), rows=6, cols=6, predictor="uniform", outbox_depth=1
        )
        conn = _Connection(
            index=0,
            session=None,
            socket=None,
            outbox=asyncio.Queue(maxsize=app.outbox_depth),
        )
        block = Block(request=0, index=0, size_bytes=1000, payload=b"\0" * 1000)
        app._push_block(conn, block)  # fills the depth-1 outbox
        app._push_block(conn, block)  # overflows: shed + counted
        assert conn.blocks_pushed == 1
        assert conn.frames_dropped == 1
        assert app.stats.blocks_pushed == 1
        assert app.stats.frames_dropped == 1

    def test_stats_message_surfaces_drop_counter(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                client.send_event(5.0, 5.0)
                await client.drain()
                await asyncio.sleep(0.5)
                report = await client.bye()
                assert report.server_stats is not None
                assert report.server_stats["frames_dropped"] == 0
            finally:
                await app.stop()

        run(main())


# ---------------------------------------------------------------------------
# Ping liveness
# ---------------------------------------------------------------------------


class TestPingLiveness:
    def test_unresponsive_peer_is_ping_closed(self):
        """A client that completes the hello and then never reads again
        sends no pongs (auto-pong happens inside recv), so the server
        pings it ping_max_misses times and then closes the socket."""

        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                ping_interval_s=0.2, ping_max_misses=2,
            )
            await app.start()
            try:
                socket = await ws.connect("127.0.0.1", app.port)
                socket.send_text(
                    protocol.encode_message(
                        "hello", protocol=protocol.PROTOCOL_VERSION, weight=1.0
                    )
                )
                await socket.drain()
                msg = protocol.decode_message((await socket.recv())[1])
                assert msg["type"] == "welcome"
                # ...and now go silent: no recv() means no auto-pongs.
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    app.stats.idle_closed == 0
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.1)
                assert app.stats.idle_closed == 1
                assert app.stats.pings_sent >= 2
                status = app.status_snapshot()
                assert status["idle_closed"] == 1
                assert status["pings_sent"] >= 2
                assert status["ping_interval_s"] == pytest.approx(0.2)
            finally:
                await app.stop()
            assert app.stats.sessions_detached == 1

        run(main())

    def test_responsive_client_is_never_ping_closed(self):
        """LiveClient pumps recv() continuously, so every ping is ponged
        and the connection stays up across many ping intervals."""

        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                ping_interval_s=0.1, ping_max_misses=1,
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                await asyncio.sleep(1.0)  # ~10 ping intervals of idleness
                assert app.stats.idle_closed == 0
                report = await client.bye()
                assert report.server_stats is not None
            finally:
                await app.stop()
            assert app.stats.idle_closed == 0
            assert app.stats.pings_sent >= 2

        run(main())

    def test_ping_config_validation(self):
        with pytest.raises(ValueError):
            create_app(make_env(), rows=6, cols=6, ping_interval_s=-1.0)
        with pytest.raises(ValueError):
            create_app(make_env(), rows=6, cols=6, ping_max_misses=0)


# ---------------------------------------------------------------------------
# Durable sessions: park / resume / drain
# ---------------------------------------------------------------------------


class TestReconnectAndResume:
    def test_abrupt_disconnect_parks_then_token_resumes(self):
        """Kill the TCP connection without a bye: the session parks
        (pipeline keeps running) and a fresh socket presenting the
        welcome token reattaches with metrics intact."""

        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                resume_grace_s=10.0,
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                token = client.report.welcome["token"]
                assert token
                assert client.report.welcome.get("resumed") is False
                client.send_event(5.0, 5.0)
                await client.drain()
                await asyncio.sleep(0.4)
                # abrupt loss: RST the transport, no close frame
                client.socket.writer.transport.abort()
                await asyncio.sleep(0.3)
                assert app.stats.sessions_parked == 1
                assert app.stats.sessions_detached == 0
                snap = app.status_snapshot()
                assert snap["sessions_parked_now"] == 1
                assert snap["sessions_live"] == 0

                socket = await ws.connect("127.0.0.1", app.port)
                socket.send_text(
                    protocol.encode_message(
                        "hello",
                        protocol=protocol.PROTOCOL_VERSION,
                        resume=token,
                    )
                )
                await socket.drain()
                msg = protocol.decode_message((await socket.recv())[1])
                assert msg["type"] == "welcome"
                assert msg["resumed"] is True
                assert msg["token"] == token
                assert msg["session"] == client.report.welcome["session"]
                assert app.stats.sessions_resumed == 1
                snap = app.status_snapshot()
                assert snap["sessions_parked_now"] == 0
                assert snap["sessions_live"] == 1
                assert snap["sessions_resumed"] == 1
                # the resumed socket keeps receiving pushed blocks
                got_block = False
                deadline = asyncio.get_running_loop().time() + 5.0
                while asyncio.get_running_loop().time() < deadline:
                    item = await asyncio.wait_for(socket.recv(), timeout=5.0)
                    if item is not None and item[0] == ws.OP_BINARY:
                        got_block = True
                        break
                assert got_block, "no blocks pushed after resume"
                await socket.close()
            finally:
                await app.stop()
            # one admission, resumed once, never double-counted
            assert app.stats.sessions_admitted == 1

        run(main())

    def test_unknown_token_is_rejected_and_counted(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                resume_grace_s=5.0,
            )
            await app.start()
            try:
                socket = await ws.connect("127.0.0.1", app.port)
                socket.send_text(
                    protocol.encode_message(
                        "hello",
                        protocol=protocol.PROTOCOL_VERSION,
                        resume="no-such-token",
                    )
                )
                await socket.drain()
                msg = protocol.decode_message((await socket.recv())[1])
                assert msg["type"] == "reject"
                assert "token" in msg["reason"]
                assert app.stats.resume_rejected == 1
                assert app.status_snapshot()["resume_rejected"] == 1
                await socket.close()
            finally:
                await app.stop()

        run(main())

    def test_grace_expiry_detaches_parked_session(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                resume_grace_s=0.3,
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                client.socket.writer.transport.abort()
                await asyncio.sleep(0.1)
                assert app.stats.sessions_parked == 1
                deadline = asyncio.get_running_loop().time() + 5.0
                while (
                    app.stats.sessions_detached == 0
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.05)
                assert app.stats.sessions_detached == 1
                assert app.status_snapshot()["sessions_parked_now"] == 0
            finally:
                await app.stop()

        run(main())

    def test_zero_grace_keeps_legacy_detach_behavior(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
            )
            await app.start()
            try:
                client = await LiveClient.connect("127.0.0.1", app.port)
                client.socket.writer.transport.abort()
                await asyncio.sleep(0.3)
                assert app.stats.sessions_parked == 0
                assert app.stats.sessions_detached == 1
            finally:
                await app.stop()

        run(main())

    def test_live_client_auto_reconnects_through_chaos_disconnect(self):
        """The server-side fault injector aborts the socket mid-session;
        LiveClient redials with its token and the same report object
        keeps accumulating blocks."""
        from repro.chaos import ChaosConfig

        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                resume_grace_s=10.0,
                chaos=ChaosConfig.parse("disconnect:0@0.5"),
            )
            await app.start()
            try:
                client = await LiveClient.connect(
                    "127.0.0.1", app.port, auto_reconnect=True
                )
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    client.report.resumes == 0
                    and asyncio.get_running_loop().time() < deadline
                ):
                    client.send_event(10.0, 10.0)
                    try:
                        await client.drain()
                    except (ConnectionError, OSError):
                        pass
                    await asyncio.sleep(0.1)
                assert client.report.resumes == 1
                assert len(client.report.resumed_at) == 1
                assert app.stats.disconnects_injected == 1
                assert app.stats.sessions_resumed == 1
                await client.close()
            finally:
                await app.stop()

        run(main())


class TestGracefulDrain:
    def test_stop_closes_with_going_away_1001(self):
        """stop() must say 1001 "going away" before detaching, so
        well-behaved reconnect logic knows not to retry."""

        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
                resume_grace_s=10.0,
            )
            await app.start()
            client = await LiveClient.connect(
                "127.0.0.1", app.port, auto_reconnect=True
            )
            await asyncio.sleep(0.2)
            await app.stop()
            # give the client's read loop the close frame
            await asyncio.wait_for(client._done.wait(), timeout=5.0)
            assert client.socket.close_code == 1001
            assert "drain" in client.socket.close_reason
            # 1001 is deliberate: auto-reconnect must NOT have fired
            assert client.report.resumes == 0
            await client.close()
            assert app.stats.sessions_detached == 1

        run(main())

    def test_draining_server_rejects_new_hellos(self):
        async def main():
            app = create_app(
                make_env(), rows=6, cols=6, predictor="uniform", port=0,
            )
            await app.start()
            app._draining = True  # what stop()/SIGTERM sets first
            try:
                with pytest.raises(AdmissionRejected, match="drain"):
                    await LiveClient.connect("127.0.0.1", app.port)
                assert app.stats.sessions_rejected == 1
            finally:
                app._draining = False
                await app.stop()

        run(main())

    def test_prior_out_in_cycle_keeps_learned_transitions(self, tmp_path, capsys):
        """A drained ``serve --prior-out`` saves the transitions its
        sessions taught the crowd prior; ``serve --prior-in`` boots warm
        from exactly that many."""
        import re
        import socket as socketlib
        import threading

        from repro.cli import main
        from repro.predictors.shared import SharedTransitionPrior

        path = str(tmp_path / "crowd.npz")
        with socketlib.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        serve = ["serve", "--predictor", "shared-markov"]
        server = threading.Thread(
            target=main,
            args=([*serve, "--port", str(port), "--run-for", "3",
                   "--prior-out", path],),
        )
        server.start()

        async def teach():
            for _ in range(50):
                try:
                    client = await LiveClient.connect("127.0.0.1", port)
                    break
                except OSError:
                    await asyncio.sleep(0.05)
            welcome = client.report.welcome
            width, height = welcome["cell_width"], welcome["cell_height"]
            for k in range(12):
                client.send_request(k % 6)
                client.send_event((k % 6 + 0.5) * width, 0.5 * height)
                await client.drain()
                await asyncio.sleep(0.05)
            await asyncio.sleep(0.4)  # past a few 150 ms prediction ticks
            await client.close()

        run(teach())
        server.join(timeout=30.0)
        assert not server.is_alive()
        saved = re.search(r"prior: saved (\d+) transitions", capsys.readouterr().out)
        learned = int(saved.group(1))
        assert learned > 0
        assert SharedTransitionPrior.load(path).transitions_observed == learned
        assert main(
            [*serve, "--port", "0", "--run-for", "0.2", "--prior-in", path]
        ) == 0
        assert f"prior: loaded {learned} transitions" in capsys.readouterr().out

    def test_resume_grace_validation(self):
        with pytest.raises(ValueError, match="resume_grace_s"):
            create_app(make_env(), rows=6, cols=6, resume_grace_s=-1.0)
