"""Wire protocol of the live serving frontend.

One WebSocket per user session.  Control traffic is JSON text frames
with a ``type`` field; pushed blocks are binary frames.  The exchange:

1. client → ``{"type": "hello", "protocol": 1}`` — or, to reattach a
   dropped session, ``{"type": "hello", "protocol": 1, "resume": t}``
   with the token from the previous welcome.
2. server → ``{"type": "welcome", "session": i, "token": t,
   "resumed": bool, "num_requests": n, "rows": r, "cols": c,
   "cell_width": w, "cell_height": h, "block_bytes": b}`` — or
   ``{"type": "reject", "reason": ...}`` followed by close when the
   admission cap is hit, the server is draining, or a resume token is
   unknown/expired.  ``token`` is the server-issued resume credential:
   present it in a fresh hello within the server's ``--resume-grace``
   window after an abrupt disconnect and the session continues with
   its pipeline, fair-share weight, and metrics intact
   (``resumed: true`` in the new welcome).
3. client → any number of
   ``{"type": "event", "x": .., "y": ..}`` (interaction samples) and
   ``{"type": "request", "id": ..}`` (explicit user requests);
   server → a continuous stream of binary **block frames** — the
   Khameleon push channel.  Blocks flow whether or not the client ever
   requests anything; that is the point.
4. client → ``{"type": "bye"}``; server → ``{"type": "stats", ...}``
   (its §6.1 view of the session) and the closing handshake.  A bye'd
   session is over: its token is not resumable.

Close semantics: a normal end uses close code 1000.  When the server
drains (SIGTERM or ``stop()``) every connection gets close **1001**
("going away") with the drain reason — clients must treat 1001 as
final and not auto-reconnect: a drained server's tokens are not
resumable anywhere.  What outlives the process is the crowd prior
(``serve --prior-out`` / ``--prior-in``).

A block frame is a fixed 16-byte header followed by the block's payload
bytes (the reproduction's blocks carry no pixels, so the payload is
zero padding of the true block size — the wire cost is real even though
the content is synthetic):

====== ======= =====================================
offset size    field
====== ======= =====================================
0      4       magic ``b"KBLK"``
4      4       request id (u32, network order)
8      4       block index within the request (u32)
12     4       ``size_bytes`` of the block (u32)
16     varies  ``size_bytes`` of padding
====== ======= =====================================
"""

from __future__ import annotations

import json
from typing import Any, Optional
import struct

from repro.core.blocks import Block

__all__ = [
    "PROTOCOL_VERSION",
    "BLOCK_MAGIC",
    "BLOCK_HEADER",
    "encode_block",
    "decode_block",
    "encode_message",
    "decode_message",
]

PROTOCOL_VERSION = 1

BLOCK_MAGIC = b"KBLK"
BLOCK_HEADER = struct.Struct("!4sIII")


def encode_block(block: Block) -> bytes:
    """Binary frame for one pushed block (header + true-size padding)."""
    return BLOCK_HEADER.pack(
        BLOCK_MAGIC, block.request, block.index, block.size_bytes
    ) + b"\x00" * block.size_bytes


def decode_block(frame: bytes) -> Block:
    """Parse a block frame back into a (payload-less) :class:`Block`."""
    if len(frame) < BLOCK_HEADER.size:
        raise ValueError(f"block frame of {len(frame)} bytes is too short")
    magic, request, index, size_bytes = BLOCK_HEADER.unpack_from(frame)
    if magic != BLOCK_MAGIC:
        raise ValueError(f"bad block magic {magic!r}")
    return Block(request=request, index=index, size_bytes=size_bytes)


def encode_message(type_: str, **fields: Any) -> str:
    """JSON control message with a leading ``type`` discriminator."""
    return json.dumps({"type": type_, **fields}, separators=(",", ":"))


def decode_message(text: str) -> Optional[dict]:
    """Parse a control message; None for malformed or type-less JSON.

    The server must not die because one client sent garbage, so parse
    failures map to None and the caller drops the message.
    """
    try:
        msg = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        return None
    return msg
