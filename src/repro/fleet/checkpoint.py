"""Durable shard checkpoints: snapshot, persist, and restore fleet state.

A sharded fleet's recoverable state is small and well-defined: each
session's progress through its request stream (how many requests it has
registered, what its ring-buffer cache holds, where its scheduler's RNG
stream is) plus the shard's local crowd-prior contribution (the same
per-origin absolute-count row snapshots the CRDT sync already ships).
Because every worker is a deterministic function of its spec and seed,
a checkpoint does not need to serialize live object graphs — it records
*digests* of the state a deterministic replay must reproduce, plus the
one piece of genuinely accumulated data (the prior delta) that seeds
peers and coordinators.

Three layers:

* :class:`SessionCheckpoint` / :class:`ShardCheckpoint` — one shard's
  recoverable state at a completed sync round.  Workers capture these
  when :meth:`CheckpointConfig.due` says so and piggyback them on the
  barrier's :class:`SyncOffer`; the coordinator's
  :class:`CheckpointStore` keeps the latest per shard.  A respawned
  worker, and the post-run replay of a shard lost past its restart
  budget, restore from it and verify their replay against its digests.
* :class:`FleetCheckpoint` — the whole fleet's latest shard
  checkpoints, persisted as versioned JSON for ``--checkpoint-out`` /
  ``--checkpoint-in`` drain/restore cycles.  ``load`` validates
  fail-fast in the style of :meth:`SharedTransitionPrior.load`:
  not-a-checkpoint, unsupported version, wrong request universe, and
  corrupt entries (a malformed prior delta included) each raise a
  distinct, actionable :class:`ValueError`.
* :class:`CheckpointConfig` — cadence + paths, threaded through
  :class:`~repro.experiments.configs.FleetEnvironment` and the CLI.  A
  cadence of 0 with no paths is inert: the sharded runner's reports
  and results are bit-identical to a run with no checkpoint config at
  all (test-enforced).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.core.session import KhameleonSession
from repro.fleet.fleet import KhameleonFleet
from repro.predictors.shared import PriorDelta, SharedTransitionPrior

__all__ = [
    "FORMAT_VERSION",
    "CheckpointConfig",
    "SessionCheckpoint",
    "ShardCheckpoint",
    "FleetCheckpoint",
    "CheckpointStore",
    "capture_session",
    "capture_shard",
    "SyncOffer",
]

#: Bump on any incompatible change to the checkpoint layout.
FORMAT_VERSION = 1

#: File magic distinguishing a fleet checkpoint from other JSON.
MAGIC = "khameleon-fleet-checkpoint"


def _digest(payload: object) -> int:
    """crc32 over the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8"))


def _require_int(payload: dict, key: str, minimum: int = 0) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"corrupt checkpoint entry: {key}={value!r}")
    return value


def read_checkpoint(path: str, n: Optional[int] = None) -> dict:
    """Decode the fleet checkpoint JSON at ``path``; check its header.

    Every fault is a :class:`ValueError`: the file is not a JSON object
    whose ``format`` is :data:`MAGIC`; its ``format_version`` is not
    :data:`FORMAT_VERSION`; its ``n`` is not a positive integer, or not
    ``n`` when one is expected; or its ``shards`` is present but not an
    object.  Returns the payload for the caller to read the body.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path!s} is not a saved checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MAGIC:
        raise ValueError(f"{path!s} is not a saved checkpoint")
    found = payload.get("format_version")
    if found != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format v{found} unsupported "
            f"(expected v{FORMAT_VERSION})"
        )
    try:
        saved_n = _require_int(payload, "n", minimum=1)
    except ValueError as exc:
        raise ValueError(f"{path!s} is not a saved checkpoint: {exc}") from exc
    if n is not None and saved_n != n:
        raise ValueError(f"checkpoint over {saved_n} requests, expected {n}")
    if not isinstance(payload.get("shards", {}), dict):
        raise ValueError(f"{path!s} is not a saved checkpoint: shards is not an object")
    return payload


@dataclass(frozen=True)
class CheckpointConfig:
    """Cadence and persistence paths for shard checkpointing.

    ``cadence_rounds`` is how many completed sync rounds pass between
    captures (1 = every round, 0 = never).  The paths drive the
    drain/restore lifecycle: ``out_path`` writes a
    :class:`FleetCheckpoint` when the run ends (or drains), and
    ``in_path`` boots the run from a previously written one.
    """

    cadence_rounds: int = 0
    out_path: Optional[str] = None
    in_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cadence_rounds < 0:
            raise ValueError("checkpoint cadence must be >= 0 (0 disables)")

    @property
    def is_inert(self) -> bool:
        """True when this config changes nothing about a run."""
        return (
            self.cadence_rounds == 0
            and self.out_path is None
            and self.in_path is None
        )

    @property
    def captures(self) -> bool:
        """True when workers should capture at sync rounds."""
        return self.cadence_rounds > 0 or self.out_path is not None

    def due(self, round_index: int) -> bool:
        """Should a capture happen after completing ``round_index``?"""
        if self.cadence_rounds <= 0:
            # Path-only configs still capture every round so the final
            # written bundle is as fresh as possible.
            return self.captures
        return (round_index + 1) % self.cadence_rounds == 0


@dataclass(frozen=True)
class SessionCheckpoint:
    """One session's recoverable progress, as replay-verifiable digests.

    ``cache_digest`` covers the ring buffer's live ``(request, block)``
    pairs plus its FIFO cursor; ``rng_digest`` covers the scheduler's
    bit-generator state.  A deterministic replay that reaches the same
    sim time must reproduce both exactly — which is how restore-in-place
    is verified rather than assumed.
    """

    index: int
    requests_seen: int
    blocks_received: int
    blocks_sent: int
    bytes_sent: int
    cache_digest: int
    rng_digest: int

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "requests_seen": self.requests_seen,
            "blocks_received": self.blocks_received,
            "blocks_sent": self.blocks_sent,
            "bytes_sent": self.bytes_sent,
            "cache_digest": self.cache_digest,
            "rng_digest": self.rng_digest,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SessionCheckpoint":
        if not isinstance(payload, dict):
            raise ValueError(f"corrupt session checkpoint: {payload!r}")
        return cls(
            index=_require_int(payload, "index"),
            requests_seen=_require_int(payload, "requests_seen"),
            blocks_received=_require_int(payload, "blocks_received"),
            blocks_sent=_require_int(payload, "blocks_sent"),
            bytes_sent=_require_int(payload, "bytes_sent"),
            cache_digest=_require_int(payload, "cache_digest"),
            rng_digest=_require_int(payload, "rng_digest"),
        )


def capture_session(session: KhameleonSession, index: int) -> SessionCheckpoint:
    """Snapshot one live session's progress digests."""
    cache = session.cache
    pairs = sorted(
        (int(r), int(i))
        for r in cache.cached_requests()
        for i in cache.block_indices(r)
    )
    return SessionCheckpoint(
        index=int(index),
        requests_seen=len(session.cache_manager.outcomes),
        blocks_received=cache.blocks_received,
        blocks_sent=session.sender.blocks_sent,
        bytes_sent=session.sender.bytes_sent,
        cache_digest=_digest([cache.blocks_received, pairs]),
        rng_digest=_digest(session.scheduler.rng_state()),
    )


def _delta_to_payload(delta: PriorDelta) -> dict:
    return {
        "origin": delta.origin,
        "n": delta.n,
        "rows": {
            str(prev): {str(nxt): int(c) for nxt, c in row.items()}
            for prev, row in delta.rows.items()
        },
        "row_mass": {str(prev): int(m) for prev, m in delta.row_mass.items()},
    }


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _delta_from_payload(payload: dict, n: int) -> PriorDelta:
    """Rebuild a :class:`PriorDelta`; any malformed entry is a ValueError."""
    if not isinstance(payload, dict) or "origin" not in payload:
        raise ValueError(f"corrupt checkpoint prior delta: {payload!r}")
    saved_n = payload.get("n")
    if not _is_count(saved_n):
        raise ValueError(f"corrupt checkpoint prior delta: n={saved_n!r}")
    if saved_n != n:
        raise ValueError(
            f"checkpoint prior delta over {saved_n} requests, expected {n}"
        )
    rows_payload = payload.get("rows", {})
    mass_payload = payload.get("row_mass", {})
    if not isinstance(rows_payload, dict) or not isinstance(mass_payload, dict):
        raise ValueError("corrupt checkpoint prior delta: rows/row_mass not objects")
    rows: dict[int, dict[int, int]] = {}
    row_mass: dict[int, int] = {}
    for prev_s, row in rows_payload.items():
        prev = int(prev_s)
        if not isinstance(row, dict):
            raise ValueError(f"corrupt checkpoint prior row {prev}: {row!r}")
        out_row: dict[int, int] = {}
        for nxt_s, count in row.items():
            nxt = int(nxt_s)
            if not 0 <= prev < n or not 0 <= nxt < n or not _is_count(count):
                raise ValueError(
                    f"corrupt checkpoint prior entry {prev}->{nxt} x{count!r}"
                )
            out_row[nxt] = count
        rows[prev] = out_row
    for prev_s, mass in mass_payload.items():
        prev = int(prev_s)
        if not 0 <= prev < n or not _is_count(mass):
            raise ValueError(f"corrupt checkpoint prior mass row {prev} x{mass!r}")
        row_mass[prev] = mass
    return PriorDelta(
        origin=str(payload["origin"]), n=n, rows=rows, row_mass=row_mass
    )


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard's recoverable state at a completed sync round."""

    shard: int
    num_shards: int
    #: Global sync-round index this checkpoint covers (the round whose
    #: barrier had completed when the capture ran).
    round_index: int
    #: Sim time of that barrier — where a verifying replay must pause.
    sim_time_s: float
    #: Request-universe size (guards against cross-app restores).
    n: int
    sessions: tuple[SessionCheckpoint, ...]
    #: The shard's local crowd-prior contribution (CRDT row snapshots),
    #: as a JSON-safe payload; ``None`` for non-shared predictors.
    prior_delta: Optional[dict] = None

    def digest(self) -> int:
        return _digest(self.to_payload())

    def prior_delta_object(self) -> Optional[PriorDelta]:
        if self.prior_delta is None:
            return None
        return _delta_from_payload(self.prior_delta, self.n)

    def to_payload(self) -> dict:
        return {
            "shard": self.shard,
            "num_shards": self.num_shards,
            "round_index": self.round_index,
            "sim_time_s": self.sim_time_s,
            "n": self.n,
            "sessions": [s.to_payload() for s in self.sessions],
            "prior_delta": self.prior_delta,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardCheckpoint":
        if not isinstance(payload, dict):
            raise ValueError(f"corrupt shard checkpoint: {payload!r}")
        num_shards = _require_int(payload, "num_shards", minimum=1)
        shard = _require_int(payload, "shard")
        if shard >= num_shards:
            raise ValueError(
                f"corrupt shard checkpoint: shard {shard} of {num_shards}"
            )
        n = _require_int(payload, "n", minimum=1)
        sim_time_s = payload.get("sim_time_s")
        if not isinstance(sim_time_s, (int, float)) or sim_time_s < 0:
            raise ValueError(f"corrupt checkpoint entry: sim_time_s={sim_time_s!r}")
        sessions_payload = payload.get("sessions")
        if not isinstance(sessions_payload, list):
            raise ValueError("corrupt shard checkpoint: sessions missing")
        prior_payload = payload.get("prior_delta")
        ckpt = cls(
            shard=shard,
            num_shards=num_shards,
            round_index=_require_int(payload, "round_index"),
            sim_time_s=float(sim_time_s),
            n=n,
            sessions=tuple(
                SessionCheckpoint.from_payload(p) for p in sessions_payload
            ),
            prior_delta=prior_payload,
        )
        if prior_payload is not None:
            ckpt.prior_delta_object()  # validates rows/masses against n
        return ckpt


def capture_shard(
    fleet: KhameleonFleet,
    prior: Optional[SharedTransitionPrior],
    *,
    shard: int,
    num_shards: int,
    round_index: int,
    sim_time_s: float,
    n: int,
) -> ShardCheckpoint:
    """Snapshot a worker's live fleet at a completed sync round."""
    sessions = tuple(
        capture_session(session, index)
        for index, session in zip(fleet.session_indices, fleet.sessions)
    )
    delta_payload = None
    if prior is not None and prior.origin is not None:
        delta = prior.delta_since(None)
        if delta:
            delta_payload = _delta_to_payload(delta)
    return ShardCheckpoint(
        shard=shard,
        num_shards=num_shards,
        round_index=round_index,
        sim_time_s=float(sim_time_s),
        n=n,
        sessions=sessions,
        prior_delta=delta_payload,
    )


@dataclass
class FleetCheckpoint:
    """The whole fleet's latest shard checkpoints, persistable as JSON."""

    n: int
    num_shards: int
    sync_interval_s: float
    drained_at_round: Optional[int] = None
    shards: dict[int, ShardCheckpoint] = field(default_factory=dict)

    def save(self, path: str) -> None:
        payload = {
            "format": MAGIC,
            "format_version": FORMAT_VERSION,
            "n": self.n,
            "num_shards": self.num_shards,
            "sync_interval_s": self.sync_interval_s,
            "drained_at_round": self.drained_at_round,
            "shards": {
                str(shard): ckpt.to_payload()
                for shard, ckpt in sorted(self.shards.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str, n: Optional[int] = None) -> "FleetCheckpoint":
        """Rebuild a checkpoint written by :meth:`save`, fail-fast.

        ``n`` (optional) asserts the expected request-universe size —
        pass the app's ``num_requests`` so a checkpoint from a different
        application is rejected before it corrupts every session.
        """
        payload = read_checkpoint(path, n=n)
        saved_n = payload["n"]
        try:
            num_shards = _require_int(payload, "num_shards", minimum=1)
            shards_payload = payload["shards"]
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path!s} is not a saved checkpoint: {exc}") from exc
        drained = payload.get("drained_at_round")
        if drained is not None and (not isinstance(drained, int) or drained < 0):
            raise ValueError(f"corrupt checkpoint entry: drained_at_round={drained!r}")
        shards: dict[int, ShardCheckpoint] = {}
        for shard_s, shard_payload in shards_payload.items():
            ckpt = ShardCheckpoint.from_payload(shard_payload)
            if ckpt.shard != int(shard_s) or ckpt.num_shards != num_shards:
                raise ValueError(
                    f"corrupt checkpoint: shard entry {shard_s!r} claims "
                    f"shard {ckpt.shard} of {ckpt.num_shards}"
                )
            if ckpt.n != saved_n:
                raise ValueError(
                    f"corrupt checkpoint: shard {ckpt.shard} over {ckpt.n} "
                    f"requests, bundle over {saved_n}"
                )
            shards[ckpt.shard] = ckpt
        return cls(
            n=saved_n,
            num_shards=num_shards,
            sync_interval_s=float(payload.get("sync_interval_s", 0.0)),
            drained_at_round=drained,
            shards=shards,
        )


class CheckpointStore:
    """Coordinator-side latest checkpoint per shard.

    Fed from the barrier exchange (workers piggyback their captures on
    the sync payload); consulted at respawn time to restore-and-verify,
    at teardown to write the ``--checkpoint-out`` bundle, and by the
    pooled report for last-checkpoint ages.
    """

    def __init__(self) -> None:
        self._latest: dict[int, ShardCheckpoint] = {}
        self.taken = 0

    def put(self, ckpt: ShardCheckpoint) -> None:
        self.taken += 1
        current = self._latest.get(ckpt.shard)
        if current is None or ckpt.round_index >= current.round_index:
            self._latest[ckpt.shard] = ckpt

    def latest(self, shard: int) -> Optional[ShardCheckpoint]:
        return self._latest.get(shard)

    def last_rounds(self, num_shards: int) -> list[Optional[int]]:
        """Per-shard global index of the last captured sync round."""
        return [
            (c.round_index if (c := self._latest.get(k)) is not None else None)
            for k in range(num_shards)
        ]

    def ages(self, num_shards: int, final_round: int) -> list[Optional[int]]:
        """Per-shard rounds elapsed since the last capture (staleness)."""
        return [
            (final_round - r if r is not None else None)
            for r in self.last_rounds(num_shards)
        ]

    def bundle(
        self,
        n: int,
        num_shards: int,
        sync_interval_s: float,
        drained_at_round: Optional[int] = None,
    ) -> FleetCheckpoint:
        return FleetCheckpoint(
            n=n,
            num_shards=num_shards,
            sync_interval_s=sync_interval_s,
            drained_at_round=drained_at_round,
            shards=dict(self._latest),
        )


# -- barrier messages --------------------------------------------------


class SyncOffer(NamedTuple):
    """What a shard worker offers at every sync barrier — the one
    message the barrier carries.

    ``delta`` is its crowd-prior contribution since its last offer
    (``None`` without a shared prior) and ``checkpoint`` its capture
    when one is due.
    """

    delta: Optional[PriorDelta] = None
    checkpoint: Optional[ShardCheckpoint] = None
