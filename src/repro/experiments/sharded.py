"""The coordinator side of a sharded fleet run.

:func:`repro.experiments.runner.run_fleet_sharded` splits a fleet over
worker processes, which :func:`repro.fleet.sharding.run_sharded`
spawns and relays, and pools what they return.  This module holds what
sits between the two:

* :class:`ImageAppSpec` and :class:`ShardFleetSpec`, the plain data a
  worker is spawned with;
* :class:`ShardCoordinator`, the state the coordinator keeps across
  barriers (the merged crowd prior, the latest checkpoint per shard,
  the log of every barrier's offered deltas), the hooks ``run_sharded``
  calls to update it, and the post-run replay of a shard lost past its
  restart budget.

Membership is static: the ring routes each session to one of the W
shards for the whole run, and a shard's slice runs again only as a
replay — a respawn, or the post-run replay of a lost shard — that
reaches its predecessor's state exactly.

At every barrier each worker offers one
:class:`~repro.fleet.checkpoint.SyncOffer` and receives its peers'
offers; nothing else rides the barrier.  The worker half lives in
:mod:`repro.experiments.shard_worker`.  This module does not import the
runner, so the coordinator runs in-process without spawning anything.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.fleet.checkpoint import (
    CheckpointStore,
    FleetCheckpoint,
    ShardCheckpoint,
    SyncOffer,
)
from repro.fleet.sharding import (
    ShardError,
    ShardRecovery,
    ShardTask,
    assign_shards,
    run_sharded,
)
from repro.fleet.transport import PipeTransport, TcpTransport
from repro.metrics.fleet import pool_transport_counters
from repro.predictors.shared import PriorDelta, SharedTransitionPrior
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.trace import InteractionTrace

from .configs import DEFAULT_DRAIN_S, FleetEnvironment

__all__ = ["ImageAppSpec", "ShardFleetSpec", "ShardCoordinator"]

#: Wall seconds a ``partition:A-B@R`` cut keeps its links severed.
PARTITION_HEAL_S = 1.0


@dataclass(frozen=True)
class ImageAppSpec:
    """Spawn-safe recipe for an :class:`ImageExplorationApp`.

    Shard workers run in fresh interpreters, so the application must
    cross the process boundary as a *recipe*, not an object (the app
    holds an image store, encoder, and utility closure).  The synthetic
    store is a pure function of ``(num_requests, seed)``, so every
    worker rebuilds a bit-identical app from these five numbers.
    """

    rows: int
    cols: int
    cell_px: float = 20.0
    block_bytes: int = 50_000
    seed: int = 7

    @classmethod
    def of(cls, app: ImageExplorationApp) -> "ImageAppSpec":
        layout = app.layout
        return cls(
            rows=layout.rows,
            cols=layout.cols,
            cell_px=layout.cell_width,
            block_bytes=app.block_bytes,
            seed=app.seed,
        )

    def build(self) -> ImageExplorationApp:
        return ImageExplorationApp(
            rows=self.rows,
            cols=self.cols,
            cell_px=self.cell_px,
            block_bytes=self.block_bytes,
            seed=self.seed,
        )


@dataclass
class ShardFleetSpec:
    """Everything one shard worker needs, pickled onto its task pipe.

    ``traces`` and ``fleet_env`` are the *global* fleet description —
    every worker gets all of it and derives its own slice (route,
    bandwidth share, admission-cap share) from ``shard``/``num_shards``,
    so the shard split is a pure function of the spec and the coordinator
    never has to serialize per-shard variants.
    """

    app_spec: ImageAppSpec
    traces: list[InteractionTrace]
    fleet_env: FleetEnvironment
    predictor: str
    shard: int
    num_shards: int
    #: Absolute sim times of the delta-sync barriers (empty = no sync).
    sync_points: tuple[float, ...] = ()
    drain_s: float = DEFAULT_DRAIN_S
    seed: int = 0
    cohort_width_s: float = 5.0
    early_k: int = 5
    #: Warm-start prior file every shard loads (never an object: the
    #: prior's count table is not picklable, and one file fans out to
    #: W workers without W copies in the coordinator's heap).
    shared_prior_path: Optional[str] = None
    #: Which incarnation of this shard's worker this is.  The original
    #: spawn is attempt 0; supervision bumps it on every respawn.  Chaos
    #: worker-crash schedules only fire on attempt 0, so a replacement
    #: worker does not re-crash into the same injected fault.
    attempt: int = 0
    #: Global index of ``sync_points[0]`` in the full barrier schedule
    #: (respawned workers run a suffix; checkpoints carry global rounds).
    first_round: int = 0
    #: The barriers before ``first_round``, one ``(sim_time_s,
    #: peer_deltas)`` per round: the prior deltas this shard's earlier
    #: worker merged there, in the order it merged them.  A replacement
    #: warms from the run's initial prior and merges these at the same
    #: sim times, so its replay reaches its predecessor's state exactly.
    replay_log: tuple[tuple[float, tuple[PriorDelta, ...]], ...] = ()
    #: The shard's last coordinator-held checkpoint.  A respawned (or
    #: re-absorbed) worker pauses its replay at ``restore.sim_time_s``,
    #: re-captures, and compares digests — restore-in-place, verified
    #: rather than assumed.
    restore: Optional[ShardCheckpoint] = None
    #: Path to a :class:`~repro.fleet.checkpoint.FleetCheckpoint` bundle
    #: (``--checkpoint-in``): the worker counts its own checkpointed
    #: sessions as resumed and re-runs its slice from round 0.
    resume_from: Optional[str] = None
    #: Stop cleanly after completing this global sync round (graceful
    #: drain): skip the rest of the run, ship partial results plus a
    #: final checkpoint.
    drain_after_round: Optional[int] = None


class ShardCoordinator:
    """The coordinator's state across barriers, and the hooks that move it.

    ``spec`` describes the whole fleet (its ``shard`` is ignored); the
    constructor plans the barrier schedule and fills in the plan-wide
    fields every task shares.  :meth:`task` derives one worker's task
    from it.  The bound methods :meth:`before_round`, :meth:`on_round`
    and :meth:`respawn` are :func:`~repro.fleet.sharding.run_sharded`'s
    hooks; :meth:`reabsorb` and :meth:`finish` run after it returns, and
    :meth:`close` releases the transport and temporary prior files.

    A shard lost past its restart budget comes back one way: once the
    barriers are over, :meth:`reabsorb` replays its whole slice from
    the last checkpoint, so every request its sessions issued reaches
    the pooled report.
    """

    #: The worker entry point (:mod:`repro.experiments.shard_worker`).
    entry = "repro.experiments.shard_worker:run_shard"

    def __init__(
        self,
        spec: ShardFleetSpec,
        sync_interval_s: float,
        *,
        warm_prior: Any = None,
        transport: str = "pipe",
    ) -> None:
        fleet_env = spec.fleet_env
        arrival, chaos = fleet_env.arrival, fleet_env.chaos
        self.num_shards = spec.num_shards
        self.sync_interval_s = sync_interval_s
        self.n = spec.app_spec.rows * spec.app_spec.cols
        self.static = arrival is None or arrival.is_static
        durations = [t.duration_s for t in spec.traces]
        horizon = (
            max(durations)
            if arrival is None
            else arrival.horizon_s(fleet_env.num_sessions, durations.__getitem__)
        )
        until = horizon + spec.drain_s

        # An inert checkpoint config is nulled outright, so every branch
        # here sees exactly the no-checkpoint path (workers ask the config
        # itself, and an inert one is never due).
        checkpoint = fleet_env.checkpoint
        self.checkpoint = None if checkpoint is None or checkpoint.is_inert else checkpoint
        # Barriers carry prior deltas, and anchor worker crashes, drains,
        # partitions and checkpoint captures; a worker with none of these
        # offers an empty SyncOffer (a pure liveness barrier).
        want_barriers = (
            spec.predictor == "shared-markov"
            or (chaos is not None and (chaos.has_worker_faults or chaos.has_drain))
            or (self.checkpoint is not None and self.checkpoint.captures)
            or (chaos is not None and bool(chaos.partitions))
        )
        sync_points: tuple[float, ...] = ()
        if want_barriers and sync_interval_s > 0:
            sync_points = tuple(
                i * sync_interval_s
                for i in range(1, math.ceil(until / sync_interval_s))
                if i * sync_interval_s < until
            )
        # Graceful drain (``drain:R`` chaos): workers complete round R,
        # skip the rest of the run and ship partial results.
        self.drained_at_round: Optional[int] = None
        if chaos is not None and chaos.has_drain and sync_points:
            self.drained_at_round = min(chaos.drain_round, len(sync_points) - 1)
            sync_points = sync_points[: self.drained_at_round + 1]
        self.sync_points = sync_points
        resume_from, bundle = None, None
        if self.checkpoint is not None and self.checkpoint.in_path is not None:
            resume_from = os.fspath(self.checkpoint.in_path)
            bundle = FleetCheckpoint.load(resume_from, n=self.n)
            if bundle.num_shards != self.num_shards:
                raise ValueError(
                    f"checkpoint taken with {bundle.num_shards} shards, "
                    f"cannot resume with {self.num_shards}"
                )
        # Net chaos is injected inside the TCP transport (a pipe has no wire
        # to fault); partitions are cut at barriers by before_round.
        if transport not in ("pipe", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        if chaos is not None and chaos.has_net_faults and transport != "tcp":
            raise ValueError(
                "network chaos (partition/netdelay/dup/corrupt) requires "
                "--transport tcp: a pipe has no wire to fault"
            )
        self.transport = (
            PipeTransport()
            if transport == "pipe"
            else TcpTransport(chaos=chaos.net_spec() if chaos is not None else None)
        )

        self.temp_files: list[str] = []
        if isinstance(warm_prior, SharedTransitionPrior):
            warm_prior = self._save(warm_prior)
        self.warm_path = os.fspath(warm_prior) if warm_prior is not None else None
        self.spec = replace(
            spec,
            sync_points=sync_points,
            shared_prior_path=self.warm_path,
            resume_from=resume_from,
            drain_after_round=self.drained_at_round,
        )

        #: Every barrier's deltas and the workers' final contributions fold
        #: into this aggregate: the pooled prior that ``prior_out`` saves
        #: and ``diagnostics["shared_prior"]`` reports.  No worker warms
        #: from it.
        self.prior: Optional[SharedTransitionPrior] = None
        self.merged = 0
        #: Each completed round's offered deltas by shard, in the order
        #: the workers received them: what a replacement replays.
        self.log: list[dict[int, Optional[PriorDelta]]] = []
        self.store = CheckpointStore() if self.checkpoint is not None else None
        self.recovery = ShardRecovery()
        self.attempts = [0] * self.num_shards
        self.reabsorbed: list[int] = []
        # Resuming: the pooled prior starts from every shard's stored
        # contribution.
        if bundle is not None:
            for ckpt in bundle.shards.values():
                delta = ckpt.prior_delta_object()
                if delta is not None:
                    self._merge(delta)

    # -- tasks -----------------------------------------------------------

    def task(self, shard: int, first_round: int = 0, attempt: int = 0) -> ShardTask:
        """Shard ``shard``'s task from global round ``first_round`` on.

        Every worker boots from the plan.  A replacement (a respawn, a
        re-absorbed slice) also replays the barriers before
        ``first_round`` from the log, and restores from its shard's
        latest checkpoint.
        """
        replay_log = tuple(
            (at_s, tuple(d for k, d in offered.items() if k != shard and d))
            for at_s, offered in zip(self.sync_points, self.log[:first_round])
        )
        spec = replace(
            self.spec,
            shard=shard,
            sync_points=self.sync_points[first_round:],
            first_round=first_round,
            replay_log=replay_log,
            attempt=attempt,
            restore=self.store.latest(shard) if self.store is not None else None,
        )
        return ShardTask(
            entry=self.entry,
            spec=spec,
            shard=shard,
            num_shards=spec.num_shards,
        )

    def _save(self, prior: SharedTransitionPrior) -> str:
        handle = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
        handle.close()
        prior.save(handle.name)
        self.temp_files.append(handle.name)
        return handle.name

    def _merge(self, delta: PriorDelta) -> None:
        """Fold ``delta`` into the aggregate, loading it on first use."""
        if self.prior is None:
            self.prior = (
                SharedTransitionPrior.load(self.warm_path, n=delta.n)
                if self.warm_path is not None
                else SharedTransitionPrior(delta.n)
            )
        self.merged += self.prior.merge_delta(delta)

    # -- run_sharded hooks -----------------------------------------------

    def before_round(self, round_index: int) -> None:
        chaos = self.spec.fleet_env.chaos
        if chaos is not None:
            for lo, hi in chaos.partitions_at(round_index):
                self.transport.cut_links(range(lo, hi + 1), PARTITION_HEAL_S)

    def on_round(self, round_index: int, offers: dict[int, SyncOffer]) -> None:
        self.log.append({k: offer.delta for k, offer in offers.items()})
        for offer in offers.values():
            if offer.checkpoint is not None:
                self.store.put(offer.checkpoint)
            if offer.delta:
                self._merge(offer.delta)

    def respawn(self, shard: int, next_round: int) -> ShardTask:
        self.attempts[shard] += 1
        return self.task(shard, next_round, self.attempts[shard])

    # -- after the run ---------------------------------------------------

    def reabsorb(self, shards: list, timeout_s: Optional[float]) -> None:
        """Replay each lost shard's slice to completion in place.

        The slice reruns from the start of the run as a barrier-free
        single task that merges, at every barrier time, the deltas its
        peers offered there; it pauses at its last checkpoint to verify
        the replay against the stored digests, and reports every
        session's whole outcome stream.  The per-origin CRDT merge
        dedups its prior contribution against everything already
        pooled.  Drain runs skip this: the written bundle keeps the lost
        shard's last checkpoint for the ``--checkpoint-in`` restart
        instead.
        """
        if self.store is None or self.drained_at_round is not None:
            return
        for k in self.recovery.lost_shards:
            task = self.task(k, len(self.sync_points), self.attempts[k] + 1)
            try:
                shards[k] = run_sharded(
                    [replace(task, shard=0, num_shards=1)], timeout_s=timeout_s
                )[0]
            except ShardError:
                continue  # still lost; the pooled report says so
            self.reabsorbed.append(k)

    def _owned(self, k: int) -> list[int]:
        """The sessions shard ``k`` runs."""
        return assign_shards(range(len(self.spec.traces)), self.num_shards)[k]

    def finish(self, shards: list) -> dict:
        """Fold the workers' final prior deltas and checkpoints in, write
        ``--checkpoint-out``, and return ``diagnostics["sharding"]``."""
        survivors = [s for s in shards if s is not None]
        for s in survivors:
            if s["prior_delta"] is not None:
                self._merge(s["prior_delta"])
            if s["final_checkpoint"] is not None:
                self.store.put(s["final_checkpoint"])
        drained = any(s["drained"] for s in survivors)
        checkpoint = self.checkpoint
        if checkpoint is not None and checkpoint.out_path is not None:
            self.store.bundle(
                n=self.n,
                num_shards=self.num_shards,
                sync_interval_s=self.sync_interval_s,
                drained_at_round=self.drained_at_round if drained else None,
            ).save(os.fspath(checkpoint.out_path))

        recovery = self.recovery
        lost = [k for k in recovery.lost_shards if k not in self.reabsorbed]
        report = {
            "shards": self.num_shards,
            "sync_interval_s": self.sync_interval_s,
            "sync_rounds": len(self.sync_points),
            "sessions_per_shard": [s["num_sessions"] for s in survivors],
            "transitions_merged": self.merged,
            "cpu_run_s": [s["timing"]["cpu_run_s"] for s in survivors],
            "wall_run_s": [s["timing"]["wall_run_s"] for s in survivors],
            # Supervision: shards that died and came back, shards dropped
            # past the restart budget (after re-absorption), restarts,
            # and the planned sessions that loss cost the pooled report.
            **recovery.snapshot(self.reabsorbed),
            "sessions_lost": sum(len(self._owned(k)) for k in lost),
            "restarts_by_shard": [
                sum(1 for s, _, _ in recovery.restarts if s == k)
                for k in range(self.num_shards)
            ],
        }
        per_shard = self.transport.counter_snapshots()
        report["transport"] = {
            "driver": self.transport.name,
            "per_shard": per_shard,
            "totals": pool_transport_counters(per_shard.values()),
        }
        if checkpoint is not None:
            verdicts = [
                s["restore_verified"]
                for s in survivors
                if s["restore_verified"] is not None
            ]
            report.update(
                checkpoints_taken=sum(s["checkpoints_taken"] for s in survivors),
                checkpoint_cpu_s=[s["checkpoint_cpu_s"] for s in survivors],
                last_checkpoint_round=self.store.last_rounds(self.num_shards),
                checkpoint_age_rounds=self.store.ages(
                    self.num_shards, len(self.sync_points) - 1
                ),
                # Restored from a --checkpoint-in bundle, in place by a
                # respawn, or re-absorbed from a lost shard's checkpoint.
                sessions_resumed=sum(s["resumed_sessions"] for s in survivors)
                + sum(
                    len(self._owned(k))
                    for k in recovery.recovered_shards + self.reabsorbed
                ),
                shards_reabsorbed=len(self.reabsorbed),
                # True when every restored shard's replay reproduced its
                # checkpoint digests; None when nothing was restored.
                restore_verified=all(verdicts) if verdicts else None,
            )
            if drained:
                report["drained_at_round"] = self.drained_at_round
        return report

    def close(self) -> None:
        """Close the transport (idempotent) and delete temporary priors."""
        self.transport.close()
        for path in self.temp_files:
            with contextlib.suppress(OSError):
                os.unlink(path)
        self.temp_files.clear()
