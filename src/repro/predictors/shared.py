"""Fleet-wide shared transition prior (SeLeP-style crowd learning).

Khameleon's predictors are per-session: each user's model learns only
from that user's interactions, so a session that just arrived predicts
from nothing — under churn, every arrival pays the cold-start cost all
over again.  Exploratory-workload prefetchers (SeLeP, SCOUT) win
precisely by learning access structure *across* users: most users
traverse the same hot paths through the data, so the crowd's aggregate
transition structure is a strong prior for a user the system has never
seen.

:class:`SharedTransitionPrior` is that aggregate: one fleet-wide
first-order transition count table, fed by every session's observed
request stream.  :class:`SharedMarkovServerPredictor` is the per-session
decoder that blends it with the session's own observations as
pseudo-counts::

    count'(q -> r) = count_private(q -> r) + strength · P_prior(r | q)

followed by the same add-one smoothing as the private
:class:`~repro.predictors.markov.MarkovModel`.  A cold session (no
private counts) therefore starts from the crowd's distribution scaled
to ``strength`` observations; as its own history accumulates, the
private counts dominate and the predictor personalizes.  The prior is
*shared state, not shared fate*: sessions never see each other's raw
streams, only the pooled counts.

Build one prior per fleet and close over it in the fleet's
``make_predictor`` factory::

    prior = SharedTransitionPrior(n)
    fleet = KhameleonFleet(..., make_predictor=lambda i:
        make_shared_markov_predictor(n, prior))

**Caching and fleet batching.**  Counts are append-only, so a row's
observation total doubles as its version.  The prior caches each
decoded crowd row keyed by that version, and the decoder caches each
*blended* row keyed by the ``(private, crowd)`` version pair —
invalidated implicitly when either side observes a transition out of
the row — so static workloads stop re-blending identical rows every
decode.  :meth:`SharedMarkovServerPredictor.decode_batch` decodes a
whole delivery group sharing one prior in a single pass: learning side
effects run in group order (freezing rows an upcoming observation
would mutate while an earlier member still reads them live), crowd
rows are gathered once per version for the whole tick, the blend is a
vectorized scatter-add instead of a Python dict loop, and cold members
(no private counts) landing on the same crowd row version share one
:class:`~repro.core.distribution.RequestDistribution` object — all
byte-identical to per-member :meth:`decode` calls.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.distribution import RequestDistribution

from .base import DEFAULT_DELTAS_S, Predictor
from .markov import MarkovClientPredictor, MarkovModel, MarkovServerPredictor

__all__ = [
    "PriorDelta",
    "SharedTransitionPrior",
    "SharedMarkovServerPredictor",
    "make_shared_markov_predictor",
]


@dataclass
class PriorDelta:
    """Wire format for cross-shard prior sync (plain dicts: picklable).

    Carries the *absolute* local counts of every row the receiver has
    not yet seen at this mass — a state snapshot restricted to stale
    rows, not an increment log.  Absolute snapshots are what make the
    merge idempotent: applying the same delta twice is a no-op because
    the receiver compares ``row_mass`` against what it already merged
    from this origin.
    """

    #: Identity of the shard whose local counts these are.
    origin: str
    #: Request-universe size (guards against merging mismatched priors).
    n: int
    #: ``prev -> {nxt -> absolute local count}`` for each stale row.
    rows: dict[int, dict[int, int]] = field(default_factory=dict)
    #: ``prev -> absolute local row mass`` (the row's version at ``origin``).
    row_mass: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.rows)


class SharedTransitionPrior:
    """Crowd-pooled first-order transition counts over request ids."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._counts: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        # O(1) per-row totals; append-only counts make the total a
        # version the row cache below invalidates on.
        self._row_mass: dict[int, int] = defaultdict(int)
        self._row_cache: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self.transitions_observed = 0
        # -- sharding state (see the CRDT section below) --------------
        # Local contributions, tracked separately once ``enable_sharding``
        # names this replica; ``None`` means unsharded (no tracking cost).
        self._origin: Optional[str] = None
        self._local: dict[int, dict[int, int]] = {}
        self._local_row_mass: dict[int, int] = {}
        # Last absolute snapshot merged per remote origin:
        # origin -> row -> {nxt: count} and origin -> row -> mass.
        # Kept even when unsharded so a fresh pooling prior (the
        # coordinator's aggregate) can merge shard deltas directly.
        self._merged_rows: dict[str, dict[int, dict[int, int]]] = {}
        self._merged_row_mass: dict[str, dict[int, int]] = {}

    def observe(self, prev: int, nxt: int) -> None:
        """Pool one transition from any session's request stream."""
        if not 0 <= prev < self.n or not 0 <= nxt < self.n:
            raise ValueError(f"transition {prev}->{nxt} outside [0, {self.n})")
        self._counts[prev][nxt] += 1
        self._row_mass[prev] += 1
        self.transitions_observed += 1
        if self._origin is not None:
            row = self._local.get(prev)
            if row is None:
                row = self._local[prev] = {}
            row[nxt] = row.get(nxt, 0) + 1
            self._local_row_mass[prev] = self._local_row_mass.get(prev, 0) + 1

    def row(self, request: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, probs)``: the crowd's successor distribution of ``request``.

        Empirical (unsmoothed) probabilities over observed successors;
        both arrays are empty when the crowd has never left ``request``.
        Decoded rows are cached keyed by the row's version (its count
        total) — the "gathered once" half of the fleet's stacked decode
        — and the cached arrays are shared: callers must not mutate
        them.
        """
        version = self._row_mass.get(request, 0)
        cached = self._row_cache.get(request)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        row = self._counts.get(request)
        if not row:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids = np.array(sorted(row), dtype=np.int64)
        counts = np.array([row[i] for i in ids], dtype=float)
        probs = counts / counts.sum()
        self._row_cache[request] = (version, ids, probs)
        return ids, probs

    def row_mass(self, request: int) -> int:
        """Total observed transitions out of ``request`` (its version)."""
        return self._row_mass.get(request, 0)

    def snapshot(self) -> dict:
        return {
            "transitions_observed": self.transitions_observed,
            "rows_warmed": len(self._counts),
        }

    # -- cross-shard delta sync (CRDT) --------------------------------
    #
    # A sharded fleet runs one prior replica per worker process.  Each
    # replica tracks the counts *it* observed (its local contribution)
    # separately from the pooled table, and shards exchange those local
    # contributions as :class:`PriorDelta` snapshots.  The pooled table
    # at any replica is then::
    #
    #     counts = local + Σ_origin merged_snapshot[origin]
    #
    # i.e. a map from origin to that origin's latest known local-count
    # snapshot — a G-counter of count *tables* rather than scalars.
    #
    # Why this is a CRDT (state-based, join-semilattice):
    #
    # * Local counts are append-only, so the sequence of snapshots one
    #   origin emits is totally ordered: for two snapshots A, B of the
    #   same origin, either A ≤ B or B ≤ A elementwise, and the
    #   per-row ``row_mass`` (the append-only version from PR 5)
    #   decides which is newer without comparing every cell.
    # * The merged state is the per-origin pointwise maximum of all
    #   snapshots seen.  ``max`` over a total order is the semilattice
    #   join, hence the merge is
    #   **commutative** (max(a, b) = max(b, a)),
    #   **associative** (max(max(a, b), c) = max(a, max(b, c))), and
    #   **idempotent** (max(a, a) = a) — replaying or reordering
    #   deltas cannot double-count.
    # * ``delta_since(version_vector)`` ships the rows whose local mass
    #   exceeds the receiver's recorded mass, as *absolute* counts.
    #   Because a newer snapshot of a row subsumes every older one,
    #   delta-then-merge equals full-state merge: applying any suffix
    #   of snapshots ending in the latest yields the same pooled table
    #   as applying the latest alone.
    #
    # ``merge_delta`` applies the non-negative difference between the
    # incoming snapshot and the last one merged from that origin, so
    # the pooled ``_counts`` / ``_row_mass`` / ``transitions_observed``
    # stay exact sums over origins, and the append-only row versions
    # keep invalidating the decode caches exactly as local observes do.

    def enable_sharding(self, origin: str) -> None:
        """Name this replica and start tracking its local contribution.

        Counts already pooled (e.g. a warm-start snapshot loaded via
        :meth:`load`) are *not* part of the local contribution — every
        shard warm-starts from the same file, so re-broadcasting those
        counts would duplicate them at every peer.
        """
        if self._origin is not None and self._origin != origin:
            raise ValueError(
                f"prior already sharded as {self._origin!r}, not {origin!r}"
            )
        self._origin = str(origin)

    @property
    def origin(self) -> Optional[str]:
        return self._origin

    def local_version_vector(self) -> dict[int, int]:
        """``row -> local mass``: this replica's contribution versions."""
        return dict(self._local_row_mass)

    def delta_since(self, version_vector: Optional[dict[int, int]] = None) -> PriorDelta:
        """Snapshot the local rows newer than ``version_vector``.

        ``version_vector`` is the receiver's last known ``row -> mass``
        for this origin (``None`` or ``{}`` means "send everything":
        the full-state merge).  Rows at or below the receiver's mass
        are omitted — they would be skipped on merge anyway.
        """
        if self._origin is None:
            raise ValueError("enable_sharding() first: unsharded priors have no delta")
        vv = version_vector or {}
        rows: dict[int, dict[int, int]] = {}
        mass: dict[int, int] = {}
        for prev, local_mass in self._local_row_mass.items():
            if local_mass > vv.get(prev, 0):
                rows[prev] = dict(self._local[prev])
                mass[prev] = local_mass
        return PriorDelta(origin=self._origin, n=self.n, rows=rows, row_mass=mass)

    def merge_delta(self, delta: PriorDelta) -> int:
        """Join an origin's snapshot into the pooled table.

        Returns the number of transitions actually applied (0 when the
        delta is stale or our own — replays are free).  Safe to call in
        any order, any number of times, on any replica or on a fresh
        aggregation prior.
        """
        if delta.n != self.n:
            raise ValueError(f"delta over {delta.n} requests, expected {self.n}")
        if delta.origin == self._origin:
            return 0  # our own contribution is already pooled
        seen_rows = self._merged_rows.setdefault(delta.origin, {})
        seen_mass = self._merged_row_mass.setdefault(delta.origin, {})
        applied = 0
        for prev, new_mass in delta.row_mass.items():
            old_mass = seen_mass.get(prev, 0)
            if new_mass <= old_mass:
                continue  # stale or duplicate snapshot of this row
            new_row = delta.rows[prev]
            old_row = seen_rows.get(prev, {})
            pooled = self._counts[prev]
            for nxt, count in new_row.items():
                diff = count - old_row.get(nxt, 0)
                if diff < 0:
                    raise ValueError(
                        f"non-monotone delta from {delta.origin!r}: "
                        f"{prev}->{nxt} shrank by {-diff}"
                    )
                if diff:
                    pooled[nxt] += diff
            grew = new_mass - old_mass
            self._row_mass[prev] += grew
            applied += grew
            seen_rows[prev] = dict(new_row)
            seen_mass[prev] = new_mass
        self.transitions_observed += applied
        return applied

    # -- persistence --------------------------------------------------
    #
    # A crowd prior is only worth its name if it outlives the process
    # that learned it: ``save``/``load`` round-trip the count table as
    # a compressed npz (COO triplets), so ``run_fleet`` sweeps and the
    # serve CLI (``--prior-in/--prior-out``) can warm-start from
    # yesterday's traffic.

    #: Bump on any incompatible change to the npz layout.
    FORMAT_VERSION = 1

    def save(self, path) -> None:
        """Write the pooled counts to ``path`` (npz, versioned)."""
        rows: list[int] = []
        cols: list[int] = []
        vals: list[int] = []
        for prev in sorted(self._counts):
            row = self._counts[prev]
            for nxt in sorted(row):
                rows.append(prev)
                cols.append(nxt)
                vals.append(row[nxt])
        np.savez_compressed(
            path,
            format_version=np.int64(self.FORMAT_VERSION),
            n=np.int64(self.n),
            transitions_observed=np.int64(self.transitions_observed),
            prev=np.asarray(rows, dtype=np.int64),
            next=np.asarray(cols, dtype=np.int64),
            count=np.asarray(vals, dtype=np.int64),
        )

    @classmethod
    def load(cls, path, n: Optional[int] = None) -> "SharedTransitionPrior":
        """Rebuild a prior saved by :meth:`save`.

        ``n`` (optional) asserts the expected request-universe size —
        pass the serving app's ``num_requests`` to fail fast instead of
        feeding a mismatched prior into every session's decoder.
        """
        with np.load(path) as data:
            try:
                version = int(data["format_version"])
                saved_n = int(data["n"])
                observed = int(data["transitions_observed"])
                prev = data["prev"]
                nxt = data["next"]
                count = data["count"]
            except KeyError as exc:
                raise ValueError(f"{path!s} is not a saved prior: {exc}") from exc
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"prior format v{version} unsupported (expected v{cls.FORMAT_VERSION})"
            )
        if n is not None and saved_n != n:
            raise ValueError(f"prior over {saved_n} requests, expected {n}")
        prior = cls(saved_n)
        for p, q, c in zip(prev.tolist(), nxt.tolist(), count.tolist()):
            if not 0 <= p < saved_n or not 0 <= q < saved_n or c < 0:
                raise ValueError(f"corrupt prior entry {p}->{q} x{c}")
            if c:
                prior._counts[p][q] = c
                prior._row_mass[p] += c
        prior.transitions_observed = observed
        return prior


class SharedMarkovServerPredictor(MarkovServerPredictor):
    """Per-session Markov decoder warmed by the fleet-wide prior.

    Like the base :class:`~repro.predictors.markov.
    MarkovServerPredictor` (whose learning guard and row→distribution
    plumbing it inherits), the shipped state *is* the event: each
    decoded request id is observed into the session's private chain —
    and its transition is pooled into the shared prior, so this
    session's history warms every other tenant's cold rows.

    ``prior_strength`` is the pseudo-observation mass the crowd's row
    contributes: the blend behaves as if the session had already seen
    ``strength`` transitions drawn from the crowd's distribution.
    """

    def __init__(
        self,
        model: MarkovModel,
        prior: SharedTransitionPrior,
        prior_strength: float = 8.0,
    ) -> None:
        if model.n != prior.n:
            raise ValueError(
                f"model over {model.n} requests, prior over {prior.n}"
            )
        if prior_strength < 0:
            raise ValueError("prior strength must be non-negative")
        super().__init__(model)
        self.prior = prior
        self.prior_strength = prior_strength
        # Blended-row cache: request -> (private version, crowd version,
        # ids, probs, residual).  A hit means neither chain has observed
        # a transition out of the row since it was blended, so the
        # stored arrays are exactly what a re-blend would produce.
        self._blend_cache: dict[
            int, tuple[int, int, np.ndarray, np.ndarray, float]
        ] = {}
        self.blend_cache_hits = 0
        self.blend_cache_misses = 0

    def _learn(self, request: int) -> None:
        prev = self.model.last_request
        self.model.observe(request)
        if prev is not None:
            self.prior.observe(prev, request)

    def decode(
        self, state: Optional[int], deltas_s: Sequence[float]
    ) -> RequestDistribution:
        n = self.model.n
        if state is None:
            return RequestDistribution.uniform(n, deltas_s)
        request = int(state)
        if self._should_learn(request):
            self._learn(request)
        self._last_decoded = request
        ids, probs, residual = self._blended_row(request)
        return self._row_distribution(ids, probs, residual, deltas_s)

    def _blended_row(self, request: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Private counts + crowd pseudo-counts, add-one smoothed.

        Cached keyed by the ``(private, crowd)`` row-version pair; on a
        miss, the blend is a vectorized scatter-add over the union of
        the two id sets (identical IEEE arithmetic to the historical
        per-entry dict loop: each union element is ``private +
        strength · crowd`` with zero-filled absences, summed in sorted
        id order).
        """
        priv_version = self.model.row_mass(request)
        prior_version = self.prior.row_mass(request)
        cached = self._blend_cache.get(request)
        if (
            cached is not None
            and cached[0] == priv_version
            and cached[1] == prior_version
        ):
            self.blend_cache_hits += 1
            return cached[2], cached[3], cached[4]
        self.blend_cache_misses += 1
        prior_ids, prior_probs = self.prior.row(request)
        priv_ids, priv_counts = self.model.row_arrays(request)
        if len(priv_ids) == 0 and len(prior_ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), 1.0
        if len(priv_ids) == 0:
            ids = prior_ids
            mass = self.prior_strength * prior_probs
        elif len(prior_ids) == 0:
            ids = priv_ids
            mass = priv_counts.copy()
        else:
            ids = np.union1d(priv_ids, prior_ids)
            mass = np.zeros(len(ids))
            mass[np.searchsorted(ids, priv_ids)] = priv_counts
            mass[np.searchsorted(ids, prior_ids)] += (
                self.prior_strength * prior_probs
            )
        smoothing = self.model.smoothing
        n = self.model.n
        total = mass.sum() + smoothing * n
        probs = (mass + smoothing) / total
        residual = float(smoothing * (n - len(ids)) / total)
        self._blend_cache[request] = (
            priv_version, prior_version, ids, probs, residual
        )
        return ids, probs, residual

    @classmethod
    def decode_batch(
        cls,
        entries: Sequence[tuple["SharedMarkovServerPredictor", Any, Sequence[float]]],
    ) -> list[RequestDistribution]:
        """Decode a delivery group sharing one prior, in one pass.

        Byte-identical to calling each member's :meth:`decode` in
        sequence.  Learning side effects run in entry order; before an
        observation mutates a crowd (or private) row an earlier member
        still reads live, that member's blend is *frozen* at the
        pre-mutation versions.  Crowd rows are gathered once per
        version via the prior's row cache, and cold members (no
        private counts for their row) that land on the same crowd row
        version — with the same strength, smoothing, universe, and
        horizons — share one distribution object.
        """
        results: list[Optional[RequestDistribution]] = [None] * len(entries)
        reads: list[tuple[int, "SharedMarkovServerPredictor", int]] = []
        live: dict[tuple[int, int], list] = {}
        frozen: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        # Tick-local cold-blend pool: (prior id, request, crowd version,
        # strength, smoothing, n) -> blended row, shared across members.
        cold: dict[tuple, tuple[np.ndarray, np.ndarray, float]] = {}

        def blended(sp: "SharedMarkovServerPredictor", request: int):
            if sp.model.row_mass(request) == 0:
                key = (
                    id(sp.prior),
                    request,
                    sp.prior.row_mass(request),
                    sp.prior_strength,
                    sp.model.smoothing,
                    sp.model.n,
                )
                got = cold.get(key)
                if got is None:
                    got = sp._blended_row(request)
                    cold[key] = got
                return got
            return sp._blended_row(request)

        for i, (sp, state, deltas_s) in enumerate(entries):
            if state is None:
                results[i] = RequestDistribution.uniform(sp.model.n, deltas_s)
                continue
            request = int(state)
            if sp._should_learn(request):
                prev = sp.model.last_request
                if prev is not None:
                    for read in live.pop((id(sp.prior), prev), []) + live.pop(
                        (id(sp.model), prev), []
                    ):
                        if read[0] not in frozen:
                            frozen[read[0]] = blended(read[1], read[2])
                sp._learn(request)
            sp._last_decoded = request
            reads.append((i, sp, request))
            live.setdefault((id(sp.prior), request), []).append((i, sp, request))
            live.setdefault((id(sp.model), request), []).append((i, sp, request))
        dists: dict[tuple, RequestDistribution] = {}
        for i, sp, request in reads:
            row = frozen.get(i)
            if row is None:
                row = blended(sp, request)
            ids, probs, residual = row
            deltas_s = entries[i][2]
            key = (id(ids), id(probs), residual, tuple(deltas_s), sp.model.n)
            dist = dists.get(key)
            if dist is None:
                dist = sp._row_distribution(ids, probs, residual, deltas_s)
                dists[key] = dist
            results[i] = dist
        return results  # type: ignore[return-value]


def make_shared_markov_predictor(
    n: int,
    prior: SharedTransitionPrior,
    smoothing: float = 1.0,
    prior_strength: float = 8.0,
    deltas_s: Sequence[float] = DEFAULT_DELTAS_S,
) -> Predictor:
    """Server-resident Markov predictor blending a fleet-wide prior.

    Each call builds a fresh per-session private chain; every session
    built over the same ``prior`` both benefits from and contributes to
    the crowd's pooled transition structure.
    """
    return Predictor(
        name="shared-markov",
        client=MarkovClientPredictor(),
        server=SharedMarkovServerPredictor(
            MarkovModel(n, smoothing=smoothing), prior, prior_strength=prior_strength
        ),
        deltas_s=tuple(deltas_s),
    )
