"""Cluster runner: N Viyojit shards leasing budgets from a shared pool.

Simulates datacenter-scale serving of one global YCSB keyspace: a seeded
consistent-hash ring routes every operation to one of N shards, each
shard is a full Viyojit instance (own NV-DRAM region, own flusher, own
SSD), and all dirty budgets are leased from one shared
:class:`~repro.cluster.pool.BatteryPool` that re-apportions capacity at
rebalance-epoch boundaries as write pressure shifts.

Determinism protocol (everything is a pure function of the spec):

1. **Demand probe** — the coordinator compiles the global op stream once
   and counts distinct written keys per (shard, epoch segment).
   Zipfian skew shows up here as hot shards demanding more budget.
2. **Lease planning** — a pluggable demand predictor
   (:mod:`repro.cluster.forecast`) forecasts each epoch's per-shard
   demand from observed history.  The ``last-epoch`` default reproduces the
   original reactive protocol exactly: epoch 0 is an even split (no
   history yet), epoch ``e`` is apportioned from the demand observed
   during epoch ``e-1``.  Pool degradation steps apply at their
   scheduled epochs, an optional churn cap damps voluntary lease
   movement, and ring-membership changes hand budget and keys between
   shards.  The coordinator emits
   :class:`~repro.obs.events.ShardRebalance` /
   :class:`~repro.obs.events.BudgetLease` events, plus
   :class:`~repro.obs.events.ShardMigration` /
   :class:`~repro.obs.events.BudgetHandoff` /
   :class:`~repro.obs.events.DemandStarved` when those conditions
   arise.
3. **Shard execution** — one hermetic :class:`ShardJob` per shard rides
   :func:`repro.parallel.engine.execute_jobs` (one shard per worker
   process, any ``--jobs`` count, order-blind merge).  Each worker
   rebuilds the per-epoch ring schedule, replays the slice of each
   compiled epoch segment it owns through the batched executor
   (:class:`~repro.bench.runner.BatchedSession`), re-tunes its dirty
   budget to the leased schedule between segments (shrink drains
   first, exactly like section 8's battery-degradation path), and
   replays ownership
   handoff — keys gained at a membership change are put before any of
   the new epoch's operations are served.

The merged CLUSTER.json's ``deterministic_view`` is therefore
byte-identical at any worker count — the cross-shard determinism test
suite pins it, SIGKILLed shard workers and migration runs included.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np

from repro.bench.runner import (
    BatchedSession,
    ExperimentScale,
    PAPER_HEAP_GB,
    YCSBRunner,
    build_baseline,
    build_viyojit,
)
from repro.cluster.forecast import (
    PREDICTORS,
    make_predictor,
    misallocation_report,
)
from repro.cluster.pool import BatteryPool, PoolLease
from repro.cluster.rebalancer import FLOOR_PAGES
from repro.cluster.report import build_cluster_report
from repro.cluster.ring import HashRing
from repro.core.runtime import NVDRAMSystem, Viyojit
from repro.obs.events import (
    BudgetHandoff,
    BudgetLease,
    DemandStarved,
    ShardMigration,
    ShardRebalance,
    TraceEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.engine import Progress, execute_jobs
from repro.parallel.worker import job_identity, result_payload, run_job
from repro.workloads.compiled import (
    CODE_INSERT,
    CODE_RMW,
    CODE_UPDATE,
    CompiledStream,
    KIND_NAMES,
    compile_workload,
    key_rows,
    open_ops,
    save_ops,
)
from repro.workloads.ycsb import YCSB_WORKLOADS

#: Default Fig-7-style x-axis: total pool battery in paper GB.
DEFAULT_TOTAL_BUDGETS_GB = (2.0, 6.0, 10.0)

#: Ring-membership actions a :class:`ClusterSpec` schedule may contain.
MEMBERSHIP_ACTIONS = ("add", "remove")

Membership = Tuple[Tuple[int, str, int], ...]

#: Virtual nodes per shard on every cluster ring.
RING_VNODES = 32

#: Seed of every cluster ring's point layout.
RING_SEED = 17


def _normalize_membership(
    raw: Sequence[Sequence[object]], shards: int, epochs: int
) -> Membership:
    """Validate and canonicalize a membership-change schedule.

    Entries are ``(epoch, action, shard)``.  Changes land in ``[1,
    epochs)`` (epoch 0's ring is the spec's initial ring), added shard
    ids are dense starting at ``shards`` (so every shard id below the
    total is meaningful), and the schedule is replayed here to reject
    impossible sequences — removing an absent shard, emptying the ring —
    at construction time rather than mid-run.
    """
    normalized = tuple(
        (int(epoch), str(action), int(shard)) for epoch, action, shard in raw
    )
    normalized = tuple(
        sorted(normalized, key=lambda entry: entry[0])
    )  # stable: same-epoch entries keep their given order
    members: Set[int] = set(range(shards))
    added = 0
    for epoch, action, shard in normalized:
        if action not in MEMBERSHIP_ACTIONS:
            raise ValueError(
                f"membership action must be one of {MEMBERSHIP_ACTIONS}: "
                f"{action!r}"
            )
        if not 1 <= epoch < epochs:
            raise ValueError(
                f"membership epoch {epoch} outside [1, {epochs})"
            )
        if action == "add":
            expected = shards + added
            if shard != expected:
                raise ValueError(
                    f"added shard ids must be dense: expected {expected}, "
                    f"got {shard}"
                )
            members.add(shard)
            added += 1
        else:
            if shard not in members:
                raise ValueError(
                    f"cannot remove shard {shard}: not on the ring at "
                    f"epoch {epoch}"
                )
            if len(members) == 1:
                raise ValueError(
                    f"cannot remove shard {shard}: the ring would be empty"
                )
            members.remove(shard)
    return normalized


def membership_rings(
    shards: int, membership: Membership, epochs: int
) -> List[HashRing]:
    """The per-epoch ring schedule implied by a membership schedule.

    Epoch 0 is the initial ring over ``range(shards)``; each scheduled
    change applies *before* its epoch's rebalance.  Epochs without a
    change reuse the previous ring object, so ``rings[e] is
    rings[e - 1]`` doubles as the "did the ring change" test.
    """
    ring = HashRing(range(shards), vnodes=RING_VNODES, seed=RING_SEED)
    rings = [ring]
    for epoch in range(1, epochs):
        for change_epoch, action, shard in membership:
            if change_epoch != epoch:
                continue
            if action == "add":
                ring = ring.with_shard(shard)
            else:
                ring = ring.without_shard(shard)
        rings.append(ring)
    return rings


def _total_shards(shards: int, membership: Membership) -> int:
    """Shard-id universe size: initial shards plus scheduled adds."""
    return shards + sum(1 for _, action, _ in membership if action == "add")


def active_masks(
    rings: Sequence[HashRing], total_shards: int
) -> List[Tuple[bool, ...]]:
    """Which shard ids are on each ring of a per-epoch ring schedule."""
    return [
        tuple(shard in ring.shard_ids for shard in range(total_shards))
        for ring in rings
    ]


class KeyOwners:
    """The owning shard of any key index, under any ring: one routing
    pass per ring object.

    A key's shard is a pure function of the key and the ring, and the
    loaded keys are ``make_key(0..record_count)``, so each ring's owners
    of the loaded keyspace are routed once into a table; routing loaded
    key indices is then a gather.  Inserted indices (``>=
    record_count``, a few per segment) are routed directly.  Tables are
    kept per ring object, in build order: a schedule whose ring did not
    change (``rings[e] is rings[e - 1]``) reuses its table.
    """

    def __init__(self, record_count: int) -> None:
        self.record_count = record_count
        self._tables: List[Tuple[HashRing, np.ndarray]] = []

    def table(self, ring: HashRing) -> np.ndarray:
        """``ring``'s shard of every loaded key index."""
        for seen, table in self._tables:
            if seen is ring:
                return table
        table = ring.shard_for_rows(
            key_rows(np.arange(self.record_count, dtype=np.int64))
        )
        self._tables.append((ring, table))
        return table

    def shards(self, ring: HashRing, indices: np.ndarray) -> np.ndarray:
        """``ring``'s shard of each key index (loaded or inserted)."""
        table = self.table(ring)
        inserted = indices >= self.record_count
        if not inserted.any():
            return table[indices]
        shards = table[np.where(inserted, 0, indices)]
        shards[inserted] = ring.shard_for_rows(key_rows(indices[inserted]))
        return shards


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster run: N shards serving one global keyspace.

    ``total_budget_fraction`` is the *pool* battery as a fraction of the
    global initial heap (``None`` = full-battery baseline cluster, every
    shard an unconstrained NV-DRAM instance).  ``pool_degrade`` lists
    ``(epoch, fraction)`` health losses applied to the shared pool
    before that epoch's rebalance — at most one step per epoch (compose
    fractions into one step instead of repeating an epoch).

    The planning knobs added by the forecasting/hysteresis work:

    * ``predictor`` — which demand predictor feeds the rebalancer
      (:data:`repro.cluster.forecast.PREDICTORS`).
    * ``churn_cap_pages`` — per-epoch cap on voluntary lease movement
      (``None`` = undamped; ``0`` freezes epoch 0's even split, a
      static battery split at the same total capacity).
    * ``membership`` — ``(epoch, action, shard)`` ring changes; added
      shard ids are dense starting at ``shards``.
    * ``hotspot_rotate_keys`` — rotate the workload hotspot by this many
      keys at each epoch boundary (skew-shifting workload).

    All of them default to the original reactive behaviour.  Every knob
    is written to CLUSTER.json whatever its value, and every budgeted run
    reports its misallocation and lease churn.
    """

    shards: int
    total_budget_fraction: Optional[float]
    workload: str = "YCSB-A"
    theta: float = 0.99
    seed: int = 42
    record_count: int = 2_000
    operation_count: int = 6_000
    epochs: int = 4
    pool_degrade: Tuple[Tuple[int, float], ...] = ()
    predictor: str = "last-epoch"
    churn_cap_pages: Optional[int] = None
    membership: Membership = ()
    hotspot_rotate_keys: int = 0

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError(f"shards must be positive: {self.shards}")
        if self.workload not in YCSB_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(YCSB_WORKLOADS)}"
            )
        if self.total_budget_fraction is not None and not (
            math.isfinite(self.total_budget_fraction)
            and self.total_budget_fraction > 0
        ):
            raise ValueError(
                f"total_budget_fraction must be finite and positive: "
                f"{self.total_budget_fraction}"
            )
        if not 0 < self.theta < 1:
            raise ValueError(f"theta must be in (0, 1): {self.theta}")
        if self.record_count <= 0:
            raise ValueError(
                f"record_count must be positive: {self.record_count}"
            )
        if self.operation_count <= 0:
            raise ValueError(
                f"operation_count must be positive: {self.operation_count}"
            )
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive: {self.epochs}")
        normalized = tuple(
            (int(epoch), float(fraction))
            for epoch, fraction in self.pool_degrade
        )
        object.__setattr__(self, "pool_degrade", normalized)
        seen_epochs: Set[int] = set()
        for epoch, fraction in normalized:
            if not 0 <= epoch < self.epochs:
                raise ValueError(
                    f"degradation epoch {epoch} outside [0, {self.epochs})"
                )
            if not 0 < fraction < 1:
                raise ValueError(
                    f"degradation fraction must be in (0, 1): {fraction}"
                )
            if epoch in seen_epochs:
                raise ValueError(
                    f"duplicate pool_degrade epoch {epoch}: compose the "
                    f"fractions into a single step per epoch"
                )
            seen_epochs.add(epoch)
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; choose from "
                f"{list(PREDICTORS)}"
            )
        if self.churn_cap_pages is not None and self.churn_cap_pages < 0:
            raise ValueError(
                f"churn_cap_pages must be non-negative: "
                f"{self.churn_cap_pages}"
            )
        if self.hotspot_rotate_keys < 0:
            raise ValueError(
                f"hotspot_rotate_keys must be non-negative: "
                f"{self.hotspot_rotate_keys}"
            )
        object.__setattr__(
            self,
            "membership",
            _normalize_membership(self.membership, self.shards, self.epochs),
        )

    def scale(self) -> ExperimentScale:
        """The global dataset's experiment scale (shared by all shards)."""
        return _stream_scale(self)

    def total_shards(self) -> int:
        return _total_shards(self.shards, self.membership)

    def pool_capacity_pages(self) -> Optional[int]:
        """Total pool budget in pages (None for the baseline cluster)."""
        if self.total_budget_fraction is None:
            return None
        derived = int(
            round(
                self.total_budget_fraction * self.scale().initial_heap_pages
            )
        )
        return max(self.total_shards() * FLOOR_PAGES, derived)

    def total_budget_gb(self) -> Optional[float]:
        """The paper-GB label of the pool battery (Fig-7-style axis)."""
        if self.total_budget_fraction is None:
            return None
        return round(self.total_budget_fraction * PAPER_HEAP_GB, 2)

    def ring(self) -> HashRing:
        """The epoch-0 ring (initial membership)."""
        return HashRing(range(self.shards), vnodes=RING_VNODES, seed=RING_SEED)

    def rings(self) -> List[HashRing]:
        """The per-epoch ring schedule (see :func:`membership_rings`)."""
        return membership_rings(self.shards, self.membership, self.epochs)

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["pool_degrade"] = [list(step) for step in self.pool_degrade]
        data["membership"] = [list(entry) for entry in self.membership]
        data["total_budget_gb"] = self.total_budget_gb()
        return data


@dataclass(frozen=True)
class ShardJob:
    """One shard's hermetic execution descriptor (picklable).

    Carries everything a worker needs to rebuild the per-epoch ring
    schedule, regenerate the global op stream, filter it to this shard,
    and apply the leased budget schedule — a retried or re-scheduled
    job produces the identical payload.  ``budget_schedule`` has one
    lease per rebalance epoch (``None`` = baseline shard).
    """

    index: int
    shard: int
    shards: int
    workload: str
    theta: float
    seed: int
    record_count: int
    operation_count: int
    epochs: int
    budget_schedule: Optional[Tuple[int, ...]]
    membership: Membership = ()
    hotspot_rotate_keys: int = 0
    timeout_s: Optional[float] = None
    # Test hook: same contract as SweepJob.fault_kill_once_path.
    fault_kill_once_path: Optional[str] = None
    # Path to the grid's pre-compiled ``.ops`` stream (opened read-only
    # in the worker).  Same contract as SweepJob.ops_path: an execution
    # detail, verified against the job, never part of the payload.
    ops_path: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "membership",
            _normalize_membership(self.membership, self.shards, self.epochs),
        )
        total = _total_shards(self.shards, self.membership)
        if not 0 <= self.shard < total:
            raise ValueError(
                f"shard {self.shard} outside [0, {total})"
            )
        if self.hotspot_rotate_keys < 0:
            raise ValueError(
                f"hotspot_rotate_keys must be non-negative: "
                f"{self.hotspot_rotate_keys}"
            )
        if self.budget_schedule is not None:
            object.__setattr__(
                self, "budget_schedule", tuple(self.budget_schedule)
            )
            if len(self.budget_schedule) != self.epochs:
                raise ValueError(
                    f"schedule of {len(self.budget_schedule)} leases for "
                    f"{self.epochs} epochs"
                )
            for pages in self.budget_schedule:
                if pages <= 0:
                    raise ValueError(
                        f"leased budget must be positive: {pages}"
                    )

    def rings(self) -> List[HashRing]:
        return membership_rings(self.shards, self.membership, self.epochs)

    def run(self) -> Dict[str, object]:
        return _execute_shard(self)

    def as_dict(self) -> Dict[str, object]:
        data = job_identity(self)
        data["budget_schedule"] = (
            list(self.budget_schedule)
            if self.budget_schedule is not None
            else None
        )
        data["membership"] = [list(entry) for entry in self.membership]
        return data


@dataclass
class ClusterPlan:
    """The coordinator's deterministic output for one cluster run."""

    spec: ClusterSpec
    ring_checksum: str
    demands: List[List[int]]  # [epoch][shard]
    leases: List[Tuple[PoolLease, ...]]  # per epoch (empty for baseline)
    capacity_schedule: List[int]  # pool capacity per epoch
    schedules: Optional[List[Tuple[int, ...]]]  # per shard (None=baseline)
    events: List[Dict[str, object]]  # coordinator event dicts
    misallocation: Optional[Dict[str, object]] = None  # None = baseline
    starved: List[Dict[str, int]] = field(default_factory=list)
    migrations: List[Dict[str, object]] = field(default_factory=list)


def _probe(
    spec: ClusterSpec,
    rings: Sequence[HashRing],
    stream: CompiledStream,
) -> Tuple[List[List[int]], List[np.ndarray], KeyOwners]:
    """Per-shard demand plus inserted key indices per epoch, from array
    passes, and the :class:`KeyOwners` that routed them.

    ``demands[epoch][shard]`` counts distinct written keys;
    ``inserts[epoch]`` holds the key indices inserts created during that
    epoch segment (the coordinator needs them to size migration
    handoffs — live keys are the loaded records plus every insert so
    far).

    Per epoch segment: one boolean mask finds the written ops, the
    nonzero bins of one ``np.bincount`` over their key indices replace
    per-key set building (a key's shard is a pure function of the key
    within an epoch, so distinct indices ≡ distinct keys), one
    :class:`KeyOwners` lookup (a gather from the segment
    ring's table of loaded-key owners; inserted keys are routed), and
    one ``np.bincount`` over shards.
    """
    total_shards = spec.total_shards()
    owners = KeyOwners(spec.record_count)
    demands: List[List[int]] = []
    inserts: List[np.ndarray] = []
    for epoch in range(spec.epochs):
        lo, hi = stream.segment_slice(epoch)
        codes = np.asarray(stream.codes[lo:hi])
        indices = np.asarray(stream.key_indices[lo:hi])
        inserting = codes == CODE_INSERT
        inserts.append(indices[inserting])
        written = (
            inserting | (codes == CODE_UPDATE) | (codes == CODE_RMW)
        )
        distinct = np.flatnonzero(np.bincount(indices[written]))
        shards = owners.shards(rings[epoch], distinct)
        counts = np.bincount(shards, minlength=total_shards)
        demands.append([int(count) for count in counts])
    return demands, inserts, owners


def probe_demands(
    spec: ClusterSpec,
    ring: Optional[HashRing] = None,
    stream: Optional[CompiledStream] = None,
) -> List[List[int]]:
    """Distinct written keys per (epoch segment, shard).

    One pass over the compiled global op stream; mutating ops (update,
    insert, rmw) contribute their key to the owning shard's demand set
    for the segment the op falls in.  This is the pressure signal the
    rebalancer apportions by.  ``ring`` overrides the routing ring for
    every epoch (membership-free callers); by default the spec's own
    per-epoch ring schedule routes each segment.  ``stream`` is the
    spec's compiled op stream when the caller already holds one.
    """
    rings = [ring] * spec.epochs if ring is not None else spec.rings()
    if stream is None:
        stream = _compile_stream(spec)
    demands, _, _ = _probe(spec, rings, stream)
    return demands


#: Cache key for one spec's probe output: everything the probe depends
#: on — the workload stream, the segmentation and the ring schedule.
#: Deliberately excludes every budget knob, so a grid sweeping budgets
#: builds each ring schedule and probes each workload/ring combination
#: once.
_ProbeKey = Tuple[str, float, int, int, int, int, int, int, Membership]

#: One spec's ring schedule with the probe output routed through it and
#: the ownership tables of its rings: ``(rings, demands, inserts,
#: owners)``.
_ProbeResult = Tuple[
    List[HashRing], List[List[int]], List[np.ndarray], KeyOwners
]

ProbeCache = Dict[_ProbeKey, _ProbeResult]


def _probe_cache_key(spec: ClusterSpec) -> _ProbeKey:
    return (
        spec.workload,
        spec.theta,
        spec.seed,
        spec.record_count,
        spec.operation_count,
        spec.epochs,
        spec.hotspot_rotate_keys,
        spec.shards,
        spec.membership,
    )


def _cached_probe(
    spec: ClusterSpec,
    stream: Optional[CompiledStream],
    cache: Optional[ProbeCache],
) -> _ProbeResult:
    """The spec's ring schedule and its :func:`_probe` output, memoized
    on everything either depends on.

    The coordinator consumes the probe twice per planned run (lease
    planning and the :func:`_reference_lease_vectors` counterfactual
    replay), and a grid re-plans the same workload once per budget —
    the cache collapses all of that to one ring schedule, one probe and
    one :class:`KeyOwners` (so one routing pass per distinct ring) per
    distinct (stream, ring schedule) combination.  A caller holding no
    compiled ``stream`` gets the spec's compiled here, on a miss.
    """
    key = _probe_cache_key(spec)
    found = cache.get(key) if cache is not None else None
    if found is None:
        if stream is None:
            stream = _compile_stream(spec)
        rings = spec.rings()
        found = (rings, *_probe(spec, rings, stream))
        if cache is not None:
            cache[key] = found
    return found


def _reference_lease_vectors(
    spec: ClusterSpec,
    demands: List[List[int]],
    capacity: int,
    active_schedule: Optional[List[Tuple[bool, ...]]],
) -> List[List[int]]:
    """Undamped last-epoch reactive replay of the same run.

    The counterfactual baseline for misallocation reporting: identical
    pool, degradation schedule, and membership masks, but the original
    reactive protocol (no forecasting, no churn damping).  ``demands``
    is the coordinator's cached probe output (:func:`_cached_probe`) —
    this replay never re-streams the workload — and ``active_schedule``
    the plan's per-epoch membership masks (``None`` without membership
    changes).
    """
    pool = BatteryPool(capacity_pages=capacity, shards=spec.total_shards())
    no_history = [0] * spec.total_shards()
    vectors: List[List[int]] = []
    for epoch in range(spec.epochs):
        for step_epoch, fraction in spec.pool_degrade:
            if step_epoch == epoch:
                pool.degrade(fraction)
        observed = demands[epoch - 1] if epoch > 0 else no_history
        active = active_schedule[epoch] if active_schedule else None
        leases = pool.rebalance(observed, epoch, active=active)
        vectors.append([lease.pages for lease in leases])
    return vectors


def _record_event(
    tracer: Tracer,
    events: List[Dict[str, object]],
    event_type: Type[TraceEvent],
    **values: object,
) -> Dict[str, object]:
    """Record one coordinator event; returns its report dict.

    The dict is ``event_type(**values).as_dict()`` — the ``type``
    discriminator, then the dataclass's fields in declaration order —
    built without the event object, which only a traced run constructs
    (and emits): the untraced path allocates no event objects.
    """
    if tracer.enabled:
        tracer.emit(event_type(**values))
    record: Dict[str, object] = {"type": event_type.__name__}
    for spec_field in fields(event_type):
        record[spec_field.name] = values[spec_field.name]
    events.append(record)
    return record


def _epoch_migrations(
    spec: ClusterSpec,
    epoch: int,
    rings: Sequence[HashRing],
    owners: KeyOwners,
    inserts: List[np.ndarray],
    tracer: Tracer,
    events: List[Dict[str, object]],
    migrations: List[Dict[str, object]],
) -> None:
    """Replay epoch ``epoch``'s membership changes, if it has any.

    One :class:`ShardMigration` per scheduled action, sized against the
    live key indices at the boundary (loaded records plus the probe's
    ``inserts`` of every earlier epoch) — the coordinator-side mirror
    of the key handoff every worker replays.  Each is recorded as an
    event, and its fields less ``type`` and ``t`` as a migration
    record.  The epoch's last action lands on the schedule's own
    ``rings[epoch]``; only the rings between two same-epoch actions are
    built here.
    """
    actions = [
        (action, shard)
        for change_epoch, action, shard in spec.membership
        if change_epoch == epoch
    ]
    if not actions:
        return
    live = np.concatenate(
        [np.arange(spec.record_count, dtype=np.int64), *inserts[:epoch]]
    )
    ring = rings[epoch - 1]
    for step, (action, shard) in enumerate(actions, start=1):
        if step == len(actions):
            after = rings[epoch]
        elif action == "add":
            after = ring.with_shard(shard)
        else:
            after = ring.without_shard(shard)
        moved = owners.shards(ring, live) != owners.shards(after, live)
        record = _record_event(
            tracer,
            events,
            ShardMigration,
            t=epoch,
            epoch=epoch,
            action=action,
            shard=shard,
            moved_keys=int(np.count_nonzero(moved)),
            arc_moved=round(ring.moved_arc_fraction(after), 6),
            shards_after=len(after.shard_ids),
        )
        migrations.append(
            {key: value for key, value in record.items() if key not in ("type", "t")}
        )
        ring = after


def plan_cluster(
    spec: ClusterSpec,
    tracer: Tracer = NULL_TRACER,
    stream: Optional[CompiledStream] = None,
    probe_cache: Optional[ProbeCache] = None,
) -> ClusterPlan:
    """Probe demand and lease the pool for every rebalance epoch.

    The spec's predictor forecasts each epoch's per-shard demand from the
    demand observed so far (``last-epoch`` with no damping reproduces
    the original reactive protocol exactly: epoch 0 splits evenly,
    epoch ``e > 0`` apportions by epoch ``e - 1``'s observation).
    Degradation steps shrink the pool's health before their epoch's
    rebalance; membership changes re-ring routing and hand budget
    between shards; per-epoch L1 misallocation against the clairvoyant
    plan is measured for every pool run.  A baseline cluster
    (no pool) plans no leases.

    ``stream`` is the spec's compiled op stream when the caller already
    holds one (checked against the spec; otherwise the probe compiles
    it); ``probe_cache`` (shared across a grid's specs) reuses probe
    output and the ring schedule between runs that differ only in
    budget.  Neither can change the plan — only how fast it is computed.

    The ring schedule is built once per plan, or once per grid through
    ``probe_cache`` (one :class:`HashRing` per distinct ring); the
    per-epoch membership masks are derived from it
    once and shared by the lease loop, the
    :func:`_reference_lease_vectors` replay and the misallocation
    report.  Live key indices are assembled, and routed through the
    probe's :class:`KeyOwners` (whose tables every plan of the schedule
    shares), only at the epochs whose ring the membership schedule
    changes.
    """
    total_shards = spec.total_shards()
    if stream is not None:
        _require_stream(stream, spec)
    rings, demands, inserts, owners = _cached_probe(
        spec, stream, probe_cache
    )
    capacity = spec.pool_capacity_pages()
    events: List[Dict[str, object]] = []
    migrations: List[Dict[str, object]] = []

    if capacity is None:
        # A baseline cluster has no pool to lease, but membership changes
        # still move keys, so the migration records are still planned.
        for epoch in range(1, spec.epochs):
            _epoch_migrations(
                spec, epoch, rings, owners, inserts, tracer, events, migrations
            )
        return ClusterPlan(
            spec=spec,
            ring_checksum=rings[0].layout_checksum(),
            demands=demands,
            leases=[],
            capacity_schedule=[],
            schedules=None,
            events=events,
            migrations=migrations,
        )

    pool = BatteryPool(
        capacity_pages=capacity,
        shards=total_shards,
        churn_cap_pages=spec.churn_cap_pages,
    )
    predictor = make_predictor(spec.predictor, total_shards)
    capacity_schedule: List[int] = []
    starved: List[Dict[str, int]] = []
    active_schedule = (
        active_masks(rings, total_shards) if spec.membership else None
    )
    for epoch in range(spec.epochs):
        epoch_events: List[Dict[str, object]] = []
        if epoch > 0:
            _epoch_migrations(
                spec,
                epoch,
                rings,
                owners,
                inserts,
                tracer,
                epoch_events,
                migrations,
            )
        for step_epoch, fraction in spec.pool_degrade:
            if step_epoch == epoch:
                pool.degrade(fraction)
        capacity_schedule.append(pool.capacity_pages)
        forecast = predictor.forecast()
        active = active_schedule[epoch] if active_schedule else None
        # The even-split fallback is fine at epoch 0 (no history exists
        # yet) but a starvation signal afterwards: the predictor has seen
        # nothing written on any active shard.
        if epoch > 0 and not any(
            signal
            for shard, signal in enumerate(forecast)
            if active is None or active[shard]
        ):
            starved.append({"epoch": epoch})
            _record_event(
                tracer, epoch_events, DemandStarved, t=epoch, epoch=epoch
            )
        leases = pool.rebalance(forecast, epoch, active=active)
        predictor.observe(demands[epoch])
        moved = pool.churn(epoch).grown
        _record_event(
            tracer,
            epoch_events,
            ShardRebalance,
            t=epoch,
            epoch=epoch,
            shards=total_shards,
            moved_pages=moved,
            leased_pages=pool.leased_pages(epoch),
            capacity_pages=pool.capacity_pages,
        )
        for lease in leases:
            _record_event(
                tracer,
                epoch_events,
                BudgetLease,
                t=epoch,
                shard=lease.shard,
                epoch=epoch,
                pages=lease.pages,
                demand=lease.demand,
            )
        if active_schedule is not None and epoch > 0:
            previous_leases = pool.lease_history[epoch - 1]
            for shard, (was, now) in enumerate(
                zip(active_schedule[epoch - 1], active_schedule[epoch])
            ):
                if was == now:
                    continue
                kind = "grant" if now else "release"
                pages = abs(
                    leases[shard].pages - previous_leases[shard].pages
                )
                _record_event(
                    tracer,
                    epoch_events,
                    BudgetHandoff,
                    t=epoch,
                    epoch=epoch,
                    shard=shard,
                    pages=pages,
                    kind=kind,
                )
        events.extend(epoch_events)
    lease_vectors = [
        [lease.pages for lease in epoch_leases]
        for epoch_leases in pool.lease_history
    ]
    reference = _reference_lease_vectors(
        spec, demands, capacity, active_schedule
    )
    misallocation = misallocation_report(
        spec.predictor,
        lease_vectors,
        reference,
        demands,
        capacity_schedule,
        active_schedule,
    )
    return ClusterPlan(
        spec=spec,
        ring_checksum=rings[0].layout_checksum(),
        demands=demands,
        leases=pool.lease_history,
        capacity_schedule=capacity_schedule,
        schedules=pool.schedules(),
        events=events,
        misallocation=misallocation,
        starved=starved,
        migrations=migrations,
    )


# -- shard execution (worker side) ----------------------------------------


#: A spec, its shard jobs and the grid it came from carry the same
#: workload parameters under the same names, so any of them names the
#: run's one op stream.
StreamSource = Union[ClusterSpec, ShardJob, "ClusterGrid"]


def _stream_scale(source: StreamSource) -> ExperimentScale:
    return ExperimentScale(
        record_count=source.record_count,
        operation_count=source.operation_count,
        zipf_theta=source.theta,
        seed=source.seed,
    )


def _compile_stream(source: StreamSource) -> CompiledStream:
    """The one segmented, rotated global op stream of a cluster run."""
    return compile_workload(
        YCSB_WORKLOADS[source.workload],
        source.record_count,
        source.operation_count,
        value_size=_stream_scale(source).value_size,
        theta=source.theta,
        seed=source.seed,
        epochs=source.epochs,
        hotspot_rotate_keys=source.hotspot_rotate_keys,
    )


def _require_stream(
    stream: CompiledStream, source: StreamSource
) -> CompiledStream:
    """``stream``, refused unless it is ``source``'s
    :func:`_compile_stream` output."""
    stream.require(
        YCSB_WORKLOADS[source.workload],
        source.record_count,
        source.operation_count,
        _stream_scale(source).value_size,
        source.theta,
        source.seed,
        epochs=source.epochs,
        hotspot_rotate_keys=source.hotspot_rotate_keys,
    )
    return stream


def _execute_shard(job: ShardJob) -> Dict[str, object]:
    """Build one shard, load its slice of the keyspace, serve its ops.

    The global compiled stream is replayed one epoch segment at a time.
    Ownership comes from one :class:`KeyOwners` per job: each distinct
    ring routes the loaded keyspace once into a table, and a segment's
    loaded key indices gather their shard from it (its few inserted
    keys are routed directly).  The partition stays exact (every op
    goes to precisely one shard) and the worker never materializes
    another shard's operations.  The owned slice of each segment runs
    through one :class:`~repro.bench.runner.BatchedSession`.

    Between segments the shard re-tunes to its next lease, and at a
    boundary whose ring differs from the previous epoch's it replays
    the ownership handoff: the lease is applied first (shrinking shards
    drain under the budget they are giving up), then every live key
    this shard gains under the new ring is put before any of the
    epoch's operations are served — the migrated-in data must exist
    before a read can route here for it.  Live keys are the loaded
    records plus every insert at earlier positions, across all shards;
    segments past the last operation are never entered.
    """
    wspec = YCSB_WORKLOADS[job.workload]
    scale = _stream_scale(job)
    # The coordinator's compiled stream arrives by path and is opened
    # read-only (np.memmap): every worker shares the parent's single
    # compilation through the page cache.  A job handed no path
    # compiles the same stream itself.
    if job.ops_path is not None:
        stream = _require_stream(open_ops(job.ops_path), job)
    else:
        stream = _compile_stream(job)
    rings = job.rings()
    schedule = job.budget_schedule
    viyojit: Optional[Viyojit]
    system: NVDRAMSystem
    if schedule is None:
        sim, system = build_baseline(scale)
        viyojit = None
    else:
        sim, viyojit = build_viyojit(scale, 1.0, budget_pages=schedule[0])
        system = viyojit
    runner = YCSBRunner(
        sim, system, scale, ordered=wspec.scan_proportion > 0
    )
    session = BatchedSession(runner)
    # Record ownership is the epoch-0 ring's table of loaded-key owners
    # (put order stays the sequential key-index order of the load
    # phase).  Loaded keys are the stream's key table entries, so the
    # load and every later op on a key share one bytes object.
    owners = KeyOwners(job.record_count)
    owned = owners.table(rings[0]) == job.shard
    own_record_keys = stream.key_table[owned].tolist()
    session.put(own_record_keys)

    bounds = stream.segment_bounds
    if job.membership:
        insert_positions = np.flatnonzero(
            np.asarray(stream.codes) == CODE_INSERT
        )
        insert_indices = np.asarray(stream.key_indices)[insert_positions]
        record_indices = np.arange(job.record_count, dtype=np.int64)
    routed = 0
    migrated_in = 0
    last_segment = max(
        (
            epoch
            for epoch in range(job.epochs)
            if bounds[epoch] < bounds[epoch + 1]
        ),
        default=-1,
    )
    session.begin()
    for segment in range(last_segment + 1):
        if segment:
            if viyojit is not None and schedule is not None:
                # The new lease applies first; a shrink drains before
                # the segment's operations (section 8's path).
                viyojit.set_dirty_budget(schedule[segment])
            if rings[segment] is not rings[segment - 1]:
                grown = int(
                    np.searchsorted(
                        insert_positions, bounds[segment], side="left"
                    )
                )
                live = np.concatenate(
                    [record_indices, insert_indices[:grown]]
                )
                after = owners.shards(rings[segment], live)
                before = owners.shards(rings[segment - 1], live)
                gained = live[(after == job.shard) & (before != job.shard)]
                session.put(stream.keys_at(gained))
                migrated_in += len(gained)
        lo, hi = int(bounds[segment]), int(bounds[segment + 1])
        if lo == hi:
            continue
        indices = np.asarray(stream.key_indices[lo:hi])
        own = owners.shards(rings[segment], indices) == job.shard
        own_indices = indices[own]
        if not len(own_indices):
            continue
        routed += len(own_indices)
        session.apply(
            [
                KIND_NAMES[code]
                for code in np.asarray(stream.codes[lo:hi])[own].tolist()
            ],
            stream.keys_at(own_indices),
            np.asarray(stream.scan_lengths[lo:hi])[own].tolist()
            if stream.has_scans
            else (),
        )
    payload = result_payload(session.finish(wspec))
    payload["shard"] = job.shard
    payload["records_loaded"] = len(own_record_keys)
    payload["routed_ops"] = routed
    payload["budget_schedule"] = (
        list(schedule) if schedule is not None else None
    )
    payload["migrated_in_keys"] = migrated_in
    return payload


#: The shard worker is the engine's one job runner; the name stays for
#: callers that run a single shard job in-process.
run_shard_job = run_job


# -- cluster grids (coordinator side) --------------------------------------


@dataclass(frozen=True)
class ClusterGrid:
    """Shard counts x total pool batteries, at one workload and scale.

    The expansion order (shard count outer, budget inner) is part of the
    on-disk contract: global job indices key the merged report.
    """

    shard_counts: Tuple[int, ...] = (4,)
    total_budgets_gb: Tuple[Optional[float], ...] = (
        None,
    ) + DEFAULT_TOTAL_BUDGETS_GB
    workload: str = "YCSB-A"
    theta: float = 0.99
    seed: int = 42
    record_count: int = 2_000
    operation_count: int = 6_000
    epochs: int = 4
    pool_degrade: Tuple[Tuple[int, float], ...] = ()
    predictor: str = "last-epoch"
    churn_cap_pages: Optional[int] = None
    membership: Membership = ()
    hotspot_rotate_keys: int = 0

    def __post_init__(self) -> None:
        if not self.shard_counts:
            raise ValueError("grid needs at least one shard count")
        if len(set(self.shard_counts)) != len(self.shard_counts):
            raise ValueError("duplicate shard counts in grid")
        if not self.total_budgets_gb:
            raise ValueError("grid needs at least one total budget")
        if len(set(self.total_budgets_gb)) != len(self.total_budgets_gb):
            raise ValueError("duplicate total budgets in grid")
        # Spec construction validates everything else per run.
        for spec in self.specs():
            del spec

    def specs(self) -> Tuple[ClusterSpec, ...]:
        out = []
        for shards in self.shard_counts:
            for budget_gb in self.total_budgets_gb:
                out.append(
                    ClusterSpec(
                        shards=shards,
                        total_budget_fraction=(
                            None
                            if budget_gb is None
                            else budget_gb / PAPER_HEAP_GB
                        ),
                        workload=self.workload,
                        theta=self.theta,
                        seed=self.seed,
                        record_count=self.record_count,
                        operation_count=self.operation_count,
                        epochs=self.epochs,
                        pool_degrade=self.pool_degrade,
                        predictor=self.predictor,
                        churn_cap_pages=self.churn_cap_pages,
                        membership=self.membership,
                        hotspot_rotate_keys=self.hotspot_rotate_keys,
                    )
                )
        return tuple(out)

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard_counts": list(self.shard_counts),
            "total_budgets_gb": list(self.total_budgets_gb),
            "workload": self.workload,
            "theta": self.theta,
            "seed": self.seed,
            "record_count": self.record_count,
            "operation_count": self.operation_count,
            "epochs": self.epochs,
            "pool_degrade": [list(step) for step in self.pool_degrade],
            "predictor": self.predictor,
            "churn_cap_pages": self.churn_cap_pages,
            "membership": [list(entry) for entry in self.membership],
            "hotspot_rotate_keys": self.hotspot_rotate_keys,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClusterGrid":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        for key, value in data.items():
            if key in ("pool_degrade", "membership") and isinstance(
                value, list
            ):
                kwargs[key] = tuple(
                    tuple(step) for step in value  # type: ignore[arg-type]
                )
            elif isinstance(value, list):
                kwargs[key] = tuple(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)  # type: ignore[arg-type]


def shard_jobs(
    plans: Sequence[ClusterPlan],
    timeout_s: Optional[float] = None,
    ops_path: Optional[str] = None,
) -> List[ShardJob]:
    """The grid's deterministic job expansion: one job per (run, shard).

    Global indices run in plan order then shard order — the same
    assignment :func:`repro.cluster.report.build_cluster_report` uses to
    slice merged results back into runs.  Runs with membership changes
    expand over the full shard-id universe (initial plus added shards);
    a shard that joins late simply routes nothing before its epoch.
    ``ops_path`` (an execution detail, excluded from payloads) points
    every job at the coordinator's one compiled ``.ops`` stream — all
    grid runs share a workload, so one file serves them all.
    """
    runs = [
        (plan, shard)
        for plan in plans
        for shard in range(plan.spec.total_shards())
    ]
    return [
        ShardJob(
            index=index,
            shard=shard,
            shards=plan.spec.shards,
            workload=plan.spec.workload,
            theta=plan.spec.theta,
            seed=plan.spec.seed,
            record_count=plan.spec.record_count,
            operation_count=plan.spec.operation_count,
            epochs=plan.spec.epochs,
            budget_schedule=(
                plan.schedules[shard] if plan.schedules is not None else None
            ),
            membership=plan.spec.membership,
            hotspot_rotate_keys=plan.spec.hotspot_rotate_keys,
            timeout_s=timeout_s,
            ops_path=ops_path,
        )
        for index, (plan, shard) in enumerate(runs)
    ]


def run_cluster_grid(
    grid: ClusterGrid,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    progress: Progress = None,
    tracer: Tracer = NULL_TRACER,
    _job_overrides: Optional[Dict[int, ShardJob]] = None,
) -> dict:
    """Plan and execute every cluster run; return the merged report.

    The report's deterministic view (everything outside ``wall``) is
    byte-identical for any ``jobs`` count.  ``_job_overrides`` lets the
    fault tests substitute doctored shard jobs (kill hooks) without
    widening the public surface.

    Every spec of a grid shares its workload parameters (only shard
    count and battery vary), so the coordinator compiles the grid's op
    stream exactly once: planning probes it in-process (with per-epoch
    demand results cached across specs), and shard workers open the
    same ``.ops`` file read-only by path.  The file lives only for the
    duration of the run.
    """
    with tempfile.TemporaryDirectory(prefix="repro-ops-") as ops_dir:
        ops_path = os.path.join(ops_dir, "cluster.ops")
        save_ops(_compile_stream(grid), ops_path)
        stream = open_ops(ops_path)
        probe_cache: ProbeCache = {}
        plans = [
            plan_cluster(
                spec, tracer=tracer, stream=stream, probe_cache=probe_cache
            )
            for spec in grid.specs()
        ]
        job_list = shard_jobs(plans, timeout_s=timeout_s, ops_path=ops_path)
        if _job_overrides:
            job_list = [
                _job_overrides.get(job.index, job) for job in job_list
            ]
        results, retries, total_wall_s = execute_jobs(
            job_list,
            jobs=jobs,
            max_retries=max_retries,
            progress=progress,
        )
    return build_cluster_report(
        grid,
        plans,
        results,
        workers=jobs,
        total_wall_s=total_wall_s,
        retries=retries,
    )


__all__ = [
    "ClusterGrid",
    "ClusterPlan",
    "ClusterSpec",
    "KeyOwners",
    "MEMBERSHIP_ACTIONS",
    "RING_SEED",
    "RING_VNODES",
    "ShardJob",
    "active_masks",
    "membership_rings",
    "plan_cluster",
    "probe_demands",
    "run_cluster_grid",
    "run_shard_job",
    "shard_jobs",
]
