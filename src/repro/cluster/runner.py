"""Cluster runner: N Viyojit shards leasing budgets from a shared pool.

Simulates datacenter-scale serving of one global YCSB keyspace: a seeded
consistent-hash ring routes every operation to one of N shards, each
shard is a full Viyojit instance (own NV-DRAM region, own flusher, own
SSD), and all dirty budgets are leased from one shared
:class:`~repro.cluster.pool.BatteryPool` that re-apportions capacity at
rebalance-epoch boundaries as write pressure shifts.

Determinism protocol (everything is a pure function of the spec):

1. **Demand probe** — the coordinator compiles the global op stream once
   and counts distinct written keys per (tenant, shard, epoch segment).
   Zipfian skew shows up here as hot shards demanding more budget.
2. **Lease planning** — a pluggable demand predictor
   (:mod:`repro.cluster.forecast`) forecasts each epoch's demand matrix
   from observed history.  The ``last-epoch`` default reproduces the
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
    DEFAULT_EWMA_ALPHA,
    PREDICTORS,
    make_predictor,
    misallocation_report,
)
from repro.cluster.pool import BatteryPool, PoolLease
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
from repro.parallel.worker import (
    job_timeout,
    maybe_kill_once,
    result_payload,
)
from repro.perf.timer import best_of
from repro.workloads.compiled import (
    CODE_INSERT,
    CODE_RMW,
    CODE_UPDATE,
    CompiledStream,
    KIND_NAMES,
    compile_workload,
    key_array,
    key_rows,
    open_ops,
    save_ops,
)
from repro.workloads.ycsb import YCSB_WORKLOADS, make_key

#: Pool entry for shard jobs (resolved by the engine's dispatcher).
CLUSTER_POOL_ENTRY = "repro.cluster.runner:pool_run_shard_job"

#: Default Fig-7-style x-axis: total pool battery in paper GB.
DEFAULT_TOTAL_BUDGETS_GB = (2.0, 6.0, 10.0)

#: Ring-membership actions a :class:`ClusterSpec` schedule may contain.
MEMBERSHIP_ACTIONS = ("add", "remove")

Membership = Tuple[Tuple[int, str, int], ...]


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
    shards: int,
    vnodes: int,
    ring_seed: int,
    membership: Membership,
    epochs: int,
) -> List[HashRing]:
    """The per-epoch ring schedule implied by a membership schedule.

    Epoch 0 is the initial ring over ``range(shards)``; each scheduled
    change applies *before* its epoch's rebalance.  Epochs without a
    change reuse the previous ring object, so ``rings[e] is
    rings[e - 1]`` doubles as the "did the ring change" test.
    """
    ring = HashRing(range(shards), vnodes=vnodes, seed=ring_seed)
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

    * ``predictor`` / ``ewma_alpha`` — which demand predictor feeds the
      rebalancer (:data:`repro.cluster.forecast.PREDICTORS`).
    * ``churn_cap_pages`` — per-epoch cap on voluntary lease movement
      (``None`` = undamped).
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
    tenants: int = 1
    tenant_quotas: Optional[Tuple[float, ...]] = None
    vnodes: int = 32
    ring_seed: int = 17
    floor_pages: int = 1
    pool_degrade: Tuple[Tuple[int, float], ...] = ()
    predictor: str = "last-epoch"
    ewma_alpha: float = DEFAULT_EWMA_ALPHA
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
        if self.tenants <= 0:
            raise ValueError(f"tenants must be positive: {self.tenants}")
        if self.tenant_quotas is not None:
            object.__setattr__(
                self, "tenant_quotas", tuple(self.tenant_quotas)
            )
            if len(self.tenant_quotas) != self.tenants:
                raise ValueError(
                    f"{len(self.tenant_quotas)} quotas for "
                    f"{self.tenants} tenants"
                )
            for quota in self.tenant_quotas:
                if not (math.isfinite(quota) and quota > 0):
                    raise ValueError(
                        f"tenant_quotas must be finite and positive: "
                        f"{quota}"
                    )
        if self.vnodes <= 0:
            raise ValueError(f"vnodes must be positive: {self.vnodes}")
        if self.floor_pages <= 0:
            raise ValueError(
                f"floor_pages must be positive: {self.floor_pages}"
            )
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
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(
                f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}"
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
        return ExperimentScale(
            record_count=self.record_count,
            operation_count=self.operation_count,
            zipf_theta=self.theta,
            seed=self.seed,
        )

    def quotas(self) -> Tuple[float, ...]:
        if self.tenant_quotas is not None:
            return self.tenant_quotas
        return tuple(1.0 / self.tenants for _ in range(self.tenants))

    def total_shards(self) -> int:
        """Shard-id universe size: initial shards plus scheduled adds."""
        return self.shards + sum(
            1 for _, action, _ in self.membership if action == "add"
        )

    def pool_capacity_pages(self) -> Optional[int]:
        """Total pool budget in pages (None for the baseline cluster)."""
        if self.total_budget_fraction is None:
            return None
        derived = int(
            round(
                self.total_budget_fraction * self.scale().initial_heap_pages
            )
        )
        return max(self.total_shards() * self.floor_pages, derived)

    def total_budget_gb(self) -> Optional[float]:
        """The paper-GB label of the pool battery (Fig-7-style axis)."""
        if self.total_budget_fraction is None:
            return None
        return round(self.total_budget_fraction * PAPER_HEAP_GB, 2)

    def ring(self) -> HashRing:
        """The epoch-0 ring (initial membership)."""
        return HashRing(
            range(self.shards), vnodes=self.vnodes, seed=self.ring_seed
        )

    def rings(self) -> List[HashRing]:
        """The per-epoch ring schedule (see :func:`membership_rings`)."""
        return membership_rings(
            self.shards,
            self.vnodes,
            self.ring_seed,
            self.membership,
            self.epochs,
        )

    def active(self, epoch: int) -> Tuple[bool, ...]:
        """Which shard ids are on the ring during ``epoch``."""
        members = set(self.rings()[epoch].shard_ids)
        return tuple(
            shard in members for shard in range(self.total_shards())
        )

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["tenant_quotas"] = (
            list(self.quotas()) if self.tenants > 1 else None
        )
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
    vnodes: int
    ring_seed: int
    workload: str
    theta: float
    seed: int
    record_count: int
    operation_count: int
    epochs: int
    tenants: int
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
        total = self.shards + sum(
            1 for _, action, _ in self.membership if action == "add"
        )
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
        return membership_rings(
            self.shards,
            self.vnodes,
            self.ring_seed,
            self.membership,
            self.epochs,
        )

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data.pop("timeout_s")
        data.pop("fault_kill_once_path")
        data.pop("ops_path")
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
    demands: List[List[List[int]]]  # [epoch][tenant][shard]
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
) -> Tuple[List[List[List[int]]], List[List[bytes]]]:
    """Demand matrices plus inserted keys per epoch, from array passes.

    ``demands[epoch][tenant][shard]`` counts distinct written keys;
    ``inserts[epoch]`` lists the keys inserts created during that epoch
    segment (the coordinator needs them to size migration handoffs —
    live keys are the loaded records plus every insert so far).

    Per epoch segment: one boolean mask finds the written ops, one
    ``np.unique`` replaces per-key set building (a key's tenant and
    shard are pure functions of the key within an epoch, so distinct
    indices ≡ distinct keys), one ``shard_for_rows`` routing pass, and
    one ``np.bincount`` over ``tenant × shard`` buckets.
    """
    total_shards = spec.total_shards()
    demands: List[List[List[int]]] = []
    inserts: List[List[bytes]] = []
    for epoch in range(spec.epochs):
        lo, hi = stream.segment_slice(epoch)
        codes = np.asarray(stream.codes[lo:hi])
        indices = np.asarray(stream.key_indices[lo:hi])
        inserting = codes == CODE_INSERT
        inserts.append(
            key_array(indices[inserting]).tolist() if inserting.any() else []
        )
        written = (
            inserting | (codes == CODE_UPDATE) | (codes == CODE_RMW)
        )
        matrix = np.zeros((spec.tenants, total_shards), dtype=np.int64)
        distinct = np.unique(indices[written])
        if len(distinct):
            shards = rings[epoch].shard_for_rows(key_rows(distinct))
            tenants = distinct % spec.tenants
            matrix = np.bincount(
                tenants * total_shards + shards,
                minlength=spec.tenants * total_shards,
            ).reshape(spec.tenants, total_shards)
        demands.append([[int(count) for count in row] for row in matrix])
    return demands, inserts


def probe_demands(
    spec: ClusterSpec,
    ring: Optional[HashRing] = None,
    stream: Optional[CompiledStream] = None,
) -> List[List[List[int]]]:
    """Distinct written keys per (epoch segment, tenant, shard).

    One pass over the compiled global op stream; mutating ops (update,
    insert, rmw) contribute their key to the owning shard's demand set
    for the segment the op falls in.  This is the pressure signal the
    rebalancer apportions by.  ``ring`` overrides the routing ring for
    every epoch (membership-free callers); by default the spec's own
    per-epoch ring schedule routes each segment.  ``stream`` is the
    spec's compiled op stream when the caller already holds one.
    """
    rings = [ring] * spec.epochs if ring is not None else spec.rings()
    demands, _ = _cached_probe(spec, rings, stream, None)
    return demands


#: Cache key for one spec's probe output: everything the probe depends
#: on — the workload stream, the segmentation, the tenant count, and
#: the ring schedule.  Deliberately excludes every budget knob, so a
#: grid sweeping budgets probes each workload/ring combination once.
_ProbeKey = Tuple[
    str, float, int, int, int, int, int, int, int, int, int, Membership
]

ProbeCache = Dict[_ProbeKey, Tuple[List[List[List[int]]], List[List[bytes]]]]


def _probe_cache_key(spec: ClusterSpec) -> _ProbeKey:
    return (
        spec.workload,
        spec.theta,
        spec.seed,
        spec.record_count,
        spec.operation_count,
        spec.epochs,
        spec.tenants,
        spec.hotspot_rotate_keys,
        spec.shards,
        spec.vnodes,
        spec.ring_seed,
        spec.membership,
    )


def _cached_probe(
    spec: ClusterSpec,
    rings: Sequence[HashRing],
    stream: Optional[CompiledStream],
    cache: Optional[ProbeCache],
) -> Tuple[List[List[List[int]]], List[List[bytes]]]:
    """:func:`_probe`, memoized on everything the probe depends on.

    The coordinator consumes the probe twice per planned run (lease
    planning and the :func:`_reference_lease_vectors` counterfactual
    replay), and a grid re-plans the same workload once per budget —
    the cache collapses all of that to one probe per distinct
    (stream, ring schedule, tenants) combination.  A caller holding no
    compiled ``stream`` gets the spec's compiled here, on a miss.
    """
    key = _probe_cache_key(spec)
    found = cache.get(key) if cache is not None else None
    if found is None:
        if stream is None:
            stream = _compile_stream(spec)
        found = _probe(spec, rings, stream)
        if cache is not None:
            cache[key] = found
    return found


def _reference_lease_vectors(
    spec: ClusterSpec,
    demands: List[List[List[int]]],
    capacity: int,
) -> List[List[int]]:
    """Undamped last-epoch reactive replay of the same run.

    The counterfactual baseline for misallocation reporting: identical
    pool, degradation schedule, and membership masks, but the original
    reactive protocol (no forecasting, no churn damping).  ``demands``
    is the coordinator's cached probe output (:func:`_cached_probe`) —
    this replay never re-streams the workload.
    """
    pool = BatteryPool(
        capacity_pages=capacity,
        shards=spec.total_shards(),
        tenant_quotas=spec.quotas(),
        floor_pages=spec.floor_pages,
    )
    no_history = [
        [0 for _ in range(spec.total_shards())]
        for _ in range(spec.tenants)
    ]
    vectors: List[List[int]] = []
    for epoch in range(spec.epochs):
        for step_epoch, fraction in spec.pool_degrade:
            if step_epoch == epoch:
                pool.degrade(fraction)
        observed = demands[epoch - 1] if epoch > 0 else no_history
        active = spec.active(epoch) if spec.membership else None
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
    ring_before: HashRing,
    live_keys: List[bytes],
    tracer: Tracer,
    events: List[Dict[str, object]],
    migrations: List[Dict[str, object]],
) -> HashRing:
    """Replay epoch ``epoch``'s membership changes; returns the new ring.

    One :class:`ShardMigration` per scheduled action, sized against the
    live keyspace at the boundary (loaded records plus inserts so far)
    — the coordinator-side mirror of the key handoff every worker
    replays.  Each is recorded as an event, and its fields less
    ``type`` and ``t`` as a migration record.
    """
    ring = ring_before
    for change_epoch, action, shard in spec.membership:
        if change_epoch != epoch:
            continue
        after = (
            ring.with_shard(shard)
            if action == "add"
            else ring.without_shard(shard)
        )
        record = _record_event(
            tracer,
            events,
            ShardMigration,
            t=epoch,
            epoch=epoch,
            action=action,
            shard=shard,
            moved_keys=len(ring.moved_keys(after, live_keys)),
            arc_moved=round(ring.moved_arc_fraction(after), 6),
            shards_after=len(after.shard_ids),
        )
        migrations.append(
            {key: value for key, value in record.items() if key not in ("type", "t")}
        )
        ring = after
    return ring


def plan_cluster(
    spec: ClusterSpec,
    tracer: Tracer = NULL_TRACER,
    stream: Optional[CompiledStream] = None,
    probe_cache: Optional[ProbeCache] = None,
) -> ClusterPlan:
    """Probe demand and lease the pool for every rebalance epoch.

    The spec's predictor forecasts each epoch's demand matrix from the
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
    output between runs that differ only in budget.  Neither can change
    the plan — only how fast it is computed.
    """
    rings = spec.rings()
    total_shards = spec.total_shards()
    if stream is not None:
        stream.require(
            YCSB_WORKLOADS[spec.workload],
            spec.record_count,
            spec.operation_count,
            spec.scale().value_size,
            spec.theta,
            spec.seed,
            epochs=spec.epochs,
            hotspot_rotate_keys=spec.hotspot_rotate_keys,
        )
    demands, inserts = _cached_probe(spec, rings, stream, probe_cache)
    capacity = spec.pool_capacity_pages()
    live_keys: List[bytes] = [
        make_key(index) for index in range(spec.record_count)
    ]
    events: List[Dict[str, object]] = []
    migrations: List[Dict[str, object]] = []

    if capacity is None:
        # A baseline cluster has no pool to lease, but membership changes
        # still move keys, so the migration records are still planned.
        ring = rings[0]
        for epoch in range(1, spec.epochs):
            live_keys.extend(inserts[epoch - 1])
            if rings[epoch] is not rings[epoch - 1]:
                ring = _epoch_migrations(
                    spec, epoch, ring, live_keys, tracer, events, migrations
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
        tenant_quotas=spec.quotas(),
        floor_pages=spec.floor_pages,
        churn_cap_pages=spec.churn_cap_pages,
    )
    predictor = make_predictor(
        spec.predictor, spec.tenants, total_shards, spec.ewma_alpha
    )
    capacity_schedule: List[int] = []
    starved: List[Dict[str, int]] = []
    ring = rings[0]
    previous_active = spec.active(0) if spec.membership else None
    for epoch in range(spec.epochs):
        epoch_events: List[Dict[str, object]] = []
        if epoch > 0:
            live_keys.extend(inserts[epoch - 1])
        if epoch > 0 and rings[epoch] is not rings[epoch - 1]:
            ring = _epoch_migrations(
                spec, epoch, ring, live_keys, tracer, epoch_events, migrations
            )
        for step_epoch, fraction in spec.pool_degrade:
            if step_epoch == epoch:
                pool.degrade(fraction)
        capacity_schedule.append(pool.capacity_pages)
        forecast = predictor.forecast()
        active = spec.active(epoch) if spec.membership else None
        if epoch > 0:
            # The even-split fallback is fine at epoch 0 (no history
            # exists yet) but a starvation signal afterwards: the
            # predictor has seen this tenant write nothing anywhere.
            for tenant in range(spec.tenants):
                demand_total = sum(
                    signal
                    for shard, signal in enumerate(forecast[tenant])
                    if active is None or active[shard]
                )
                if demand_total == 0:
                    starved.append({"epoch": epoch, "tenant": tenant})
                    _record_event(
                        tracer,
                        epoch_events,
                        DemandStarved,
                        t=epoch,
                        epoch=epoch,
                        tenant=tenant,
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
        if active is not None and previous_active is not None and epoch > 0:
            previous_leases = pool.lease_history[epoch - 1]
            for shard in range(total_shards):
                if active[shard] == previous_active[shard]:
                    continue
                kind = "grant" if active[shard] else "release"
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
        previous_active = active
        events.extend(epoch_events)
    lease_vectors = [
        [lease.pages for lease in epoch_leases]
        for epoch_leases in pool.lease_history
    ]
    reference = _reference_lease_vectors(spec, demands, capacity)
    active_schedule = (
        [spec.active(epoch) for epoch in range(spec.epochs)]
        if spec.membership
        else None
    )
    misallocation = misallocation_report(
        spec.predictor,
        lease_vectors,
        reference,
        demands,
        capacity_schedule,
        spec.quotas(),
        spec.floor_pages,
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


def _apply_lease(system: Viyojit, pages: int) -> None:
    """Re-tune a shard to its new lease (shrink drains, like section 8)."""
    current = system.dirty_budget_pages
    if pages == current:
        return
    system.set_dirty_budget(pages)
    if pages < current:
        system.drain_to_budget()


def _compile_stream(
    source: Union[ClusterSpec, ShardJob, ClusterGrid],
) -> CompiledStream:
    """The one segmented, rotated global op stream of a cluster run.

    A spec, its shard jobs and the grid it came from carry the same
    workload parameters under the same names, so any of them compiles
    the identical stream.
    """
    scale = ExperimentScale(
        record_count=source.record_count,
        operation_count=source.operation_count,
        zipf_theta=source.theta,
        seed=source.seed,
    )
    return compile_workload(
        YCSB_WORKLOADS[source.workload],
        source.record_count,
        source.operation_count,
        value_size=scale.value_size,
        theta=source.theta,
        seed=source.seed,
        epochs=source.epochs,
        hotspot_rotate_keys=source.hotspot_rotate_keys,
    )


def _execute_shard(job: ShardJob) -> Dict[str, object]:
    """Build one shard, load its slice of the keyspace, serve its ops.

    The global compiled stream is replayed one epoch segment at a time:
    ownership is one vectorized ``shard_for_rows`` routing pass and
    tenant attribution one ``np.bincount``, so the partition stays
    exact (every op goes to precisely one shard) and the worker never
    materializes another shard's operations.  The owned slice of each
    segment runs through one :class:`~repro.bench.runner.BatchedSession`.

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
    scale = ExperimentScale(
        record_count=job.record_count,
        operation_count=job.operation_count,
        zipf_theta=job.theta,
        seed=job.seed,
    )
    # The coordinator's compiled stream arrives by path and is opened
    # read-only (np.memmap): every worker shares the parent's single
    # compilation through the page cache.  A job handed no path
    # compiles the same stream itself.
    if job.ops_path is not None:
        stream = open_ops(job.ops_path)
        stream.require(
            wspec,
            job.record_count,
            job.operation_count,
            scale.value_size,
            job.theta,
            job.seed,
            epochs=job.epochs,
            hotspot_rotate_keys=job.hotspot_rotate_keys,
        )
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
    # One vectorized routing pass decides record ownership (put order
    # stays the sequential key-index order of the load phase).  Loaded
    # keys are the stream's key table entries, so the load and every
    # later op on a key share one bytes object.
    record_indices = np.arange(job.record_count, dtype=np.int64)
    owned = rings[0].shard_for_rows(key_rows(record_indices)) == job.shard
    own_record_keys = stream.key_table[owned].tolist()
    session.put(own_record_keys)

    bounds = stream.segment_bounds
    track_keys = bool(job.membership)
    if track_keys:
        insert_positions = np.flatnonzero(
            np.asarray(stream.codes) == CODE_INSERT
        )
        insert_keys = key_array(
            np.asarray(stream.key_indices)[insert_positions]
        ).tolist()
        record_keys = stream.key_table.tolist()
    tenant_ops = np.zeros(job.tenants, dtype=np.int64)
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
                _apply_lease(viyojit, schedule[segment])
            if track_keys and rings[segment] is not rings[segment - 1]:
                before = rings[segment - 1]
                after = rings[segment]
                grown = int(
                    np.searchsorted(
                        insert_positions, bounds[segment], side="left"
                    )
                )
                gained = [
                    key
                    for key in before.moved_keys(
                        after, record_keys + insert_keys[:grown]
                    )
                    if after.shard_for(key) == job.shard
                ]
                session.put(gained)
                migrated_in += len(gained)
        lo, hi = int(bounds[segment]), int(bounds[segment + 1])
        if lo == hi:
            continue
        indices = np.asarray(stream.key_indices[lo:hi])
        own = rings[segment].shard_for_rows(key_rows(indices)) == job.shard
        own_indices = indices[own]
        if not len(own_indices):
            continue
        routed += len(own_indices)
        tenant_ops += np.bincount(
            own_indices % job.tenants, minlength=job.tenants
        )
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
    payload["tenant_ops"] = tenant_ops.tolist()
    payload["budget_schedule"] = (
        list(schedule) if schedule is not None else None
    )
    payload["migrated_in_keys"] = migrated_in
    return payload


def run_shard_job(job: ShardJob, in_worker: bool = False) -> Dict[str, object]:
    """Run one shard job and return its mergeable payload.

    Same hermetic-worker contract as
    :func:`repro.parallel.worker.run_sweep_job`: the SIGKILL fault hook
    only arms inside a sacrificial pool worker, and wall time flows
    through the sanctioned timer.
    """
    if in_worker:
        maybe_kill_once(
            job.fault_kill_once_path, f"shard {job.shard} (job {job.index})"
        )
    holder: Dict[str, Dict[str, object]] = {}

    def one_pass() -> None:
        holder["result"] = _execute_shard(job)

    with job_timeout(job.timeout_s, f"shard {job.shard} (job {job.index})"):
        wall_s = best_of(1, one_pass)
    return {
        "job": job.as_dict(),
        "result": holder["result"],
        "wall_s": wall_s,
    }


def pool_run_shard_job(job: ShardJob) -> Dict[str, object]:
    """Process-pool entry point (arms the worker-only fault hooks)."""
    return run_shard_job(job, in_worker=True)


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
    tenants: int = 1
    tenant_quotas: Optional[Tuple[float, ...]] = None
    vnodes: int = 32
    ring_seed: int = 17
    floor_pages: int = 1
    pool_degrade: Tuple[Tuple[int, float], ...] = ()
    predictor: str = "last-epoch"
    ewma_alpha: float = DEFAULT_EWMA_ALPHA
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
                        tenants=self.tenants,
                        tenant_quotas=self.tenant_quotas,
                        vnodes=self.vnodes,
                        ring_seed=self.ring_seed,
                        floor_pages=self.floor_pages,
                        pool_degrade=self.pool_degrade,
                        predictor=self.predictor,
                        ewma_alpha=self.ewma_alpha,
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
            "tenants": self.tenants,
            "tenant_quotas": (
                list(self.tenant_quotas)
                if self.tenant_quotas is not None
                else None
            ),
            "vnodes": self.vnodes,
            "ring_seed": self.ring_seed,
            "floor_pages": self.floor_pages,
            "pool_degrade": [list(step) for step in self.pool_degrade],
            "predictor": self.predictor,
            "ewma_alpha": self.ewma_alpha,
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
    jobs: List[ShardJob] = []
    index = 0
    for plan in plans:
        spec = plan.spec
        for shard in range(spec.total_shards()):
            jobs.append(
                ShardJob(
                    index=index,
                    shard=shard,
                    shards=spec.shards,
                    vnodes=spec.vnodes,
                    ring_seed=spec.ring_seed,
                    workload=spec.workload,
                    theta=spec.theta,
                    seed=spec.seed,
                    record_count=spec.record_count,
                    operation_count=spec.operation_count,
                    epochs=spec.epochs,
                    tenants=spec.tenants,
                    budget_schedule=(
                        plan.schedules[shard]
                        if plan.schedules is not None
                        else None
                    ),
                    membership=spec.membership,
                    hotspot_rotate_keys=spec.hotspot_rotate_keys,
                    timeout_s=timeout_s,
                    ops_path=ops_path,
                )
            )
            index += 1
    return jobs


def _materialize_grid_stream(grid: ClusterGrid, directory: str) -> str:
    """Compile the grid's one op stream into ``directory``; return path.

    Every spec of a :class:`ClusterGrid` shares the same workload
    parameters (only shard count and battery vary), so the coordinator
    compiles exactly once and both the planner's demand probe and every
    shard worker replay the same memory-mapped arrays.
    """
    stream = _compile_stream(grid)
    path = os.path.join(directory, "cluster.ops")
    save_ops(stream, path)
    return path


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

    The coordinator compiles the grid's op stream exactly once
    (:func:`_materialize_grid_stream`): planning probes it in-process
    (with per-epoch demand results cached across specs), and shard
    workers open the same ``.ops`` file read-only by path.  The file
    lives only for the duration of the run.
    """
    from repro.cluster.report import build_cluster_report

    with tempfile.TemporaryDirectory(prefix="repro-ops-") as ops_dir:
        ops_path = _materialize_grid_stream(grid, ops_dir)
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
            serial_runner=run_shard_job,
            pool_entry=CLUSTER_POOL_ENTRY,
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
    "CLUSTER_POOL_ENTRY",
    "ClusterGrid",
    "ClusterPlan",
    "ClusterSpec",
    "MEMBERSHIP_ACTIONS",
    "ShardJob",
    "membership_rings",
    "plan_cluster",
    "pool_run_shard_job",
    "probe_demands",
    "run_cluster_grid",
    "run_shard_job",
    "shard_jobs",
]
