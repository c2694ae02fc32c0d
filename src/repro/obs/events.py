"""Typed trace events, stamped with virtual-time nanoseconds.

Each event is a frozen dataclass whose first field ``t`` is the virtual
timestamp at which it logically happened.  Event order is the order of
emission (the tracer's list index is the sequence number), which is
deterministic because the whole simulation is: simultaneous events fire
in scheduling order and every workload generator is seeded.

The vocabulary maps one-to-one onto the mechanisms of the paper:

==================  =====================================================
event               emitted by / meaning
==================  =====================================================
:class:`WriteFault`      MMU — a store hit a write-protected page (Fig 6
                         step 2); covers both first-write traps and
                         stores landing on a page mid-flush.
:class:`SyncEviction`    runtime fault handler — the budget was full, the
                         coldest dirty page was synchronously written out
                         (Fig 6 steps 5-7).
:class:`ProactiveFlush`  background copier — a cold page was flushed
                         because the dirty count exceeded
                         ``budget - pressure`` (section 5.3).
:class:`EpochScan`       epoch tick — dirty bits walked + cleared,
                         recency history and pressure updated
                         (sections 5.2-5.3).
:class:`TLBFlush`        TLB — a full flush (epoch-scan prologue or
                         region start).
:class:`SSDWrite`        SSD — one write accepted by the device, with its
                         queueing delay and completion time.
:class:`BudgetWait`      runtime fault handler — every dirty page was
                         already in flight, so the handler stalled until
                         the earliest IO completed.
:class:`FlushComplete`   flusher — a page write-out was acknowledged; the
                         page left the dirty set.
:class:`SSDFault`        fault injector — an injected SSD failure or
                         latency spike hit a submission
                         (:mod:`repro.faults`).
:class:`BatteryDegraded` fault injector — the battery lost capacity
                         mid-run and the runtime retuned its dirty
                         budget (section 8).
:class:`ShardRebalance`  cluster coordinator — a rebalance epoch
                         re-apportioned the shared battery pool across
                         shards (:mod:`repro.cluster`); ``t`` is the
                         epoch index, not virtual nanoseconds.
:class:`BudgetLease`     cluster coordinator — one shard's dirty budget
                         lease for one rebalance epoch; ``t`` is the
                         epoch index, not virtual nanoseconds.
:class:`DemandStarved`   cluster coordinator — a rebalance epoch had no
                         demand signal (zero written keys observed on
                         any active shard), so apportionment fell back
                         to an even split; ``t`` is the epoch index.
:class:`ShardMigration`  cluster coordinator — a ring membership change
                         moved key ranges between shards; ``t`` is the
                         epoch index.
:class:`BudgetHandoff`   cluster coordinator — a joining/leaving shard's
                         budget pages were transferred through the
                         shared pool; ``t`` is the epoch index.
==================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple, Type


@dataclass(frozen=True)
class TraceEvent:
    """Base event: ``t`` is virtual nanoseconds since simulation start."""

    t: int

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def as_dict(self) -> Dict[str, object]:
        """Flat dict with a ``type`` discriminator, for JSON/CSV export."""
        out: Dict[str, object] = {"type": self.type_name}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class WriteFault(TraceEvent):
    """A store trapped on a write-protected page."""

    pfn: int


@dataclass(frozen=True)
class SyncEviction(TraceEvent):
    """The fault handler evicted ``pfn`` because the budget was full.

    ``dirty`` is the dirty count at issue time — the victim stays in the
    dirty set until its IO completes, so this always equals the budget.
    """

    pfn: int
    dirty: int


@dataclass(frozen=True)
class ProactiveFlush(TraceEvent):
    """The background copier issued a flush of cold page ``pfn``."""

    pfn: int
    dirty: int
    threshold: int


@dataclass(frozen=True)
class EpochScan(TraceEvent):
    """One epoch boundary: the dirty-bit walk and everything it feeds."""

    epoch: int
    updated: int          # pages whose dirty bit was set this epoch
    new_dirty: int        # first-dirtied pages this epoch (pressure input)
    dirty: int            # dirty count after the scan
    pressure: float       # EWMA prediction after folding this epoch in
    threshold: int        # proactive trigger now in force


@dataclass(frozen=True)
class TLBFlush(TraceEvent):
    """A full TLB flush; ``entries`` translations were discarded."""

    entries: int


@dataclass(frozen=True)
class SSDWrite(TraceEvent):
    """One write accepted by the SSD at ``t``.

    ``queued_ns`` is time spent waiting for a free service slot;
    ``completion_ns`` is the absolute completion timestamp.
    """

    size_bytes: int
    queued_ns: int
    completion_ns: int


@dataclass(frozen=True)
class BudgetWait(TraceEvent):
    """The fault handler stalled ``wait_ns`` with every dirty page in flight."""

    wait_ns: int


@dataclass(frozen=True)
class FlushComplete(TraceEvent):
    """A flush IO was acknowledged; ``latency_ns`` covers issue-to-ack."""

    pfn: int
    latency_ns: int


@dataclass(frozen=True)
class SSDFault(TraceEvent):
    """The fault injector perturbed one SSD submission.

    ``op`` is ``"write"`` or ``"read"``; ``kind`` is ``"fail"`` (the
    submission raised :class:`repro.storage.ssd.SSDFaultError`) or
    ``"delay"`` (``delay_ns`` of extra device latency was added).
    """

    op: str
    kind: str
    size_bytes: int
    delay_ns: int


@dataclass(frozen=True)
class BatteryDegraded(TraceEvent):
    """The battery lost ``fraction`` of its health at ``t``.

    ``health`` is the post-degradation health factor and ``budget`` the
    dirty budget in force after the runtime's graceful shrink (0 when the
    attached system does not retune).
    """

    fraction: float
    health: float
    budget: int


@dataclass(frozen=True)
class ShardRebalance(TraceEvent):
    """A rebalance epoch re-apportioned the shared battery pool.

    Coordinator-level event: ``t`` carries the rebalance epoch index
    (the cluster planner runs before any shard's virtual clock starts).
    ``moved_pages`` counts budget pages that changed shards relative to
    the previous epoch's leases; ``capacity_pages`` is the pool capacity
    in force (post-degradation) and ``leased_pages`` the sum of leases
    granted this epoch, which conservation bounds by capacity.
    """

    epoch: int
    shards: int
    moved_pages: int
    leased_pages: int
    capacity_pages: int


@dataclass(frozen=True)
class BudgetLease(TraceEvent):
    """One shard's dirty-budget lease for one rebalance epoch.

    Coordinator-level event (``t`` is the epoch index).  ``demand`` is
    the demand signal the rebalancer apportioned by — distinct keys
    written to the shard during the epoch's op segment.
    """

    shard: int
    epoch: int
    pages: int
    demand: int


@dataclass(frozen=True)
class DemandStarved(TraceEvent):
    """A rebalance epoch apportioned with no demand signal.

    Coordinator-level event (``t`` is the epoch index).  The weights the
    planner handed to :func:`repro.cluster.rebalancer.apportion` were
    all zero — short streams or read-heavy segments — so the pool fell
    back to an even split across active shards.  Epoch 0's even split
    is by design (no history exists) and is never flagged.
    """

    epoch: int


@dataclass(frozen=True)
class ShardMigration(TraceEvent):
    """A ring membership change moved key ranges between shards.

    Coordinator-level event (``t`` is the epoch index).  ``action`` is
    ``"add"`` or ``"remove"``; ``moved_keys`` counts live keys (loaded
    records plus earlier inserts) whose owner changed between the old
    and new rings, and
    ``arc_moved`` is the fraction of the hash ring's arc that changed
    ownership.  ``shards_after`` is the active shard count once the
    change is applied.
    """

    epoch: int
    action: str
    shard: int
    moved_keys: int
    arc_moved: float
    shards_after: int


@dataclass(frozen=True)
class BudgetHandoff(TraceEvent):
    """Budget pages transferred through the pool at a membership change.

    Coordinator-level event (``t`` is the epoch index).  ``kind`` is
    ``"release"`` (a leaving shard shrank to the floor and drained its
    above-floor lease back into the pool) or ``"grant"`` (a joining
    shard received its first above-floor lease).  ``pages`` is the
    above-floor page count that changed hands.
    """

    epoch: int
    shard: int
    pages: int
    kind: str


EVENT_TYPES: Tuple[Type[TraceEvent], ...] = (
    WriteFault,
    SyncEviction,
    ProactiveFlush,
    EpochScan,
    TLBFlush,
    SSDWrite,
    BudgetWait,
    FlushComplete,
    SSDFault,
    BatteryDegraded,
    ShardRebalance,
    BudgetLease,
    DemandStarved,
    ShardMigration,
    BudgetHandoff,
)

EVENT_TYPES_BY_NAME: Dict[str, Type[TraceEvent]] = {
    cls.__name__: cls for cls in EVENT_TYPES
}


def event_from_dict(data: Dict[str, object]) -> TraceEvent:
    """Inverse of :meth:`TraceEvent.as_dict` (trace-file loading)."""
    payload = dict(data)
    type_name = payload.pop("type", None)
    if not isinstance(type_name, str) or type_name not in EVENT_TYPES_BY_NAME:
        raise ValueError(f"unknown event type: {type_name!r}")
    return EVENT_TYPES_BY_NAME[type_name](**payload)  # type: ignore[arg-type]
