"""Exhaustive crash-point exploration (``repro crashfind``).

The durability claim is universally quantified: *at any instant* the
battery covers the dirty set and recovery rebuilds every page.  Hand
written crash tests sample a handful of instants; this module checks the
claim at **every interesting boundary** of a seeded run:

* ``WriteFault`` — a store just trapped (pre-dirtying),
* ``SyncEviction`` — the fault handler just issued a budget eviction,
* ``ProactiveFlush`` — the background copier just issued a flush,
* ``FlushComplete`` — a flush IO just landed (post-cleaning),

plus optional fixed op-stride boundaries (the full-battery baseline
emits none of the above, so stride sampling is its only probe source).

Two verification modes, cross-validated against each other:

**Inline probing** exploits the fact that
:meth:`repro.core.crash.CrashSimulator.crash_and_recover` is a pure read
of simulation state: a watch on the run's
:class:`~repro.faults.injector.BoundaryTracer` checks recovery *at
emission time* of every candidate, so one pass over the workload
explores thousands of crash points.  **Replay** re-runs the whole
workload and raises a real :class:`~repro.faults.injector.PowerCut` at
the Nth candidate — the exception unwinds out of the application exactly
like a power failure — then verifies recovery from the interrupted
state.  Determinism makes the two agree boundary-for-boundary; the
report records any mismatch.  Both passes replay through
:func:`~repro.faults.harness.replay_until_cut` with the plan armed, so a
plan's own power cut ends each of them at the same instant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.runtime import Viyojit
from repro.faults.harness import FaultRunBundle, build_faulted_run, replay_until_cut
from repro.faults.injector import BoundaryCallback, BoundaryTracer, PowerCut
from repro.faults.plan import FaultPlan
from repro.obs.events import TraceEvent
from repro.obs.harness import TraceWorkload
from repro.power.power_model import PowerModel

#: Trace-event boundaries treated as candidate crash instants, in the
#: fixed order used to number candidates.
CANDIDATE_EVENTS = ("WriteFault", "SyncEviction", "ProactiveFlush", "FlushComplete")


@dataclass(frozen=True)
class CrashPoint:
    """One explored crash instant and its verification outcome."""

    index: int        # candidate ordinal in emission order (-1 for op/final)
    t_ns: int
    kind: str         # event type name, "op", or "final"
    detail: int       # pfn for event candidates, op number for "op"
    dirty_pages: int
    survives: bool    # battery covered the dirty set
    pages_lost: int
    pages_corrupt: int

    @property
    def ok(self) -> bool:
        return self.survives and self.pages_lost == 0 and self.pages_corrupt == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "t_ns": self.t_ns,
            "kind": self.kind,
            "detail": self.detail,
            "dirty_pages": self.dirty_pages,
            "survives": self.survives,
            "pages_lost": self.pages_lost,
            "pages_corrupt": self.pages_corrupt,
        }


@dataclass(frozen=True)
class ReplayCheck:
    """One replay-mode cross-validation of an inline outcome."""

    index: int
    cut_t_ns: int
    matches: bool


@dataclass
class ExplorationReport:
    """Everything one ``repro crashfind`` invocation learned."""

    spec: TraceWorkload
    plan: FaultPlan
    candidates_total: int
    probed: int
    failures: List[CrashPoint] = field(default_factory=list)
    points: List[CrashPoint] = field(default_factory=list)
    replays: List[ReplayCheck] = field(default_factory=list)
    ops_applied: int = 0
    max_dirty_pages: int = 0
    injected_failures: int = 0
    injected_delays: int = 0
    flush_retries: int = 0
    power_cut_at_ns: Optional[int] = None

    @property
    def all_ok(self) -> bool:
        return not self.failures and all(r.matches for r in self.replays)

    @property
    def replay_mismatches(self) -> int:
        return sum(1 for r in self.replays if not r.matches)

    def checksum(self) -> str:
        """Stable digest of every probed outcome (determinism oracle)."""
        digest = hashlib.sha256()
        for point in self.points:
            digest.update(
                json.dumps(point.as_dict(), sort_keys=True).encode("utf-8")
            )
        return digest.hexdigest()

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.spec.as_meta(),
            "fault_plan": self.plan.to_dict(),
            "candidates_total": self.candidates_total,
            "probed": self.probed,
            "ops_applied": self.ops_applied,
            "max_dirty_pages": self.max_dirty_pages,
            "failures": [p.as_dict() for p in self.failures],
            "replays": [
                {"index": r.index, "cut_t_ns": r.cut_t_ns, "matches": r.matches}
                for r in self.replays
            ],
            "injected": {
                "ssd_failures": self.injected_failures,
                "ssd_delays": self.injected_delays,
                "flush_retries": self.flush_retries,
            },
            "power_cut_at_ns": self.power_cut_at_ns,
            "all_ok": self.all_ok,
            "checksum": self.checksum(),
        }


def _event_detail(event: TraceEvent) -> int:
    pfn = getattr(event, "pfn", None)
    return int(pfn) if pfn is not None else 0


def _probe_now(
    bundle: FaultRunBundle,
    kind: str,
    detail: int,
    index: int,
    t_ns: Optional[int] = None,
) -> CrashPoint:
    crash = bundle.crash_sim.power_failure()
    recovery = bundle.crash_sim.crash_and_recover()
    return CrashPoint(
        index=index,
        # Event candidates stamp the event's own time (a completion may
        # be applied after the clock already moved past it); other kinds
        # use the clock.
        t_ns=t_ns if t_ns is not None else bundle.sim.now,
        kind=kind,
        detail=detail,
        dirty_pages=crash.dirty_pages,
        survives=crash.survives,
        pages_lost=len(recovery.pages_lost),
        pages_corrupt=len(recovery.pages_corrupt),
    )


def explore_crash_points(
    spec: TraceWorkload,
    plan: Optional[FaultPlan] = None,
    stride: int = 1,
    op_stride: int = 0,
    replay: int = 0,
    power_model: Optional[PowerModel] = None,
) -> ExplorationReport:
    """Explore every (``stride``-sampled) crash point of a seeded run.

    Parameters
    ----------
    spec / plan:
        The deterministic workload and the (optionally fault-injecting)
        plan to run it under.
    stride:
        Probe every ``stride``-th candidate event boundary (1 = all).
    op_stride:
        Additionally probe after every Nth applied op (0 = off).  The
        full-battery baseline emits no candidate events, so this is its
        probe source.
    replay:
        Cross-validate up to this many probed event boundaries by
        re-running the workload with a real power cut at that boundary
        and comparing the interrupted-state verification against the
        inline outcome.
    """
    if plan is None:
        plan = FaultPlan()
    if stride < 1:
        raise ValueError(f"stride must be >= 1: {stride}")
    if replay < 0:
        raise ValueError(f"replay must be non-negative: {replay}")
    if op_stride < 0:
        raise ValueError(f"op_stride must be non-negative: {op_stride}")
    tracer = BoundaryTracer()
    bundle = build_faulted_run(spec, plan, tracer, power_model)
    system = bundle.system
    report = ExplorationReport(
        spec=spec, plan=bundle.plan, candidates_total=0, probed=0
    )

    def record(point: CrashPoint) -> None:
        report.probed += 1
        report.points.append(point)
        if not point.ok:
            report.failures.append(point)

    def probe(index: int, event: TraceEvent) -> None:
        if index % stride == 0:
            record(
                _probe_now(
                    bundle, event.type_name, _event_detail(event), index, event.t
                )
            )

    def after_op(done: int) -> None:
        if isinstance(system, Viyojit):
            report.max_dirty_pages = max(report.max_dirty_pages, system.dirty_count)
        if op_stride and done % op_stride == 0:
            record(_probe_now(bundle, "op", done - 1, -1))

    candidates = tracer.watch(CANDIDATE_EVENTS, probe)
    report.ops_applied, cut = replay_until_cut(bundle, after_op)
    if cut is not None:
        report.power_cut_at_ns = cut.at_ns
    # The terminal boundary: post-drain (or post-cut) state must recover.
    record(_probe_now(bundle, "final", 0, -1))
    report.candidates_total = candidates.count
    report.injected_failures = bundle.injector.injected_failures
    report.injected_delays = bundle.injector.injected_delays
    if isinstance(system, Viyojit):
        report.flush_retries = system.flusher.retries
    if replay:
        _replay_validate(report, replay, power_model)
    return report


def _cut_at_candidate(target: int) -> BoundaryCallback:
    """A watch callback that cuts power at the ``target``-th candidate."""

    def cut(index: int, event: TraceEvent) -> None:
        if index == target:
            raise PowerCut(event.t, f"candidate#{index}")

    return cut


def _replay_validate(
    report: ExplorationReport, replay: int, power_model: Optional[PowerModel]
) -> None:
    """Re-run the workload with real power cuts at sampled boundaries."""
    event_points = [p for p in report.points if p.kind in CANDIDATE_EVENTS]
    if not event_points:
        return
    step = max(1, len(event_points) // replay)
    targets = event_points[::step][:replay]
    for inline in targets:
        tracer = BoundaryTracer()
        bundle = build_faulted_run(report.spec, report.plan, tracer, power_model)
        tracer.watch(CANDIDATE_EVENTS, _cut_at_candidate(inline.index))
        _, cut = replay_until_cut(bundle)
        if cut is None:
            report.replays.append(
                ReplayCheck(index=inline.index, cut_t_ns=-1, matches=False)
            )
            continue
        crash = bundle.crash_sim.power_failure()
        recovery = bundle.crash_sim.crash_and_recover()
        matches = (
            cut.at_ns == inline.t_ns
            and crash.survives == inline.survives
            and len(recovery.pages_lost) == inline.pages_lost
            and len(recovery.pages_corrupt) == inline.pages_corrupt
        )
        report.replays.append(
            ReplayCheck(index=inline.index, cut_t_ns=cut.at_ns, matches=matches)
        )
