"""Deterministic fault injection and crash-point exploration.

The Viyojit durability argument is only as good as its behaviour under
adversity: device hiccups during the battery-powered flush window,
batteries that lose capacity mid-run (section 8), and power failures at
*any* instant — not just the convenient ones a hand-written test picks.
This package turns those adversities into seeded, replayable inputs:

:mod:`repro.faults.plan`
    :class:`FaultPlan` — a frozen, JSON-serialisable description of what
    goes wrong and when (SSD failure/delay rules, battery degradation
    steps, a power-cut point).
:mod:`repro.faults.injector`
    :class:`FaultInjector` — arms a plan against a live simulation:
    installs the SSD fault hook, schedules battery degradation (with the
    runtime's graceful budget shrink), and cuts power at a virtual-time
    instant or at the Nth occurrence of any trace event, the latter as a
    watch on the run's :class:`BoundaryTracer`.
:mod:`repro.faults.harness`
    Builds a full system + battery + crash-simulator bundle around the
    shared :class:`repro.obs.harness.TraceWorkload` op stream and replays
    it under a plan until the stream ends or the power is cut
    (:func:`replay_until_cut`), verifying recovery either way.
:mod:`repro.faults.explorer`
    Exhaustive crash-point exploration: every flush/eviction/fault
    boundary of a seeded run is a candidate crash instant; each one is
    checked for full recovery (``repro crashfind``).

Everything is a pure function of (workload spec, fault plan): two runs
with the same seeds produce identical injections, identical crash
points, and identical reports.
"""

from repro.faults.explorer import (
    CANDIDATE_EVENTS,
    CrashPoint,
    ExplorationReport,
    explore_crash_points,
)
from repro.faults.harness import (
    FaultRunResult,
    build_faulted_run,
    replay_until_cut,
    run_faulted_workload,
)
from repro.faults.injector import BoundaryTracer, FaultInjector, PowerCut
from repro.faults.plan import (
    BatteryDegradationStep,
    FaultPlan,
    FaultPlanError,
    PowerCutPoint,
    SSDFaultRule,
    load_fault_plan,
)

__all__ = [
    "BatteryDegradationStep",
    "BoundaryTracer",
    "CANDIDATE_EVENTS",
    "CrashPoint",
    "ExplorationReport",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRunResult",
    "PowerCut",
    "PowerCutPoint",
    "SSDFaultRule",
    "build_faulted_run",
    "explore_crash_points",
    "load_fault_plan",
    "replay_until_cut",
    "run_faulted_workload",
]
