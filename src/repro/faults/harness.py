"""Run the shared trace workload under a fault plan, verify survival.

Builds the full bundle one adversarial run needs — simulation, runtime,
properly-sized battery, power model, crash simulator, fault injector —
around the same :class:`repro.obs.harness.TraceWorkload` op stream the
golden traces use.  Battery sizing follows the paper: Viyojit provisions
for its dirty budget (:func:`repro.core.crash.viyojit_battery`), the
baseline for the whole region (:func:`repro.core.crash.
full_backup_battery`), so the durability invariant is exactly as tight
as the paper claims — no slack hiding injected damage.

:func:`replay_until_cut` is the one replay of a faulted run: the op
stream one op at a time through :func:`repro.obs.harness.replay_ops`
until it ends or the plan cuts power, then a drain if it was not cut.
:func:`run_faulted_workload` and both passes of the crash-point explorer
run it.  If the plan cuts power, the
:class:`~repro.faults.injector.PowerCut` is caught mid-op and the crash
simulator verifies that recovery reconstructs every page from durable
state; otherwise the run drains and the final state is verified the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.crash import (
    CrashReport,
    CrashSimulator,
    RecoveryReport,
    full_backup_battery,
    viyojit_battery,
)
from repro.core.runtime import Mapping, NVDRAMSystem, Viyojit
from repro.faults.injector import BoundaryTracer, FaultInjector, PowerCut
from repro.faults.plan import FaultPlan
from repro.obs.harness import TraceWorkload, build_system, replay_ops
from repro.obs.tracer import RecordingTracer, Tracer
from repro.power.battery import Battery
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation


@dataclass
class FaultRunBundle:
    """Everything :func:`build_faulted_run` wires together."""

    spec: TraceWorkload
    plan: FaultPlan
    sim: Simulation
    system: NVDRAMSystem
    mapping: Mapping
    battery: Battery
    power_model: PowerModel
    crash_sim: CrashSimulator
    injector: FaultInjector
    tracer: Tracer


@dataclass
class FaultRunResult:
    """Outcome of one :func:`run_faulted_workload`: what fired, what survived."""

    spec: TraceWorkload
    plan: FaultPlan
    ops_applied: int
    power_cut: Optional[PowerCut]
    crash: CrashReport
    recovery: RecoveryReport
    injected_failures: int
    injected_delays: int
    battery_degradations: int
    flush_retries: int
    final_budget: Optional[int]

    @property
    def survived(self) -> bool:
        """Did the (possibly cut) run lose or corrupt nothing?"""
        return self.crash.survives and self.recovery.intact

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.spec.as_meta(),
            "fault_plan": self.plan.to_dict(),
            "ops_applied": self.ops_applied,
            "power_cut": (
                {"at_ns": self.power_cut.at_ns, "source": self.power_cut.source}
                if self.power_cut is not None
                else None
            ),
            "survived": self.survived,
            "crash": {
                "dirty_pages": self.crash.dirty_pages,
                "dirty_bytes": self.crash.dirty_bytes,
                "energy_margin_joules": self.crash.energy_margin_joules,
                "pages_lost": self.crash.pages_lost,
            },
            "recovery": {
                "pages_checked": self.recovery.pages_checked,
                "pages_corrupt": self.recovery.pages_corrupt,
                "pages_lost": self.recovery.pages_lost,
            },
            "injected": {
                "ssd_failures": self.injected_failures,
                "ssd_delays": self.injected_delays,
                "battery_degradations": self.battery_degradations,
                "flush_retries": self.flush_retries,
            },
            "final_budget": self.final_budget,
        }


def _battery_for(
    spec: TraceWorkload, system: NVDRAMSystem, power_model: PowerModel
) -> Battery:
    page_size = system.region.page_size
    if spec.system == "nvdram":
        return full_backup_battery(power_model, spec.num_pages * page_size)
    return viyojit_battery(power_model, spec.dirty_budget_pages * page_size)


def build_faulted_run(
    spec: TraceWorkload,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    power_model: Optional[PowerModel] = None,
) -> FaultRunBundle:
    """Construct (started) system + battery + crash sim + armed injector.

    ``tracer`` defaults to a fresh :class:`BoundaryTracer`.  The plan's
    power cut is armed by the injector; an event cut is a watch on the
    run's tracer, so a tracer that is not a :class:`BoundaryTracer`
    (``NULL_TRACER`` included) makes such a plan raise ``ValueError``.
    """
    if plan is None:
        plan = FaultPlan()
    if power_model is None:
        power_model = PowerModel()
    if tracer is None:
        tracer = BoundaryTracer()
    sim = Simulation()
    system = build_system(sim, spec, tracer)
    mapping = system.mmap(spec.hot_pages * system.region.page_size)
    battery = _battery_for(spec, system, power_model)
    crash_sim = CrashSimulator(system, power_model, battery)
    injector = FaultInjector(plan, sim, tracer=tracer)
    injector.attach(
        ssd=system.ssd if isinstance(system, Viyojit) else None,
        system=system if isinstance(system, Viyojit) else None,
        battery=battery,
        power_model=power_model,
    )
    return FaultRunBundle(
        spec=spec,
        plan=plan,
        sim=sim,
        system=system,
        mapping=mapping,
        battery=battery,
        power_model=power_model,
        crash_sim=crash_sim,
        injector=injector,
        tracer=tracer,
    )


def replay_until_cut(
    bundle: FaultRunBundle, after_op: Optional[Callable[[int], None]] = None
) -> Tuple[int, Optional[PowerCut]]:
    """Replay the bundle's op stream until it ends or power is cut.

    Ops go one at a time through :func:`replay_ops`, and ``after_op``
    (if given) runs after each with the number completed so far.  A
    stream that ends uncut is drained (controlled shutdown), so residual
    dirty pages don't depend on where it stopped.  Returns the ops
    completed and the :class:`PowerCut`, if one fired.
    """
    system = bundle.system
    done = 0
    try:
        for done in replay_ops(
            system, bundle.mapping.base_addr, bundle.spec, per_op=True
        ):
            if after_op is not None:
                after_op(done)
        if isinstance(system, Viyojit):
            system.drain()
    except PowerCut as cut:
        return done, cut
    return done, None


def run_faulted_workload(
    spec: TraceWorkload,
    plan: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
    power_model: Optional[PowerModel] = None,
) -> FaultRunResult:
    """Replay ``spec`` with ``plan`` armed and verify durability.

    :func:`replay_until_cut` runs the stream; then the crash simulator
    assesses the instant it stopped at: the battery must cover the dirty
    set and recovery must rebuild every page.
    """
    if tracer is not None and not isinstance(tracer, RecordingTracer):
        raise TypeError("run_faulted_workload requires a RecordingTracer")
    bundle = build_faulted_run(spec, plan, tracer, power_model)
    system = bundle.system
    ops_applied, cut = replay_until_cut(bundle)
    crash = bundle.crash_sim.power_failure()
    recovery = bundle.crash_sim.crash_and_recover()
    flusher = system.flusher if isinstance(system, Viyojit) else None
    return FaultRunResult(
        spec=bundle.spec,
        plan=bundle.plan,
        ops_applied=ops_applied,
        power_cut=cut,
        crash=crash,
        recovery=recovery,
        injected_failures=bundle.injector.injected_failures,
        injected_delays=bundle.injector.injected_delays,
        battery_degradations=bundle.injector.battery_degradations,
        flush_retries=flusher.retries if flusher is not None else 0,
        final_budget=(
            system.dirty_budget_pages if isinstance(system, Viyojit) else None
        ),
    )
