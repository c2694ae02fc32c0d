"""FaultInjector channels: SSD hook, battery steps, power cuts."""

import pytest

from repro.faults.harness import (
    build_faulted_run,
    replay_until_cut,
    run_faulted_workload,
)
from repro.faults.injector import BoundaryTracer, FaultInjector
from repro.faults.plan import (
    BatteryDegradationStep,
    FaultPlan,
    PowerCutPoint,
    SSDFaultRule,
)
from repro.obs.events import BatteryDegraded, SSDFault, SyncEviction
from repro.obs.harness import TraceWorkload
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import Simulation
from repro.storage.ssd import SSD, SSDFaultError

SPEC = TraceWorkload(system="viyojit", ops=400)


class TestSSDChannel:
    def test_fail_every_is_deterministic(self):
        plan = FaultPlan(ssd_rules=(SSDFaultRule(op="write", fail_every=3),))
        sim = Simulation()
        ssd = SSD()
        injector = FaultInjector(plan, sim)
        injector.attach(ssd=ssd)
        outcomes = []
        for _ in range(9):
            try:
                ssd.submit_write(sim.now, 4096)
                outcomes.append("ok")
            except SSDFaultError:
                outcomes.append("fail")
        assert outcomes == ["ok", "ok", "fail"] * 3
        assert injector.injected_failures == 3

    def test_rejected_submission_leaves_counters_untouched(self):
        plan = FaultPlan(ssd_rules=(SSDFaultRule(op="write", fail_every=1),))
        sim = Simulation()
        ssd = SSD()
        FaultInjector(plan, sim).attach(ssd=ssd)
        with pytest.raises(SSDFaultError):
            ssd.submit_write(0, 4096)
        assert ssd.stats.writes == 0
        assert ssd.stats.bytes_written == 0
        assert ssd.earliest_free_slot() == 0

    def test_delay_adds_latency(self):
        sim = Simulation()
        plain = SSD()
        delayed = SSD()
        plan = FaultPlan(
            ssd_rules=(SSDFaultRule(op="write", delay_prob=1.0, delay_ns=500_000),)
        )
        FaultInjector(plan, sim).attach(ssd=delayed)
        assert delayed.submit_write(0, 4096) == plain.submit_write(0, 4096) + 500_000

    def test_probabilistic_stream_is_seeded(self):
        def failures(seed):
            plan = FaultPlan(
                seed=seed, ssd_rules=(SSDFaultRule(op="write", fail_prob=0.3),)
            )
            sim = Simulation()
            ssd = SSD()
            injector = FaultInjector(plan, sim)
            injector.attach(ssd=ssd)
            out = []
            for index in range(200):
                try:
                    ssd.submit_write(index * 1_000, 4096)
                    out.append(0)
                except SSDFaultError:
                    out.append(1)
            return out

        assert failures(5) == failures(5)
        assert failures(5) != failures(6)

    def test_read_rules_do_not_hit_writes(self):
        plan = FaultPlan(ssd_rules=(SSDFaultRule(op="read", fail_every=1),))
        sim = Simulation()
        ssd = SSD()
        FaultInjector(plan, sim).attach(ssd=ssd)
        ssd.submit_write(0, 4096)  # must not raise
        with pytest.raises(SSDFaultError):
            ssd.submit_read(0, 4096)

    def test_attach_without_ssd_is_loud(self):
        plan = FaultPlan(ssd_rules=(SSDFaultRule(fail_every=1),))
        with pytest.raises(ValueError):
            FaultInjector(plan, Simulation()).attach(ssd=None)

    def test_detach_removes_hook(self):
        plan = FaultPlan(ssd_rules=(SSDFaultRule(op="write", fail_every=1),))
        sim = Simulation()
        ssd = SSD()
        injector = FaultInjector(plan, sim)
        injector.attach(ssd=ssd)
        injector.detach()
        ssd.submit_write(0, 4096)  # hook gone, no raise

    def test_fault_events_traced(self):
        plan = FaultPlan(
            ssd_rules=(SSDFaultRule(op="write", fail_prob=0.05),)
        )
        result = run_faulted_workload(SPEC, plan)
        assert result.injected_failures > 0
        # SSDFault events landed in the trace with kind="fail".
        bundle = build_faulted_run(SPEC, plan)
        replay_until_cut(bundle)
        faults = bundle.tracer.events_of(SSDFault)
        assert faults
        assert all(f.kind in ("fail", "delay") for f in faults)


class TestBatteryChannel:
    def test_step_degrades_and_shrinks_budget(self):
        plan = FaultPlan(
            battery_steps=(BatteryDegradationStep(at_ns=1_000_000, fraction=0.5),)
        )
        result = run_faulted_workload(SPEC, plan)
        assert result.battery_degradations == 1
        # Exactly-sized battery: half the health, half the budget.
        assert result.final_budget == SPEC.dirty_budget_pages // 2
        assert result.survived

    def test_degraded_event_traced(self):
        plan = FaultPlan(
            battery_steps=(BatteryDegradationStep(at_ns=1_000_000, fraction=0.25),)
        )
        bundle = build_faulted_run(SPEC, plan)
        replay_until_cut(bundle)
        events = bundle.tracer.events_of(BatteryDegraded)
        assert len(events) == 1
        assert events[0].fraction == 0.25
        assert events[0].health == 0.75
        assert events[0].budget == bundle.system.dirty_budget_pages

    def test_repeated_steps_keep_shrinking(self):
        plan = FaultPlan(
            battery_steps=(
                BatteryDegradationStep(at_ns=500_000, fraction=0.5),
                BatteryDegradationStep(at_ns=1_500_000, fraction=0.5),
            )
        )
        result = run_faulted_workload(SPEC, plan)
        assert result.battery_degradations == 2
        assert result.final_budget == SPEC.dirty_budget_pages // 4
        assert result.survived

    def test_degradation_below_dirty_set_drains_excess(self):
        # A brutal degradation while the dirty set is full: the runtime
        # must drain down to the new budget, keeping the invariant.
        plan = FaultPlan(
            battery_steps=(BatteryDegradationStep(at_ns=1_000_000, fraction=0.75),)
        )
        result = run_faulted_workload(SPEC, plan)
        assert result.final_budget == SPEC.dirty_budget_pages // 4
        assert result.survived
        assert result.crash.dirty_pages <= result.final_budget

    def test_attach_without_battery_is_loud(self):
        plan = FaultPlan(
            battery_steps=(BatteryDegradationStep(at_ns=0, fraction=0.1),)
        )
        with pytest.raises(ValueError):
            FaultInjector(plan, Simulation()).attach(ssd=SSD())


class TestPowerCutChannel:
    def test_cut_at_instant(self):
        plan = FaultPlan(power_cut=PowerCutPoint(at_ns=1_500_000))
        result = run_faulted_workload(SPEC, plan)
        assert result.power_cut is not None
        assert result.power_cut.at_ns == 1_500_000
        assert result.ops_applied < SPEC.ops
        assert result.survived

    def test_cut_on_event_occurrence(self):
        plan = FaultPlan(
            power_cut=PowerCutPoint(on_event="SyncEviction", occurrence=5)
        )
        bundle = build_faulted_run(SPEC, plan)
        assert isinstance(bundle.tracer, BoundaryTracer)
        result = run_faulted_workload(SPEC, plan)
        assert result.power_cut is not None
        assert result.power_cut.source == "event:SyncEviction#5"
        assert result.survived

    def test_cut_instant_matches_nth_event(self):
        # The cut time equals the 5th SyncEviction's timestamp from an
        # uncut reference run: seeded determinism across fault modes.
        reference = build_faulted_run(SPEC)
        replay_until_cut(reference)
        evictions = reference.tracer.events_of(SyncEviction)
        assert len(evictions) >= 5
        plan = FaultPlan(
            power_cut=PowerCutPoint(on_event="SyncEviction", occurrence=5)
        )
        result = run_faulted_workload(SPEC, plan)
        assert result.power_cut is not None
        assert result.power_cut.at_ns == evictions[4].t

    def test_event_cut_without_a_boundary_tracer_is_loud(self):
        # NULL_TRACER emits nothing, so the cut could never fire.
        plan = FaultPlan(
            power_cut=PowerCutPoint(on_event="SyncEviction", occurrence=3)
        )
        with pytest.raises(ValueError, match="SyncEviction"):
            build_faulted_run(SPEC, plan, NULL_TRACER)

    def test_cut_recovery_reconstructs_every_page(self):
        plan = FaultPlan(power_cut=PowerCutPoint(at_ns=2_000_000))
        result = run_faulted_workload(SPEC, plan)
        assert result.power_cut is not None
        assert result.recovery.intact
        assert result.recovery.pages_checked > 0
        assert result.crash.survives


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        plan = FaultPlan(
            seed=3,
            ssd_rules=(SSDFaultRule(op="write", fail_prob=0.02, delay_prob=0.05),),
            battery_steps=(BatteryDegradationStep(at_ns=1_200_000, fraction=0.3),),
        )
        a = run_faulted_workload(SPEC, plan)
        b = run_faulted_workload(SPEC, plan)
        assert a.as_dict() == b.as_dict()
