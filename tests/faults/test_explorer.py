"""Crash-point exploration: every boundary recovers, deterministically."""

import pytest

from repro.faults.explorer import (
    CANDIDATE_EVENTS,
    CrashPoint,
    explore_crash_points,
)
from repro.faults.harness import build_faulted_run, replay_until_cut
from repro.faults.plan import (
    BatteryDegradationStep,
    FaultPlan,
    PowerCutPoint,
    SSDFaultRule,
)
from repro.obs.events import SyncEviction
from repro.obs.harness import TraceWorkload

SPEC = TraceWorkload(system="viyojit", ops=400)


class TestCleanExploration:
    def test_every_boundary_recovers(self):
        report = explore_crash_points(SPEC)
        assert report.candidates_total > 100
        assert report.probed == report.candidates_total + 1  # + final
        assert report.failures == []
        assert report.all_ok

    def test_all_candidate_kinds_observed(self):
        report = explore_crash_points(SPEC)
        kinds = {p.kind for p in report.points}
        # A budget-bound zipfian run exercises faults, evictions,
        # proactive flushes, and completions.
        for kind in CANDIDATE_EVENTS:
            assert kind in kinds, f"no {kind} boundary explored"

    def test_stride_samples_subset(self):
        full = explore_crash_points(SPEC)
        sampled = explore_crash_points(SPEC, stride=10)
        assert sampled.candidates_total == full.candidates_total
        assert sampled.probed < full.probed
        assert sampled.all_ok

    def test_replay_cross_validation_matches(self):
        report = explore_crash_points(SPEC, replay=5)
        assert len(report.replays) == 5
        assert report.replay_mismatches == 0

    def test_deterministic_checksum(self):
        assert (
            explore_crash_points(SPEC).checksum()
            == explore_crash_points(SPEC).checksum()
        )

    def test_hardware_variant_explorable(self):
        spec = TraceWorkload(system="hardware", ops=300)
        report = explore_crash_points(spec, replay=2)
        assert report.all_ok
        assert report.candidates_total > 0


class TestBaselineExploration:
    def test_op_stride_probes_baseline(self):
        spec = TraceWorkload(system="nvdram", ops=400)
        report = explore_crash_points(spec, op_stride=25)
        assert report.candidates_total == 0  # baseline emits no boundaries
        assert report.probed == 400 // 25 + 1
        assert report.all_ok

    def test_op_stride_composes_with_events(self):
        report = explore_crash_points(SPEC, op_stride=50)
        op_points = [p for p in report.points if p.kind == "op"]
        assert len(op_points) == SPEC.ops // 50
        assert report.all_ok


class TestFaultyExploration:
    def test_injected_write_failures_never_lose_data(self):
        plan = FaultPlan(
            seed=5, ssd_rules=(SSDFaultRule(op="write", fail_prob=0.02),)
        )
        report = explore_crash_points(SPEC, plan)
        assert report.injected_failures > 0
        assert report.flush_retries == report.injected_failures
        assert report.all_ok

    def test_degrading_battery_loses_data_only_in_drain_window(self):
        """Sudden capacity loss opens a *bounded* vulnerability window.

        While the dirty set (sized for the old budget) exceeds what the
        degraded battery can flush, a crash would lose data — physics,
        not a bug.  Section 8's guarantee is the response: the budget
        shrinks immediately and the excess drains at SSD speed.  The
        explorer must (a) flag those window instants honestly, (b) show
        nothing *corrupt* anywhere, and (c) show every boundary after
        the drain safe again.
        """
        step_ns = 800_000
        plan = FaultPlan(
            battery_steps=(
                BatteryDegradationStep(at_ns=step_ns, fraction=0.3),
                BatteryDegradationStep(at_ns=2 * step_ns, fraction=0.3),
            )
        )
        report = explore_crash_points(SPEC, plan)
        # Losses can only appear after the first degradation instant and
        # only while the dirty set still exceeds the degraded budget.
        shrunk_budget = int(SPEC.dirty_budget_pages * 0.7)
        assert report.failures, "expected a transient vulnerability window"
        for point in report.failures:
            assert point.t_ns >= step_ns
            assert point.dirty_pages > shrunk_budget
            assert point.pages_corrupt == 0
        # The drain closes the window: the terminal boundary is safe.
        assert report.points[-1].kind == "final"
        assert report.points[-1].ok
        # And every probed instant recovered all non-window pages intact.
        assert all(p.pages_corrupt == 0 for p in report.points)

    def test_degraded_battery_safe_after_drain(self):
        """Once the graceful shrink has drained, exploration is clean.

        Degrade *before* the workload touches anything: there is no
        excess dirty set to drain, so no window — every boundary of the
        whole run must be safe under the shrunken budget.
        """
        plan = FaultPlan(
            battery_steps=(BatteryDegradationStep(at_ns=1, fraction=0.4),)
        )
        report = explore_crash_points(SPEC, plan)
        assert report.all_ok

    def test_plan_event_cut_ends_the_exploration(self):
        """A plan's ``on_event`` cut fires in the explored run too.

        The cut lands on the third SyncEviction of an uncut run of the
        same spec, the stream stops short, and every boundary probed up
        to the cut (and the cut instant itself) recovers.
        """
        reference = build_faulted_run(SPEC)
        replay_until_cut(reference)
        evictions = reference.tracer.events_of(SyncEviction)
        plan = FaultPlan(
            power_cut=PowerCutPoint(on_event="SyncEviction", occurrence=3)
        )
        report = explore_crash_points(SPEC, plan, replay=2)
        assert report.power_cut_at_ns == evictions[2].t
        assert report.ops_applied < SPEC.ops
        assert report.points[-1].kind == "final"
        assert len(report.replays) == 2
        assert report.all_ok

    def test_faulty_run_is_deterministic(self):
        plan = FaultPlan(
            seed=9,
            ssd_rules=(SSDFaultRule(op="write", fail_prob=0.02, delay_prob=0.1),),
        )
        a = explore_crash_points(SPEC, plan, replay=3)
        b = explore_crash_points(SPEC, plan, replay=3)
        assert a.as_dict() == b.as_dict()


class TestReportShape:
    def test_failures_flip_all_ok(self):
        report = explore_crash_points(SPEC, stride=100)
        assert report.all_ok
        report.failures.append(
            CrashPoint(
                index=0, t_ns=0, kind="SyncEviction", detail=1,
                dirty_pages=5, survives=False, pages_lost=2, pages_corrupt=0,
            )
        )
        assert not report.all_ok

    def test_crash_point_ok_logic(self):
        good = CrashPoint(index=0, t_ns=0, kind="op", detail=0,
                          dirty_pages=1, survives=True,
                          pages_lost=0, pages_corrupt=0)
        assert good.ok
        bad = CrashPoint(index=0, t_ns=0, kind="op", detail=0,
                         dirty_pages=1, survives=True,
                         pages_lost=1, pages_corrupt=0)
        assert not bad.ok

    def test_as_dict_is_json_shaped(self):
        import json

        report = explore_crash_points(SPEC, stride=50, replay=1)
        text = json.dumps(report.as_dict(), sort_keys=True)
        assert "checksum" in text


class TestTracerValidation:
    def test_explorer_rejects_bad_stride(self):
        for stride in (0, -1):
            with pytest.raises(ValueError, match="stride"):
                explore_crash_points(SPEC, stride=stride)

    def test_explorer_rejects_bad_args(self):
        with pytest.raises(ValueError):
            explore_crash_points(SPEC, replay=-1)
        with pytest.raises(ValueError):
            explore_crash_points(SPEC, op_stride=-1)
