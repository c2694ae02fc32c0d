"""Tests for the per-figure experiment builders (tiny scales)."""

import pytest

from repro.bench.experiments import (
    CONSERVATIVE_OP,
    DEFAULT_BUDGET_FRACTIONS,
    battery_sizing_rows,
    fig1_table,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    fig7_rows,
    fig8_rows,
    fig9_rows,
    fig10_grids,
    fig10_rows,
    figure_grid,
    stale_bits_ablation,
)
from repro.bench.runner import ExperimentScale
from repro.parallel import run_sweep
from tests.bench.regen_figure_rows import FIXTURE, render

FRACTIONS = (0.12, 0.5)


@pytest.fixture(scope="module")
def sweep():
    grid = figure_grid(300, 600, ("YCSB-A", "YCSB-C"), FRACTIONS)
    return run_sweep(grid)["jobs"]


class TestSweep:
    def test_contains_baselines_and_budgets(self, sweep):
        points = {
            (entry["job"]["workload"], entry["job"]["budget_fraction"])
            for entry in sweep
        }
        assert ("YCSB-A", None) in points
        assert ("YCSB-A", 0.12) in points
        assert ("YCSB-C", 0.5) in points
        assert len(sweep) == 6

    def test_default_fractions_span_the_paper_axis(self):
        gbs = [round(f * 17.5) for f in DEFAULT_BUDGET_FRACTIONS]
        assert gbs == [2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_rows_reproduce_the_parent_fixture(self):
        """Figs 7-10 and ``repro ycsb`` print what the serial loop did."""
        assert render() == FIXTURE.read_text(encoding="utf-8")


class TestFig7(object):
    def test_rows_shape(self, sweep):
        rows = fig7_rows(sweep)
        assert len(rows) == 4  # 2 workloads x 2 budgets
        for row in rows:
            assert {"workload", "budget_gb", "viyojit_kops", "nvdram_kops",
                    "overhead_pct"} <= set(row)

    def test_overhead_decreases_with_budget(self, sweep):
        rows = [r for r in fig7_rows(sweep) if r["workload"] == "YCSB-A"]
        assert rows[0]["budget_gb"] < rows[-1]["budget_gb"]
        assert rows[-1]["overhead_pct"] <= rows[0]["overhead_pct"]


class TestFig8:
    def test_conservative_ops(self):
        assert CONSERVATIVE_OP["YCSB-A"] == "update"
        assert CONSERVATIVE_OP["YCSB-C"] == "read"
        assert CONSERVATIVE_OP["YCSB-D"] == "insert"
        assert CONSERVATIVE_OP["YCSB-F"] == "rmw"

    def test_rows_have_tails_above_baseline(self, sweep):
        rows = fig8_rows(sweep)
        assert rows
        for row in rows:
            # The paper: Viyojit p99 always above the baseline p99.
            assert row["viyojit_p99_ms"] >= row["nvdram_p99_ms"]


class TestFig9:
    def test_write_rates_present(self, sweep):
        rows = fig9_rows(sweep)
        assert len(rows) == 4
        write_heavy = [r for r in rows if r["workload"] == "YCSB-A"]
        read_only = [r for r in rows if r["workload"] == "YCSB-C"]
        # Write-heavy workloads push more flush traffic than read-only.
        assert max(r["write_rate_mb_s"] for r in write_heavy) >= max(
            r["write_rate_mb_s"] for r in read_only
        )


class TestFig10:
    def test_larger_heap_lower_overhead_for_write_heavy(self):
        small, large = (
            run_sweep(grid)["jobs"]
            for grid in fig10_grids(
                300, 600, budget_fractions=(0.12,), workloads=("YCSB-A",)
            )
        )
        rows = fig10_rows(small, large)
        small = next(r for r in rows if r["heap"] == "1x heap")
        large = next(r for r in rows if r["heap"] == "3x heap")
        assert large["overhead_pct"] <= small["overhead_pct"] + 2.0


class TestAblation:
    def test_stale_bits_hurt(self):
        # Needs a budget sized to the hot set for the inversion to show.
        scale = ExperimentScale(record_count=2000, operation_count=5000)
        rows = stale_bits_ablation(scale=scale, budget_fraction=0.12)
        fresh = rows[0]["throughput_kops"]
        stale = rows[1]["throughput_kops"]
        assert stale < fresh
        assert rows[2]["throughput_kops"] > 1.0  # slowdown factor


class TestMotivationFigures:
    def test_fig1(self):
        rows = fig1_table()
        assert rows[-1]["gap"] > rows[0]["gap"]

    def test_fig2_tiny(self):
        rows = fig2_rows(applications=["cosmos"], volume_scale=0.05, seed=1)
        assert len(rows) == 7
        for row in rows:
            assert row["one_minute_pct"] <= row["one_hour_pct"] + 1e-9

    def test_fig3_fig4_relationship(self):
        f3 = fig3_rows(applications=["cosmos"], volume_scale=0.05, seed=1)
        f4 = fig4_rows(applications=["cosmos"], volume_scale=0.05, seed=1)
        for touched, total in zip(f3, f4):
            assert total["p99_pct"] <= touched["p99_pct"] + 1e-9

    def test_fig5_monotone(self):
        rows = fig5_rows(page_counts=(1_000, 10_000, 100_000))
        fractions = [row["fraction_at_90"] for row in rows]
        assert fractions == sorted(fractions, reverse=True)

    def test_battery_sizing(self):
        rows = battery_sizing_rows()
        by_name = {row["quantity"]: row["value"] for row in rows}
        assert by_name["energy for full backup (kJ)"] == pytest.approx(300, rel=0.15)
        assert by_name["smartphone-battery volumes (no derating)"] == pytest.approx(
            11, rel=0.2
        )
        assert by_name[
            "smartphone-battery volumes (DoD 50% + 30% denser penalty)"
        ] > 25
