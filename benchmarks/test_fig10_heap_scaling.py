"""Fig 10: overheads shrink when the heap grows 3x (17.5 -> 52.5 GB).

The paper's scaling argument made empirical: at equal battery *fractions*
(11/23/46%), the larger dataset shows lower overhead because zipf write
skew concentrates — the hot fraction shrinks as the dataset grows (Fig 5).
YCSB-D is omitted exactly as in the paper (its inserts would overflow the
NV-DRAM region at the larger heap size).
"""

import pytest

from repro.bench.experiments import fig10_grids, fig10_rows
from repro.bench.reporting import format_table
from repro.parallel import run_sweep
from conftest import ENGINE_JOBS, bench_scale


def heap_scaling_rows(records, ops, **kwargs):
    """Fig 10's rows from its two sweeps (1x and 3x heap) on the engine."""
    scale = bench_scale(records=records, ops=ops)
    small, large = (
        run_sweep(grid, jobs=ENGINE_JOBS)["jobs"]
        for grid in fig10_grids(
            scale.record_count, scale.operation_count, heap_multiple=3.0, **kwargs
        )
    )
    return fig10_rows(small, large)


@pytest.fixture(scope="module")
def rows():
    return heap_scaling_rows(2000, 8000)


def test_fig10_heap_scaling(benchmark, rows):
    benchmark.pedantic(
        lambda: heap_scaling_rows(600, 1500, budget_fractions=(2 / 17.5,)),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title="Fig 10: throughput overhead (%), 1x vs 3x heap at equal "
            "battery fractions",
        )
    )
    assert {r["heap"] for r in rows} == {"1x heap", "3x heap"}


def test_fig10_larger_heap_lower_overhead(rows):
    """The paper's conclusion: overheads decrease with heap size.

    Checked on the write-heavy workloads where the effect is the signal
    (read-heavy overheads are small at both sizes, within noise).
    """
    wins = 0
    comparisons = 0
    for workload in ("YCSB-A", "YCSB-F", "YCSB-B", "YCSB-C"):
        for row_small in (r for r in rows if r["heap"] == "1x heap"
                          and r["workload"] == workload):
            row_large = next(
                r
                for r in rows
                if r["heap"] == "3x heap"
                and r["workload"] == workload
                and r["budget_pct"] == row_small["budget_pct"]
            )
            comparisons += 1
            if row_large["overhead_pct"] <= row_small["overhead_pct"] + 0.5:
                wins += 1
    assert wins / comparisons >= 0.65, f"only {wins}/{comparisons} improved"


def test_fig10_effect_strongest_for_write_heavy(rows):
    def gap(workload):
        smalls = [r for r in rows if r["heap"] == "1x heap" and r["workload"] == workload]
        larges = [r for r in rows if r["heap"] == "3x heap" and r["workload"] == workload]
        return sum(s["overhead_pct"] for s in smalls) - sum(
            l["overhead_pct"] for l in larges
        )

    assert gap("YCSB-A") > gap("YCSB-C") - 1.0
