"""Parameter-sensitivity sweeps (section 6.1's unplotted result).

The paper: *"We present the results with our system configured [to] have
no more than 16 outstanding IO requests at any point of time and an epoch
duration of 1 ms.  We experimented with other values for both of these
parameters and the results were similar, hence we do not present them
here."*

This bench reproduces that robustness claim quantitatively: YCSB-A at
~11% battery across epoch durations of 0.25-2 ms and IO caps of
4/8/16/32 — throughput must stay within a narrow band of the default
configuration.

One boundary is worth knowing (and is asserted as such): the paper's
threshold rule ``budget - pressure`` presumes the per-epoch new-dirty
count is small against the budget.  Stretch the epoch until per-epoch
pressure *reaches* the budget (4 ms at this simulation's scaled budget)
and the threshold pins at zero, turning the background copier into a
flush-everything loop that thrashes hot pages.  The authors' 2-19 GB
budgets are ~4 orders of magnitude above their per-epoch dirty rates, so
their sweep never entered this regime.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import YCSBRunner
from repro.core.config import ViyojitConfig
from repro.core.runtime import Viyojit
from repro.sim.clock import NS_PER_MS
from repro.sim.events import Simulation
from repro.workloads.ycsb import YCSB_A
from conftest import bench_scale

BUDGET_FRACTION = 2 / 17.5


def run(epoch_ms: float, io_cap: int, scale) -> dict:
    sim = Simulation()
    system = Viyojit(
        sim,
        num_pages=scale.region_pages,
        config=ViyojitConfig(
            dirty_budget_pages=scale.budget_pages_for_fraction(BUDGET_FRACTION),
            epoch_ns=int(epoch_ms * NS_PER_MS),
            max_outstanding_io=io_cap,
        ),
        machine=scale.machine(),
    )
    system.start()
    runner = YCSBRunner(sim, system, scale)
    runner.load_batched()
    result = runner.run_batched(YCSB_A)
    return {
        "epoch_ms": epoch_ms,
        "io_cap": io_cap,
        "throughput_kops": round(result.throughput_kops, 2),
        "sync_evictions": result.viyojit_stats["sync_evictions"],
    }


@pytest.fixture(scope="module")
def rows():
    scale = bench_scale(records=2000, ops=5000)
    rows = []
    for epoch_ms in (0.25, 0.5, 1.0, 2.0, 4.0):
        rows.append(run(epoch_ms, 16, scale))
    for io_cap in (4, 8, 32):
        rows.append(run(1.0, io_cap, scale))
    return rows


def test_sensitivity(benchmark, rows):
    benchmark.pedantic(
        lambda: run(1.0, 16, bench_scale(records=600, ops=1200)),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title="Section 6.1 sensitivity: epoch duration and IO cap "
            "(YCSB-A, 11% battery)",
        )
    )


def test_epoch_duration_insensitive_in_paper_regime(rows):
    """'The results were similar' — within ~10% while per-epoch pressure
    stays well below the budget (0.25-2 ms at this scale)."""
    epoch_rows = [
        row for row in rows if row["io_cap"] == 16 and row["epoch_ms"] <= 2.0
    ]
    values = [row["throughput_kops"] for row in epoch_rows]
    assert max(values) / min(values) < 1.10


def test_io_cap_insensitive(rows):
    cap_rows = [row for row in rows if row["epoch_ms"] == 1.0]
    values = [row["throughput_kops"] for row in cap_rows]
    assert max(values) / min(values) < 1.10


def test_threshold_breakdown_regime_is_real(rows):
    """When per-epoch pressure reaches the budget, threshold pins at
    zero and the copier thrashes — a genuine boundary of the paper's
    threshold rule, visible only because our scaled budget is small."""
    four_ms = next(r for r in rows if r["epoch_ms"] == 4.0)
    one_ms = next(r for r in rows if r["epoch_ms"] == 1.0 and r["io_cap"] == 16)
    assert four_ms["throughput_kops"] < one_ms["throughput_kops"] * 0.9
