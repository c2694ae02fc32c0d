"""Extension: compression + dedup of flush traffic (section 7).

The paper: compression and de-duplication could further reduce the write
bandwidth to secondary storage.  This bench measures physical SSD bytes
per reduction configuration under YCSB-A at ~11% battery.  The KV store's
values are structured (repeated 8-byte seeds), so zlib finds real
redundancy, and YCSB's zipfian re-writes give dedup genuine repeats.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import YCSBRunner, build_viyojit
from repro.storage.reduction import (
    ContentDeduplicator,
    ReductionPipeline,
    ZlibCompressor,
)
from repro.workloads.ycsb import YCSB_A
from conftest import bench_scale

BUDGET_FRACTION = 2 / 17.5

REDUCERS = {
    "none": lambda: None,
    "dedup": ContentDeduplicator,
    "zlib": ZlibCompressor,
    "dedup+zlib": ReductionPipeline,
}


def run(name: str, scale) -> dict:
    from repro.core.config import ViyojitConfig
    from repro.core.runtime import Viyojit
    from repro.sim.events import Simulation

    sim = Simulation()
    system = Viyojit(
        sim,
        num_pages=scale.region_pages,
        config=ViyojitConfig(
            dirty_budget_pages=scale.budget_pages_for_fraction(BUDGET_FRACTION)
        ),
        machine=scale.machine(),
        reducer=REDUCERS[name](),
    )
    system.start()
    runner = YCSBRunner(sim, system, scale)
    runner.load_batched()
    result = runner.run_batched(YCSB_A)
    return {
        "reducer": name,
        "throughput_kops": round(result.throughput_kops, 2),
        "logical_mb_flushed": round(system.stats.bytes_flushed / 1e6, 2),
        "physical_mb_written": round(system.ssd.stats.bytes_written / 1e6, 2),
    }


@pytest.fixture(scope="module")
def rows():
    scale = bench_scale(records=2000, ops=6000)
    return [run(name, scale) for name in REDUCERS]


def test_flush_reduction(benchmark, rows):
    benchmark.pedantic(
        lambda: run("dedup+zlib", bench_scale(records=600, ops=1500)),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title="Section 7 extension: flush-traffic reduction (YCSB-A, 11%)",
        )
    )


def test_compression_reduces_physical_traffic(rows):
    by_name = {row["reducer"]: row for row in rows}
    assert (
        by_name["zlib"]["physical_mb_written"]
        < by_name["none"]["physical_mb_written"] / 2
    )


def test_pipeline_is_best(rows):
    by_name = {row["reducer"]: row["physical_mb_written"] for row in rows}
    assert by_name["dedup+zlib"] <= min(by_name["dedup"], by_name["zlib"]) + 0.01


def test_logical_traffic_unchanged(rows):
    """Reduction changes IO size, not what must be flushed."""
    logical = [row["logical_mb_flushed"] for row in rows]
    assert max(logical) < min(logical) * 1.25


def test_throughput_not_hurt_much(rows):
    """The CPU cost of reduction must not eat the benefit."""
    by_name = {row["reducer"]: row["throughput_kops"] for row in rows}
    assert by_name["dedup+zlib"] > by_name["none"] * 0.9
