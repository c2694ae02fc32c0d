"""Replacement-policy ablation (section 5.2 / section 7 design space).

The paper picks a least-recently-updated policy and cites the classical
replacement-policy literature.  This bench quantifies how much the choice
matters under YCSB-A at ~11% battery:

* history-driven policies (LRU-updated, LFU-updated, CLOCK) beat
  history-blind ones (FIFO, random),
* the adversarial most-recently-updated policy — which deliberately
  evicts the write working set — is clearly the worst, bounding the value
  of the recency information from above.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import YCSBRunner
from repro.core.config import ViyojitConfig
from repro.core.policies import POLICY_NAMES
from repro.core.runtime import Viyojit
from repro.sim.events import Simulation
from repro.workloads.ycsb import YCSB_A
from conftest import bench_scale

BUDGET_FRACTION = 2 / 17.5


def run_policy(policy: str, scale) -> dict:
    sim = Simulation()
    config = ViyojitConfig(
        dirty_budget_pages=scale.budget_pages_for_fraction(BUDGET_FRACTION),
        victim_policy=policy,
    )
    system = Viyojit(
        sim, num_pages=scale.region_pages, config=config, machine=scale.machine()
    )
    system.start()
    runner = YCSBRunner(sim, system, scale)
    runner.load_batched()
    result = runner.run_batched(YCSB_A)
    return {
        "policy": policy,
        "throughput_kops": round(result.throughput_kops, 2),
        "write_faults": result.viyojit_stats["write_faults"],
        "pages_flushed": result.viyojit_stats["pages_flushed"],
    }


@pytest.fixture(scope="module")
def rows():
    scale = bench_scale(records=2000, ops=6000)
    return [run_policy(policy, scale) for policy in POLICY_NAMES]


def test_victim_policy_ablation(benchmark, rows):
    benchmark.pedantic(
        lambda: run_policy(
            "least-recently-updated", bench_scale(records=600, ops=1500)
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            rows,
            title=f"Victim-policy ablation (YCSB-A at "
            f"{BUDGET_FRACTION:.0%} battery)",
        )
    )


def test_paper_policy_beats_blind_policies(rows):
    by_name = {row["policy"]: row["throughput_kops"] for row in rows}
    assert by_name["least-recently-updated"] > by_name["fifo"]
    assert by_name["least-recently-updated"] > by_name["random"]


def test_adversarial_policy_is_worst(rows):
    by_name = {row["policy"]: row["throughput_kops"] for row in rows}
    worst = min(by_name, key=by_name.get)
    assert worst == "most-recently-updated"


def test_recency_information_reduces_faults(rows):
    by_name = {row["policy"]: row["write_faults"] for row in rows}
    assert by_name["least-recently-updated"] < by_name["random"]
    assert by_name["most-recently-updated"] > 1.5 * by_name["least-recently-updated"]
