"""End-to-end integration: full stack, paper-shaped assertions.

Each test here spans at least three subsystems (workload -> KV store ->
Viyojit -> MMU/SSD/battery) and asserts a *qualitative result from the
paper* rather than a unit behaviour.
"""

import pytest

from repro.bench.runner import ExperimentScale, run_workload
from repro.core.crash import CrashSimulator, full_backup_battery, viyojit_battery
from repro.power.power_model import PowerModel
from repro.workloads.ycsb import YCSB_A, YCSB_B, YCSB_C

SCALE = ExperimentScale(record_count=1200, operation_count=3600)


@pytest.fixture(scope="module")
def baseline_a():
    return run_workload(YCSB_A, SCALE, None)


@pytest.fixture(scope="module")
def viyojit_a_small():
    return run_workload(YCSB_A, SCALE, 2 / 17.5)


@pytest.fixture(scope="module")
def viyojit_a_large():
    return run_workload(YCSB_A, SCALE, 16 / 17.5)


class TestHeadlineResult:
    """The abstract's claim: ~11% battery, 7-25% overhead."""

    def test_overhead_in_paper_band(self, baseline_a, viyojit_a_small):
        overhead = (
            (baseline_a.throughput_kops - viyojit_a_small.throughput_kops)
            / baseline_a.throughput_kops
            * 100
        )
        assert 3.0 < overhead < 35.0

    def test_more_battery_less_overhead(self, viyojit_a_small, viyojit_a_large):
        assert viyojit_a_large.throughput_kops > viyojit_a_small.throughput_kops

    def test_battery_savings_match_budget(self):
        model = PowerModel()
        heap_bytes = SCALE.initial_heap_pages * 4096
        full = full_backup_battery(model, heap_bytes)
        small = viyojit_battery(model, int(heap_bytes * 2 / 17.5))
        assert small.nominal_joules < 0.15 * full.nominal_joules


class TestWorkloadOrdering:
    """Fig 7: write-heavy workloads pay more than read-heavy ones."""

    def test_a_worse_than_b_worse_than_c(self):
        overheads = {}
        for spec in (YCSB_A, YCSB_B, YCSB_C):
            baseline = run_workload(spec, SCALE, None)
            measured = run_workload(spec, SCALE, 2 / 17.5)
            overheads[spec.name] = (
                baseline.throughput_kops - measured.throughput_kops
            ) / baseline.throughput_kops
        assert overheads["YCSB-A"] > overheads["YCSB-B"] >= 0
        assert overheads["YCSB-A"] > overheads["YCSB-C"] >= 0


class TestTailLatency:
    """Fig 8: tails always above baseline, averages converge."""

    def test_p99_above_baseline_even_at_large_budget(
        self, baseline_a, viyojit_a_large
    ):
        assert (
            viyojit_a_large.latency["update"].p99_ms
            > baseline_a.latency["update"].p99_ms
        )

    def test_avg_converges_at_large_budget(self, baseline_a, viyojit_a_large):
        measured = viyojit_a_large.latency["update"].avg_ms
        base = baseline_a.latency["update"].avg_ms
        assert measured < base * 1.25


class TestDurabilityUnderLoad:
    """Durability holds at every point of a full YCSB run."""

    def test_crash_anywhere_in_ycsb_run(self):
        from repro.bench.runner import BatchedSession, YCSBRunner, build_viyojit
        from repro.workloads.ycsb import iter_op_batches

        sim, system = build_viyojit(SCALE, 2 / 17.5)
        runner = YCSBRunner(sim, system, SCALE)
        runner.load_batched()
        model = PowerModel()
        battery = viyojit_battery(
            model, system.config.dirty_budget_pages * system.region.page_size
        )
        crash = CrashSimulator(system, model, battery)
        session = BatchedSession(runner)
        session.begin()
        for index, batch in enumerate(
            iter_op_batches(
                YCSB_A, SCALE.record_count, 1200, SCALE.value_size,
                seed=99, batch_size=200,
            )
        ):
            session.apply(batch.kinds, batch.keys, batch.scan_lengths)
            report = crash.power_failure()
            assert report.survives, f"unsurvivable crash after batch {index}"

    def test_budget_respected_through_run(self, viyojit_a_small):
        stats = viyojit_a_small.viyojit_stats
        budget = SCALE.budget_pages_for_fraction(2 / 17.5)
        assert stats["peak_dirty_pages"] <= budget


class TestWriteRates:
    """Fig 9: flush rates stay within what a modern SSD sustains."""

    def test_write_rate_sustainable(self, viyojit_a_small):
        # Paper: the worst observed average was ~200 MB/s against an SSD
        # rated far higher.  At our scale the criterion is the same: the
        # flush rate stays well under the device's bandwidth (2 GB/s).
        assert viyojit_a_small.avg_write_rate_mb_s < 2000 * 0.5

    def test_read_only_flushes_less(self, viyojit_a_small):
        read_only = run_workload(YCSB_C, SCALE, 2 / 17.5)
        assert read_only.ssd_bytes_written < viyojit_a_small.ssd_bytes_written
