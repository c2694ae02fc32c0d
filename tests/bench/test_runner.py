"""Tests for the experiment runner (small scales for speed)."""

import pytest

from repro.bench.histogram import LatencyHistogram
from repro.bench.runner import (
    ExperimentScale,
    LatencySummary,
    YCSBRunner,
    build_baseline,
    build_viyojit,
    run_workload,
    value_bytes,
)
from repro.workloads.ycsb import YCSB_A, YCSB_C

TINY = ExperimentScale(record_count=300, operation_count=800)


class TestExperimentScale:
    def test_defaults_valid(self):
        ExperimentScale()

    def test_record_block_is_one_kib(self):
        assert ExperimentScale().record_block_bytes == 1024

    def test_budget_fraction_mapping(self):
        scale = ExperimentScale(record_count=4000)
        pages = scale.budget_pages_for_fraction(0.5)
        assert pages == pytest.approx(scale.initial_heap_pages * 0.5, abs=1)

    def test_budget_gb_label(self):
        scale = ExperimentScale()
        assert scale.budget_gb_label(2 / 17.5) == pytest.approx(2.0)

    def test_region_exceeds_heap(self):
        scale = ExperimentScale()
        heap_pages = scale.heap_bytes() // 4096
        assert scale.region_pages > heap_pages

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(record_count=0)
        with pytest.raises(ValueError):
            ExperimentScale(region_heap_multiple=1.0)
        with pytest.raises(ValueError):
            ExperimentScale().budget_pages_for_fraction(0)


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_histogram(LatencyHistogram())
        assert summary.count == 0
        assert summary.avg_ms == 0.0

    def test_stats(self):
        histogram = LatencyHistogram()
        for sample_ns in [1_000_000] * 99 + [100_000_000]:
            histogram.record(sample_ns)
        summary = LatencySummary.from_histogram(histogram)
        assert summary.count == 100
        assert summary.avg_ms == pytest.approx(1.99, rel=0.01)
        assert summary.p99_ms == pytest.approx(1.0, rel=0.01)


class TestValueBytes:
    def test_deterministic(self):
        assert value_bytes(b"k", 100) == value_bytes(b"k", 100)

    def test_size(self):
        assert len(value_bytes(b"k", 77)) == 77

    def test_nonce_changes_value(self):
        assert value_bytes(b"k", 32, 1) != value_bytes(b"k", 32, 2)


class TestBuilders:
    def test_build_viyojit_started(self):
        sim, system = build_viyojit(TINY, budget_fraction=0.2)
        assert system.config.dirty_budget_pages == TINY.budget_pages_for_fraction(0.2)
        mapping = system.mmap(4096)
        system.write(mapping.base_addr, b"ok")

    def test_build_baseline_started(self):
        sim, system = build_baseline(TINY)
        mapping = system.mmap(4096)
        system.write(mapping.base_addr, b"ok")


class TestRuns:
    def test_run_produces_metrics(self):
        result = run_workload(YCSB_A, TINY, budget_fraction=0.3)
        assert result.ops_executed == TINY.operation_count
        assert result.throughput_kops > 0
        assert result.elapsed_ns > 0
        assert "update" in result.latency
        assert "read" in result.latency
        assert result.viyojit_stats is not None

    def test_baseline_run(self):
        result = run_workload(YCSB_A, TINY, budget_fraction=None)
        assert result.system_kind == "nvdram"
        assert result.budget_fraction is None
        assert result.viyojit_stats is None

    def test_viyojit_slower_than_baseline_at_small_budget(self):
        baseline = run_workload(YCSB_A, TINY, None)
        small = run_workload(YCSB_A, TINY, 0.1)
        assert small.throughput_kops < baseline.throughput_kops

    def test_read_only_has_no_update_latency(self):
        result = run_workload(YCSB_C, TINY, 0.5)
        assert set(result.latency) == {"read"}

    def test_ssd_traffic_recorded_for_viyojit(self):
        result = run_workload(YCSB_A, TINY, 0.1)
        assert result.ssd_bytes_written > 0
        assert result.avg_write_rate_mb_s > 0

    def test_budget_respected_during_run(self):
        sim, system = build_viyojit(TINY, budget_fraction=0.15)
        runner = YCSBRunner(sim, system, TINY)
        runner.load_batched()
        runner.run_batched(YCSB_A)
        assert (
            system.stats.peak_dirty_pages
            <= system.config.dirty_budget_pages
        )

    def test_stale_bits_slower_at_small_budget(self):
        # The inversion needs a budget that actually fits the hot set;
        # at the 300-record TINY scale both variants thrash equally.
        scale = ExperimentScale(record_count=2000, operation_count=5000)
        fresh = run_workload(YCSB_A, scale, 0.12, flush_tlb_on_scan=True)
        stale = run_workload(YCSB_A, scale, 0.12, flush_tlb_on_scan=False)
        assert stale.throughput_kops < fresh.throughput_kops
        # Stale recency information causes extra hot-page evictions, which
        # show up as extra write faults (each evicted hot page re-faults).
        assert (
            stale.viyojit_stats["write_faults"]
            > fresh.viyojit_stats["write_faults"]
        )
