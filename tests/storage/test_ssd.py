"""Unit tests for the SSD service model."""

import pytest

from repro.sim.clock import NS_PER_SEC
from repro.storage.ssd import SSD


class TestValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            SSD(write_bandwidth_bytes_per_s=0)

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError):
            SSD(queue_depth=0)

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            SSD(write_latency_ns=-1)

    def test_bad_io_size(self):
        ssd = SSD()
        with pytest.raises(ValueError):
            ssd.submit_write(0, 0)


class TestServiceModel:
    def test_single_write_completion(self):
        ssd = SSD(
            write_bandwidth_bytes_per_s=1e9, write_latency_ns=10_000, queue_depth=4
        )
        completion = ssd.submit_write(now_ns=0, size_bytes=4096)
        assert completion == 10_000 + 4096  # 4096 B at 1 GB/s = 4096 ns

    def test_idle_device_serves_immediately(self):
        ssd = SSD(write_latency_ns=1_000, write_bandwidth_bytes_per_s=1e9)
        completion = ssd.submit_write(now_ns=500_000, size_bytes=1024)
        assert completion == 500_000 + 1_000 + 1024

    def test_parallel_slots(self):
        ssd = SSD(write_latency_ns=1_000, write_bandwidth_bytes_per_s=1e9, queue_depth=2)
        first = ssd.submit_write(0, 1024)
        second = ssd.submit_write(0, 1024)
        assert first == second  # two free slots serve concurrently

    def test_queueing_delay_when_saturated(self):
        ssd = SSD(write_latency_ns=1_000, write_bandwidth_bytes_per_s=1e9, queue_depth=1)
        first = ssd.submit_write(0, 1024)
        second = ssd.submit_write(0, 1024)
        assert second == first + 1_000 + 1024

    def test_outstanding_counts_in_service(self):
        ssd = SSD(queue_depth=4)
        ssd.submit_write(0, 4096)
        ssd.submit_write(0, 4096)
        assert ssd.outstanding(0) == 2
        assert ssd.outstanding(10**12) == 0

    def test_earliest_free_slot(self):
        ssd = SSD(queue_depth=2, write_latency_ns=1_000, write_bandwidth_bytes_per_s=1e9)
        assert ssd.earliest_free_slot() == 0
        ssd.submit_write(0, 1024)
        assert ssd.earliest_free_slot() == 0  # second slot still free
        ssd.submit_write(0, 1024)
        assert ssd.earliest_free_slot() > 0

    def test_mixed_traffic_matches_pop_push_model(self):
        """Each IO takes the earliest-free slot: completions and the slot
        multiset follow a pop-the-minimum, push-the-finish model exactly."""
        ssd = SSD(queue_depth=3)
        slots = [0, 0, 0]
        now = 0
        for i in range(60):
            size = 512 + 97 * i
            if i % 5 == 4:
                completion = ssd.submit_read(now, size)
                service = ssd.read_latency_ns + round(size * NS_PER_SEC / ssd.read_bandwidth)
            else:
                completion = ssd.submit_write(now, size)
                service = ssd.write_latency_ns + round(size * NS_PER_SEC / ssd.write_bandwidth)
            slots.sort()
            expected = max(now, slots.pop(0)) + service
            slots.append(expected)
            assert completion == expected
            now += 7_000 if i % 3 else 1_000
        assert sorted(ssd._slots) == sorted(slots)


class TestRates:
    def test_default_device_matches_paper_iops(self):
        """Section 6.1: the SSD supports ~625 K-IOPS."""
        ssd = SSD()
        assert ssd.peak_write_iops(4096) == pytest.approx(625_000, rel=0.05)

    def test_reads_and_writes_tracked_separately(self):
        ssd = SSD()
        ssd.submit_write(0, 100)
        ssd.submit_read(0, 200)
        assert ssd.stats.bytes_written == 100
        assert ssd.stats.bytes_read == 200
        assert ssd.stats.writes == 1
        assert ssd.stats.reads == 1

    def test_write_rate(self):
        ssd = SSD()
        ssd.submit_write(0, 10_000)
        rate = ssd.stats.write_rate_bytes_per_s(NS_PER_SEC)
        assert rate == pytest.approx(10_000)

    def test_write_rate_zero_elapsed(self):
        ssd = SSD()
        assert ssd.stats.write_rate_bytes_per_s(0) == 0.0

    def test_drive_writes_wear(self):
        ssd = SSD(capacity_bytes=1_000_000)
        ssd.submit_write(0, 500_000)
        assert ssd.drive_writes() == pytest.approx(0.5)
