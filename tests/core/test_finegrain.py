"""Tests for the section 7 fine-grained (sub-page) dirty tracking."""

import random

import pytest

from repro.core.config import ViyojitConfig
from repro.core.finegrain import BlockTracker, FineGrainViyojit
from repro.sim.events import Simulation

PAGE = 4096


def make_finegrain(sim, num_pages=256, budget_pages=4, block_size=256, **cfg):
    system = FineGrainViyojit(
        sim,
        num_pages=num_pages,
        config=ViyojitConfig(dirty_budget_pages=budget_pages, **cfg),
        block_size=block_size,
    )
    system.start()
    return system


@pytest.fixture
def sim():
    return Simulation()


class TestBlockTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockTracker(page_size=4096, block_size=100, budget_bytes=4096)
        with pytest.raises(ValueError):
            BlockTracker(page_size=4096, block_size=256, budget_bytes=0)

    def test_single_block(self):
        tracker = BlockTracker(4096, 256, budget_bytes=4096)
        assert tracker.mark_range(0, 0, 100) == 256
        assert tracker.dirty_bytes == 256

    def test_range_spanning_blocks(self):
        tracker = BlockTracker(4096, 256, budget_bytes=4096)
        added = tracker.mark_range(0, 200, 200)  # crosses block 0/1 boundary
        assert added == 512

    def test_remarking_adds_nothing(self):
        tracker = BlockTracker(4096, 256, budget_bytes=4096)
        tracker.mark_range(0, 0, 256)
        assert tracker.would_add(0, 0, 256) == 0
        assert tracker.mark_range(0, 0, 100) == 0
        assert tracker.dirty_bytes == 256

    def test_budget_violation_raises(self):
        tracker = BlockTracker(4096, 256, budget_bytes=512)
        tracker.mark_range(0, 0, 512)
        with pytest.raises(RuntimeError, match="budget violated"):
            tracker.mark_range(1, 0, 1)

    def test_clean_page_frees_bytes(self):
        tracker = BlockTracker(4096, 256, budget_bytes=4096)
        tracker.mark_range(0, 0, 1000)
        freed = tracker.clean_page(0)
        assert freed == 1024
        assert tracker.dirty_bytes == 0

    def test_zero_length(self):
        tracker = BlockTracker(4096, 256, budget_bytes=4096)
        assert tracker.would_add(0, 0, 0) == 0
        assert tracker.mark_range(0, 0, 0) == 0

    def test_dirty_pages_membership(self):
        tracker = BlockTracker(4096, 256, budget_bytes=8192)
        tracker.mark_range(3, 0, 10)
        tracker.mark_range(7, 0, 10)
        assert tracker.dirty_pages() == {3, 7}


class TestFineGrainRuntime:
    def test_holds_more_pages_than_page_budget(self, sim):
        """The headline: small writes to many pages fit one battery."""
        system = make_finegrain(sim, budget_pages=4, block_size=256)
        mapping = system.mmap(64 * PAGE)
        for page in range(40):
            system.write(mapping.base_addr + page * PAGE, b"x" * 100)
        assert system.dirty_count == 40          # pages dirty
        assert system.blocks.dirty_bytes == 40 * 256  # but only 10 KiB of dirt
        assert system.stats.sync_evictions == 0

    def test_byte_budget_never_exceeded(self, sim):
        budget_pages = 2
        system = make_finegrain(sim, budget_pages=budget_pages, block_size=256)
        mapping = system.mmap(64 * PAGE)
        rng = random.Random(1)
        for _ in range(800):
            page = rng.randrange(64)
            offset = rng.randrange(0, PAGE - 300)
            system.write(mapping.base_addr + page * PAGE + offset, b"y" * 300)
            assert system.blocks.dirty_bytes <= budget_pages * PAGE

    def test_data_roundtrip(self, sim):
        system = make_finegrain(sim, budget_pages=2)
        mapping = system.mmap(32 * PAGE)
        rng = random.Random(2)
        expected = {}
        for _ in range(300):
            page = rng.randrange(32)
            data = bytes([rng.randrange(256)]) * 64
            system.write(mapping.base_addr + page * PAGE, data)
            expected[page] = data
        for page, data in expected.items():
            assert system.read(mapping.base_addr + page * PAGE, 64) == data

    def test_flushes_only_dirty_blocks(self, sim):
        """SSD traffic shrinks to the dirty-block footprint."""
        system = make_finegrain(sim, budget_pages=1, block_size=256,
                                proactive=False)
        mapping = system.mmap(64 * PAGE)
        # One 256B block per page; the 1-page byte budget (4096B) fits 16
        # blocks, the 17th write forces an eviction of ~256B, not 4 KiB.
        for page in range(20):
            system.write(mapping.base_addr + page * PAGE, b"z" * 200)
        assert system.stats.sync_evictions > 0
        avg_flush = system.stats.bytes_flushed / system.stats.pages_flushed
        assert avg_flush < PAGE / 4

    def test_drain_leaves_everything_durable(self, sim):
        system = make_finegrain(sim, budget_pages=2)
        mapping = system.mmap(32 * PAGE)
        rng = random.Random(3)
        for _ in range(400):
            page = rng.randrange(32)
            system.write(
                mapping.base_addr + page * PAGE + rng.randrange(3800),
                bytes([rng.randrange(256)]) * 100,
            )
        system.drain()
        assert system.blocks.dirty_bytes == 0
        for pfn, version in system.region.touched_pages():
            assert system.backing.holds_version(pfn, version)

    def test_crash_energy_uses_byte_accounting(self, sim):
        from repro.core.crash import CrashSimulator, viyojit_battery
        from repro.power.power_model import PowerModel

        system = make_finegrain(sim, budget_pages=4, block_size=256)
        model = PowerModel()
        battery = viyojit_battery(model, 4 * PAGE)
        crash = CrashSimulator(system, model, battery)
        mapping = system.mmap(64 * PAGE)
        for page in range(40):
            system.write(mapping.base_addr + page * PAGE, b"q" * 100)
        report = crash.power_failure()
        # 40 dirty pages but only 40 blocks of dirt: the byte-granular
        # flush needs energy for 10 KiB, not 160 KiB.
        assert report.dirty_pages == 40
        assert report.dirty_bytes == 40 * 256
        assert report.survives

    def test_batched_stores_keep_block_accounting(self):
        """``run_ops`` and the lane's store are the subclass's ``write``.

        Same stream three ways — per-op ``write``, ``run_ops``, and
        ``data_path().write`` — must leave identical block bitmaps,
        stats, clocks and contents, with the byte budget enforced.
        """
        rng = random.Random(7)
        stream = [
            (rng.randrange(256) * PAGE + rng.randrange(PAGE - 128),
             bytes([rng.randrange(256)]) * 128)
            for _ in range(3_000)
        ]

        def run(mode):
            system = make_finegrain(Simulation(), budget_pages=8)
            base = system.mmap(256 * PAGE).base_addr
            addrs = [base + offset for offset, _data in stream]
            payloads = [data for _offset, data in stream]
            if mode == "run_ops":
                system.run_ops([True] * len(stream), addrs, payloads)
            else:
                store = system.write if mode == "write" else system.data_path().write
                for addr, data in zip(addrs, payloads):
                    store(addr, data)
            return {
                "blocks": dict(system.blocks._bitmaps),
                "dirty_bytes": system.blocks.dirty_bytes,
                "stats": system.stats.summary(),
                "now": system.sim.now,
                "pages": sorted(system.region.touched_pages()),
                "bytes": system.read(base, 256 * PAGE),
            }

        per_op = run("write")
        assert per_op["dirty_bytes"] <= 8 * PAGE
        assert per_op["stats"]["sync_evictions"] > 0
        assert run("run_ops") == per_op
        assert run("data_path") == per_op

    def test_write_racing_inflight_flush_preserved(self, sim):
        system = make_finegrain(sim, budget_pages=4, proactive=False)
        mapping = system.mmap(8 * PAGE)
        system.write(mapping.base_addr, b"first")
        pfn = mapping.base_page
        cost = system.flusher.issue(pfn)
        sim.clock.advance(cost)
        system.write(mapping.base_addr, b"newer")
        system.drain()
        assert system.backing.read(pfn)[:5] == b"newer"
