"""Integration-grade unit tests for the Viyojit runtime (Fig 6 flow)."""

import random

import pytest

from repro.core.config import ViyojitConfig
from repro.core.runtime import OutOfNVDRAM, Viyojit
from repro.sim.events import Simulation
from tests.conftest import make_baseline, make_viyojit

PAGE = 4096


class TestLifecycle:
    def test_requires_start(self, sim):
        system = Viyojit(sim, num_pages=64, config=ViyojitConfig(dirty_budget_pages=8))
        with pytest.raises(RuntimeError, match="start"):
            system.mmap(PAGE)

    def test_budget_cannot_exceed_region(self, sim):
        with pytest.raises(ValueError, match="exceeds"):
            Viyojit(sim, num_pages=4, config=ViyojitConfig(dirty_budget_pages=8))

    def test_all_pages_protected_at_start(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=8)
        assert system.page_table.protected_count() == 64

    def test_epoch_timer_runs(self, sim):
        system = make_viyojit(sim)
        mapping = system.mmap(PAGE)
        # Push virtual time past several epochs with repeated writes.
        for _ in range(100):
            system.write(mapping.base_addr, b"x" * 64)
        sim.run_until(sim.now + 6 * system.config.epoch_ns)
        assert system.stats.epochs >= 5


class TestMmap:
    def test_mmap_rounds_to_pages(self, viyojit):
        mapping = viyojit.mmap(100)
        assert mapping.num_pages == 1
        mapping2 = viyojit.mmap(PAGE + 1)
        assert mapping2.num_pages == 2

    def test_mappings_disjoint(self, viyojit):
        first = viyojit.mmap(3 * PAGE)
        second = viyojit.mmap(2 * PAGE)
        assert first.base_page + first.num_pages <= second.base_page

    def test_out_of_space(self, sim):
        system = make_viyojit(sim, num_pages=8, budget=4)
        with pytest.raises(OutOfNVDRAM):
            system.mmap(9 * PAGE)

    def test_mmap_invalid_size(self, viyojit):
        with pytest.raises(ValueError):
            viyojit.mmap(0)

    def test_munmap_reuses_pages(self, viyojit):
        mapping = viyojit.mmap(4 * PAGE)
        viyojit.munmap(mapping)
        again = viyojit.mmap(4 * PAGE)
        assert again.base_page == mapping.base_page

    def test_double_munmap_rejected(self, viyojit):
        mapping = viyojit.mmap(PAGE)
        viyojit.munmap(mapping)
        with pytest.raises(ValueError):
            viyojit.munmap(mapping)

    def test_munmap_flushes_dirty_pages(self, viyojit):
        mapping = viyojit.mmap(2 * PAGE)
        viyojit.write(mapping.base_addr, b"must survive release")
        viyojit.munmap(mapping)
        version = int(viyojit.region.page_version[mapping.base_page])
        assert viyojit.backing.holds_version(mapping.base_page, version)

    def test_remapped_pages_are_write_protected(self, viyojit):
        mapping = viyojit.mmap(PAGE)
        viyojit.write(mapping.base_addr, b"dirty")
        viyojit.munmap(mapping)
        again = viyojit.mmap(PAGE)
        assert viyojit.page_table.is_write_protected(again.base_page)

    def test_mapping_addr_bounds(self, viyojit):
        mapping = viyojit.mmap(PAGE)
        with pytest.raises(IndexError):
            mapping.addr(PAGE)


class TestFaultPath:
    def test_first_write_faults_once(self, viyojit):
        mapping = viyojit.mmap(PAGE)
        viyojit.write(mapping.base_addr, b"a")
        viyojit.write(mapping.base_addr + 1, b"b")
        assert viyojit.stats.write_faults == 1
        assert viyojit.stats.pages_dirtied == 1

    def test_write_costs_more_when_faulting(self, sim):
        system = make_viyojit(sim)
        mapping = system.mmap(2 * PAGE)
        before = sim.now
        system.write(mapping.base_addr, b"x")
        faulting_cost = sim.now - before
        before = sim.now
        system.write(mapping.base_addr, b"y")
        warm_cost = sim.now - before
        assert faulting_cost > warm_cost + system.machine.trap_cost_ns // 2

    def test_reads_never_fault(self, viyojit):
        mapping = viyojit.mmap(PAGE)
        viyojit.read(mapping.base_addr, 100)
        assert viyojit.stats.write_faults == 0

    def test_data_roundtrip_through_faults(self, viyojit):
        mapping = viyojit.mmap(4 * PAGE)
        payload = bytes(range(256)) * 4
        viyojit.write(mapping.base_addr + 1000, payload)
        assert viyojit.read(mapping.base_addr + 1000, len(payload)) == payload

    def test_spanning_write_dirties_all_pages(self, viyojit):
        mapping = viyojit.mmap(3 * PAGE)
        viyojit.write(mapping.base_addr + PAGE - 10, bytes(20))
        assert viyojit.dirty_count == 2


class TestBudgetEnforcement:
    def test_budget_never_exceeded_random_writes(self, sim):
        budget = 8
        system = make_viyojit(sim, num_pages=128, budget=budget)
        mapping = system.mmap(64 * PAGE)
        rng = random.Random(1)
        for _ in range(2000):
            page = rng.randrange(64)
            system.write(mapping.base_addr + page * PAGE, b"w" * 32)
            assert system.dirty_count <= budget

    def test_eviction_happens_at_budget(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=2, proactive=False)
        mapping = system.mmap(8 * PAGE)
        for page in range(4):
            system.write(mapping.base_addr + page * PAGE, b"x")
        assert system.stats.sync_evictions >= 2
        assert system.dirty_count <= 2

    def test_evicted_pages_are_durable(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=2, proactive=False)
        mapping = system.mmap(8 * PAGE)
        for page in range(8):
            system.write(mapping.base_addr + page * PAGE, bytes([page]) * 16)
        # All pages not currently dirty must be durable at latest version.
        for pfn, version in system.region.touched_pages():
            if pfn not in system.tracker:
                assert system.backing.holds_version(pfn, version), pfn

    def test_rewriting_dirty_pages_needs_no_eviction(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=4, proactive=False)
        mapping = system.mmap(4 * PAGE)
        for _ in range(100):
            for page in range(4):
                system.write(mapping.base_addr + page * PAGE, b"hot")
        assert system.stats.sync_evictions == 0


class TestVictimSelection:
    def test_cold_page_evicted_not_hot(self, sim):
        """The least-recently-updated page goes, hot pages stay dirty."""
        system = make_viyojit(sim, num_pages=128, budget=4, proactive=False)
        mapping = system.mmap(16 * PAGE)
        hot = [0, 1, 2]
        # Dirty the cold page once, then hammer the hot ones across several
        # epochs so the dirty-bit scans observe who is recently updated.
        system.write(mapping.base_addr + 3 * PAGE, b"cold")
        for _ in range(8):
            for page in hot:
                system.write(mapping.base_addr + page * PAGE, b"hot!")
            sim.run_until(sim.now + system.config.epoch_ns)
        # Budget is 4: all four are dirty.  Dirty a fifth page.
        system.write(mapping.base_addr + 5 * PAGE, b"new")
        hot_pfns = {mapping.base_page + p for p in hot}
        assert hot_pfns <= system.tracker.snapshot()
        assert mapping.base_page + 3 not in system.tracker


class TestProactiveFlushing:
    def test_proactive_flushes_occur_under_pressure(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16)
        mapping = system.mmap(128 * PAGE)
        rng = random.Random(2)
        for _ in range(3000):
            page = rng.randrange(128)
            system.write(mapping.base_addr + page * PAGE, b"z" * 16)
        assert system.stats.proactive_flushes > 0

    def test_proactive_reduces_sync_evictions(self):
        def run(proactive):
            sim = Simulation()
            system = make_viyojit(sim, num_pages=256, budget=16, proactive=proactive)
            mapping = system.mmap(128 * PAGE)
            rng = random.Random(3)
            for _ in range(3000):
                page = rng.randrange(128)
                system.write(mapping.base_addr + page * PAGE, b"z" * 16)
            return system.stats.sync_evictions

        assert run(True) < run(False)


class TestDrain:
    def test_drain_empties_dirty_set(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=16)
        mapping = system.mmap(32 * PAGE)
        for page in range(10):
            system.write(mapping.base_addr + page * PAGE, b"d")
        system.drain()
        assert system.dirty_count == 0
        assert system.flusher.outstanding == 0

    def test_drain_makes_everything_durable(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=16)
        mapping = system.mmap(32 * PAGE)
        for page in range(20):
            system.write(mapping.base_addr + page * PAGE, bytes([page]) * 8)
        system.drain()
        for pfn, version in system.region.touched_pages():
            assert system.backing.holds_version(pfn, version)

    def test_drain_on_clean_system(self, viyojit):
        viyojit.drain()  # no-op, must not hang
        assert viyojit.dirty_count == 0


class TestBaseline:
    def test_baseline_never_faults(self, sim):
        system = make_baseline(sim, num_pages=64)
        mapping = system.mmap(16 * PAGE)
        for page in range(16):
            system.write(mapping.base_addr + page * PAGE, b"b")
        assert system.mmu.faults == 0

    def test_store_to_a_protected_page_is_a_bug(self, sim):
        """The baseline protects nothing, so it has no fault handler: a
        store that faults anyway is an ``AssertionError``."""
        system = make_baseline(sim, num_pages=64)
        mapping = system.mmap(2 * PAGE)
        system.mmu.protect_page(mapping.base_page + 1)
        system.write(mapping.base_addr, b"ok")
        with pytest.raises(AssertionError, match="should never fault"):
            system.write(mapping.base_addr + PAGE, b"x")
        assert system.mmu.faults == 1
        assert system.region.read(mapping.base_addr + PAGE, 1) == b"\x00"

    def test_baseline_is_faster(self):
        def run(factory):
            sim = Simulation()
            system = factory(sim)
            mapping = system.mmap(32 * PAGE)
            rng = random.Random(4)
            for _ in range(1000):
                page = rng.randrange(32)
                system.write(mapping.base_addr + page * PAGE, b"q" * 16)
            return sim.now

        baseline_time = run(lambda sim: make_baseline(sim, num_pages=128))
        viyojit_time = run(lambda sim: make_viyojit(sim, num_pages=128, budget=8))
        assert viyojit_time > baseline_time

    def test_baseline_dirty_pages_is_all_touched(self, sim):
        system = make_baseline(sim, num_pages=64)
        mapping = system.mmap(4 * PAGE)
        system.write(mapping.base_addr, b"x")
        system.write(mapping.base_addr + 2 * PAGE, b"y")
        assert system.dirty_pages() == {mapping.base_page, mapping.base_page + 2}
