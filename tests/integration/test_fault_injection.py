"""Fault-injection integration tests.

Adversarial scenarios around the runtime's edge cases: bursts that slam
into the budget, writes racing in-flight flushes, battery degradation
mid-run, and pathological budget sizes.
"""

import random

import pytest

from repro.core.config import ViyojitConfig
from repro.core.crash import CrashSimulator, viyojit_battery
from repro.core.runtime import Viyojit
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation
from repro.storage.ssd import SSD
from tests.conftest import make_viyojit

PAGE = 4096


class TestWriteBursts:
    def test_burst_larger_than_budget(self, sim):
        """A burst of new dirty pages far beyond the budget must be
        absorbed by synchronous eviction without ever overshooting."""
        budget = 4
        system = make_viyojit(sim, num_pages=128, budget=budget, proactive=False)
        mapping = system.mmap(64 * PAGE)
        for page in range(64):
            system.write(mapping.base_addr + page * PAGE, b"burst")
            assert system.dirty_count <= budget
        assert system.stats.sync_evictions >= 60

    def test_burst_with_slow_ssd(self):
        """A slow SSD stretches eviction waits but never breaks the bound."""
        sim = Simulation()
        slow = SSD(write_bandwidth_bytes_per_s=10_000_000, write_latency_ns=2_000_000)
        system = Viyojit(
            sim,
            num_pages=128,
            config=ViyojitConfig(dirty_budget_pages=4),
            ssd=slow,
        )
        system.start()
        mapping = system.mmap(32 * PAGE)
        for page in range(32):
            system.write(mapping.base_addr + page * PAGE, b"x")
            assert system.dirty_count <= 4
        assert system.stats.blocked_time_ns > 0


class TestBudgetOfOne:
    def test_minimum_budget_still_works(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=1)
        mapping = system.mmap(16 * PAGE)
        for page in range(16):
            system.write(mapping.base_addr + page * PAGE, bytes([page]))
            assert system.dirty_count <= 1
        system.drain()
        for pfn, version in system.region.touched_pages():
            assert system.backing.holds_version(pfn, version)

    def test_data_correct_under_budget_of_one(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=1)
        mapping = system.mmap(8 * PAGE)
        rng = random.Random(3)
        expected = {}
        for _ in range(200):
            page = rng.randrange(8)
            data = bytes([rng.randrange(256)]) * 32
            system.write(mapping.base_addr + page * PAGE, data)
            expected[page] = data
        for page, data in expected.items():
            assert system.read(mapping.base_addr + page * PAGE, 32) == data


class TestRacingWrites:
    def test_write_during_flush_preserved(self, sim):
        """A write racing an in-flight flush must never be lost."""
        system = make_viyojit(sim, num_pages=64, budget=8, proactive=False)
        mapping = system.mmap(8 * PAGE)
        system.write(mapping.base_addr, b"version-1")
        pfn = mapping.base_page
        cost = system.flusher.issue(pfn)
        sim.clock.advance(cost)
        # Write while the IO is in flight: traps, waits, re-dirties.
        system.write(mapping.base_addr, b"version-2")
        system.drain()
        assert system.backing.read(pfn)[:9] == b"version-2"

    def test_interleaved_writes_and_flushes_converge(self, sim):
        system = make_viyojit(sim, num_pages=128, budget=6)
        mapping = system.mmap(32 * PAGE)
        rng = random.Random(4)
        for round_num in range(50):
            for _ in range(10):
                page = rng.randrange(32)
                system.write(
                    mapping.base_addr + page * PAGE,
                    round_num.to_bytes(4, "little"),
                )
        system.drain()
        for pfn, version in system.region.touched_pages():
            assert system.backing.holds_version(pfn, version)
            assert system.backing.read(pfn) == system.region.page_bytes(pfn)


class TestBatteryDegradation:
    def test_retuned_budget_restores_safety(self, sim):
        """Section 8's scenario: the battery degrades mid-run; retuning
        the dirty budget restores the durability guarantee."""
        model = PowerModel()
        system = make_viyojit(sim, num_pages=256, budget=32)
        battery = viyojit_battery(model, 32 * PAGE)
        crash = CrashSimulator(system, model, battery)
        mapping = system.mmap(64 * PAGE)
        for page in range(32):
            system.write(mapping.base_addr + page * PAGE, b"pre-degradation")
        assert crash.power_failure().survives

        battery.degrade(0.5)
        # With 32 dirty pages and half the energy, we are now unsafe.
        assert not crash.power_failure().survives

        # Retune: the new budget is what the degraded battery supports,
        # and the shrink drains down to it (the runtime reaction in
        # section 8).
        new_budget = system.retune_for_battery(model, battery)
        assert new_budget < 32
        assert system.dirty_count <= new_budget
        assert crash.power_failure().survives


class TestEpochRobustness:
    def test_many_idle_epochs(self, sim):
        """Epochs with zero activity must not drift or misbehave."""
        system = make_viyojit(sim, num_pages=64, budget=8)
        sim.run_until(sim.now + 50 * system.config.epoch_ns)
        assert system.stats.epochs >= 45
        assert system.dirty_count == 0

    def test_history_epoch_count_advances(self, sim):
        system = make_viyojit(sim, num_pages=64, budget=8)
        sim.run_until(sim.now + 10 * system.config.epoch_ns)
        assert system.history.epoch == system.stats.epochs
