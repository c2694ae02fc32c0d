"""Sanitizer tests: one per invariant, plus arming and zero-drift checks.

Each invariant test breaks the corresponding piece of simulator state by
hand (the running system never violates its own invariants, which is the
point) and asserts the sanitizer hook raises :class:`InvariantViolation`
naming exactly that invariant.
"""

from __future__ import annotations

import pytest

from repro.core.config import ViyojitConfig
from repro.core.finegrain import FineGrainViyojit
from repro.core.runtime import Viyojit
from repro.core.sanitizer import (
    INVARIANTS,
    InvariantViolation,
    SimulationSanitizer,
)
from repro.obs.export import to_json
from repro.obs.harness import TraceWorkload, run_traced_workload
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from tests.obs.regen_golden import GOLDEN_SPECS, fixture_path, render


def make_system(num_pages=32, budget=4, sanitize=True):
    sim = Simulation()
    config = ViyojitConfig(dirty_budget_pages=budget, sanitize=sanitize)
    system = Viyojit(sim, num_pages=num_pages, config=config)
    system.start()
    return system


def dirty_distinct_pages(system, count):
    """Write one payload to each of ``count`` distinct pages."""
    page_size = system.region.page_size
    mapping = system.mmap(count * page_size)
    for page in range(count):
        system.write(mapping.addr(page * page_size), b"payload-" + bytes([page]))
    return mapping


def corrupt_dirty_bits(page_table, pfns, value):
    """Flip raw PTE dirty bits behind the page table's back.

    Bypasses ``set_dirty``'s count bookkeeping on purpose (the
    sanitizer is supposed to notice).
    """
    for pfn in pfns:
        page_table.dirty[pfn] = value  # lint: ignore[L1]


class TestArming:
    def test_config_flag_controls_arming(self):
        assert make_system(sanitize=True).sanitizer is not None
        assert make_system(sanitize=False).sanitizer is None

    def test_env_var_sets_config_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert ViyojitConfig(dirty_budget_pages=4).sanitize is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert ViyojitConfig(dirty_budget_pages=4).sanitize is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert ViyojitConfig(dirty_budget_pages=4).sanitize is False

    def test_checks_accumulate_during_normal_run(self):
        system = make_system(num_pages=32, budget=4)
        dirty_distinct_pages(system, 12)  # 3x the budget: faults + evictions
        assert system.sanitizer is not None
        assert system.sanitizer.checks > 0

    def test_invariant_catalogue(self):
        assert set(INVARIANTS) == {
            "clock-monotonic",
            "budget-bound",
            "evicted-durability",
            "scan-coherence",
        }
        exc = InvariantViolation("budget-bound", "boom")
        assert exc.invariant == "budget-bound"
        assert "[budget-bound] boom" in str(exc)


class TestClockMonotonic:
    def test_backwards_clock_raises(self):
        system = make_system()
        dirty_distinct_pages(system, 2)
        # Wind virtual time back past the sanitizer's last observation.
        system.sim.clock._now = system.sanitizer._last_now - 1
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_epoch_scan()
        assert exc.value.invariant == "clock-monotonic"


class TestBudgetBound:
    def test_overfull_dirty_set_raises(self):
        system = make_system(num_pages=32, budget=4)
        dirty_distinct_pages(system, 3)
        system.tracker._dirty.update({20, 21})  # smuggle past the budget gate
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_dirtied(21)
        assert exc.value.invariant == "budget-bound"

    def test_shrink_leaves_legitimate_overage(self):
        system = make_system(num_pages=32, budget=8)
        dirty_distinct_pages(system, 5)
        assert system.tracker.count == 5
        # set_dirty_budget drains a shrink, so reach the overage directly.
        system.tracker.budget_pages = 2
        system.sanitizer.note_budget_change(2)
        # Over the new budget, but only because of the shrink: allowed.
        system.sanitizer.after_dirtied(0)

    def test_growth_while_over_shrunk_budget_raises(self):
        system = make_system(num_pages=32, budget=8)
        dirty_distinct_pages(system, 5)
        system.set_dirty_budget(2)
        system.tracker._dirty.add(25)  # grow while already over: never legal
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_dirtied(25)
        assert exc.value.invariant == "budget-bound"


class TestEvictedDurability:
    def test_flush_completion_with_page_still_dirty_raises(self):
        system = make_system(num_pages=32, budget=8)
        dirty_distinct_pages(system, 2)
        still_dirty = next(iter(system.tracker))
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_flush_complete(still_dirty)
        assert exc.value.invariant == "evicted-durability"

    def test_flush_completion_without_durable_copy_raises(self):
        system = make_system(num_pages=32, budget=8)
        dirty_distinct_pages(system, 2)
        assert system.backing.read(30) is None  # page 30 never flushed
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_flush_complete(30)
        assert exc.value.invariant == "evicted-durability"


class TestScanCoherence:
    def test_surviving_dirty_bit_raises(self):
        system = make_system()
        corrupt_dirty_bits(system.page_table, [5], True)
        with pytest.raises(InvariantViolation) as exc:
            system.sanitizer.after_epoch_scan()
        assert exc.value.invariant == "scan-coherence"

    def test_surviving_tlb_entry_raises_when_scan_flushes(self):
        system = make_system()
        assert system.config.flush_tlb_on_scan
        dirty_distinct_pages(system, 2)  # populates the TLB
        corrupt_dirty_bits(
            system.page_table, range(system.page_table.num_pages), False
        )
        assert system.tlb.resident > 0
        with pytest.raises(InvariantViolation, match="TLB") as exc:
            system.sanitizer.after_epoch_scan()
        assert exc.value.invariant == "scan-coherence"


class TestHooksWired:
    """Each runtime hook fires on its own: a collaborator misbehaves inside
    a real run, and the one hook placed to see it raises."""

    def test_after_dirtied_sees_tracker_drift(self):
        system = make_system(num_pages=32, budget=4)
        dirty_distinct_pages(system, 2)
        fresh = system.mmap(system.region.page_size)
        # The tracker rebinds its set behind the fault path's alias, so
        # the count it reports runs over the budget the runtime enforces.
        system.tracker._dirty = set(system.tracker._dirty) | {20, 21, 22}
        with pytest.raises(InvariantViolation) as exc:
            system.write(fresh.addr(0), b"x")
        assert exc.value.invariant == "budget-bound"

    def test_after_epoch_scan_sees_a_bit_left_set(self):
        system = make_system()
        dirty_distinct_pages(system, 2)
        scan = system.mmu.epoch_scan

        def leaky_scan(flush_tlb=True):
            updated, cost = scan(flush_tlb=flush_tlb)
            corrupt_dirty_bits(system.page_table, [5], True)
            return updated, cost

        system.mmu.epoch_scan = leaky_scan
        with pytest.raises(InvariantViolation) as exc:
            system.sim.run_until(system.sim.now + system.config.epoch_ns)
        assert exc.value.invariant == "scan-coherence"

    class CorruptingStore(BackingStore):
        def persist(self, pfn, data, version):
            super().persist(pfn, bytes(reversed(data)), version)

    def test_after_flush_complete_sees_wrong_durable_bytes(self):
        sim = Simulation()
        config = ViyojitConfig(dirty_budget_pages=2, sanitize=True)
        system = Viyojit(
            sim, num_pages=32, config=config,
            backing=self.CorruptingStore(32, 4096),
        )
        system.start()
        with pytest.raises(InvariantViolation) as exc:
            dirty_distinct_pages(system, 4)  # past the budget: evictions
        assert exc.value.invariant == "evicted-durability"

    def test_fine_grain_after_flush_complete_sees_wrong_durable_bytes(self):
        sim = Simulation()
        config = ViyojitConfig(dirty_budget_pages=2, sanitize=True)
        system = FineGrainViyojit(
            sim, num_pages=32, config=config,
            backing=self.CorruptingStore(32, 4096),
        )
        system.start()
        page_size = system.region.page_size
        mapping = system.mmap(4 * page_size)
        # The budget is in bytes here: whole, non-palindromic pages run
        # past it, so pages are evicted and their corrupted copies seen.
        image = bytes(range(256)) * (page_size // 256)
        with pytest.raises(InvariantViolation) as exc:
            for page in range(4):
                system.write(mapping.addr(page * page_size), image)
        assert exc.value.invariant == "evicted-durability"


class TestZeroDrift:
    SPEC = TraceWorkload(
        system="viyojit", num_pages=64, dirty_budget_pages=6,
        hot_pages=24, ops=80, seed=11,
    )

    def test_sanitized_run_is_byte_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        plain = run_traced_workload(self.SPEC)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run_traced_workload(self.SPEC)
        assert to_json(plain) == to_json(sanitized)
        assert plain["final"]["now_ns"] == sanitized["final"]["now_ns"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
    def test_golden_fixtures_match_with_sanitizer_on(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        expected = fixture_path(name).read_text(encoding="utf-8")
        assert render(name) == expected
