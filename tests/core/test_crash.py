"""Crash-injection tests: the battery always covers the dirty set."""

import random

import pytest

from repro.core.crash import (
    CrashSimulator,
    SupportsRecovery,
    full_backup_battery,
    viyojit_battery,
)
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation
from tests.conftest import make_baseline, make_viyojit

PAGE = 4096


def battery_for_budget(system, power_model):
    """The battery Viyojit would provision for this system's budget."""
    return viyojit_battery(
        power_model, system.config.dirty_budget_pages * system.region.page_size
    )


class TestPowerFailure:
    def test_clean_system_needs_no_energy(self, sim):
        system = make_viyojit(sim)
        model = PowerModel()
        crash = CrashSimulator(system, model, battery_for_budget(system, model))
        report = crash.power_failure()
        assert report.dirty_pages == 0
        assert report.survives

    def test_survives_at_any_instant_random_workload(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16)
        model = PowerModel()
        crash = CrashSimulator(system, model, battery_for_budget(system, model))
        mapping = system.mmap(128 * PAGE)
        rng = random.Random(11)
        for step in range(2000):
            page = rng.randrange(128)
            system.write(mapping.base_addr + page * PAGE, b"w" * 24)
            if step % 100 == 0:
                report = crash.power_failure()
                assert report.survives, f"would lose data at step {step}"
                assert report.energy_margin_joules >= 0

    def test_underprovisioned_battery_loses_pages(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16, proactive=False)
        model = PowerModel()
        # Battery covers only half the budget.
        half = viyojit_battery(model, 8 * system.region.page_size)
        crash = CrashSimulator(system, model, half)
        mapping = system.mmap(64 * PAGE)
        for page in range(16):
            system.write(mapping.base_addr + page * PAGE, b"x")
        report = crash.power_failure()
        assert not report.survives
        assert len(report.pages_lost) > 0

    def test_flush_seconds_bounded_by_budget(self, sim):
        """Section 8: shutdown flush time is bounded by the budget."""
        system = make_viyojit(sim, num_pages=256, budget=16)
        model = PowerModel()
        crash = CrashSimulator(system, model, battery_for_budget(system, model))
        mapping = system.mmap(128 * PAGE)
        rng = random.Random(12)
        for _ in range(1000):
            system.write(mapping.base_addr + rng.randrange(128) * PAGE, b"y")
        bound = model.flush_time_seconds(16 * PAGE)
        assert crash.shutdown_flush_seconds() <= bound + 1e-12


class TestRecovery:
    def test_recovery_intact_after_workload(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16)
        model = PowerModel()
        crash = CrashSimulator(system, model, battery_for_budget(system, model))
        mapping = system.mmap(64 * PAGE)
        rng = random.Random(13)
        for _ in range(1500):
            page = rng.randrange(64)
            system.write(
                mapping.base_addr + page * PAGE + rng.randrange(100),
                bytes([rng.randrange(256)]) * 64,
            )
        report = crash.crash_and_recover()
        assert report.intact
        assert report.pages_checked > 0

    def test_recovery_detects_losses_when_underprovisioned(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16, proactive=False)
        model = PowerModel()
        tiny = viyojit_battery(model, 2 * system.region.page_size)
        crash = CrashSimulator(system, model, tiny)
        mapping = system.mmap(64 * PAGE)
        for page in range(16):
            system.write(mapping.base_addr + page * PAGE, b"data")
        report = crash.crash_and_recover()
        assert not report.intact
        assert report.pages_lost

    def test_lost_pages_without_a_durable_copy_are_not_recovered(self, sim):
        system = make_viyojit(sim, num_pages=256, budget=16, proactive=False)
        model = PowerModel()
        crash = CrashSimulator(system, model, viyojit_battery(model, 3 * PAGE))
        mapping = system.mmap(8 * PAGE)
        for page in range(8):
            system.write(mapping.base_addr + page * PAGE, b"never flushed")
        report = crash.crash_and_recover()
        assert report.pages_checked == 8
        assert report.pages_lost == [mapping.base_page + p for p in range(3, 8)]
        assert report.pages_corrupt == []
        assert report.pages_recovered == 3

    def test_baseline_needs_full_battery(self, sim):
        system = make_baseline(sim, num_pages=256)
        model = PowerModel()
        full = full_backup_battery(model, 256 * PAGE)
        crash = CrashSimulator(system, model, full)
        mapping = system.mmap(128 * PAGE)
        for page in range(128):
            system.write(mapping.base_addr + page * PAGE, b"b")
        report = crash.power_failure()
        assert report.survives
        assert report.dirty_pages == 128


class TestSupportsRecoveryProtocol:
    """CrashSimulator demands an explicit capability contract, not luck."""

    def test_viyojit_satisfies_protocol(self, sim):
        system = make_viyojit(sim)
        assert isinstance(system, SupportsRecovery)

    def test_baseline_opts_out_via_flag(self, sim):
        # The baseline has no backing store to recover from; it declares
        # `assumes_full_battery` instead of satisfying the protocol.
        system = make_baseline(sim)
        assert not isinstance(system, SupportsRecovery)
        assert system.assumes_full_battery is True
        model = PowerModel()
        CrashSimulator(system, model, full_backup_battery(model, 256 * PAGE))

    def test_unknown_system_is_rejected_loudly(self, sim):
        class Imposter:
            """Has pages but neither a backing store nor the opt-out."""

            def __init__(self):
                real = make_viyojit(sim)
                self.region = real.region
                self.config = real.config

            def dirty_pages(self):
                return set()

        model = PowerModel()
        battery = full_backup_battery(model, 4 * PAGE)
        with pytest.raises(TypeError) as excinfo:
            CrashSimulator(Imposter(), model, battery)
        assert "Imposter" in str(excinfo.value)

    def test_flag_must_be_literal_true(self, sim):
        # A truthy-but-not-True flag (e.g. a leftover string) must not
        # silently grant the full-battery exemption.
        class Sloppy:
            assumes_full_battery = "yes"

            def __init__(self):
                real = make_viyojit(sim)
                self.region = real.region
                self.config = real.config

            def dirty_pages(self):
                return set()

        model = PowerModel()
        with pytest.raises(TypeError):
            CrashSimulator(Sloppy(), model, full_backup_battery(model, PAGE))


class TestBatteryEconomics:
    def test_viyojit_battery_is_fraction_of_baseline(self):
        """The headline claim: 11% of the battery for the same durability."""
        model = PowerModel()
        nvdram_bytes = 60 * 1024**3
        full = full_backup_battery(model, nvdram_bytes)
        small = viyojit_battery(model, int(0.11 * nvdram_bytes))
        assert small.nominal_joules / full.nominal_joules == pytest.approx(
            0.11, rel=0.01
        )

    def test_retune_budget_after_degradation(self, sim):
        """Section 8: battery wear shrinks the budget instead of killing
        NV-DRAM."""
        system = make_viyojit(sim, num_pages=256, budget=16)
        model = PowerModel()
        battery = battery_for_budget(system, model)
        before = system.retune_for_battery(model, battery)
        battery.degrade(0.5)
        after = system.retune_for_battery(model, battery)
        assert after == pytest.approx(before * 0.5, abs=1)
        assert after < before
