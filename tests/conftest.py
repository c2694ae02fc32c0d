"""Shared fixtures for the test suite.

Everything is built tiny (hundreds of pages, not millions) so individual
tests run in milliseconds; the mechanisms under test are scale-free.
"""

from __future__ import annotations

import os

# Arm the runtime invariant sanitizer for the whole suite: every
# Viyojit/HardwareViyojit any test builds re-checks the budget bound,
# evicted-page durability, post-scan coherence, and clock monotonicity
# (see repro.core.sanitizer).  The checks are pure reads, so the
# golden-trace fixtures — generated without the sanitizer — must still
# match byte-for-byte; that equality is itself a regression test.
os.environ.setdefault("REPRO_SANITIZE", "1")

import pytest

from repro.core.config import ViyojitConfig
from repro.core.runtime import FullBatteryNVDRAM, HardwareViyojit, Viyojit
from repro.mem.machine import MachineModel
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from repro.storage.ssd import SSD

SMALL_PAGES = 256
SMALL_BUDGET = 16


@pytest.fixture
def machine() -> MachineModel:
    return MachineModel()


@pytest.fixture
def sim() -> Simulation:
    return Simulation()


@pytest.fixture
def ssd() -> SSD:
    return SSD()


def make_viyojit(
    sim: Simulation,
    num_pages: int = SMALL_PAGES,
    budget: int = SMALL_BUDGET,
    **config_kwargs,
) -> Viyojit:
    """A started Viyojit over a small region (helper, not a fixture)."""
    system = Viyojit(
        sim=sim,
        num_pages=num_pages,
        config=ViyojitConfig(dirty_budget_pages=budget, **config_kwargs),
    )
    system.start()
    return system


def make_hardware_viyojit(
    sim: Simulation,
    num_pages: int = SMALL_PAGES,
    budget: int = SMALL_BUDGET,
    **config_kwargs,
) -> HardwareViyojit:
    system = HardwareViyojit(
        sim=sim,
        num_pages=num_pages,
        config=ViyojitConfig(dirty_budget_pages=budget, **config_kwargs),
    )
    system.start()
    return system


def make_baseline(sim: Simulation, num_pages: int = SMALL_PAGES) -> FullBatteryNVDRAM:
    system = FullBatteryNVDRAM(sim=sim, num_pages=num_pages)
    system.start()
    return system


@pytest.fixture
def viyojit(sim: Simulation) -> Viyojit:
    return make_viyojit(sim)


@pytest.fixture
def baseline(sim: Simulation) -> FullBatteryNVDRAM:
    return make_baseline(sim)


@pytest.fixture
def backing() -> BackingStore:
    return BackingStore(SMALL_PAGES)
