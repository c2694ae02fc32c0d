"""Tests for battery ballooning across tenants (section 6.3)."""

import random
import re

import numpy as np
import pytest

from repro.core.ballooning import BatteryBroker
from repro.core.config import ViyojitConfig
from repro.core.runtime import Viyojit
from repro.power.battery import Battery
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation

PAGE = 4096


def make_broker(sim, budget_pages=64):
    model = PowerModel()
    battery = model.battery_for_dirty_bytes(budget_pages * PAGE)
    return BatteryBroker(sim, battery, model, page_size=PAGE)


def make_tenant(sim, num_pages=256):
    system = Viyojit(
        sim, num_pages=num_pages, config=ViyojitConfig(dirty_budget_pages=1)
    )
    system.start()
    return system


class TestBudgetRetuning:
    def test_set_budget_grows(self, sim):
        system = make_tenant(sim)
        system.set_dirty_budget(32)
        assert system.dirty_budget_pages == 32

    def test_set_budget_validation(self, sim):
        system = make_tenant(sim)
        with pytest.raises(ValueError):
            system.set_dirty_budget(0)
        with pytest.raises(ValueError):
            system.set_dirty_budget(10_000)

    @pytest.mark.parametrize("pages", [0.5, 1.5, True])
    def test_set_budget_rejects_non_integral(self, sim, pages):
        """0.5 used to pass the positivity check and truncate to a budget
        of 0, wedging the next faulting store in ``_make_room``."""
        system = make_tenant(sim)
        with pytest.raises(ValueError, match=re.escape(repr(pages))):
            system.set_dirty_budget(pages)
        assert system.dirty_budget_pages == 1

    def test_set_budget_accepts_numpy_integers(self, sim):
        system = make_tenant(sim)
        system.set_dirty_budget(np.int64(8))
        assert system.dirty_budget_pages == 8
        assert type(system.dirty_budget_pages) is int

    def test_drain_to_budget_after_shrink(self, sim):
        system = make_tenant(sim)
        system.set_dirty_budget(16)
        mapping = system.mmap(32 * PAGE)
        for page in range(16):
            system.write(mapping.base_addr + page * PAGE, b"x")
        system.set_dirty_budget(4)
        system.drain_to_budget()
        assert system.dirty_count <= 4

    def test_shrunk_budget_enforced_for_new_writes(self, sim):
        system = make_tenant(sim)
        system.set_dirty_budget(16)
        mapping = system.mmap(32 * PAGE)
        system.set_dirty_budget(3)
        for page in range(10):
            system.write(mapping.base_addr + page * PAGE, b"x")
            assert system.dirty_count <= 3


@pytest.fixture
def sim():
    return Simulation()


class TestBroker:
    def test_register_applies_floor(self, sim):
        broker = make_broker(sim, budget_pages=64)
        tenant = broker.register("a", make_tenant(sim), floor_pages=8)
        assert tenant.budget_pages == 8
        assert tenant.system.dirty_budget_pages == 8

    def test_register_rejects_overcommitted_floors(self, sim):
        broker = make_broker(sim, budget_pages=16)
        broker.register("a", make_tenant(sim), floor_pages=10)
        with pytest.raises(ValueError, match="exceed battery"):
            broker.register("b", make_tenant(sim), floor_pages=10)

    def test_duplicate_name_rejected(self, sim):
        broker = make_broker(sim)
        broker.register("a", make_tenant(sim))
        with pytest.raises(ValueError, match="already registered"):
            broker.register("a", make_tenant(sim))

    def test_rebalance_respects_total(self, sim):
        broker = make_broker(sim, budget_pages=64)
        for name in ("a", "b", "c"):
            broker.register(name, make_tenant(sim), floor_pages=4)
        report = broker.rebalance()
        assert sum(report.budgets.values()) <= broker.total_budget_pages
        assert broker.allocated_pages() <= broker.total_budget_pages

    def test_rebalance_follows_demand(self, sim):
        broker = make_broker(sim, budget_pages=64)
        busy = make_tenant(sim)
        idle = make_tenant(sim)
        broker.register("busy", busy, floor_pages=4)
        broker.register("idle", idle, floor_pages=4)
        broker.rebalance()  # initial split

        mapping = busy.mmap(64 * PAGE)
        rng = random.Random(1)
        for _ in range(600):
            page = rng.randrange(64)
            busy.write(mapping.base_addr + page * PAGE, b"busy!")
        report = broker.rebalance()
        assert report.budgets["busy"] > report.budgets["idle"]
        assert report.demands["busy"] > report.demands["idle"]

    def test_floor_is_guaranteed(self, sim):
        broker = make_broker(sim, budget_pages=64)
        busy = make_tenant(sim)
        idle = make_tenant(sim)
        broker.register("busy", busy, floor_pages=4)
        broker.register("idle", idle, floor_pages=12)
        mapping = busy.mmap(64 * PAGE)
        for page in range(40):
            busy.write(mapping.base_addr + page * PAGE, b"load")
        report = broker.rebalance()
        assert report.budgets["idle"] >= 12

    def test_shared_battery_always_survives(self, sim):
        broker = make_broker(sim, budget_pages=48)
        tenants = []
        for name in ("a", "b"):
            tenant = make_tenant(sim)
            broker.register(name, tenant, floor_pages=8)
            tenants.append(tenant)
        broker.rebalance()
        mappings = [tenant.mmap(64 * PAGE) for tenant in tenants]
        rng = random.Random(2)
        for step in range(800):
            which = rng.randrange(2)
            page = rng.randrange(64)
            tenants[which].write(
                mappings[which].base_addr + page * PAGE, b"w" * 16
            )
            if step % 100 == 99:
                broker.rebalance()
            assert broker.survives_power_failure(), f"unsafe at step {step}"

    def test_degraded_battery_rebalances_down(self, sim):
        broker = make_broker(sim, budget_pages=64)
        a = make_tenant(sim)
        b = make_tenant(sim)
        broker.register("a", a, floor_pages=24)
        broker.register("b", b, floor_pages=24)
        broker.rebalance()
        before = broker.allocated_pages()
        broker.battery.degrade(0.5)
        report = broker.on_battery_degraded()
        assert broker.allocated_pages() <= broker.total_budget_pages
        assert broker.allocated_pages() < before
        assert all(budget >= 1 for budget in report.budgets.values())
        assert broker.survives_power_failure()
