"""Tests for battery ballooning across tenants (section 6.3)."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        report = broker.rebalance()
        assert broker.allocated_pages() <= broker.total_budget_pages
        assert broker.allocated_pages() < before
        assert all(budget >= 1 for budget in report.budgets.values())
        assert broker.survives_power_failure()

    def test_battery_degraded_below_floors_is_not_overcommitted(self, sim):
        """Floors 20/1/1 on a 24-page battery degraded to 4 pages used to
        get 3+1+1 = 5 pages, so full tenants outran the battery."""
        broker = make_broker(sim, budget_pages=24)
        tenants = [make_tenant(sim) for _ in range(3)]
        for name, tenant, floor in zip("abc", tenants, (20, 1, 1)):
            broker.register(name, tenant, floor_pages=floor)
        broker.battery.degrade(0.8)
        assert broker.total_budget_pages == 4
        report = broker.rebalance()
        assert report.budgets == {"a": 2, "b": 1, "c": 1}
        for tenant in tenants:
            mapping = tenant.mmap(32 * PAGE)
            for page in range(tenant.dirty_budget_pages):
                tenant.write(mapping.base_addr + page * PAGE, b"full")
        assert broker.total_dirty_pages() == 4
        assert broker.survives_power_failure()


BURSTS = st.tuples(st.just("burst"), st.integers(0, 3), st.integers(1, 40))
DEGRADES = st.tuples(st.just("degrade"), st.floats(0.0, 0.6))


@settings(max_examples=25, deadline=None)
@given(
    tenant_sizes=st.lists(
        st.tuples(st.integers(1, 8), st.integers(8, 128)),
        min_size=1,
        max_size=4,
    ),
    # At least one spare page: a battery sized for n pages may flush n - 1.
    extra=st.integers(1, 96),
    steps=st.lists(st.one_of(BURSTS, DEGRADES), min_size=1, max_size=8),
)
def test_rebalance_keeps_budgets_within_battery(tenant_sizes, extra, steps):
    """After every rebalance, under bursts and degradations: the budgets
    fit ``max(battery, tenants)``, none is below one page or (while the
    floors fit) its floor or above its region, and every tenant's dirty
    set fits its budget.  Regions are drawn small enough that a share of
    the battery can overflow one."""
    floors = [floor for floor, _ in tenant_sizes]
    regions = [region for _, region in tenant_sizes]
    sim = Simulation()
    broker = make_broker(sim, budget_pages=sum(floors) + extra)
    tenants = [make_tenant(sim, num_pages=region) for region in regions]
    mappings = [tenant.mmap(region * PAGE) for tenant, region in zip(tenants, regions)]
    for index, (tenant, floor) in enumerate(zip(tenants, floors)):
        broker.register(f"t{index}", tenant, floor_pages=floor)
    for step in steps:
        if step[0] == "burst":
            _, which, pages = step
            which %= len(tenants)
            for page in range(pages):
                tenants[which].write(
                    mappings[which].base_addr
                    + (page * 7 % regions[which]) * PAGE,
                    b"b",
                )
        else:
            broker.battery.degrade(step[1])
        total = broker.total_budget_pages
        report = broker.rebalance()
        budgets = list(report.budgets.values())
        assert sum(budgets) <= max(total, len(tenants))
        assert broker.allocated_pages() == sum(budgets)
        for state, budget in zip(broker.tenants, budgets):
            assert budget >= 1
            if sum(floors) <= total:
                assert budget >= state.floor_pages
            assert budget <= state.system.region.num_pages
            assert state.system.dirty_budget_pages == budget
            assert state.system.dirty_count <= budget


def test_rebalance_caps_each_tenant_at_its_region():
    """A demand share past a tenant's region goes to the other tenants.

    A 64-page battery over two 32-page tenants with 4-page floors: four
    dirty pages on one would earn it 60 pages, more than its region, and
    ``set_dirty_budget`` used to raise partway through the pass (after
    the shrinks were applied).  The cap keeps it at 32 and hands the
    other tenant the rest."""
    sim = Simulation()
    broker = make_broker(sim, budget_pages=64)
    busy = make_tenant(sim, num_pages=32)
    idle = make_tenant(sim, num_pages=32)
    broker.register("busy", busy, floor_pages=4)
    broker.register("idle", idle, floor_pages=4)
    mapping = busy.mmap(8 * PAGE)
    for page in range(4):
        busy.write(mapping.base_addr + page * PAGE, b"hot")
    report = broker.rebalance()
    assert report.budgets == {"busy": 32, "idle": 32}
    assert busy.dirty_budget_pages == 32
    assert idle.dirty_budget_pages == 32
    # Both capped: the budgets sum below a larger battery.
    broker.battery = PowerModel().battery_for_dirty_bytes(100 * PAGE)
    assert broker.total_budget_pages > 64
    assert sum(broker.rebalance().budgets.values()) == 64


BUDGET_STEPS = st.tuples(st.just("budget"), st.integers(1, 24))
WRITE_STEPS = st.tuples(st.just("write"), st.integers(0, 47))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(BUDGET_STEPS, WRITE_STEPS), min_size=1, max_size=40))
def test_set_dirty_budget_leaves_count_within_budget(steps):
    """Grows and shrinks interleaved with writes: a started system's dirty
    count fits the budget in force after every call."""
    system = make_tenant(Simulation(), num_pages=64)
    mapping = system.mmap(48 * PAGE)
    for kind, value in steps:
        if kind == "budget":
            system.set_dirty_budget(value)
        else:
            system.write(mapping.base_addr + value * PAGE, b"w")
        assert system.dirty_count <= system.dirty_budget_pages
