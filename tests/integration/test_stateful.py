"""Hypothesis stateful testing of the Viyojit runtime.

A rule-based state machine drives an arbitrary interleaving of writes,
reads, time advancement, budget retuning, and drains against one Viyojit
instance, checking the durability invariants after *every* step.  This is
the strongest automated argument that the Fig 6 flow has no reachable
state violating the paper's guarantees.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import settings

from repro.core.config import ViyojitConfig
from repro.core.crash import CrashSimulator, viyojit_battery
from repro.core.runtime import Viyojit
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation

PAGE = 4096
REGION_PAGES = 96
HEAP_PAGES = 64
BUDGET = 10


class ViyojitMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulation()
        self.system = Viyojit(
            self.sim,
            num_pages=REGION_PAGES,
            config=ViyojitConfig(dirty_budget_pages=BUDGET),
        )
        self.system.start()
        self.mapping = self.system.mmap(HEAP_PAGES * PAGE)
        self.model = {}  # addr -> last byte written
        model_battery = viyojit_battery(PowerModel(), BUDGET * PAGE)
        self.crash = CrashSimulator(self.system, PowerModel(), model_battery)

    @rule(
        page=st.integers(0, HEAP_PAGES - 1),
        offset=st.integers(0, PAGE - 9),
        byte=st.integers(0, 255),
    )
    def write(self, page, offset, byte):
        addr = self.mapping.base_addr + page * PAGE + offset
        self.system.write(addr, bytes([byte]) * 8)
        for i in range(8):
            self.model[addr + i] = byte

    @rule(page=st.integers(0, HEAP_PAGES - 1), offset=st.integers(0, PAGE - 9))
    def read(self, page, offset):
        addr = self.mapping.base_addr + page * PAGE + offset
        got = self.system.read(addr, 8)
        for i in range(8):
            expected = self.model.get(addr + i, 0)
            assert got[i] == expected

    @rule(epochs=st.integers(1, 5))
    def let_time_pass(self, epochs):
        self.sim.run_until(
            self.sim.now + epochs * self.system.config.epoch_ns
        )

    @rule(new_budget=st.integers(4, BUDGET))
    def retune_budget(self, new_budget):
        self.system.set_dirty_budget(new_budget)

    @rule()
    def restore_full_budget(self):
        self.system.set_dirty_budget(BUDGET)

    @rule()
    def drain(self):
        self.system.drain()
        assert self.system.dirty_count == 0

    @invariant()
    def budget_bound_holds(self):
        assert self.system.dirty_count <= max(
            self.system.dirty_budget_pages, BUDGET
        )

    @invariant()
    def crash_survivable(self):
        # The provisioned battery always covers the *original* budget;
        # retuning only ever lowers the dirty bound below it.
        assert self.crash.power_failure().survives

    @invariant()
    def clean_pages_durable(self):
        for pfn, version in self.system.region.touched_pages():
            if pfn not in self.system.tracker:
                assert self.system.backing.holds_version(pfn, version)


ViyojitMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestViyojitStateful = ViyojitMachine.TestCase
