"""Battery ballooning across co-located tenants (section 6.3).

The paper: *"we make a case for such cloud providers to treat battery as
a first class resource, much like DRAM itself.  In such a setting,
tenants can buy battery capacity based on their expected workload and
required performance.  Further, cloud providers can employ techniques
similar to memory ballooning to reallocate battery/dirty-budget among
co-located tenants to benefit from inherent statistical multiplexing
effects."*

:class:`BatteryBroker` implements that reallocation.  One physical
battery backs several Viyojit tenants; the broker periodically measures
each tenant's *demand* (current dirty footprint plus predicted dirty-page
pressure) and moves budget from under-using tenants to bursting ones,
subject to:

* a guaranteed floor per tenant (the "purchased" battery share),
* the safety invariant — the sum of effective budgets never exceeds what
  the battery can flush, and budget taken from a tenant is only handed
  out after that tenant has drained below its new bound.

The split is the cluster pool's own largest-remainder
:func:`~repro.cluster.rebalancer.apportion`, and every budget change goes
through :meth:`~repro.core.runtime.Viyojit.set_dirty_budget`, whose
shrink drains before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.runtime import Viyojit
from repro.power.battery import Battery
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation


@dataclass
class TenantState:
    """Broker-side record for one registered tenant."""

    name: str
    system: Viyojit
    floor_pages: int
    budget_pages: int


@dataclass
class RebalanceReport:
    """What one rebalance pass did."""

    budgets: Dict[str, int] = field(default_factory=dict)
    demands: Dict[str, float] = field(default_factory=dict)


class BatteryBroker:
    """Allocates one battery's dirty budget across Viyojit tenants."""

    def __init__(
        self,
        sim: Simulation,
        battery: Battery,
        power_model: PowerModel,
        page_size: int = 4096,
    ) -> None:
        self.sim = sim
        self.battery = battery
        self.power_model = power_model
        self.page_size = int(page_size)
        self._tenants: List[TenantState] = []

    @property
    def total_budget_pages(self) -> int:
        """Pages the battery can flush right now (tracks degradation)."""
        return self.power_model.dirty_budget_pages(self.battery, self.page_size)

    @property
    def tenants(self) -> List[TenantState]:
        return list(self._tenants)

    def allocated_pages(self) -> int:
        return sum(tenant.budget_pages for tenant in self._tenants)

    def register(self, name: str, system: Viyojit, floor_pages: int = 1) -> TenantState:
        """Add a tenant with a guaranteed battery floor.

        The initial allocation is the floor; the first rebalance spreads
        the surplus by demand.
        """
        if floor_pages <= 0:
            raise ValueError(f"floor_pages must be positive: {floor_pages}")
        if any(tenant.name == name for tenant in self._tenants):
            raise ValueError(f"tenant {name!r} already registered")
        floors = sum(t.floor_pages for t in self._tenants) + floor_pages
        if floors > self.total_budget_pages:
            raise ValueError(
                f"floors ({floors} pages) exceed battery capacity "
                f"({self.total_budget_pages} pages)"
            )
        tenant = TenantState(
            name=name, system=system, floor_pages=floor_pages,
            budget_pages=floor_pages,
        )
        system.set_dirty_budget(floor_pages)
        self._tenants.append(tenant)
        return tenant

    def demand_of(self, tenant: TenantState) -> float:
        """Demand signal: current footprint + predicted next-epoch burst."""
        system = tenant.system
        return system.tracker.count + system.pressure.pressure

    def rebalance(self) -> RebalanceReport:
        """One ballooning pass: floors first, surplus by demand.

        While the floors fit the battery, each tenant gets its floor plus
        a largest-remainder share of the surplus by demand, capped at its
        region's page count; a capped tenant's excess is re-split by
        demand over the uncapped ones, so when every tenant is capped
        the budgets sum below the battery.  A battery
        degraded below the sum of floors is split in proportion to the
        floors instead, never below one page per tenant — the pool's own
        stance for shards, so the budgets sum to at most
        ``max(total_budget_pages, tenants)``.  Shrinking tenants drain
        (inside ``set_dirty_budget``) *before* growing tenants receive,
        so at every instant the sum of effective dirty bounds is covered
        by the battery.
        """
        # Imported here: ``repro.cluster``'s package init loads the whole
        # cluster runner, which every ``import repro`` would then pay for.
        from repro.cluster.rebalancer import apportion

        tenants = self._tenants
        if not tenants:
            return RebalanceReport()
        total = self.total_budget_pages
        floors = [tenant.floor_pages for tenant in tenants]
        demands = {tenant.name: self.demand_of(tenant) for tenant in tenants}
        if sum(floors) <= total:
            # A tenant cannot hold more budget than its region has pages:
            # cap it there and re-split the rest over the others.
            caps = [tenant.system.region.num_pages for tenant in tenants]
            weights = list(demands.values())
            targets = list(caps)
            uncapped = list(range(len(tenants)))
            while uncapped:
                held = sum(caps) - sum(caps[at] for at in uncapped)
                shares = apportion(
                    total - held - sum(floors[at] for at in uncapped),
                    [weights[at] for at in uncapped],
                )
                for at, share in zip(uncapped, shares):
                    targets[at] = floors[at] + share
                over = [at for at in uncapped if targets[at] > caps[at]]
                if not over:
                    break
                for at in over:
                    targets[at] = caps[at]
                uncapped = [at for at in uncapped if at not in over]
        else:
            targets = apportion(max(total, len(tenants)), floors, floor=1)

        moves = list(zip(tenants, targets))
        shrinks = [(t, target) for t, target in moves if target < t.budget_pages]
        grows = [(t, target) for t, target in moves if target > t.budget_pages]
        for tenant, target in shrinks + grows:
            tenant.system.set_dirty_budget(target)
            tenant.budget_pages = target
        return RebalanceReport(
            budgets={tenant.name: target for tenant, target in moves},
            demands=demands,
        )

    def total_dirty_pages(self) -> int:
        return sum(tenant.system.tracker.count for tenant in self._tenants)

    def survives_power_failure(self) -> bool:
        """Can the shared battery flush every tenant's dirty data now?"""
        dirty_bytes = sum(
            tenant.system.dirty_bytes() for tenant in self._tenants
        )
        energy = self.power_model.energy_to_flush(dirty_bytes)
        return energy <= self.battery.usable_joules
