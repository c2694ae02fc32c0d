"""Shared battery pool: one battery, N shards, leased dirty budgets.

The paper sizes one battery for one machine's dirty footprint.  At
cluster scale the battery is a *pooled* resource: the fleet provisions
one capacity (pages flushable on power loss) and shards lease slices of
it, re-apportioned every rebalance epoch as write pressure shifts.  The
pool enforces the conservation invariant the paper's safety argument
needs fleet-wide: **the sum of leased budgets never exceeds the pool's
(possibly degraded) capacity** — if every shard simultaneously filled
its lease and power failed everywhere, the battery could still flush
every dirty page.

Degradation mirrors :meth:`repro.power.Battery.degrade`: health shrinks
multiplicatively and capacity follows, but never below the per-shard
floors (a dying battery shrinks budgets, it does not turn shards off —
section 8's graceful-degradation stance, applied to the fleet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.rebalancer import (
    LeaseChurn,
    apportion,
    damp_grants,
    lease_churn,
    plan_epoch,
)
from repro.power.battery import Battery
from repro.power.power_model import PowerModel


class PoolError(ValueError):
    """A lease request or pool configuration violates pool invariants."""


@dataclass(frozen=True)
class PoolLease:
    """One shard's budget lease for one rebalance epoch.

    ``demand`` is the signal the rebalancer apportioned by: an integer
    distinct-written-keys count under the reactive ``last-epoch``
    planner, or a rounded float forecast under the EWMA predictors.
    """

    shard: int
    epoch: int
    pages: int
    demand: float
    tenant_pages: Tuple[int, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "pages": self.pages,
            "demand": self.demand,
            "tenant_pages": list(self.tenant_pages),
        }


class BatteryPool:
    """A shared battery capacity leased out to shards, epoch by epoch."""

    def __init__(
        self,
        capacity_pages: int,
        shards: int,
        tenant_quotas: Optional[Sequence[float]] = None,
        floor_pages: int = 1,
        churn_cap_pages: Optional[int] = None,
    ) -> None:
        if shards <= 0:
            raise PoolError(f"shards must be positive: {shards}")
        if floor_pages <= 0:
            raise PoolError(f"floor_pages must be positive: {floor_pages}")
        if not math.isfinite(capacity_pages):
            raise PoolError(f"capacity_pages must be finite: {capacity_pages}")
        if capacity_pages < shards * floor_pages:
            raise PoolError(
                f"capacity of {capacity_pages} pages cannot floor "
                f"{shards} shards at {floor_pages} page(s) each"
            )
        quotas = (
            tuple(tenant_quotas)
            if tenant_quotas is not None
            else (1.0,)
        )
        if not quotas:
            raise PoolError("tenant_quotas must not be empty")
        for quota in quotas:
            if not (math.isfinite(quota) and quota > 0):
                raise PoolError(
                    f"tenant_quotas must be finite and positive: {quota}"
                )
        if abs(sum(quotas) - 1.0) > 1e-9:
            raise PoolError(
                f"tenant quotas must sum to 1, got {sum(quotas)}"
            )
        if churn_cap_pages is not None and churn_cap_pages < 0:
            raise PoolError(
                f"churn_cap_pages must be non-negative: {churn_cap_pages}"
            )
        self.nominal_capacity_pages = int(capacity_pages)
        self.shards = int(shards)
        self.tenant_quotas: Tuple[float, ...] = quotas
        self.floor_pages = int(floor_pages)
        self.churn_cap_pages = (
            int(churn_cap_pages) if churn_cap_pages is not None else None
        )
        self.health = 1.0
        self.lease_history: List[Tuple[PoolLease, ...]] = []

    # -- capacity ----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        """Capacity currently available: nominal x health, floored.

        Never below ``shards * floor_pages`` — degradation shrinks
        budgets toward the floor instead of evicting shards.
        """
        derated = int(self.nominal_capacity_pages * self.health)
        return max(self.shards * self.floor_pages, derated)

    def degrade(self, fraction: float) -> None:
        """Lose ``fraction`` of current health (fleet battery aging)."""
        if not 0 <= fraction < 1:
            raise PoolError(f"fraction must be in [0, 1): {fraction}")
        self.health *= 1.0 - fraction

    @classmethod
    def from_battery(
        cls,
        battery: Battery,
        power_model: PowerModel,
        shards: int,
        page_size: int = 4096,
        tenant_quotas: Optional[Sequence[float]] = None,
        floor_pages: int = 1,
    ) -> "BatteryPool":
        """Pool capacity derived from a physical battery (section 5.1).

        The same arithmetic that sizes one machine's dirty budget sizes
        the fleet pool: usable joules over flush energy per page.
        """
        capacity = power_model.dirty_budget_pages(battery, page_size)
        return cls(
            capacity_pages=capacity,
            shards=shards,
            tenant_quotas=tenant_quotas,
            floor_pages=floor_pages,
        )

    # -- leasing -----------------------------------------------------------

    def rebalance(
        self,
        demands: Sequence[Sequence[float]],
        epoch: int,
        active: Optional[Sequence[bool]] = None,
    ) -> Tuple[PoolLease, ...]:
        """Re-apportion capacity for one epoch; returns the new leases.

        ``demands[tenant][shard]`` is the epoch's demand signal (an
        observed count or a predictor's forecast).  The grants come from
        :func:`repro.cluster.rebalancer.plan_epoch` (floors off the top,
        tenant quotas, largest-remainder within each tenant, inactive
        shards masked to their floor); conservation is re-checked on
        every call and a violation raises :class:`PoolError` rather than
        over-promising battery that does not exist.

        With ``churn_cap_pages`` configured, each tenant's grants are
        damped toward the plan via
        :func:`repro.cluster.rebalancer.damp_grants`: voluntary page
        movement per epoch is bounded by the cap (apportioned across
        tenants by quota), while capacity-delta and membership-handoff
        movement stays exempt.  Damping preserves each tenant's grant
        total exactly, so isolation and conservation are unaffected.
        """
        if epoch != len(self.lease_history):
            raise PoolError(
                f"epochs lease in order: expected epoch "
                f"{len(self.lease_history)}, got {epoch}"
            )
        grants, leases = plan_epoch(
            self.capacity_pages,
            demands,
            self.tenant_quotas,
            self.floor_pages,
            active=active,
        )
        if self.churn_cap_pages is not None and self.lease_history:
            previous = self.lease_history[-1]
            tenant_caps = apportion(
                self.churn_cap_pages, self.tenant_quotas, floor=0
            )
            for tenant in range(len(self.tenant_quotas)):
                prior = [
                    previous[shard].tenant_pages[tenant]
                    for shard in range(self.shards)
                ]
                grants[tenant] = damp_grants(
                    prior,
                    grants[tenant],
                    tenant_caps[tenant],
                    active=active,
                )
            leases = [
                self.floor_pages
                + sum(
                    grants[tenant][shard]
                    for tenant in range(len(self.tenant_quotas))
                )
                for shard in range(self.shards)
            ]
        if len(leases) != self.shards:
            raise PoolError(
                f"demand matrix covers {len(leases)} shards, "
                f"pool has {self.shards}"
            )
        if sum(leases) > self.capacity_pages:
            raise PoolError(
                f"leases sum to {sum(leases)} pages, capacity is "
                f"{self.capacity_pages}"
            )
        tenants = len(self.tenant_quotas)
        granted = tuple(
            PoolLease(
                shard=shard,
                epoch=epoch,
                pages=leases[shard],
                # Observed counts are ints and round() keeps them so;
                # forecasts are floats, rounded so report bytes do not
                # depend on float formatting accidents.
                demand=round(
                    sum(demands[tenant][shard] for tenant in range(tenants)),
                    3,
                ),
                tenant_pages=tuple(
                    grants[tenant][shard] for tenant in range(tenants)
                ),
            )
            for shard in range(self.shards)
        )
        self.lease_history.append(granted)
        return granted

    def leased_pages(self, epoch: int) -> int:
        """Total pages leased out in ``epoch``."""
        return sum(lease.pages for lease in self.lease_history[epoch])

    def churn(self, epoch: int) -> LeaseChurn:
        """Grown/shed/moved accounting entering ``epoch``.

        Across a degradation epoch ``shed`` exceeds ``grown`` by the
        capacity lost — the full drain work shrinking shards perform.
        """
        if epoch == 0:
            return LeaseChurn(grown=0, shed=0)
        return lease_churn(
            [lease.pages for lease in self.lease_history[epoch - 1]],
            [lease.pages for lease in self.lease_history[epoch]],
        )

    def tenant_leased_pages(self, epoch: int) -> Tuple[int, ...]:
        """Per-tenant granted pages (above floors) in ``epoch``.

        Isolation check surface: tenant ``t``'s total never exceeds its
        quota share of the distributable capacity (plus one page of
        largest-remainder rounding).
        """
        tenants = len(self.tenant_quotas)
        return tuple(
            sum(lease.tenant_pages[tenant] for lease in self.lease_history[epoch])
            for tenant in range(tenants)
        )

    def schedules(self) -> List[Tuple[int, ...]]:
        """Per-shard budget schedules across all leased epochs."""
        return [
            tuple(
                self.lease_history[epoch][shard].pages
                for epoch in range(len(self.lease_history))
            )
            for shard in range(self.shards)
        ]
