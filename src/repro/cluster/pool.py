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
    FLOOR_PAGES,
    LeaseChurn,
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
    planner, or a rounded float forecast under the EWMA predictor.
    """

    shard: int
    epoch: int
    pages: int
    demand: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "pages": self.pages,
            "demand": self.demand,
        }


class BatteryPool:
    """A shared battery capacity leased out to shards, epoch by epoch."""

    def __init__(
        self,
        capacity_pages: int,
        shards: int,
        churn_cap_pages: Optional[int] = None,
    ) -> None:
        if shards <= 0:
            raise PoolError(f"shards must be positive: {shards}")
        if not math.isfinite(capacity_pages):
            raise PoolError(f"capacity_pages must be finite: {capacity_pages}")
        if capacity_pages < shards * FLOOR_PAGES:
            raise PoolError(
                f"capacity of {capacity_pages} pages cannot floor "
                f"{shards} shards at {FLOOR_PAGES} page(s) each"
            )
        if churn_cap_pages is not None and churn_cap_pages < 0:
            raise PoolError(
                f"churn_cap_pages must be non-negative: {churn_cap_pages}"
            )
        self.nominal_capacity_pages = int(capacity_pages)
        self.shards = int(shards)
        self.churn_cap_pages = (
            int(churn_cap_pages) if churn_cap_pages is not None else None
        )
        self.health = 1.0
        self.lease_history: List[Tuple[PoolLease, ...]] = []

    # -- capacity ----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        """Capacity currently available: nominal x health, floored.

        Never below ``shards * FLOOR_PAGES`` — degradation shrinks
        budgets toward the floor instead of evicting shards.
        """
        derated = int(self.nominal_capacity_pages * self.health)
        return max(self.shards * FLOOR_PAGES, derated)

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
    ) -> "BatteryPool":
        """Pool capacity derived from a physical battery (section 5.1).

        The same arithmetic that sizes one machine's dirty budget sizes
        the fleet pool: usable joules over flush energy per page.
        """
        capacity = power_model.dirty_budget_pages(battery, page_size)
        return cls(capacity_pages=capacity, shards=shards)

    # -- leasing -----------------------------------------------------------

    def rebalance(
        self,
        demands: Sequence[float],
        epoch: int,
        active: Optional[Sequence[bool]] = None,
    ) -> Tuple[PoolLease, ...]:
        """Re-apportion capacity for one epoch; returns the new leases.

        ``demands[shard]`` is the epoch's demand signal (an observed
        count or a predictor's forecast).  The leases come from
        :func:`repro.cluster.rebalancer.plan_epoch` (floors off the top,
        largest-remainder by demand, inactive shards masked to their
        floor); conservation is re-checked on every call and a violation
        raises :class:`PoolError` rather than over-promising battery
        that does not exist.

        With ``churn_cap_pages`` configured, the above-floor grants are
        damped toward the plan via
        :func:`repro.cluster.rebalancer.damp_grants`: voluntary page
        movement per epoch is bounded by the cap, while capacity-delta
        and membership-handoff movement stays exempt.  Damping preserves
        the grant total exactly, so conservation is unaffected.
        """
        if epoch != len(self.lease_history):
            raise PoolError(
                f"epochs lease in order: expected epoch "
                f"{len(self.lease_history)}, got {epoch}"
            )
        if len(demands) != self.shards:
            raise PoolError(
                f"demand vector covers {len(demands)} shards, "
                f"pool has {self.shards}"
            )
        leases = plan_epoch(self.capacity_pages, demands, active=active)
        if self.churn_cap_pages is not None and self.lease_history:
            grants = damp_grants(
                [lease.pages - FLOOR_PAGES for lease in self.lease_history[-1]],
                [pages - FLOOR_PAGES for pages in leases],
                self.churn_cap_pages,
                active=active,
            )
            leases = [FLOOR_PAGES + grant for grant in grants]
        if sum(leases) > self.capacity_pages:
            raise PoolError(
                f"leases sum to {sum(leases)} pages, capacity is "
                f"{self.capacity_pages}"
            )
        granted = tuple(
            PoolLease(
                shard=shard,
                epoch=epoch,
                pages=leases[shard],
                # Observed counts are ints and round() keeps them so;
                # forecasts are floats, rounded so report bytes do not
                # depend on float formatting accidents.
                demand=round(demands[shard], 3),
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

    def schedules(self) -> List[Tuple[int, ...]]:
        """Per-shard budget schedules across all leased epochs."""
        return [
            tuple(
                self.lease_history[epoch][shard].pages
                for epoch in range(len(self.lease_history))
            )
            for shard in range(self.shards)
        ]
