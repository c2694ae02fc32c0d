"""Demand forecasting for the cluster lease planner.

PR 8's leasing protocol is *reactive*: epoch ``e`` apportions the pool
by the demand observed during epoch ``e - 1``.  Under shifting zipfian
skew — a hotspot that rotates between shards at epoch boundaries — that
is systematically one epoch late: the pool chases yesterday's hot shard
while today's starves.  The NVM literature treats this as a forecasting
problem (Escuin et al. forecast NVM cache lifetime/performance the same
way), and so does this module: the planner asks a pluggable
:class:`DemandPredictor` for epoch ``e``'s demand matrix instead of
reading the stale snapshot directly.

Three predictors ship:

``last-epoch``
    The default: forecast = the previous epoch's observed matrix,
    zeros before any history exists.  ``plan_cluster`` with this
    predictor (and damping off) leases exactly as the original reactive
    protocol did, so its misallocation equals its own baseline's.
``ewma``
    One exponentially weighted moving average over the *shard*
    aggregate demand (summed across tenants):
    ``S_e = alpha * d_{e-1} + (1 - alpha) * S_{e-1}``.  Every tenant's
    pool is apportioned by the same smoothed shard profile.  Under a
    rotating hotspot the EWMA hedges across recently hot shards instead
    of betting everything on yesterday's, which lowers L1 misallocation.
``per-tenant-ewma``
    An EWMA per ``(tenant, shard)`` cell, so each tenant's pool follows
    that tenant's own demand history rather than the fleet aggregate.
    With one tenant this is identical to ``ewma``.

Prediction quality is measured as **L1 misallocation**: for each epoch,
the L1 distance between the leases actually granted and the *oracle*
leases — what :func:`repro.cluster.rebalancer.plan_epoch` would have
granted had it seen the epoch's true demand.  The per-epoch series and
its sum land in CLUSTER.json next to a replayed reactive baseline, so
every forecasted run reports how much (or little) forecasting helped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.rebalancer import plan_epoch

#: Predictor registry order is part of the CLI contract.
PREDICTORS = ("last-epoch", "ewma", "per-tenant-ewma")

DEFAULT_EWMA_ALPHA = 0.5

Matrix = List[List[float]]


class DemandPredictor:
    """Forecasts the next epoch's demand matrix from observed history.

    The planner drives the protocol: one :meth:`forecast` before each
    rebalance, one :meth:`observe` with the epoch's true demand after.
    Implementations must be pure functions of their observation history
    (no RNG, no clocks) — CLUSTER.json byte-identity rests on it.
    """

    name = "base"

    def __init__(self, tenants: int, shards: int) -> None:
        if tenants <= 0:
            raise ValueError(f"tenants must be positive: {tenants}")
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        self.tenants = tenants
        self.shards = shards

    def _zeros(self) -> Matrix:
        return [[0 for _ in range(self.shards)] for _ in range(self.tenants)]

    def _check(self, observed: Sequence[Sequence[int]]) -> None:
        if len(observed) != self.tenants or any(
            len(row) != self.shards for row in observed
        ):
            raise ValueError(
                f"observed matrix must be {self.tenants}x{self.shards}"
            )

    def observe(self, observed: Sequence[Sequence[int]]) -> None:
        raise NotImplementedError

    def forecast(self) -> Matrix:
        raise NotImplementedError


class LastEpochPredictor(DemandPredictor):
    """PR 8's reactive protocol: forecast = the last observed matrix."""

    name = "last-epoch"

    def __init__(self, tenants: int, shards: int) -> None:
        super().__init__(tenants, shards)
        self._last: Optional[Matrix] = None

    def observe(self, observed: Sequence[Sequence[int]]) -> None:
        self._check(observed)
        self._last = [list(row) for row in observed]

    def forecast(self) -> Matrix:
        if self._last is None:
            return self._zeros()
        return [list(row) for row in self._last]


class EwmaPredictor(DemandPredictor):
    """EWMA over the tenant-aggregated shard demand profile."""

    name = "ewma"

    def __init__(self, tenants: int, shards: int, alpha: float) -> None:
        super().__init__(tenants, shards)
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self._state: Optional[List[float]] = None

    def observe(self, observed: Sequence[Sequence[int]]) -> None:
        self._check(observed)
        aggregate = [
            float(sum(observed[tenant][shard] for tenant in range(self.tenants)))
            for shard in range(self.shards)
        ]
        if self._state is None:
            self._state = aggregate
        else:
            self._state = [
                self.alpha * new + (1.0 - self.alpha) * old
                for new, old in zip(aggregate, self._state)
            ]

    def forecast(self) -> Matrix:
        if self._state is None:
            return self._zeros()
        profile = [round(value, 6) for value in self._state]
        return [list(profile) for _ in range(self.tenants)]


class PerTenantEwmaPredictor(DemandPredictor):
    """An independent EWMA per ``(tenant, shard)`` demand cell."""

    name = "per-tenant-ewma"

    def __init__(self, tenants: int, shards: int, alpha: float) -> None:
        super().__init__(tenants, shards)
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = float(alpha)
        self._state: Optional[List[List[float]]] = None

    def observe(self, observed: Sequence[Sequence[int]]) -> None:
        self._check(observed)
        if self._state is None:
            self._state = [[float(cell) for cell in row] for row in observed]
        else:
            self._state = [
                [
                    self.alpha * float(new) + (1.0 - self.alpha) * old
                    for new, old in zip(new_row, old_row)
                ]
                for new_row, old_row in zip(observed, self._state)
            ]

    def forecast(self) -> Matrix:
        if self._state is None:
            return self._zeros()
        return [[round(cell, 6) for cell in row] for row in self._state]


def make_predictor(
    name: str,
    tenants: int,
    shards: int,
    alpha: float = DEFAULT_EWMA_ALPHA,
) -> DemandPredictor:
    """Build the predictor ``name`` (one of :data:`PREDICTORS`)."""
    if name == "last-epoch":
        return LastEpochPredictor(tenants, shards)
    if name == "ewma":
        return EwmaPredictor(tenants, shards, alpha)
    if name == "per-tenant-ewma":
        return PerTenantEwmaPredictor(tenants, shards, alpha)
    raise ValueError(
        f"unknown predictor {name!r}; choose from {list(PREDICTORS)}"
    )


# -- prediction-error accounting -------------------------------------------


def oracle_leases(
    capacity_pages: int,
    observed: Sequence[Sequence[int]],
    tenant_quotas: Sequence[float],
    floor_pages: int,
    active: Optional[Sequence[bool]] = None,
) -> List[int]:
    """The leases a clairvoyant planner would have granted.

    Same apportionment, same capacity, same membership mask — but fed
    the epoch's *actual* demand instead of a forecast.  The gap between
    these and the granted leases is pure prediction (plus damping)
    error.
    """
    _, leases = plan_epoch(
        capacity_pages, observed, tenant_quotas, floor_pages, active=active
    )
    return leases


def l1_misallocation(
    granted: Sequence[int], oracle: Sequence[int]
) -> int:
    """L1 distance between granted and oracle lease vectors."""
    if len(granted) != len(oracle):
        raise ValueError("lease vectors must have equal length")
    return sum(abs(got - want) for got, want in zip(granted, oracle))


def misallocation_series(
    lease_vectors: Sequence[Sequence[int]],
    demands: Sequence[Sequence[Sequence[int]]],
    capacity_schedule: Sequence[int],
    tenant_quotas: Sequence[float],
    floor_pages: int,
    active_schedule: Optional[Sequence[Sequence[bool]]] = None,
) -> List[int]:
    """Per-epoch L1 misallocation of a full lease schedule.

    ``lease_vectors[e]`` is the granted per-shard lease vector for epoch
    ``e``; ``demands[e]`` the true demand matrix observed during that
    epoch.  Every epoch is scored against its own oracle, so the series
    isolates the planner's forecasting error from capacity changes.
    """
    if len(lease_vectors) != len(demands) or len(demands) != len(
        capacity_schedule
    ):
        raise ValueError("schedule lengths must agree")
    series = []
    for epoch, granted in enumerate(lease_vectors):
        active = (
            active_schedule[epoch] if active_schedule is not None else None
        )
        oracle = oracle_leases(
            capacity_schedule[epoch],
            demands[epoch],
            tenant_quotas,
            floor_pages,
            active=active,
        )
        series.append(l1_misallocation(granted, oracle))
    return series


def misallocation_report(
    predictor: str,
    lease_vectors: Sequence[Sequence[int]],
    reference_vectors: Sequence[Sequence[int]],
    demands: Sequence[Sequence[Sequence[int]]],
    capacity_schedule: Sequence[int],
    tenant_quotas: Sequence[float],
    floor_pages: int,
    active_schedule: Optional[Sequence[Sequence[bool]]] = None,
) -> Dict[str, object]:
    """The CLUSTER.json ``misallocation`` block for one budgeted run.

    Scores the granted schedule and the replayed undamped reactive
    baseline against the same per-epoch oracles, so a single report
    answers "did forecasting beat PR 8's protocol here, and by how
    much".  ``improvement_pct`` is positive when the predictor reduced
    summed misallocation.
    """
    per_epoch = misallocation_series(
        lease_vectors,
        demands,
        capacity_schedule,
        tenant_quotas,
        floor_pages,
        active_schedule,
    )
    baseline = misallocation_series(
        reference_vectors,
        demands,
        capacity_schedule,
        tenant_quotas,
        floor_pages,
        active_schedule,
    )
    total = sum(per_epoch)
    baseline_total = sum(baseline)
    improvement: Optional[float] = None
    if baseline_total > 0:
        improvement = round(100.0 * (1.0 - total / baseline_total), 2)
    return {
        "predictor": predictor,
        "per_epoch": per_epoch,
        "total": total,
        "baseline_last_epoch": {
            "per_epoch": baseline,
            "total": baseline_total,
        },
        "improvement_pct": improvement,
    }


__all__ = [
    "DEFAULT_EWMA_ALPHA",
    "DemandPredictor",
    "EwmaPredictor",
    "LastEpochPredictor",
    "PerTenantEwmaPredictor",
    "PREDICTORS",
    "l1_misallocation",
    "make_predictor",
    "misallocation_report",
    "misallocation_series",
    "oracle_leases",
]
