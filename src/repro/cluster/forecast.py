"""Demand forecasting for the cluster lease planner.

PR 8's leasing protocol is *reactive*: epoch ``e`` apportions the pool
by the demand observed during epoch ``e - 1``.  Under shifting zipfian
skew — a hotspot that rotates between shards at epoch boundaries — that
is systematically one epoch late: the pool chases yesterday's hot shard
while today's starves.  The NVM literature treats this as a forecasting
problem (Escuin et al. forecast NVM cache lifetime/performance the same
way), and so does this module: the planner asks a pluggable
:class:`DemandPredictor` for epoch ``e``'s per-shard demand instead of
reading the stale snapshot directly.

Two predictors ship:

``last-epoch``
    The default: forecast = the previous epoch's observed demand,
    zeros before any history exists.  ``plan_cluster`` with this
    predictor (and damping off) leases exactly as the original reactive
    protocol did, so its misallocation equals its own baseline's.
``ewma``
    An exponentially weighted moving average of per-shard demand:
    ``S_e = alpha * d_{e-1} + (1 - alpha) * S_{e-1}`` with
    ``alpha =`` :data:`EWMA_ALPHA`.  Under a rotating hotspot the EWMA
    hedges across recently hot shards instead of betting everything on
    yesterday's, which lowers L1 misallocation.

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
PREDICTORS = ("last-epoch", "ewma")

#: The EWMA predictor's smoothing factor.
EWMA_ALPHA = 0.5

Vector = List[float]


class DemandPredictor:
    """Forecasts the next epoch's per-shard demand from observed history.

    The planner drives the protocol: one :meth:`forecast` before each
    rebalance, one :meth:`observe` with the epoch's true demand after.
    Implementations must be pure functions of their observation history
    (no RNG, no clocks) — CLUSTER.json byte-identity rests on it.
    """

    name = "base"

    def __init__(self, shards: int) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        self.shards = shards

    def _check(self, observed: Sequence[int]) -> None:
        if len(observed) != self.shards:
            raise ValueError(
                f"observed demand must cover {self.shards} shards"
            )

    def observe(self, observed: Sequence[int]) -> None:
        raise NotImplementedError

    def forecast(self) -> Vector:
        raise NotImplementedError


class LastEpochPredictor(DemandPredictor):
    """The reactive protocol: forecast = the last observed demand."""

    name = "last-epoch"

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        self._last: Optional[Vector] = None

    def observe(self, observed: Sequence[int]) -> None:
        self._check(observed)
        self._last = list(observed)

    def forecast(self) -> Vector:
        if self._last is None:
            return [0] * self.shards
        return list(self._last)


class EwmaPredictor(DemandPredictor):
    """EWMA over the per-shard demand profile."""

    name = "ewma"

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        self._state: Optional[List[float]] = None

    def observe(self, observed: Sequence[int]) -> None:
        self._check(observed)
        demand = [float(count) for count in observed]
        if self._state is None:
            self._state = demand
        else:
            self._state = [
                EWMA_ALPHA * new + (1.0 - EWMA_ALPHA) * old
                for new, old in zip(demand, self._state)
            ]

    def forecast(self) -> Vector:
        if self._state is None:
            return [0] * self.shards
        return [round(value, 6) for value in self._state]


def make_predictor(name: str, shards: int) -> DemandPredictor:
    """Build the predictor ``name`` (one of :data:`PREDICTORS`)."""
    if name == "last-epoch":
        return LastEpochPredictor(shards)
    if name == "ewma":
        return EwmaPredictor(shards)
    raise ValueError(
        f"unknown predictor {name!r}; choose from {list(PREDICTORS)}"
    )


# -- prediction-error accounting -------------------------------------------


def oracle_leases(
    capacity_pages: int,
    observed: Sequence[int],
    active: Optional[Sequence[bool]] = None,
) -> List[int]:
    """The leases a clairvoyant planner would have granted.

    Same apportionment, same capacity, same membership mask — but fed
    the epoch's *actual* demand instead of a forecast.  The gap between
    these and the granted leases is pure prediction (plus damping)
    error.
    """
    return plan_epoch(capacity_pages, observed, active=active)


def l1_misallocation(
    granted: Sequence[int], oracle: Sequence[int]
) -> int:
    """L1 distance between granted and oracle lease vectors."""
    if len(granted) != len(oracle):
        raise ValueError("lease vectors must have equal length")
    return sum(abs(got - want) for got, want in zip(granted, oracle))


def misallocation_series(
    lease_vectors: Sequence[Sequence[int]],
    demands: Sequence[Sequence[int]],
    capacity_schedule: Sequence[int],
    active_schedule: Optional[Sequence[Sequence[bool]]] = None,
) -> List[int]:
    """Per-epoch L1 misallocation of a full lease schedule.

    ``lease_vectors[e]`` is the granted per-shard lease vector for epoch
    ``e``; ``demands[e]`` the true per-shard demand observed during
    that epoch.  Every epoch is scored against its own oracle, so the series
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
            capacity_schedule[epoch], demands[epoch], active=active
        )
        series.append(l1_misallocation(granted, oracle))
    return series


def misallocation_report(
    predictor: str,
    lease_vectors: Sequence[Sequence[int]],
    reference_vectors: Sequence[Sequence[int]],
    demands: Sequence[Sequence[int]],
    capacity_schedule: Sequence[int],
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
        lease_vectors, demands, capacity_schedule, active_schedule
    )
    baseline = misallocation_series(
        reference_vectors, demands, capacity_schedule, active_schedule
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
    "DemandPredictor",
    "EWMA_ALPHA",
    "EwmaPredictor",
    "LastEpochPredictor",
    "PREDICTORS",
    "l1_misallocation",
    "make_predictor",
    "misallocation_report",
    "misallocation_series",
    "oracle_leases",
]
