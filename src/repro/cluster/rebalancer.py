"""Deterministic budget apportionment for the shared battery pool.

The rebalancer answers one question every epoch: given what each shard
is writing, how should the pool's budget pages be divided?
The answer is largest-remainder apportionment — proportional shares
floored to integers, leftover pages handed out by descending fractional
remainder with index-order tie-breaks — because it is exact (grants sum
to precisely the distributable total), proportional, and a pure function
of its inputs.  No RNG, no iteration-order dependence: cross-``--jobs``
byte-identity of CLUSTER.json rests on this.

Two planning refinements layer on top of the raw apportionment:

* **Membership masks** — :func:`plan_epoch` takes an ``active`` vector;
  inactive shards (not yet joined, or already drained off the ring)
  receive exactly their floor while the distributable capacity is
  apportioned across active shards only.
* **Hysteresis/damping** — :func:`damp_grants` rate-limits how many
  budget pages may voluntarily change shards between consecutive
  epochs.  Movement *forced* by capacity change or membership handoff
  is exempt (conservation is not negotiable); everything else is scaled
  back, largest-remainder style, to the configured churn cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


#: Pages every shard keeps whatever its demand: a live Viyojit instance
#: needs a positive budget even when idle.
FLOOR_PAGES = 1


def apportion(
    total: int,
    weights: Sequence[float],
    floor: int = 0,
) -> List[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Every recipient gets at least ``floor`` units; the remainder is
    divided by the largest-remainder method (ties broken by index, so
    the result is deterministic).  All-zero weights fall back to an even
    split.  The grants always sum to exactly ``total``.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("apportion needs at least one recipient")
    if floor < 0:
        raise ValueError(f"floor must be non-negative: {floor}")
    if total < floor * n:
        raise ValueError(
            f"total {total} cannot cover floor {floor} x {n} recipients"
        )
    for weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be non-negative: {weight}")
    effective = list(weights)
    if not any(effective):
        effective = [1.0] * n
    distributable = total - floor * n
    weight_sum = float(sum(effective))
    quotas = [distributable * weight / weight_sum for weight in effective]
    grants = [int(quota) for quota in quotas]
    leftover = distributable - sum(grants)
    # Largest remainder first; among equal remainders, lowest index.
    order = sorted(
        range(n), key=lambda at: (-(quotas[at] - grants[at]), at)
    )
    for at in order[:leftover]:
        grants[at] += 1
    return [floor + grant for grant in grants]


def plan_epoch(
    capacity_pages: int,
    demands: Sequence[float],
    active: Optional[Sequence[bool]] = None,
) -> List[int]:
    """One rebalance epoch's leases, from per-shard demand.

    ``demands[shard]`` is the demand signal (distinct keys written this
    epoch, or a predictor's forecast of them).  Every shard is floored
    at :data:`FLOOR_PAGES` off the top (a live Viyojit instance needs a
    positive budget even when idle), and the rest is apportioned across
    shards by demand.

    ``active`` masks shards that are not currently on the ring (pre-join
    or post-removal): they keep their floor but receive no above-floor
    grant, and the all-zero-weights even-split fallback spreads over
    active shards only.

    Returns ``leases[shard]``, summing to exactly ``capacity_pages``.
    """
    shards = len(demands)
    if shards == 0:
        raise ValueError("plan_epoch needs at least one shard")
    if active is None:
        active_idx = list(range(shards))
    else:
        if len(active) != shards:
            raise ValueError(
                f"active mask covers {len(active)} shards, demands {shards}"
            )
        active_idx = [at for at in range(shards) if active[at]]
        if not active_idx:
            raise ValueError("plan_epoch needs at least one active shard")
    grants = apportion(
        capacity_pages - FLOOR_PAGES * shards,
        [demands[at] for at in active_idx],
    )
    leases = [FLOOR_PAGES] * shards
    for position, at in enumerate(active_idx):
        leases[at] += grants[position]
    return leases


@dataclass(frozen=True)
class LeaseChurn:
    """Budget movement between two consecutive lease vectors.

    ``grown`` is the pages gained by growing shards and ``shed`` the
    pages given up by shrinking shards.  The two are equal only when
    both vectors sum to the same capacity; across a degradation epoch
    ``shed`` exceeds ``grown`` by exactly the capacity lost, and that
    shed is the drain work shards actually perform.  ``moved`` — the
    pages that physically changed shards — is the matched part,
    ``min(grown, shed)``.
    """

    grown: int
    shed: int

    @property
    def moved(self) -> int:
        return min(self.grown, self.shed)

    def as_dict(self) -> dict:
        return {"grown": self.grown, "shed": self.shed, "moved": self.moved}


def lease_churn(
    previous: Sequence[int], current: Sequence[int]
) -> LeaseChurn:
    """Grown/shed/moved accounting between two lease vectors.

    Exact when the vectors sum to different capacities (degradation
    epochs): pages gained by growing shards and pages shed by shrinking
    shards are reported separately.
    """
    if len(previous) != len(current):
        raise ValueError("lease vectors must have equal length")
    grown = 0
    shed = 0
    for before, now in zip(previous, current):
        if now > before:
            grown += now - before
        else:
            shed += before - now
    return LeaseChurn(grown=grown, shed=shed)


def damp_grants(
    previous: Sequence[int],
    target: Sequence[int],
    cap_pages: int,
    active: Optional[Sequence[bool]] = None,
) -> List[int]:
    """Rate-limit grant movement toward ``target``.

    ``previous`` and ``target`` are the per-shard above-floor grants for
    consecutive epochs; they may sum differently (the pool shrank with
    degradation).  The damped result always sums to exactly
    ``sum(target)`` — conservation is preserved bit-for-bit — while the
    *voluntary* churn (matched grow/shed movement between shards) is
    capped at ``cap_pages``.

    Movement the plan cannot avoid is exempt from the cap:

    * capacity delta — if the pool shrank, the difference must be shed
      somewhere regardless of damping;
    * membership handoff — shards masked inactive by ``active`` are
      zeroed first (a leaving shard drains fully; damping never strands
      budget on a shard that is off the ring).

    The capped grow/shed amounts are distributed over the shards
    proportionally to their planned deltas by the same largest-remainder
    method the rest of the planner uses, so damping is deterministic.
    """
    if len(previous) != len(target):
        raise ValueError("grant vectors must have equal length")
    if cap_pages < 0:
        raise ValueError(f"cap_pages must be non-negative: {cap_pages}")
    start = list(previous)
    if active is not None:
        if len(active) != len(start):
            raise ValueError("active mask must match grant vectors")
        # Handoff exemption: budget on inactive shards is forcibly freed
        # and re-enters the plan as mandatory growth elsewhere.
        start = [
            pages if alive else 0 for pages, alive in zip(start, active)
        ]
    deltas = [want - have for have, want in zip(start, target)]
    grown = sum(delta for delta in deltas if delta > 0)
    shed = -sum(delta for delta in deltas if delta < 0)
    if min(grown, shed) <= cap_pages:
        return list(target)
    forced = sum(target) - sum(start)
    allowed_grow = cap_pages + max(0, forced)
    allowed_shed = cap_pages + max(0, -forced)
    grow_share = apportion(
        allowed_grow, [max(0, delta) for delta in deltas], floor=0
    )
    shed_share = apportion(
        allowed_shed, [max(0, -delta) for delta in deltas], floor=0
    )
    return [
        have + grow - shed_part
        for have, grow, shed_part in zip(start, grow_share, shed_share)
    ]
