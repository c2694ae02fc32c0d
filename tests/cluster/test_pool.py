"""Battery-pool conservation and apportionment properties (hypothesis).

The fleet-wide safety invariant: at every rebalance epoch the pages
leased out never exceed the pool's (possibly degraded) capacity — the
cluster analogue of the paper's "battery flushes every dirty page"
guarantee — plus largest-remainder exactness.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import (
    FLOOR_PAGES,
    BatteryPool,
    PoolError,
    apportion,
    plan_epoch,
)
from repro.cluster.rebalancer import lease_churn
from repro.power.battery import Battery
from repro.power.power_model import PowerModel

weights = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)
demand_rows = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(total=st.integers(min_value=0, max_value=10**6), w=weights)
def test_apportion_sums_exactly(total, w):
    grants = apportion(total, w)
    assert sum(grants) == total
    assert all(grant >= 0 for grant in grants)


@settings(max_examples=40, deadline=None)
@given(total=st.integers(min_value=0, max_value=10**6), w=weights)
def test_apportion_is_deterministic(total, w):
    assert apportion(total, w) == apportion(total, w)


@settings(max_examples=40, deadline=None)
@given(
    per=st.integers(min_value=0, max_value=1000),
    n=st.integers(min_value=1, max_value=10),
)
def test_apportion_even_split_on_equal_weights(per, n):
    grants = apportion(per * n, [1.0] * n)
    assert grants == [per] * n


def test_apportion_respects_floor_and_validates():
    assert apportion(10, [0, 0, 0], floor=2) == [4, 3, 3]
    with pytest.raises(ValueError):
        apportion(5, [1, 1, 1], floor=2)
    with pytest.raises(ValueError):
        apportion(5, [])
    with pytest.raises(ValueError):
        apportion(5, [1, -1])


epoch_demand_streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=10**5), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=4, max_value=10**6),
    stream=epoch_demand_streams,
    degrade_at=st.integers(min_value=0, max_value=5),
    fraction=st.floats(min_value=0.0, max_value=0.9, exclude_min=True),
)
def test_conservation_at_every_epoch(capacity, stream, degrade_at, fraction):
    """sum(leases) <= capacity holds each epoch, degradation included."""
    pool = BatteryPool(capacity_pages=capacity, shards=4)
    for epoch, demand in enumerate(stream):
        if epoch == degrade_at:
            pool.degrade(fraction)
        leases = pool.rebalance(demand, epoch)
        assert sum(lease.pages for lease in leases) <= pool.capacity_pages
        assert pool.leased_pages(epoch) <= pool.capacity_pages
        assert all(lease.pages >= FLOOR_PAGES for lease in leases)


def test_degradation_shrinks_toward_floor_not_zero():
    pool = BatteryPool(capacity_pages=1000, shards=4)
    pool.degrade(0.999999)
    assert pool.capacity_pages == 4 * FLOOR_PAGES
    leases = pool.rebalance([10, 0, 0, 0], 0)
    assert all(lease.pages >= 1 for lease in leases)


def test_epochs_must_lease_in_order():
    pool = BatteryPool(capacity_pages=100, shards=2)
    pool.rebalance([1, 1], 0)
    with pytest.raises(PoolError):
        pool.rebalance([1, 1], 0)
    with pytest.raises(PoolError):
        pool.rebalance([1, 1], 5)
    with pytest.raises(PoolError, match="covers 3 shards"):
        pool.rebalance([1, 1, 1], 1)


def test_pool_validation():
    with pytest.raises(PoolError):
        BatteryPool(capacity_pages=3, shards=4)
    with pytest.raises(PoolError):
        BatteryPool(capacity_pages=100, shards=0)
    with pytest.raises(PoolError):
        BatteryPool(capacity_pages=100, shards=2).degrade(1.0)
    with pytest.raises(PoolError, match="capacity_pages must be finite"):
        BatteryPool(float("inf"), 2)


def test_from_battery_matches_single_machine_sizing():
    """The pool uses the paper's section-5.1 arithmetic, fleet-wide."""
    battery = Battery(nominal_joules=50_000.0)
    model = PowerModel()
    pool = BatteryPool.from_battery(battery, model, shards=4)
    assert (
        pool.nominal_capacity_pages
        == model.dirty_budget_pages(battery, 4096)
    )


def test_schedules_and_moved_pages():
    pool = BatteryPool(capacity_pages=100, shards=2)
    pool.rebalance([0, 0], 0)  # even split: 50/50
    pool.rebalance([3, 1], 1)  # skewed toward shard 0
    schedules = pool.schedules()
    assert len(schedules) == 2
    assert schedules[0][0] == 50 and schedules[1][0] == 50
    assert schedules[0][1] > schedules[1][1]
    assert pool.churn(0).grown == 0
    assert pool.churn(1).grown == schedules[0][1] - 50


def test_moved_pages_helper():
    assert lease_churn([5, 5], [7, 3]).grown == 2
    assert lease_churn([5, 5], [5, 5]).grown == 0
    with pytest.raises(ValueError):
        lease_churn([1], [1, 2])


def test_plan_epoch_leases_sum_to_capacity():
    leases = plan_epoch(101, [5, 0, 2])
    assert sum(leases) == 101
    assert all(lease >= FLOOR_PAGES for lease in leases)
    assert leases[1] == FLOOR_PAGES  # no demand, no grant above the floor


def test_plan_epoch_masks_inactive_shards_to_the_floor():
    leases = plan_epoch(100, [5, 5, 5], active=(True, False, True))
    assert leases[1] == FLOOR_PAGES  # inactive shard keeps exactly its floor
    assert sum(leases) == 100  # capacity still fully apportioned
    # The even-split fallback also spreads over active shards only.
    fallback = plan_epoch(101, [0, 0, 0], active=(True, False, True))
    assert fallback[1] == FLOOR_PAGES
    assert fallback[0] + fallback[2] == 100
    with pytest.raises(ValueError):
        plan_epoch(100, [1, 1], active=(False, False))
    with pytest.raises(ValueError):
        plan_epoch(100, [1, 1], active=(True,))


def test_lease_churn_separates_grown_from_shed():
    churn = lease_churn([10, 10, 10], [14, 6, 4])
    assert churn.grown == 4
    assert churn.shed == 10  # degradation epoch: 6 pages left the pool
    assert churn.moved == 4
    assert churn.as_dict() == {"grown": 4, "shed": 10, "moved": 4}


def test_pool_churn_accounting_across_degradation():
    pool = BatteryPool(capacity_pages=100, shards=2)
    pool.rebalance([1, 1], 0)
    pool.degrade(0.5)
    pool.rebalance([1, 1], 1)
    churn = pool.churn(1)
    assert churn.shed == churn.grown + 50  # the lost capacity is drained
    assert pool.churn(0).as_dict() == {"grown": 0, "shed": 0, "moved": 0}


def test_pool_rejects_negative_churn_cap():
    with pytest.raises(PoolError):
        BatteryPool(capacity_pages=100, shards=2, churn_cap_pages=-1)
