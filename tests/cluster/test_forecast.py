"""Demand forecasting and lease hysteresis: units, properties, payoff.

Three layers:

* predictor unit tests (last-epoch echo, EWMA blend arithmetic,
  registry validation);
* hypothesis properties for :func:`repro.cluster.rebalancer.damp_grants`
  and the damped pool — voluntary churn never exceeds the cap,
  conservation holds bit-for-bit, a zero cap freezes epoch 0's even
  split (the static arm), and the ``last-epoch`` predictor with damping
  off reproduces the original reactive lease schedule exactly;
* the acceptance experiment — on a skew-shifting workload (hotspot
  rotates at epoch boundaries) the EWMA predictor's summed L1
  misallocation beats the reactive baseline, as reported in
  CLUSTER.json.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.runner import PAPER_HEAP_GB
from repro.cluster import (
    FLOOR_PAGES,
    BatteryPool,
    ClusterGrid,
    ClusterSpec,
    EwmaPredictor,
    LastEpochPredictor,
    damp_grants,
    lease_churn,
    make_predictor,
    plan_cluster,
    run_cluster_grid,
)
from repro.cluster.forecast import (
    EWMA_ALPHA,
    l1_misallocation,
    misallocation_series,
)


# -- predictor units -------------------------------------------------------


def test_last_epoch_echoes_latest_observation():
    predictor = LastEpochPredictor(shards=3)
    assert predictor.forecast() == [0, 0, 0]
    predictor.observe([1, 2, 3])
    assert predictor.forecast() == [1, 2, 3]
    predictor.observe([7, 0, 9])
    assert predictor.forecast() == [7, 0, 9]


def test_ewma_blends_toward_new_observations():
    assert EWMA_ALPHA == 0.5
    predictor = EwmaPredictor(shards=2)
    predictor.observe([100, 0])
    assert predictor.forecast() == [100.0, 0.0]  # first obs initializes
    predictor.observe([0, 100])
    assert predictor.forecast() == [50.0, 50.0]
    predictor.observe([0, 100])
    assert predictor.forecast() == [25.0, 75.0]


def test_predictor_registry_and_validation():
    assert isinstance(make_predictor("last-epoch", 2), LastEpochPredictor)
    assert isinstance(make_predictor("ewma", 2), EwmaPredictor)
    with pytest.raises(ValueError):
        make_predictor("oracle", 2)
    with pytest.raises(ValueError):
        make_predictor("per-tenant-ewma", 2)
    with pytest.raises(ValueError):
        EwmaPredictor(shards=0)
    predictor = LastEpochPredictor(shards=2)
    with pytest.raises(ValueError):
        predictor.observe([1, 2, 3])  # wrong shard count


def test_misallocation_helpers_validate():
    assert l1_misallocation([3, 5], [5, 3]) == 4
    with pytest.raises(ValueError):
        l1_misallocation([1], [1, 2])
    with pytest.raises(ValueError):
        misallocation_series([[1]], [[1]], [1, 2])


# -- damping properties ----------------------------------------------------

grant_vectors = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=n, max_size=n
        ),
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=n, max_size=n
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(vectors=grant_vectors, cap=st.integers(min_value=0, max_value=300))
def test_damp_grants_preserves_totals_and_caps_churn(vectors, cap):
    previous, target = vectors
    damped = damp_grants(previous, target, cap)
    # Conservation: the grant total is exactly the plan's.
    assert sum(damped) == sum(target)
    assert all(pages >= 0 for pages in damped)
    # Voluntary churn (matched grow/shed) never exceeds the cap.
    churn = lease_churn(previous, damped)
    assert churn.moved <= cap


@settings(max_examples=60, deadline=None)
@given(vectors=grant_vectors)
def test_damp_grants_with_loose_cap_is_identity(vectors):
    previous, target = vectors
    loose = sum(previous) + sum(target) + 1
    assert damp_grants(previous, target, loose) == list(target)


@settings(max_examples=60, deadline=None)
@given(
    shards=st.integers(min_value=2, max_value=6),
    capacity=st.integers(min_value=40, max_value=400),
    cap=st.integers(min_value=0, max_value=30),
    seedling=st.randoms(use_true_random=False),
)
def test_damped_pool_respects_cap_and_conservation(
    shards, capacity, cap, seedling
):
    """End-to-end: a damped pool's lease vectors obey every invariant."""
    pool = BatteryPool(
        capacity_pages=capacity, shards=shards, churn_cap_pages=cap
    )
    undamped = BatteryPool(capacity_pages=capacity, shards=shards)
    for epoch in range(4):
        demands = [seedling.randrange(0, 200) for _ in range(shards)]
        leases = pool.rebalance(demands, epoch)
        reference = undamped.rebalance(demands, epoch)
        # Conservation matches the undamped plan's total exactly.
        assert sum(lease.pages for lease in leases) == sum(
            ref.pages for ref in reference
        )
        assert all(lease.pages >= FLOOR_PAGES for lease in leases)
        if epoch > 0:
            churn = pool.churn(epoch)
            assert churn.moved <= cap


@settings(max_examples=20, deadline=None)
@given(
    shards=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=1, max_value=10**6),
)
def test_last_epoch_undamped_matches_reactive_replay(shards, seed):
    """The default planner is byte-for-byte the original reactive one."""
    spec = ClusterSpec(
        shards=shards,
        total_budget_fraction=2.0 / PAPER_HEAP_GB,
        record_count=120,
        operation_count=240,
        epochs=3,
        seed=seed,
    )
    plan = plan_cluster(spec)
    # Hand-rolled reactive replay: epoch 0 even split, epoch e from the
    # demand observed during epoch e-1 (the pre-forecasting protocol).
    pool = BatteryPool(
        capacity_pages=spec.pool_capacity_pages(), shards=shards
    )
    demands = plan.demands
    replayed = []
    for epoch in range(spec.epochs):
        observed = demands[epoch - 1] if epoch > 0 else [0] * shards
        replayed.append(
            [lease.pages for lease in pool.rebalance(observed, epoch)]
        )
    assert [
        [lease.pages for lease in epoch_leases]
        for epoch_leases in plan.leases
    ] == replayed
    # The default plan is its own counterfactual baseline.
    block = plan.misallocation
    assert block["predictor"] == "last-epoch"
    assert block["total"] == block["baseline_last_epoch"]["total"]


# -- the static arm --------------------------------------------------------

STATIC_ARM = dict(
    shards=4,
    total_budget_fraction=2.0 / PAPER_HEAP_GB,
    record_count=1_500,
    operation_count=9_000,
    epochs=6,
    hotspot_rotate_keys=100,
)


def _lease_vectors(plan):
    return [[lease.pages for lease in leases] for leases in plan.leases]


@pytest.mark.parametrize("predictor", ["last-epoch", "ewma"])
def test_zero_churn_cap_freezes_the_even_split(predictor):
    """``churn_cap_pages=0`` is the static arm: epoch 0's even split
    holds for every epoch whatever the predictor forecasts, while an
    uncapped pool moves pages toward demand."""
    static = plan_cluster(
        ClusterSpec(predictor=predictor, churn_cap_pages=0, **STATIC_ARM)
    )
    assert _lease_vectors(static) == [[11, 11, 11, 10]] * 6
    assert static.misallocation["predictor"] == predictor
    pooled = plan_cluster(ClusterSpec(predictor=predictor, **STATIC_ARM))
    assert _lease_vectors(pooled)[0] == [11, 11, 11, 10]
    assert _lease_vectors(pooled) != _lease_vectors(static)
    if predictor == "last-epoch":
        assert _lease_vectors(pooled)[-1] == [10, 10, 10, 13]


@pytest.mark.parametrize("predictor", ["last-epoch", "ewma"])
def test_zero_churn_cap_still_sheds_a_degraded_pool(predictor):
    """Forced movement lands under a zero cap: a pool degradation step
    sheds the lost capacity from the frozen split, and the smaller split
    then stays frozen."""
    plan = plan_cluster(
        ClusterSpec(
            predictor=predictor,
            churn_cap_pages=0,
            pool_degrade=((3, 0.4),),
            **STATIC_ARM,
        )
    )
    vectors = _lease_vectors(plan)
    capacity = plan.capacity_schedule
    assert capacity[3] < capacity[2]
    assert vectors[:3] == [[11, 11, 11, 10]] * 3
    assert sum(vectors[3]) == capacity[3]
    assert all(now <= before for now, before in zip(vectors[3], vectors[2]))
    assert vectors[3:] == [vectors[3]] * 3


# -- the acceptance experiment ---------------------------------------------

SKEW_SHIFT = dict(
    shard_counts=(4,),
    total_budgets_gb=(6.0,),
    record_count=600,
    operation_count=2_400,
    epochs=6,
    hotspot_rotate_keys=200,
)


@pytest.fixture(scope="module")
def skew_shift_reports():
    return {
        predictor: run_cluster_grid(
            ClusterGrid(predictor=predictor, **SKEW_SHIFT), jobs=2
        )
        for predictor in ("last-epoch", "ewma")
    }


def test_ewma_beats_last_epoch_under_shifting_skew(skew_shift_reports):
    """The headline claim, read out of CLUSTER.json itself."""
    reactive = skew_shift_reports["last-epoch"]["runs"][0]["summary"][
        "misallocation"
    ]
    ewma = skew_shift_reports["ewma"]["runs"][0]["summary"][
        "misallocation"
    ]
    # Both arms score against the same reactive baseline replay.
    assert reactive["total"] == reactive["baseline_last_epoch"]["total"]
    assert ewma["baseline_last_epoch"]["total"] == reactive["total"]
    assert ewma["total"] < reactive["total"]
    assert ewma["improvement_pct"] > 0
    assert len(ewma["per_epoch"]) == SKEW_SHIFT["epochs"]


def test_misallocation_block_is_complete(skew_shift_reports):
    block = skew_shift_reports["ewma"]["runs"][0]["summary"][
        "misallocation"
    ]
    assert block["predictor"] == "ewma"
    assert block["total"] == sum(block["per_epoch"])
    assert all(value >= 0 for value in block["per_epoch"])


def test_rotation_alone_emits_churn_block(skew_shift_reports):
    """Pool runs report grown and shed separately (the churn bugfix)."""
    pool = skew_shift_reports["last-epoch"]["runs"][0]["summary"]["pool"]
    churn = pool["churn"]
    epochs = SKEW_SHIFT["epochs"]
    assert len(churn["grown_per_epoch"]) == epochs
    assert len(churn["shed_per_epoch"]) == epochs
    for grown, shed, moved in zip(
        churn["grown_per_epoch"],
        churn["shed_per_epoch"],
        churn["moved_per_epoch"],
    ):
        assert moved == min(grown, shed)
    # Without degradation the pool total is constant, so both sides of
    # every epoch's movement must match.
    assert churn["grown_per_epoch"] == churn["shed_per_epoch"]


def test_degradation_shed_exceeds_grown():
    """The undercount satellite: shed captures drain work grown misses."""
    grid = ClusterGrid(
        shard_counts=(2,),
        total_budgets_gb=(6.0,),
        record_count=300,
        operation_count=900,
        epochs=3,
        pool_degrade=((1, 0.5),),
    )
    report = run_cluster_grid(grid, jobs=1)
    summary = report["runs"][0]["summary"]
    churn = summary["pool"]["churn"]
    drop = (
        summary["pool"]["capacity_schedule"][0]
        - summary["pool"]["capacity_schedule"][1]
    )
    assert drop > 0
    # Entering the degradation epoch: shed = grown + capacity lost.
    assert churn["shed_per_epoch"][1] == churn["grown_per_epoch"][1] + drop
    assert churn["total_shed_pages"] >= churn["total_grown_pages"] + drop


def test_damped_run_reports_capped_churn():
    grid = ClusterGrid(
        shard_counts=(4,),
        total_budgets_gb=(6.0,),
        record_count=600,
        operation_count=2_400,
        epochs=6,
        hotspot_rotate_keys=200,
        churn_cap_pages=3,
    )
    report = run_cluster_grid(grid, jobs=1)
    churn = report["runs"][0]["summary"]["pool"]["churn"]
    assert all(moved <= 3 for moved in churn["moved_per_epoch"])
    assert max(churn["moved_per_epoch"]) > 0  # the cap actually binds


def test_demand_starved_run_flags_every_starved_epoch():
    """ops < epochs leaves whole segments empty: the even-split fallback
    must surface as an explicit DemandStarved condition, not silently."""
    grid = ClusterGrid(
        shard_counts=(2,),
        total_budgets_gb=(2.0,),
        record_count=50,
        operation_count=3,
        epochs=5,
    )
    report = run_cluster_grid(grid, jobs=1)
    run = report["runs"][0]
    starved = run["summary"]["pool"]["demand_starved"]
    assert starved, "empty epochs must be flagged"
    for record in starved:
        assert 0 < record["epoch"] < 5
    starved_events = [
        event for event in run["events"] if event["type"] == "DemandStarved"
    ]
    assert [{"epoch": event["epoch"]} for event in starved_events] == starved


def test_duplicate_pool_degrade_epochs_rejected():
    with pytest.raises(ValueError, match="duplicate pool_degrade epoch"):
        ClusterSpec(
            shards=2,
            total_budget_fraction=0.1,
            epochs=4,
            pool_degrade=((1, 0.2), (1, 0.3)),
        )
