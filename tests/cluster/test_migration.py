"""Shard migration on ring membership change: deltas, handoff, bytes.

Covers the migration tentpole end to end: membership-schedule
validation, the ring's moved-arc/moved-key computation (checked against
brute force), the coordinator's migration and budget-handoff planning,
the workers' ownership-handoff replay, and byte-identity of migration
runs across ``--jobs`` counts, reruns, and a SIGKILLed shard worker.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import (
    FLOOR_PAGES,
    ClusterGrid,
    ClusterSpec,
    HashRing,
    ShardJob,
    active_masks,
    membership_rings,
    plan_cluster,
    run_cluster_grid,
    shard_jobs,
)
from repro.cluster.ring import RING_SIZE
from repro.cluster.report import dumps

# -- membership-schedule validation ----------------------------------------


def _spec(membership, shards=2, epochs=4):
    return ClusterSpec(
        shards=shards,
        total_budget_fraction=0.1,
        record_count=100,
        operation_count=200,
        epochs=epochs,
        membership=membership,
    )


def test_membership_validation_rejects_bad_schedules():
    with pytest.raises(ValueError, match="epoch 0 outside"):
        _spec(((0, "add", 2),))
    with pytest.raises(ValueError, match="outside"):
        _spec(((4, "add", 2),))
    with pytest.raises(ValueError, match="must be one of"):
        _spec(((1, "join", 2),))
    with pytest.raises(ValueError, match="dense"):
        _spec(((1, "add", 5),))
    with pytest.raises(ValueError, match="not on the ring"):
        _spec(((1, "remove", 7),))
    with pytest.raises(ValueError, match="not on the ring"):
        _spec(((1, "remove", 0), (2, "remove", 0)))
    with pytest.raises(ValueError, match="empty"):
        _spec(((1, "remove", 0), (2, "remove", 1)))


def test_membership_schedule_is_sorted_by_epoch():
    spec = _spec(((3, "remove", 0), (1, "add", 2)))
    assert spec.membership == ((1, "add", 2), (3, "remove", 0))
    assert spec.total_shards() == 3
    active = active_masks(spec.rings(), spec.total_shards())
    assert active[0] == (True, True, False)
    assert active[1] == (True, True, True)
    assert active[3] == (False, True, True)


def test_membership_rings_reuse_unchanged_epochs():
    rings = membership_rings(2, membership=((2, "add", 2),), epochs=4)
    assert rings[0] is rings[1]
    assert rings[1] is not rings[2]
    assert rings[2] is rings[3]
    assert rings[2].shard_ids == (0, 1, 2)


def test_shard_job_accepts_added_shard_ids_only_with_membership():
    kwargs = dict(
        index=0,
        shards=2,
        workload="YCSB-A",
        theta=0.99,
        seed=42,
        record_count=100,
        operation_count=200,
        epochs=4,
        budget_schedule=None,
    )
    with pytest.raises(ValueError, match="outside"):
        ShardJob(shard=2, **kwargs)
    job = ShardJob(shard=2, membership=((1, "add", 2),), **kwargs)
    assert job.as_dict()["membership"] == [[1, "add", 2]]
    legacy = ShardJob(shard=1, **kwargs)
    assert legacy.as_dict()["membership"] == []


# -- ring membership deltas ------------------------------------------------

ring_params = st.tuples(
    st.integers(min_value=2, max_value=6),  # shards
    st.integers(min_value=4, max_value=24),  # vnodes
    st.integers(min_value=0, max_value=10**6),  # seed
)


@settings(max_examples=25, deadline=None)
@given(params=ring_params, probes=st.lists(
    st.integers(min_value=0, max_value=RING_SIZE - 1),
    min_size=20,
    max_size=20,
))
def test_diff_arcs_partition_matches_pointwise_ownership(params, probes):
    shards, vnodes, seed = params
    ring = HashRing(range(shards), vnodes=vnodes, seed=seed)
    other = ring.with_shard(shards)
    arcs = ring.diff_arcs(other)
    # Arcs are sorted, disjoint, non-empty, owner-differing, and merged.
    previous_end = 0
    previous_pair = None
    for start, end, mine, theirs in arcs:
        assert 0 <= start < end <= RING_SIZE
        assert start >= previous_end
        assert mine != theirs
        if start == previous_end:
            assert (mine, theirs) != previous_pair
        previous_end = end
        previous_pair = (mine, theirs)
        # Adding a shard only moves keys TO the new shard.
        assert theirs == shards
    # Pointwise: a hash position changed owner iff it lies in some arc.
    for position in probes:
        in_arc = any(start <= position < end for start, end, _, _ in arcs)
        changed = ring._owner_at(position) != other._owner_at(position)
        assert in_arc == changed


@settings(max_examples=25, deadline=None)
@given(params=ring_params)
def test_removal_moves_only_the_removed_shards_arcs(params):
    shards, vnodes, seed = params
    ring = HashRing(range(shards), vnodes=vnodes, seed=seed)
    other = ring.without_shard(0)
    for _, _, mine, theirs in ring.diff_arcs(other):
        assert mine == 0  # only the removed shard's keyspace moves
        assert theirs != 0
    fraction = ring.moved_arc_fraction(other)
    assert 0 < fraction < 1
    # Symmetric view: the same arcs, owners swapped.
    assert other.moved_arc_fraction(ring) == fraction


@settings(max_examples=15, deadline=None)
@given(params=ring_params, seed2=st.integers(min_value=0, max_value=10**6))
def test_moved_keys_agrees_with_per_key_routing(params, seed2):
    shards, vnodes, seed = params
    ring = HashRing(range(shards), vnodes=vnodes, seed=seed)
    other = ring.with_shard(shards)
    keys = [b"user%020d" % index for index in range(seed2 % 50 + 10)]
    moved = ring.moved_keys(other, keys)
    expected = [
        key
        for key in keys
        if ring.shard_for(key) != other.shard_for(key)
    ]
    assert moved == expected
    for key in moved:
        assert other.shard_for(key) == shards


# -- migration runs --------------------------------------------------------

MIGRATION_GRID = ClusterGrid(
    shard_counts=(2,),
    total_budgets_gb=(2.0,),
    record_count=300,
    operation_count=900,
    epochs=3,
    membership=((1, "add", 2), (2, "remove", 0)),
)


@pytest.fixture(scope="module")
def migration_report():
    return run_cluster_grid(MIGRATION_GRID, jobs=1)


def test_migration_bytes_identical_across_jobs_and_reruns(
    migration_report,
):
    serial = dumps(migration_report, strip_wall=True)
    for jobs in (1, 2, 8):
        assert (
            dumps(run_cluster_grid(MIGRATION_GRID, jobs=jobs), strip_wall=True)
            == serial
        )


def test_killed_worker_does_not_change_migration_bytes(
    migration_report, tmp_path
):
    plans = [plan_cluster(spec) for spec in MIGRATION_GRID.specs()]
    jobs = shard_jobs(plans)
    marker = tmp_path / "kill-once"
    doctored = dataclasses.replace(
        jobs[2], fault_kill_once_path=str(marker)
    )
    report = run_cluster_grid(
        MIGRATION_GRID, jobs=2, _job_overrides={2: doctored}
    )
    assert marker.exists()
    assert report["wall"]["retries"] >= 1
    assert dumps(report, strip_wall=True) == dumps(
        migration_report, strip_wall=True
    )


def test_migration_records_and_events(migration_report):
    run = migration_report["runs"][0]
    migrations = run["migrations"]
    assert [
        (m["epoch"], m["action"], m["shard"]) for m in migrations
    ] == [(1, "add", 2), (2, "remove", 0)]
    for migration in migrations:
        assert migration["moved_keys"] > 0
        assert 0 < migration["arc_moved"] < 1
    event_types = [event["type"] for event in run["events"]]
    assert event_types.count("ShardMigration") == 2
    assert event_types.count("BudgetHandoff") == 2
    handoffs = [
        event for event in run["events"] if event["type"] == "BudgetHandoff"
    ]
    assert [(h["epoch"], h["kind"], h["shard"]) for h in handoffs] == [
        (1, "grant", 2),
        (2, "release", 0),
    ]


def test_workers_replay_the_coordinators_handoff(migration_report):
    """Sum of keys migrated into shards == coordinator's moved-key count."""
    run = migration_report["runs"][0]
    migrated_in = [
        shard["result"]["migrated_in_keys"] for shard in run["shards"]
    ]
    assert sum(migrated_in) == sum(
        migration["moved_keys"] for migration in run["migrations"]
    )
    assert len(run["shards"]) == 3  # initial 2 plus the added shard
    # The global stream still partitions exactly across the fleet.
    assert run["summary"]["routed_ops"] == 900


def test_inactive_shards_hold_only_the_floor(migration_report):
    run = migration_report["runs"][0]
    floor = FLOOR_PAGES
    leases = run["leases"]
    # Shard 2 joins at epoch 1: floor-only before, leased after.
    assert leases[0][2]["pages"] == floor
    # Shard 0 is removed at epoch 2: back to floor, budget handed off.
    assert leases[2][0]["pages"] == floor
    # Conservation holds every epoch, the handoff epochs included.
    capacity = run["summary"]["pool"]["capacity_schedule"]
    for epoch, epoch_leases in enumerate(leases):
        assert (
            sum(lease["pages"] for lease in epoch_leases)
            <= capacity[epoch]
        )


def test_baseline_migration_plans_key_moves_without_budget(tmp_path):
    grid = dataclasses.replace(
        MIGRATION_GRID, total_budgets_gb=(None,)
    )
    report = run_cluster_grid(grid, jobs=1)
    run = report["runs"][0]
    assert run["leases"] == []
    assert "pool" not in run["summary"]
    assert [m["action"] for m in run["migrations"]] == ["add", "remove"]
    assert all(
        event["type"] == "ShardMigration" for event in run["events"]
    )
    assert sum(
        shard["result"]["migrated_in_keys"] for shard in run["shards"]
    ) == sum(m["moved_keys"] for m in run["migrations"])
