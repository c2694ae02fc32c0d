"""Key ownership tables: routing by key index equals routing by key bytes.

:class:`~repro.cluster.runner.KeyOwners` routes each ring's loaded
keyspace once and then gathers; both the planner's demand probe and
every shard worker route through it.  These tests pin it to the ring's
own per-key routing, element for element, on every ring of a membership
schedule, and pin the planner to one :class:`HashRing` per distinct ring,
for one plan and for a grid of plans.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster import (
    ClusterGrid,
    ClusterSpec,
    HashRing,
    KeyOwners,
    membership_rings,
    plan_cluster,
    run_cluster_grid,
)
from repro.cluster import runner as cluster_runner
from repro.workloads.compiled import key_rows

#: Adds, removes and two changes in one epoch (an intermediate ring).
SCHEDULE = ((1, "add", 3), (2, "remove", 0), (2, "add", 4), (3, "remove", 2))
RINGS = membership_rings(3, SCHEDULE, epochs=5)


@settings(max_examples=40, deadline=None)
@given(
    record_count=st.integers(min_value=1, max_value=400),
    inserted=st.integers(min_value=0, max_value=200),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=300),
)
def test_owners_equal_per_key_routing_on_every_ring(
    record_count, inserted, picks
):
    """Loaded indices gather from the table, inserted ones (``>=
    record_count``) are routed: either way the shard is the ring's own
    ``shard_for_rows``."""
    span = record_count + inserted
    indices = np.array([pick % span for pick in picks], dtype=np.int64)
    owners = KeyOwners(record_count)
    for ring in RINGS:
        want = ring.shard_for_rows(key_rows(indices))
        got = owners.shards(ring, indices)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def test_each_ring_object_is_routed_once(monkeypatch):
    routed = []
    real = HashRing.shard_for_rows

    def counting(self, rows):
        routed.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(HashRing, "shard_for_rows", counting)
    owners = KeyOwners(50)
    loaded = np.arange(50, dtype=np.int64)
    for ring in RINGS:
        owners.shards(ring, loaded)
        owners.shards(ring, loaded[::-1])
    # One 50-key table per distinct ring object, nothing per lookup.
    assert routed == [50] * len({id(ring) for ring in RINGS})


def _count_rings(monkeypatch):
    """Every :class:`HashRing` built from here on, by its shard ids."""
    built = []
    real_init = HashRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["shard_ids"])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(HashRing, "__init__", counting_init)
    return built


def test_plan_builds_one_ring_per_distinct_ring(monkeypatch):
    built = _count_rings(monkeypatch)
    for budget in (None, 0.05):
        built.clear()
        spec = ClusterSpec(
            shards=4,
            total_budget_fraction=budget,
            record_count=300,
            operation_count=1_200,
            epochs=6,
            membership=((2, "remove", 1),),
        )
        plan = plan_cluster(spec)
        assert len(plan.migrations) == 1
        assert len(built) == 2, built


def test_grid_builds_one_ring_schedule_for_all_budgets(monkeypatch):
    """A grid's plans share one ring schedule, one probe and one set of
    ownership tables: 3 budgets, one membership change, 2 rings built
    and 2 full-keyspace routing passes (not 2 per budget)."""

    class Planned(Exception):
        pass

    def stop_after_planning(job_list, **kwargs):
        raise Planned(len(job_list))

    probes = []
    real_probe = cluster_runner._probe

    def counting_probe(spec, rings, stream):
        probes.append(spec.total_budget_fraction)
        return real_probe(spec, rings, stream)

    routed = []
    real_route = HashRing.shard_for_rows

    def counting_route(self, rows):
        routed.append(len(rows))
        return real_route(self, rows)

    built = _count_rings(monkeypatch)
    monkeypatch.setattr(cluster_runner, "_probe", counting_probe)
    monkeypatch.setattr(HashRing, "shard_for_rows", counting_route)
    monkeypatch.setattr(cluster_runner, "execute_jobs", stop_after_planning)
    grid = ClusterGrid(
        shard_counts=(4,),
        total_budgets_gb=(None, 2.0, 6.0),
        record_count=300,
        operation_count=1_200,
        epochs=6,
        membership=((2, "remove", 1),),
    )
    with pytest.raises(Planned) as planned:
        run_cluster_grid(grid)
    assert planned.value.args == (12,)  # 3 budgets x 4 shards planned
    assert len(built) == 2, built
    assert probes == [None]  # the first spec's probe serves all three
    # YCSB-A inserts nothing: every routing pass is a loaded-key table.
    assert routed == [grid.record_count] * 2, routed
