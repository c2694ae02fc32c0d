"""Key ownership tables: routing by key index equals routing by key bytes.

:class:`~repro.cluster.runner.KeyOwners` routes each ring's loaded
keyspace once and then gathers; both the planner's demand probe and
every shard worker route through it.  These tests pin it to the ring's
own per-key routing, element for element, on every ring of a membership
schedule, and pin the planner to one :class:`HashRing` per distinct ring.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.cluster import (
    ClusterSpec,
    HashRing,
    KeyOwners,
    membership_rings,
    plan_cluster,
)
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


def test_plan_builds_one_ring_per_distinct_ring(monkeypatch):
    built = []
    real_init = HashRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["shard_ids"])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(HashRing, "__init__", counting_init)
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
