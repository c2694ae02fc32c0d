"""Shard workers vs. the per-op reference oracle.

``run_shard_job`` replays compiled array segments through the batched
session; ``reference_shard.execute_shard`` filters the per-op generator
stream and executes one ``Operation`` at a time.  Every simulated
quantity of the payload — clock, latency histograms, flush traffic,
Viyojit stats — and the routing counters must agree exactly, for every
shard of the run, with the runtime sanitizer armed.
"""

from __future__ import annotations

import pytest

from repro.cluster.runner import ShardJob, run_shard_job

from tests.cluster.reference_shard import execute_shard

EPOCHS = 4
SHARDS = 2
RECORDS = 120
OPS = 360
WORKLOADS = ("YCSB-A", "YCSB-D", "YCSB-E", "YCSB-F")

#: Leases that start tight and shrink mid-run (epoch 1 -> 2 drains).
STARVED = (10, 6, 2, 4)

MEMBERSHIPS = {
    "static": (),
    "add": ((2, "add", SHARDS),),
    "remove": ((1, "remove", 0),),
}


def _jobs(workload, schedule, membership, rotate):
    universe = SHARDS + sum(1 for _, action, _ in membership if action == "add")
    return [
        ShardJob(
            index=shard,
            shard=shard,
            shards=SHARDS,
            workload=workload,
            theta=0.99,
            seed=42,
            record_count=RECORDS,
            operation_count=OPS,
            epochs=EPOCHS,
            budget_schedule=schedule,
            membership=membership,
            hotspot_rotate_keys=rotate,
        )
        for shard in range(universe)
    ]


def _assert_matches_oracle(workload, schedule, membership, rotate):
    routed = 0
    for job in _jobs(workload, schedule, MEMBERSHIPS[membership], rotate):
        got = run_shard_job(job)["result"]
        want = execute_shard(job)
        assert got == want
        routed += got["routed_ops"]
        assert job.membership or got["migrated_in_keys"] == 0
    assert routed == OPS  # the partition is exact


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.mark.parametrize("rotate", [0, 40], ids=["fixed", "rotating"])
@pytest.mark.parametrize("membership", sorted(MEMBERSHIPS))
@pytest.mark.parametrize(
    "schedule", [None, STARVED], ids=["baseline", "starved"]
)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_shard_job_equals_per_op_oracle(
    workload, schedule, membership, rotate
):
    _assert_matches_oracle(workload, schedule, membership, rotate)


def test_migration_cases_actually_migrate():
    """The matrix above is vacuous unless keys really change hands."""
    for name in ("add", "remove"):
        moved = sum(
            run_shard_job(job)["result"]["migrated_in_keys"]
            for job in _jobs("YCSB-D", STARVED, MEMBERSHIPS[name], 0)
        )
        assert moved > 0
