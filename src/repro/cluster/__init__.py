"""Cluster-scale sharded serving with a shared battery pool.

The paper decouples one machine's battery from its DRAM capacity; this
package decouples a *fleet's* battery from its fleet-wide DRAM: a
seeded consistent-hash ring routes one global keyspace across N Viyojit
shards, and every shard's dirty budget is a lease from one shared
:class:`~repro.cluster.pool.BatteryPool`, re-apportioned at rebalance
epochs as write pressure shifts.  Execution rides the deterministic
:mod:`repro.parallel` engine, so the merged ``CLUSTER.json`` is
byte-identical at any ``--jobs`` count.
"""

from repro.cluster.forecast import (
    EWMA_ALPHA,
    PREDICTORS,
    DemandPredictor,
    EwmaPredictor,
    LastEpochPredictor,
    make_predictor,
    misallocation_report,
    misallocation_series,
)
from repro.cluster.pool import BatteryPool, PoolError, PoolLease
from repro.cluster.rebalancer import (
    FLOOR_PAGES,
    LeaseChurn,
    apportion,
    damp_grants,
    lease_churn,
    plan_epoch,
)
from repro.cluster.report import (
    CLUSTER_SCHEMA_VERSION,
    build_cluster_report,
)
from repro.cluster.ring import RING_BITS, RING_SIZE, HashRing
from repro.cluster.runner import (
    MEMBERSHIP_ACTIONS,
    ClusterGrid,
    ClusterPlan,
    ClusterSpec,
    KeyOwners,
    ShardJob,
    active_masks,
    membership_rings,
    plan_cluster,
    probe_demands,
    run_cluster_grid,
    run_shard_job,
    shard_jobs,
)

__all__ = [
    "BatteryPool",
    "CLUSTER_SCHEMA_VERSION",
    "ClusterGrid",
    "ClusterPlan",
    "ClusterSpec",
    "DemandPredictor",
    "EWMA_ALPHA",
    "EwmaPredictor",
    "FLOOR_PAGES",
    "HashRing",
    "KeyOwners",
    "LastEpochPredictor",
    "LeaseChurn",
    "MEMBERSHIP_ACTIONS",
    "PoolError",
    "PoolLease",
    "PREDICTORS",
    "RING_BITS",
    "RING_SIZE",
    "ShardJob",
    "active_masks",
    "apportion",
    "build_cluster_report",
    "damp_grants",
    "lease_churn",
    "make_predictor",
    "membership_rings",
    "misallocation_report",
    "misallocation_series",
    "plan_cluster",
    "plan_epoch",
    "probe_demands",
    "run_cluster_grid",
    "run_shard_job",
    "shard_jobs",
]
