"""Cluster runner mechanics: routing, planning, leases, CLI.

Covers the parts between the ring and the report: every global op is
served by exactly one shard, leased budgets actually land on the shard
instances, reactive rebalancing follows observed demand, and the
``repro cluster`` CLI produces the same bytes at any ``--jobs`` count.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import (
    ClusterGrid,
    ClusterSpec,
    ShardJob,
    plan_cluster,
    probe_demands,
    run_cluster_grid,
    run_shard_job,
    shard_jobs,
)

SPEC = ClusterSpec(
    shards=3,
    total_budget_fraction=0.2,
    record_count=300,
    operation_count=900,
    epochs=3,
)


def test_every_op_is_served_by_exactly_one_shard():
    """The shard partition is exact: routed ops sum to the global count."""
    plan = plan_cluster(SPEC)
    payloads = [
        run_shard_job(job) for job in shard_jobs([plan])
    ]
    assert (
        sum(p["result"]["routed_ops"] for p in payloads)
        == SPEC.operation_count
    )
    assert (
        sum(p["result"]["ops_executed"] for p in payloads)
        == SPEC.operation_count
    )
    assert (
        sum(p["result"]["records_loaded"] for p in payloads)
        == SPEC.record_count
    )


def test_leased_budget_lands_on_the_shard():
    """A budgeted shard runs at its epoch-0 lease, not a derived budget."""
    plan = plan_cluster(SPEC)
    assert plan.schedules is not None
    job = shard_jobs([plan])[0]
    payload = run_shard_job(job)
    assert payload["result"]["budget_pages"] == plan.schedules[0][0]
    assert payload["result"]["system_kind"] == "viyojit"
    assert payload["result"]["budget_schedule"] == list(plan.schedules[0])


def test_baseline_cluster_runs_full_battery_shards():
    spec = ClusterSpec(
        shards=2,
        total_budget_fraction=None,
        record_count=200,
        operation_count=400,
        epochs=2,
    )
    payload = run_shard_job(shard_jobs([plan_cluster(spec)])[0])
    assert payload["result"]["system_kind"] == "nvdram"
    assert payload["result"]["budget_pages"] is None


def test_reactive_rebalancing_follows_observed_demand():
    """After epoch 0's even split, leases track the prior epoch's skew."""
    plan = plan_cluster(SPEC)
    demands = probe_demands(SPEC, SPEC.ring())
    for epoch in range(1, SPEC.epochs):
        observed = demands[epoch - 1]
        leases = [lease.pages for lease in plan.leases[epoch]]
        # The most-demanding shard gets the largest lease.
        assert leases.index(max(leases)) == observed.index(max(observed))


def test_degraded_pool_run_passes_sanitized():
    """Mid-run pool degradation shrinks leases; the shards stay within
    budget under the armed SimulationSanitizer (conftest arms it)."""
    spec = ClusterSpec(
        shards=2,
        total_budget_fraction=0.2,
        record_count=200,
        operation_count=600,
        epochs=3,
        pool_degrade=((1, 0.5),),
    )
    plan = plan_cluster(spec)
    assert plan.capacity_schedule[1] < plan.capacity_schedule[0]
    for job in shard_jobs([plan]):
        payload = run_shard_job(job)
        assert payload["result"]["ops_executed"] == payload["result"]["routed_ops"]


def test_plan_cluster_emits_lease_events_when_traced():
    """A live tracer sees the same protocol the report records."""
    from repro.obs.events import BudgetLease, ShardRebalance
    from repro.obs.tracer import RecordingTracer

    tracer = RecordingTracer()
    plan = plan_cluster(SPEC, tracer=tracer)
    rebalances = tracer.events_of(ShardRebalance)
    leases = tracer.events_of(BudgetLease)
    assert len(rebalances) == SPEC.epochs
    assert len(leases) == SPEC.epochs * SPEC.shards
    assert [event.as_dict() for event in rebalances] + [
        event.as_dict() for event in leases
    ] == sorted(plan.events, key=lambda e: (e["type"] != "ShardRebalance"))
    for event in rebalances:
        assert event.leased_pages <= event.capacity_pages


def test_spec_and_job_validation():
    with pytest.raises(ValueError):
        ClusterSpec(shards=0, total_budget_fraction=0.5)
    with pytest.raises(ValueError):
        ClusterSpec(shards=2, total_budget_fraction=-0.1)
    with pytest.raises(ValueError):
        ClusterSpec(shards=2, total_budget_fraction=0.5, workload="nope")
    with pytest.raises(ValueError, match="unknown predictor"):
        ClusterSpec(
            shards=2, total_budget_fraction=0.5, predictor="per-tenant-ewma"
        )
    with pytest.raises(ValueError):
        ClusterSpec(
            shards=2, total_budget_fraction=0.5, pool_degrade=((9, 0.5),)
        )
    with pytest.raises(ValueError):
        ShardJob(
            index=0,
            shard=5,
            shards=2,
            workload="YCSB-A",
            theta=0.99,
            seed=42,
            record_count=100,
            operation_count=100,
            epochs=2,
            budget_schedule=None,
        )
    with pytest.raises(ValueError):
        ShardJob(
            index=0,
            shard=0,
            shards=2,
            workload="YCSB-A",
            theta=0.99,
            seed=42,
            record_count=100,
            operation_count=100,
            epochs=2,
            budget_schedule=(10,),  # 1 lease for 2 epochs
        )


def test_grid_expansion_and_round_trip():
    grid = ClusterGrid(
        shard_counts=(1, 4),
        total_budgets_gb=(None, 2.0),
        record_count=100,
        operation_count=200,
    )
    specs = grid.specs()
    assert [spec.shards for spec in specs] == [1, 1, 4, 4]
    assert [spec.total_budget_fraction is None for spec in specs] == [
        True,
        False,
        True,
        False,
    ]
    assert ClusterGrid.from_dict(grid.as_dict()).specs() == specs
    with pytest.raises(ValueError):
        ClusterGrid(shard_counts=())
    with pytest.raises(ValueError):
        ClusterGrid(shard_counts=(2, 2))
    with pytest.raises(ValueError):
        ClusterGrid.from_dict({"bogus_key": 1})


CLUSTER_ARGS = [
    "cluster",
    "--shards", "2",
    "--total-budgets-gb", "2",
    "--records", "200",
    "--ops", "400",
    "--epochs", "2",
]


class TestClusterCommand:
    def test_jobs_1_and_2_write_identical_deterministic_views(
        self, capsys, tmp_path
    ):
        one = tmp_path / "cluster1.json"
        two = tmp_path / "cluster2.json"
        assert main(CLUSTER_ARGS + ["--jobs", "1", "--out", str(one)]) == 0
        assert main(CLUSTER_ARGS + ["--jobs", "2", "--out", str(two)]) == 0
        out = capsys.readouterr().out
        assert "cluster checksum:" in out
        assert "overhead_pct" in out
        first = json.loads(one.read_text())
        second = json.loads(two.read_text())
        first.pop("wall")
        second.pop("wall")
        assert first == second

    def test_strip_wall_writes_the_deterministic_view(self, tmp_path):
        out = tmp_path / "cluster.json"
        argv = CLUSTER_ARGS + ["--out", str(out), "--strip-wall"]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert "wall" not in report
        assert report["schema_version"] == 3

    def test_pool_degrade_flag(self, capsys, tmp_path):
        out = tmp_path / "cluster.json"
        argv = CLUSTER_ARGS + [
            "--pool-degrade", "1:0.5",
            "--out", str(out),
            "--strip-wall",
        ]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        run = next(
            r
            for r in report["runs"]
            if r["spec"]["total_budget_fraction"] is not None
        )
        schedule = run["summary"]["pool"]["capacity_schedule"]
        assert schedule[1] < schedule[0]

    def test_list_mentions_cluster(self, capsys):
        assert main(["list"]) == 0
        assert "cluster" in capsys.readouterr().out


def test_run_cluster_grid_rejects_bad_jobs():
    grid = ClusterGrid(
        shard_counts=(1,),
        total_budgets_gb=(2.0,),
        record_count=100,
        operation_count=200,
    )
    with pytest.raises(ValueError):
        run_cluster_grid(grid, jobs=0)
