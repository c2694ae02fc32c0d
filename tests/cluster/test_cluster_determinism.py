"""Cross-shard determinism: CLUSTER.json is scheduling-independent.

The tentpole claim: the merged report's ``deterministic_view`` is
byte-identical across ``--jobs 1/2/8``, across two same-seed runs, and
across a SIGKILL of a shard worker mid-job — determinism comes from the
jobs being pure functions of their descriptors, not from scheduling.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterGrid,
    plan_cluster,
    run_cluster_grid,
    shard_jobs,
)
from repro.cluster.report import checksum, deterministic_view, dumps

GRID = ClusterGrid(
    shard_counts=(2,),
    total_budgets_gb=(None, 2.0),
    record_count=300,
    operation_count=900,
    epochs=3,
)

#: Every planner feature the default-knob fixtures leave out, on one grid:
#: the configuration family the repo benchmark's grid belongs to.
NONLEGACY_GRID = ClusterGrid(
    shard_counts=(3,),
    total_budgets_gb=(None, 6.0),
    record_count=300,
    operation_count=1200,
    epochs=4,
    pool_degrade=((2, 0.5),),
    predictor="ewma",
    membership=((1, "add", 3), (3, "remove", 0)),
    hotspot_rotate_keys=50,
)

NONLEGACY_GOLDEN = (
    Path(__file__).parent / "fixtures" / "cluster_pre15_nonlegacy.json"
)


@pytest.fixture(scope="module")
def serial_report():
    return run_cluster_grid(GRID, jobs=1)


def test_two_workers_match_serial_byte_for_byte(serial_report):
    parallel_report = run_cluster_grid(GRID, jobs=2)
    assert dumps(parallel_report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )
    assert (
        parallel_report["checksum_sha256"]
        == serial_report["checksum_sha256"]
    )


def test_eight_workers_match_serial_byte_for_byte(serial_report):
    report = run_cluster_grid(GRID, jobs=8)
    assert dumps(report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_nonlegacy_grid_reproduces_golden_bytes(jobs):
    """EWMA + rotation + add/remove + degradation, pinned.

    ``run_cluster_grid(NONLEGACY_GRID, jobs=1)`` then ``dumps(report,
    strip_wall=True)``.  The schema-3 bytes equal the schema-2 bytes of
    the same one-tenant grid with the dropped fields projected out.
    """
    report = run_cluster_grid(NONLEGACY_GRID, jobs=jobs)
    want = NONLEGACY_GOLDEN.read_text(encoding="utf-8")
    assert dumps(report, strip_wall=True) == want


def test_same_seed_reruns_are_identical(serial_report):
    again = run_cluster_grid(GRID, jobs=1)
    assert dumps(again, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


def test_compiled_streams_match_generator_byte_for_byte(serial_report):
    """Jobs handed no ``.ops`` path produce the same bytes.

    ``run_cluster_grid`` compiles the grid's op stream once and shares
    it with the planner and every shard worker; planning from the
    per-op generators (no stream) and letting each worker compile its
    own copy (no ``ops_path``) must merge to an identical report.
    """
    from repro.cluster.report import build_cluster_report
    from repro.parallel.engine import execute_jobs

    plans = [plan_cluster(spec) for spec in GRID.specs()]
    job_list = shard_jobs(plans)
    assert all(job.ops_path is None for job in job_list)
    results, retries, total_wall_s = execute_jobs(job_list, jobs=1)
    legacy = build_cluster_report(
        GRID, plans, results, workers=1,
        total_wall_s=total_wall_s, retries=retries,
    )
    assert dumps(legacy, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


def test_shard_job_ops_path_is_not_identity():
    plans = [plan_cluster(spec) for spec in GRID.specs()]
    plain = shard_jobs(plans)
    backed = shard_jobs(plans, ops_path="/tmp/cluster.ops")
    for bare, job in zip(plain, backed):
        assert job.ops_path == "/tmp/cluster.ops"
        assert "ops_path" not in job.as_dict()
        assert job.as_dict() == bare.as_dict()


def test_coordinator_probes_each_workload_once(monkeypatch):
    """One grid = one demand probe, however many budgets it sweeps.

    The probe cache memoizes on the stream + ring schedule, so planning
    N budget points and replaying the reference-lease counterfactual
    must all reuse a single streaming pass.
    """
    from repro.cluster import runner as runner_mod

    calls = []
    real_probe = runner_mod._probe

    def counting_probe(spec, rings, stream):
        calls.append(spec.total_budget_fraction)
        return real_probe(spec, rings, stream)

    monkeypatch.setattr(runner_mod, "_probe", counting_probe)
    run_cluster_grid(GRID, jobs=1)
    assert len(calls) == 1


def test_different_seed_changes_the_bytes(serial_report):
    other = run_cluster_grid(
        dataclasses.replace(GRID, seed=43), jobs=1
    )
    assert (
        other["checksum_sha256"] != serial_report["checksum_sha256"]
    )


def test_checksum_covers_the_deterministic_view(serial_report):
    import json

    assert checksum(serial_report) == serial_report["checksum_sha256"]
    tampered = json.loads(json.dumps(serial_report))
    tampered["runs"][0]["summary"]["total_ops"] += 1
    assert checksum(tampered) != serial_report["checksum_sha256"]
    assert "wall" not in deterministic_view(serial_report)


def test_killed_shard_worker_is_retried_and_bytes_match(
    serial_report, tmp_path
):
    """SIGKILL a shard worker mid-job: pool rebuilds, bytes unchanged."""
    plans = [plan_cluster(spec) for spec in GRID.specs()]
    jobs = shard_jobs(plans)
    marker = tmp_path / "kill-once"
    doctored = dataclasses.replace(
        jobs[1], fault_kill_once_path=str(marker)
    )
    messages = []
    report = run_cluster_grid(
        GRID,
        jobs=2,
        _job_overrides={1: doctored},
        progress=messages.append,
    )
    assert marker.exists()  # the worker really died mid-job
    assert any("worker process died" in m for m in messages)
    assert report["wall"]["retries"] >= 1
    assert dumps(report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


def test_rebalance_events_are_in_the_deterministic_view(serial_report):
    """The coordinator's lease protocol is part of the pinned bytes."""
    budgeted = [
        run
        for run in serial_report["runs"]
        if run["spec"]["total_budget_fraction"] is not None
    ]
    assert budgeted
    for run in budgeted:
        kinds = [event["type"] for event in run["events"]]
        assert kinds.count("ShardRebalance") == run["spec"]["epochs"]
        assert kinds.count("BudgetLease") == (
            run["spec"]["epochs"] * run["spec"]["shards"]
        )
        # Conservation, as recorded in the report itself.
        for epoch_leases in run["leases"]:
            total = sum(lease["pages"] for lease in epoch_leases)
            assert total <= run["summary"]["pool"]["capacity_schedule"][0]


def test_baseline_runs_plan_no_leases(serial_report):
    baselines = [
        run
        for run in serial_report["runs"]
        if run["spec"]["total_budget_fraction"] is None
    ]
    assert baselines
    for run in baselines:
        assert run["leases"] == []
        assert run["events"] == []
        assert "pool" not in run["summary"]
