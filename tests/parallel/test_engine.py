"""Sweep engine: cross-worker determinism, retries, fault recovery.

The load-bearing claims: the merged report's deterministic view is
byte-identical for any ``--jobs`` count; a worker SIGKILLed mid-job is
retried on a rebuilt pool and the sweep still completes with the same
bytes; retry exhaustion surfaces as :class:`SweepError` carrying the
partial results.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.parallel import (
    SweepError,
    SweepGrid,
    deterministic_view,
    dumps,
    run_sweep,
)
from repro.parallel.report import build_sweep_report, checksum
from repro.parallel.worker import run_job

GRID = SweepGrid(
    workloads=("YCSB-A",),
    budget_fractions=(None, 0.175),
    record_count=300,
    operation_count=800,
)


@pytest.fixture(scope="module")
def serial_report():
    return run_sweep(GRID, jobs=1)


def test_two_workers_match_serial_byte_for_byte(serial_report):
    parallel_report = run_sweep(GRID, jobs=2)
    assert dumps(parallel_report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )
    assert (
        parallel_report["checksum_sha256"]
        == serial_report["checksum_sha256"]
    )


def test_compiled_streams_match_generator_byte_for_byte(
    serial_report, monkeypatch
):
    """Bypassing op-stream materialization changes nothing but wall time.

    ``run_sweep`` normally compiles each distinct op stream once and
    hands workers a ``.ops`` path; with materialization stubbed out the
    workers fall back to per-job generation, and the report bytes must
    not move.
    """
    from repro.parallel import engine

    monkeypatch.setattr(
        engine, "materialize_ops_paths", lambda jobs, directory: jobs
    )
    generator_report = run_sweep(GRID, jobs=1)
    assert dumps(generator_report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


def test_checksum_covers_the_deterministic_view(serial_report):
    assert checksum(serial_report) == serial_report["checksum_sha256"]
    tampered = json_round_trip(serial_report)
    tampered["jobs"][0]["result"]["ops_executed"] += 1
    assert checksum(tampered) != serial_report["checksum_sha256"]
    # The wall section is explicitly outside the checksum.
    assert "wall" not in deterministic_view(serial_report)


def json_round_trip(report):
    import json

    return json.loads(json.dumps(report))


def test_killed_worker_is_retried_and_bytes_match(serial_report, tmp_path):
    marker = tmp_path / "kill-once"
    doctored = dataclasses.replace(
        GRID.jobs()[1], fault_kill_once_path=str(marker)
    )
    messages = []
    report = run_sweep(
        GRID, jobs=2, _job_overrides={1: doctored}, progress=messages.append
    )
    assert marker.exists()  # the worker really died mid-job
    assert any("worker process died" in m for m in messages)
    assert report["wall"]["retries"] >= 1
    assert dumps(report, strip_wall=True) == dumps(
        serial_report, strip_wall=True
    )


def test_persistently_crashing_job_raises_with_partial_results(tmp_path):
    # A marker path whose parent directory does not exist makes the
    # fault hook fail on *every* attempt, exhausting the retry budget.
    doctored = dataclasses.replace(
        GRID.jobs()[1],
        fault_kill_once_path=str(tmp_path / "missing" / "marker"),
    )
    with pytest.raises(SweepError) as excinfo:
        run_sweep(GRID, jobs=2, max_retries=1, _job_overrides={1: doctored})
    assert 1 in excinfo.value.failures
    assert 0 in excinfo.value.partial  # the healthy job still completed


def test_serial_retry_then_success(monkeypatch):
    from repro.parallel import worker as worker_mod

    real = worker_mod.run_workload
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("induced first-attempt failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(worker_mod, "run_workload", flaky)
    report = run_sweep(GRID, jobs=1, max_retries=1)
    assert report["wall"]["retries"] == 1
    assert len(report["jobs"]) == len(GRID.jobs())


def test_serial_retry_exhaustion_raises(monkeypatch):
    from repro.parallel import worker as worker_mod

    def always_broken(*args, **kwargs):
        raise RuntimeError("induced permanent failure")

    monkeypatch.setattr(worker_mod, "run_workload", always_broken)
    with pytest.raises(SweepError) as excinfo:
        run_sweep(GRID, jobs=1, max_retries=1)
    assert not excinfo.value.partial
    assert set(excinfo.value.failures) == {0, 1}


def test_job_payload_is_pure(serial_report):
    payload = run_job(GRID.jobs()[0])
    again = run_job(GRID.jobs()[0])
    payload.pop("wall_s")
    again.pop("wall_s")
    assert payload == again
    assert payload["result"] == serial_report["jobs"][0]["result"]


def test_report_refuses_missing_jobs(serial_report):
    results = {0: {"job": {}, "result": {}, "wall_s": 0.0}}
    with pytest.raises(ValueError, match="missing job indices"):
        build_sweep_report(GRID, results, workers=1, total_wall_s=0.0)


def test_argument_validation():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(GRID, jobs=0)
    with pytest.raises(ValueError, match="max_retries"):
        run_sweep(GRID, jobs=1, max_retries=-1)
