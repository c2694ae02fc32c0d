"""The ``repro crashfind`` subcommand."""

import json

from repro.cli import main
from repro.faults.plan import FaultPlan, SSDFaultRule


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCrashfind:
    def test_table_output_all_ok(self, capsys):
        code, out = run_cli(
            capsys, "crashfind", "--trace", "zipfian", "--ops", "300"
        )
        assert code == 0
        assert "Crash-point exploration" in out
        assert "FAILED" not in out

    def test_json_output_shape(self, capsys):
        code, out = run_cli(
            capsys, "crashfind", "--ops", "300", "--format", "json",
            "--replay", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_ok"] is True
        assert doc["failures"] == []
        assert doc["candidates_total"] > 0
        assert len(doc["replays"]) == 2
        assert all(r["matches"] for r in doc["replays"])

    def test_deterministic_across_invocations(self, capsys):
        argv = ("crashfind", "--ops", "300", "--ssd-fail-rate", "0.02",
                "--format", "json")
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_ssd_fail_rate_exercises_retries(self, capsys):
        code, out = run_cli(
            capsys, "crashfind", "--ops", "500", "--ssd-fail-rate", "0.05",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["injected"]["ssd_failures"] > 0
        assert doc["injected"]["flush_retries"] == doc["injected"]["ssd_failures"]
        assert doc["all_ok"] is True

    def test_fault_plan_file(self, capsys, tmp_path):
        plan = FaultPlan(
            seed=7, ssd_rules=(SSDFaultRule(op="write", fail_prob=0.03),)
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        code, out = run_cli(
            capsys, "crashfind", "--ops", "300", "--fault-plan", str(path),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fault_plan"]["seed"] == 7
        assert doc["all_ok"] is True

    def test_baseline_with_op_stride(self, capsys):
        code, out = run_cli(
            capsys, "crashfind", "--system", "nvdram", "--ops", "300",
            "--op-stride", "50", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["candidates_total"] == 0
        assert doc["probed"] == 300 // 50 + 1
        assert doc["all_ok"] is True

    def test_crash_points_stride(self, capsys):
        code, out = run_cli(
            capsys, "crashfind", "--ops", "300", "--crash-points", "25",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["probed"] < doc["candidates_total"]

    def test_bad_crash_points_rejected(self, capsys):
        for value in ("sometimes", "0"):
            assert main(["crashfind", "--crash-points", value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error: --crash-points")

    def test_listed_in_cmd_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "crashfind" in out
