"""CLI surface: --strict, baseline flags, severity, --fail-on, SARIF."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "program"
BAD_W1 = str(FIXTURES / "bad_w1.py")


class TestStrict:
    def test_program_rules_need_strict(self, capsys):
        # W1's transitive findings only appear under --strict.
        assert main([BAD_W1, "--select", "W1"]) == 0
        capsys.readouterr()
        assert main([BAD_W1, "--select", "W1", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "W1" in out and "transitively" in out

    def test_list_rules_shows_both_registries(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "D1  [module]" in out
        assert "W1  [program]" in out

    def test_unknown_select_is_usage_error(self, capsys):
        assert main([BAD_W1, "--select", "Z9", "--strict"]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestSeverity:
    def test_fail_on_error_ignores_demoted_rule(self, capsys):
        code = main(
            [
                BAD_W1,
                "--select",
                "W1",
                "--strict",
                "--severity",
                "W1=note",
                "--fail-on",
                "error",
            ]
        )
        assert code == 0  # findings still printed, just not failing
        assert "W1" in capsys.readouterr().out

    def test_fail_on_note_catches_demoted_rule(self):
        code = main(
            [
                BAD_W1,
                "--select",
                "W1",
                "--strict",
                "--severity",
                "W1=note",
                "--fail-on",
                "note",
            ]
        )
        assert code == 1

    def test_bad_severity_is_usage_error(self, capsys):
        assert main([BAD_W1, "--severity", "W1=loud"]) == 2
        assert "unknown severity" in capsys.readouterr().err


class TestBaselineFlags:
    def test_update_then_check_cycle(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        args = [BAD_W1, "--select", "W1,D1", "--strict"]
        assert main(args + ["--update-baseline", baseline]) == 0
        capsys.readouterr()
        # Same findings, now grandfathered: run passes.
        assert main(args + ["--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "grandfathered" in out
        # Narrower run: D1/W1 findings disappear -> stale entries fail.
        assert main([BAD_W1, "--select", "D1", "--baseline", baseline]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_new_findings_fail_against_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main([BAD_W1, "--select", "D1", "--update-baseline", baseline]) == 0
        capsys.readouterr()
        code = main([BAD_W1, "--select", "W1,D1", "--strict", "--baseline", baseline])
        assert code == 1
        assert "W1" in capsys.readouterr().out

    def test_missing_baseline_file_is_usage_error(self, tmp_path, capsys):
        code = main([BAD_W1, "--baseline", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestSarifOutput:
    def test_format_sarif_prints_valid_json(self, capsys):
        assert main([BAD_W1, "--strict", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert any(
            result["ruleId"] == "W1" for result in doc["runs"][0]["results"]
        )

    def test_sarif_out_writes_alongside_text(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        assert main([BAD_W1, "--strict", "--sarif-out", str(out_file)]) == 1
        assert "violation" in capsys.readouterr().out
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"W1", "R1", "P1"} <= rule_ids
        assert "K1" not in rule_ids

    def test_baselined_findings_are_suppressed_in_sarif(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        out_file = tmp_path / "lint.sarif"
        args = [BAD_W1, "--select", "W1", "--strict"]
        assert main(args + ["--update-baseline", baseline]) == 0
        assert (
            main(args + ["--baseline", baseline, "--sarif-out", str(out_file)])
            == 0
        )
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        results = doc["runs"][0]["results"]
        assert results and all("suppressions" in r for r in results)
