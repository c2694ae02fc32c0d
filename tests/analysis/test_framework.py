"""Framework-level tests: registry, suppression parsing, reporters, CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE_ID,
    LintReport,
    ModuleUnderLint,
    Rule,
    Violation,
    lint_paths,
    lint_source,
    make_rules,
    register_rule,
    registered_rules,
)
from repro.analysis.cli import main
from repro.analysis.framework import _REGISTRY, iter_python_files
from repro.analysis.reporters import render_json, render_text

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_all_five_project_rules_registered(self):
        assert set(registered_rules()) == {"D1", "V1", "T1", "L1", "E1"}

    def test_make_rules_default_instantiates_all(self):
        ids = sorted(rule.rule_id for rule in make_rules())
        assert ids == ["D1", "E1", "L1", "T1", "V1"]

    def test_make_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="Z9"):
            make_rules(["D1", "Z9"])

    def test_duplicate_registration_raises(self):
        class Dup(Rule):
            rule_id = "D1"
            title = "impostor"

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Dup)
        assert _REGISTRY["D1"] is not Dup

    def test_missing_rule_id_raises(self):
        class Anonymous(Rule):
            pass

        with pytest.raises(ValueError, match="no rule_id"):
            register_rule(Anonymous)


class TestSuppressionParsing:
    def make(self, line: str) -> ModuleUnderLint:
        return ModuleUnderLint("x.py", f"x = 1{line}\n")

    def hit(self, module: ModuleUnderLint, rule_id: str) -> bool:
        violation = Violation(rule_id, "x.py", 1, 0, "msg")
        return module.is_suppressed(violation)

    def test_bare_ignore_suppresses_everything(self):
        module = self.make("  # lint: ignore")
        assert self.hit(module, "D1") and self.hit(module, "L1")

    def test_bracketed_ignore_is_rule_specific(self):
        module = self.make("  # lint: ignore[D1, V1]")
        assert self.hit(module, "D1")
        assert self.hit(module, "V1")
        assert not self.hit(module, "L1")

    def test_suppression_is_per_line(self):
        module = ModuleUnderLint("x.py", "x = 1  # lint: ignore\ny = 2\n")
        assert not module.is_suppressed(Violation("D1", "x.py", 2, 0, "m"))

    def test_dotted_name_anchors_at_repro(self):
        assert (
            ModuleUnderLint._dotted_name(Path("src/repro/mem/mmu.py"))
            == "repro.mem.mmu"
        )
        assert (
            ModuleUnderLint._dotted_name(Path("src/repro/obs/__init__.py"))
            == "repro.obs"
        )
        assert ModuleUnderLint._dotted_name(Path("scratch/tool.py")) == "tool"


class TestRunner:
    def test_syntax_error_becomes_e999(self):
        violations = lint_source("def broken(:\n", path="oops.py")
        assert len(violations) == 1
        assert violations[0].rule_id == PARSE_ERROR_RULE_ID
        assert violations[0].path == "oops.py"

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-312.pyc.py").write_text("x = 1\n")
        assert iter_python_files([tmp_path]) == [tmp_path / "a.py"]

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files([FIXTURES / "does_not_exist.py"])

    def test_lint_paths_aggregates_and_sorts(self):
        report = lint_paths([FIXTURES / "bad_e1.py", FIXTURES / "clean.py"])
        assert report.files_checked == 2
        assert not report.clean
        assert [v.rule_id for v in report.violations] == ["E1"]


class TestReporters:
    def sample_report(self) -> LintReport:
        return LintReport(
            files_checked=2,
            violations=[Violation("D1", "a.py", 3, 4, "wall clock")],
        )

    def test_render_text_lists_violations_and_summary(self):
        text = render_text(self.sample_report())
        assert "a.py:3:4: D1 wall clock" in text
        assert "1 violation" in text

    def test_render_text_clean(self):
        text = render_text(LintReport(files_checked=5, violations=[]))
        assert "clean" in text and "5" in text

    def test_render_json_round_trips(self):
        payload = json.loads(render_json(self.sample_report()))
        assert payload["files_checked"] == 2
        assert payload["clean"] is False
        assert payload["violations"] == [
            {
                "rule": "D1",
                "path": "a.py",
                "line": 3,
                "col": 4,
                "message": "wall clock",
                "severity": "error",
            }
        ]


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_rule_ids(self, capsys):
        assert main([str(FIXTURES / "bad_e1.py")]) == 1
        out = capsys.readouterr().out
        assert "E1" in out and "bad_e1.py:5" in out

    def test_json_format(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "bad_e1.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"][0]["rule"] == "E1"
        assert payload["violations"][0]["line"] == 5

    def test_select_limits_rules(self, capsys):
        # bad_d1.py trips D1 only; selecting L1 alone must come back clean.
        assert main(["--select", "L1", str(FIXTURES / "bad_d1.py")]) == 0
        capsys.readouterr()

    def test_unknown_rule_id_is_usage_error(self, capsys):
        assert main(["--select", "Z9", str(FIXTURES / "clean.py")]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_file.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D1", "V1", "T1", "L1", "E1"):
            assert rule_id in out

    def test_repro_lint_subcommand_delegates(self, capsys, monkeypatch):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(FIXTURES / "clean.py")]) == 0
        capsys.readouterr()
        assert repro_main(["lint", str(FIXTURES / "bad_e1.py")]) == 1
        assert "E1" in capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        assert "D1" in capsys.readouterr().out

        # `repro lint ARGS` is `python -m repro.analysis ARGS`, flag for flag.
        monkeypatch.chdir(REPO_ROOT)  # --baseline's default file
        bad = str(FIXTURES / "bad_e1.py")
        for argv in ([bad, "--strict", "--baseline"], ["--format", "json", bad]):
            code = repro_main(["lint", *argv])
            via_repro = capsys.readouterr()
            assert code == main(argv) == 1
            assert capsys.readouterr() == via_repro
        with pytest.raises(SystemExit) as via_repro_help:
            repro_main(["lint", "--help"])
        repro_help = capsys.readouterr()
        with pytest.raises(SystemExit) as direct_help:
            main(["--help"])
        assert via_repro_help.value.code == direct_help.value.code == 0
        assert capsys.readouterr() == repro_help
        assert repro_help.out.startswith("usage: repro.analysis")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / "bad_e1.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "E1" in proc.stdout
