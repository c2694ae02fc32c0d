"""Framework-level tests: rule set, suppression parsing, walker, reporter, CLI."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE_ID,
    RULES,
    LintReport,
    ModuleUnderLint,
    ProgramRule,
    Rule,
    Violation,
    lint_project,
    lint_source,
    render_text,
)
from repro.analysis.cli import main
from repro.analysis.framework import iter_python_files

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRuleSet:
    def test_eight_rules_with_distinct_ids(self):
        assert [cls.rule_id for cls in RULES] == [
            "D1", "V1", "T1", "L1", "E1", "W1", "R1", "P1",
        ]
        assert all(issubclass(cls, (Rule, ProgramRule)) for cls in RULES)
        assert all(cls.title for cls in RULES)


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

    def test_invalid_utf8_becomes_e999(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_bytes(b'y = 2\nx = "\xff\xfe"\n')
        report = lint_project([tmp_path])
        assert report.files_checked == 2
        assert [(v.rule_id, v.line, v.col) for v in report.violations] == [
            (PARSE_ERROR_RULE_ID, 2, 5)
        ]
        assert "not valid UTF-8" in report.violations[0].message

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-312.pyc.py").write_text("x = 1\n")
        assert iter_python_files([tmp_path]) == [tmp_path / "a.py"]

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files([FIXTURES / "does_not_exist.py"])

    def test_iter_python_files_lists_overlapping_paths_once(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path / "b.py", tmp_path, tmp_path])
        assert files == [tmp_path / "b.py", tmp_path / "a.py"]

    def test_lint_project_aggregates_and_sorts(self):
        report = lint_project([FIXTURES / "bad_e1.py", FIXTURES / "clean.py"])
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


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_rule_ids(self, capsys):
        assert main([str(FIXTURES / "bad_e1.py")]) == 1
        out = capsys.readouterr().out
        assert "E1" in out and "bad_e1.py:5" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_file.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D1", "V1", "T1", "L1", "E1", "W1", "R1", "P1"):
            assert rule_id in out

    def test_repro_lint_subcommand_delegates(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(FIXTURES / "clean.py")]) == 0
        capsys.readouterr()
        assert repro_main(["lint", str(FIXTURES / "bad_e1.py")]) == 1
        assert "E1" in capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        assert "D1" in capsys.readouterr().out

        # `repro lint ARGS` is `python -m repro.analysis ARGS`, byte for byte.
        for argv in ([str(FIXTURES / "bad_e1.py")], [str(FIXTURES)]):
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
