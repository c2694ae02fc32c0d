"""CLI surface: one lint mode, so no flag picks rules, formats or levels."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "program"
BAD_W1 = str(FIXTURES / "bad_w1.py")


class TestListRules:
    def test_list_rules_shows_both_scopes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "D1  [module]" in out
        assert "W1  [program]" in out


class TestOneMode:
    def test_whole_program_rules_run_by_default(self, capsys):
        assert main([BAD_W1]) == 1
        out = capsys.readouterr().out
        assert "W1" in out and "transitively" in out

    def test_list_rules_is_the_only_option(self):
        options = {
            option
            for action in build_parser()._actions
            for option in action.option_strings
        }
        assert options == {"-h", "--help", "--list-rules"}

    @pytest.mark.parametrize(
        "flag",
        [
            "--strict",
            "--baseline",
            "--update-baseline",
            "--fail-on=error",
            "--format=json",
            "--select=W1",
        ],
    )
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([BAD_W1, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
