"""The shipped ``src/`` tree must lint clean under every rule.

This is the enforcement test behind the CI lint job: any new wall-clock
read, unseeded or global-state RNG, unguarded event construction,
PTE-bit poke outside ``repro.mem``, bare assert, or fork-unsafe worker
anywhere under ``src/`` fails the suite with the exact
``path:line:col: RULE message`` lines in the report.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import RULES, ProgramRule, lint_project

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_lints_clean():
    # One pass: the per-module rules plus W1/R1/P1 over the call graph
    # of the entire package, exactly what CI runs.
    report = lint_project([SRC])
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"src/ has lint violations:\n{rendered}"
    # Sanity: the walk actually covered the package, not an empty dir.
    assert report.files_checked >= 50


def test_src_tree_passes_whole_program_pass():
    # The whole-program rules on their own over the entire package, so a
    # W1/R1/P1 finding is named even if the default rule set changes.
    program_rules = [cls() for cls in RULES if issubclass(cls, ProgramRule)]
    assert {rule.rule_id for rule in program_rules} == {"W1", "R1", "P1"}
    report = lint_project([SRC], rules=program_rules)
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"src/ has whole-program violations:\n{rendered}"
