"""The shipped ``src/`` tree must lint clean under every rule.

This is the enforcement test behind the CI lint job: any new wall-clock
call, unseeded RNG, unguarded event construction, PTE-bit poke outside
``repro.mem``, or bare assert anywhere under ``src/`` fails the suite
with the exact ``path:line:col: RULE message`` lines in the report.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, lint_paths, lint_project

SRC = Path(__file__).resolve().parents[2] / "src"
BASELINE = Path(__file__).resolve().parents[2] / "lint_baseline.json"


def test_src_tree_lints_clean():
    report = lint_paths([SRC])
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"src/ has lint violations:\n{rendered}"
    # Sanity: the walk actually covered the package, not an empty dir.
    assert report.files_checked >= 50


def test_src_tree_passes_whole_program_pass():
    # The strict pass: per-module rules plus W1/R1/P1 over the call
    # graph of the entire package, exactly what CI runs.
    report = lint_project([SRC])
    rendered = "\n".join(v.render() for v in report.violations)
    assert report.clean, f"src/ has whole-program violations:\n{rendered}"


def test_checked_in_baseline_matches_current_findings():
    # Drift gate in test form: regenerating the baseline from the
    # current strict findings must reproduce the checked-in bytes.
    report = lint_project([SRC])
    regenerated = Baseline.from_violations(report.violations).to_json()
    assert regenerated == BASELINE.read_text(encoding="utf-8"), (
        "lint_baseline.json is stale; regenerate with "
        "`python -m repro.analysis src --strict --update-baseline`"
    )
