"""``repro.analysis``: project-specific static lint.

The enforcement layers for the conventions the reproduction's
guarantees rest on:

* :mod:`repro.analysis.framework` / :mod:`repro.analysis.rules` — an
  AST lint (rules D1, V1, T1, L1, E1) run as ``python -m repro.analysis
  <paths>`` or ``repro lint``, and gated in CI;
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.program_rules`
  — the whole-program pass (rules W1, R1, P1) over a project-wide
  call graph, enabled with ``repro lint --strict``;
* :mod:`repro.analysis.baseline` / :mod:`repro.analysis.sarif` —
  grandfathered-findings baseline and the SARIF 2.1.0 reporter CI
  uploads to code scanning.

The runtime invariant checker, the lint's dynamic counterpart, is
:mod:`repro.core.sanitizer`.
"""

from repro.analysis.baseline import Baseline, BaselineDiff
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.framework import (
    PARSE_ERROR_RULE_ID,
    SEVERITIES,
    LintReport,
    ModuleUnderLint,
    ProgramRule,
    Rule,
    Violation,
    lint_paths,
    lint_project,
    lint_source,
    make_program_rules,
    make_rules,
    register_program_rule,
    register_rule,
    registered_program_rules,
    registered_rules,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.sarif import render_sarif, sarif_document

__all__ = [
    "PARSE_ERROR_RULE_ID",
    "SEVERITIES",
    "Baseline",
    "BaselineDiff",
    "CallGraph",
    "LintReport",
    "ModuleUnderLint",
    "ProgramRule",
    "ProjectIndex",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_project",
    "lint_source",
    "make_program_rules",
    "make_rules",
    "register_program_rule",
    "register_rule",
    "registered_program_rules",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_document",
]
