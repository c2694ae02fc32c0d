"""``repro.analysis``: project-specific static lint.

The enforcement layer for the conventions the reproduction's guarantees
rest on, run as ``python -m repro.analysis <paths>`` or ``repro lint``
and gated in CI.  One pass runs every rule:

* :mod:`repro.analysis.rules` — the per-module AST rules D1, V1, T1,
  L1, E1, over :mod:`repro.analysis.framework`'s parsed modules;
* :mod:`repro.analysis.program_rules` — the whole-program rules W1, R1,
  P1, over :mod:`repro.analysis.callgraph`'s project-wide call graph;
* :mod:`repro.analysis.cli` — the rule tuple, the runner and the CLI.

The runtime invariant checker, the lint's dynamic counterpart, is
:mod:`repro.core.sanitizer`.
"""

from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.cli import RULES, lint_project, lint_source
from repro.analysis.framework import (
    PARSE_ERROR_RULE_ID,
    LintReport,
    ModuleUnderLint,
    ProgramRule,
    Rule,
    Violation,
    render_text,
)

__all__ = [
    "PARSE_ERROR_RULE_ID",
    "RULES",
    "CallGraph",
    "LintReport",
    "ModuleUnderLint",
    "ProgramRule",
    "ProjectIndex",
    "Rule",
    "Violation",
    "lint_project",
    "lint_source",
    "render_text",
]
