"""Lint runner and CLI: ``python -m repro.analysis <paths>`` (also ``repro lint``).

One pass runs all eight rules over everything linted together: the
per-module rules (D1, V1, T1, L1, E1) on each file, and the
whole-program rules (W1 wall-clock taint, R1 RNG-stream discipline, P1
fork safety) on the call graph of all of them.  Findings print as
``path:line:col: RULE message`` lines plus a summary; a file that
cannot be decoded or parsed is an ``E999`` finding.

Exit codes: 0 = clean, 1 = violations found, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Type, Union

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.framework import (
    LintReport,
    ModuleUnderLint,
    ProgramRule,
    Rule,
    Violation,
    parse_files,
    parse_module,
    render_text,
)
from repro.analysis.program_rules import (
    ForkSafetyRule,
    RNGStreamRule,
    WallClockTaintRule,
)
from repro.analysis.rules import (
    BareAssertRule,
    DeterminismRule,
    LayeringRule,
    TracerGuardRule,
    VirtualTimeRule,
)

AnyRule = Union[Rule, ProgramRule]

#: Every rule, in ``--list-rules`` order: per-module, then whole-program.
RULES: Tuple[Type[AnyRule], ...] = (
    DeterminismRule,
    VirtualTimeRule,
    TracerGuardRule,
    LayeringRule,
    BareAssertRule,
    WallClockTaintRule,
    RNGStreamRule,
    ForkSafetyRule,
)


def _lint_modules(
    modules: List[ModuleUnderLint], rules: Optional[Sequence[AnyRule]]
) -> List[Violation]:
    """Suppression-filtered findings of ``rules`` (default: all) over ``modules``."""
    if rules is None:
        rules = [cls() for cls in RULES]
    found: List[Violation] = []
    project: Optional[ProjectIndex] = None
    for rule in rules:
        if isinstance(rule, ProgramRule):
            if project is None:
                project = ProjectIndex(modules)
            found.extend(rule.check_program(project))
        else:
            for module in modules:
                found.extend(rule.check(module))
    by_path = {module.path: module for module in modules}
    return [v for v in found if not by_path[v.path].is_suppressed(v)]


def lint_project(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[AnyRule]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` as one program."""
    files, modules, errors = parse_files(paths)
    violations = errors + _lint_modules(modules, rules)
    violations.sort(key=Violation.sort_key)
    return LintReport(files_checked=len(files), violations=violations)


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    rules: Optional[Sequence[AnyRule]] = None,
) -> List[Violation]:
    """Lint one source string as a one-module program."""
    parsed = parse_module(path, source)
    if isinstance(parsed, Violation):
        return [parsed]
    return sorted(_lint_modules([parsed], rules), key=Violation.sort_key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "Project-specific static analysis: determinism (D1), "
            "virtual-time discipline (V1), tracer guards (T1), "
            "mem-layer encapsulation (L1), bare-assert bans (E1), and "
            "the whole-program rules W1 (wall-clock taint), R1 (RNG "
            "streams), P1 (fork safety)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for cls in RULES:
            scope = "program" if issubclass(cls, ProgramRule) else "module"
            print(f"{cls.rule_id}  [{scope}]  {cls.title}")
        return 0
    try:
        report = lint_project(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
