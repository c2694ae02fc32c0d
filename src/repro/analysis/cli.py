"""Lint CLI: ``python -m repro.analysis <paths>`` (also ``repro lint``).

Modes:

* default — the per-module rules (D1, V1, T1, L1, E1);
* ``--strict`` — additionally run the whole-program pass (W1 wall-clock
  taint, R1 RNG-stream discipline, P1 fork safety) over the call graph
  of everything linted together.

Baseline workflow (see :mod:`repro.analysis.baseline`):

* ``--baseline [FILE]`` — suppress grandfathered findings; *new*
  findings and *stale* entries both fail (default file:
  ``lint_baseline.json``);
* ``--update-baseline`` — rewrite the baseline file from the current
  findings (canonical bytes) and exit 0.

Severity:

* ``--severity RULE=LEVEL`` — override a rule's level (note/warning/
  error), repeatable;
* ``--fail-on LEVEL`` — exit non-zero only for findings at or above
  LEVEL (default: warning).

Exit codes: 0 = clean (or all failures below ``--fail-on``),
1 = violations found, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.analysis.baseline import Baseline, BaselineDiff
from repro.analysis.framework import (
    SEVERITIES,
    LintReport,
    lint_project,
    make_program_rules,
    make_rules,
    registered_program_rules,
    registered_rules,
)
from repro.analysis.reporters import render_json, render_text
from repro.analysis.sarif import render_sarif

DEFAULT_BASELINE = "lint_baseline.json"

_RANK = {level: index for index, level in enumerate(SEVERITIES)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "Project-specific static analysis: determinism (D1), "
            "virtual-time discipline (V1), tracer guards (T1), "
            "mem-layer encapsulation (L1), bare-assert bans (E1); "
            "with --strict also the whole-program rules W1 (wall-clock "
            "taint), R1 (RNG streams), P1 (fork safety)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also run the whole-program rules (W1, R1, P1)",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help=(
            "suppress findings recorded in FILE (default: "
            f"{DEFAULT_BASELINE}); new findings and stale entries fail"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help="rewrite FILE from the current findings and exit 0",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=None,
        metavar="RULE=LEVEL",
        help="override a rule's severity (note/warning/error); repeatable",
    )
    parser.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="warning",
        help="minimum severity that makes the run fail (default: warning)",
    )
    parser.add_argument(
        "--sarif-out",
        type=str,
        default=None,
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _parse_severities(pairs: Optional[List[str]]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs or ():
        rule_id, sep, level = pair.partition("=")
        if not sep or not rule_id or not level:
            raise KeyError(f"bad --severity {pair!r}; expected RULE=LEVEL")
        overrides[rule_id.strip()] = level.strip()
    return overrides


def _fails(
    report: LintReport, fail_on: str, diff: Optional[BaselineDiff]
) -> bool:
    threshold = _RANK[fail_on]
    if diff is not None:
        if diff.stale:
            return True
        candidates = diff.new
    else:
        candidates = report.violations
    return any(_RANK.get(v.severity, 2) >= threshold for v in candidates)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        registry = dict(registered_rules())
        registry.update(registered_program_rules())
        for rule_id, cls in sorted(registry.items()):
            scope = "program" if rule_id in registered_program_rules() else "module"
            print(f"{rule_id}  [{scope}]  {cls.title}")
        return 0
    try:
        select = (
            [token.strip() for token in args.select.split(",") if token.strip()]
            if args.select
            else None
        )
        severities = _parse_severities(args.severity)
        if select is not None:
            known = set(registered_rules()) | set(registered_program_rules())
            unknown = [rule_id for rule_id in select if rule_id not in known]
            if unknown:
                raise KeyError(
                    f"unknown rule id(s) {unknown}; registered: {sorted(known)}"
                )
            module_select = [r for r in select if r in registered_rules()]
            rules = make_rules(module_select, severities)
        else:
            rules = make_rules(None, severities)
        program_rules = (
            make_program_rules(select, severities) if args.strict else []
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        report = lint_project(args.paths, rules, program_rules)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline is not None:
        Baseline.from_violations(report.violations).save(args.update_baseline)
        count = len(report.violations)
        noun = "finding" if count == 1 else "findings"
        print(f"baseline written: {args.update_baseline} ({count} {noun})")
        return 0

    diff: Optional[BaselineDiff] = None
    if args.baseline is not None:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        diff = baseline.diff(report.violations)

    all_rules = list(rules) + list(program_rules)
    baselined = diff.baselined if diff is not None else None
    if args.sarif_out is not None:
        with open(args.sarif_out, "w", encoding="utf-8") as handle:
            handle.write(
                render_sarif(report, rules=all_rules, baselined=baselined)
            )

    if args.format == "sarif":
        print(render_sarif(report, rules=all_rules, baselined=baselined))
    elif args.format == "json":
        print(render_json(report))
    else:
        if diff is not None:
            visible = LintReport(
                files_checked=report.files_checked, violations=diff.new
            )
            print(render_text(visible))
            if diff.baselined:
                count = len(diff.baselined)
                noun = "finding" if count == 1 else "findings"
                print(f"baseline: {count} grandfathered {noun} suppressed")
            for rule_id, path, message in diff.stale:
                print(
                    f"stale baseline entry: {rule_id} {path}: {message} "
                    "(fixed findings must be removed via --update-baseline)"
                )
        else:
            print(render_text(report))
    return 1 if _fails(report, args.fail_on, diff) else 0


if __name__ == "__main__":
    raise SystemExit(main())
