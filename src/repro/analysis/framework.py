"""AST lint framework: findings, suppression, rule bases and the walker.

The framework is deliberately small and dependency-free (stdlib ``ast``
only).  A :class:`Rule` inspects one parsed module and a
:class:`ProgramRule` the whole project at once; both yield
:class:`Violation` records under a stable rule ID (``D1``, ``W1``, ...).
Suppression is per-line and per-rule::

    value = page_table.dirty[pfn]  # lint: ignore[L1]
    anything_goes()                # lint: ignore

A bare ``# lint: ignore`` silences every rule on that line; the
bracketed form silences only the listed rule IDs.  Suppressions attach
to the line the violation is *reported* on (a multi-line expression
reports on its first line).

The concrete rules live in :mod:`repro.analysis.rules` and
:mod:`repro.analysis.program_rules`, the runner in
:mod:`repro.analysis.cli`; the runtime invariant checker (a different
kind of enforcement, same mission) lives in :mod:`repro.core.sanitizer`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import ProjectIndex

#: Pseudo-rule ID attached to files that cannot be decoded or parsed.
PARSE_ERROR_RULE_ID = "E999"

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\s]*)\])?")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and a human-actionable message."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        """``path:line:col: RULE message`` — the one-line text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class ModuleUnderLint:
    """One parsed source file plus the lookups rules need.

    ``dotted_name`` is derived from the path by anchoring at the last
    ``repro`` component (``src/repro/mem/mmu.py`` -> ``repro.mem.mmu``);
    files outside the package (e.g. test fixtures) keep their bare stem,
    which makes them "outside every repro layer" for layering rules.
    """

    def __init__(self, path: Union[str, Path], source: str) -> None:
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.path)
        self.dotted_name = self._dotted_name(Path(path))
        self._suppressions = self._collect_suppressions(self.lines)

    @staticmethod
    def _dotted_name(path: Path) -> str:
        parts = list(path.parts)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            return ".".join(parts[anchor:])
        return parts[-1] if parts else ""

    @staticmethod
    def _collect_suppressions(lines: Sequence[str]) -> Dict[int, Optional[frozenset]]:
        """line number -> suppressed rule IDs (``None`` = every rule)."""
        out: Dict[int, Optional[frozenset]] = {}
        for number, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            listed = match.group(1)
            if listed is None:
                out[number] = None
            else:
                ids = frozenset(
                    token.strip() for token in listed.split(",") if token.strip()
                )
                out[number] = ids
        return out

    def is_suppressed(self, violation: Violation) -> bool:
        ids = self._suppressions.get(violation.line, frozenset())
        if ids is None:  # bare "# lint: ignore"
            return True
        return violation.rule_id in ids


class Rule:
    """Base class: one named check over one :class:`ModuleUnderLint`."""

    rule_id: str = ""
    title: str = ""

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self, module: ModuleUnderLint, node: ast.AST, message: str
    ) -> Violation:
        """Anchor a finding to ``node``'s first line."""
        return Violation(
            rule_id=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProgramRule:
    """Base class: one whole-program check over a :class:`ProjectIndex`.

    Unlike :class:`Rule`, a program rule sees every module at once (plus
    the call graph the index derives), so it can enforce interprocedural
    and cross-module conventions.  Findings still anchor to one file/line
    and honour the same per-line suppression comments.
    """

    rule_id: str = ""
    title: str = ""

    def check_program(self, project: "ProjectIndex") -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self, path: str, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            rule_id=self.rule_id, path=path, line=line, col=col, message=message
        )


@dataclass
class LintReport:
    """Outcome of one lint run: what was checked and what was found."""

    files_checked: int
    violations: List[Violation]

    @property
    def clean(self) -> bool:
        return not self.violations


def render_text(report: LintReport) -> str:
    """One ``path:line:col: RULE message`` line per finding plus a summary."""
    lines = [violation.render() for violation in report.violations]
    noun = "file" if report.files_checked == 1 else "files"
    if report.clean:
        lines.append(f"clean: {report.files_checked} {noun}, 0 violations")
    else:
        count = len(report.violations)
        vnoun = "violation" if count == 1 else "violations"
        lines.append(f"{count} {vnoun} in {report.files_checked} {noun}")
    return "\n".join(lines)


def parse_module(
    path: Union[str, Path], source: Union[str, bytes]
) -> Union[ModuleUnderLint, Violation]:
    """Parse one file, or the ``E999`` finding for why it cannot be.

    Bytes must be UTF-8 (the encoding of every file in the tree); an
    undecodable byte is reported at its line and column instead of
    ending the run with a traceback.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = source.rfind(b"\n", 0, exc.start) + 1
            return Violation(
                rule_id=PARSE_ERROR_RULE_ID,
                path=str(path),
                line=source.count(b"\n", 0, exc.start) + 1,
                col=exc.start - line_start,
                message=f"not valid UTF-8: {exc.reason}",
            )
    else:
        text = source
    try:
        return ModuleUnderLint(path, text)
    except SyntaxError as exc:
        return Violation(
            rule_id=PARSE_ERROR_RULE_ID,
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a list of distinct ``.py`` files.

    This is the one discovery walker, behind :func:`parse_files`:
    ``__pycache__``, hidden directories and packaging output
    (``*.egg-info``, ``build``, ``dist``) are excluded from directory
    walks.  Explicitly named files are never filtered — naming a file is
    an instruction to lint it.  A file reached twice (``src src``, or a
    directory and a file inside it) is listed once, at its first
    position.
    """
    skip_dirs = {"__pycache__", "build", "dist"}
    out: List[Path] = []
    seen: Set[Path] = set()

    def add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(candidate)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if not any(
                    p in skip_dirs or p.startswith(".") or p.endswith(".egg-info")
                    for p in parts
                ):
                    add(candidate)
        elif path.is_file():
            add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return out


def parse_files(
    paths: Sequence[Union[str, Path]],
) -> Tuple[List[Path], List[ModuleUnderLint], List[Violation]]:
    """Walk ``paths``: the files found, those that parse, and ``E999`` findings."""
    files = iter_python_files(paths)
    modules: List[ModuleUnderLint] = []
    errors: List[Violation] = []
    for file_path in files:
        parsed = parse_module(file_path, file_path.read_bytes())
        if isinstance(parsed, Violation):
            errors.append(parsed)
        else:
            modules.append(parsed)
    return files, modules, errors
