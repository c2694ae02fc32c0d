"""Whole-program rule catalogue: W1, R1, P1.

These rules run on the :class:`~repro.analysis.callgraph.ProjectIndex`
(every module at once, plus the over-approximate call graph), so they
enforce the conventions that rot *between* modules:

==== =================================================================
ID   convention enforced
==== =================================================================
W1   interprocedural wall-clock taint: no function outside
     ``repro.perf.timer`` may read a wall clock or transitively reach
     one.  Every direct read is reported (through any import alias:
     ``from time import perf_counter``, ``import time as t``), and a
     helper three calls deep reaching ``time.monotonic`` taints every
     caller up the graph.
R1   RNG-stream discipline: every ``random.Random(...)`` /
     ``np.random.default_rng(...)`` construction must be seeded by
     dataflow from a function parameter, a config field, or a
     derived-seed helper.  Literal, module-global, opaque-call, and
     unseeded constructions are flagged — seeds must be *plumbed*, or
     sweep jobs cannot own their streams.
P1   fork safety for ``repro.parallel``: pool submissions must target
     module-top-level (picklable, closure-free) functions, and nothing
     reachable from a worker entry point may mutate a module-level
     mutable global or open a *writable* ``np.memmap`` (read-only
     ``mode="r"``/``"c"`` maps are the sanctioned way to share a
     compiled op stream by path) — a lightweight race detector for the
     sweep engine.
==== =================================================================

All three anchor findings to one file/line and honour the standard
``# lint: ignore[Wx]`` suppressions on that line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    MODULE_BODY,
    MUTATING_METHODS,
    CallGraph,
    FunctionInfo,
    ProjectIndex,
    _dotted,
)
from repro.analysis.framework import ModuleUnderLint, ProgramRule, Violation
from repro.analysis.rules import _matches_wall_clock

# -- W1: interprocedural wall-clock taint ------------------------------------

#: The sanctioned wall-clock boundary.  Functions in these modules are
#: never tainted and never propagate taint: calling ``best_of`` /
#: ``timestamp`` is the *approved* way to measure wall time, so the
#: taint stops there instead of flooding the perf and sweep layers.
WALL_CLOCK_EXEMPT_MODULES = frozenset({"repro.perf.timer"})


def _short(qualname: str) -> str:
    """Drop the package prefix for readable taint paths."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


class WallClockTaintRule(ProgramRule):
    """W1: nothing outside ``repro.perf.timer`` reaches a wall clock."""

    rule_id = "W1"
    title = "wall-clock taint: only repro.perf.timer may reach host time"

    def check_program(self, project: ProjectIndex) -> Iterable[Violation]:
        graph = project.graph
        exempt = self._exempt_callers(project)
        # Direct sources: call sites whose resolved target is a
        # wall-clock external (``time.perf_counter``, ``datetime.now``).
        direct: Dict[str, List[Tuple[int, int, str]]] = {}
        for caller, sites in graph.external_calls.items():
            hits = sorted(site for site in sites if _matches_wall_clock(site[2]))
            if hits and caller not in exempt:
                direct[caller] = hits
        # Propagate taint along reverse edges; remember one witness
        # callee per tainted caller so reports carry a concrete path.
        tainted: Dict[str, str] = {}  # caller -> tainted callee (next hop)
        frontier = sorted(direct)
        reverse: Dict[str, List[str]] = {}
        for caller, targets in graph.edges.items():
            for target in targets:
                reverse.setdefault(target, []).append(caller)
        seen: Set[str] = set(frontier)
        while frontier:
            next_frontier: List[str] = []
            for callee in frontier:
                for caller in sorted(reverse.get(callee, ())):
                    if caller in seen or caller in exempt or caller in direct:
                        continue
                    seen.add(caller)
                    tainted[caller] = callee
                    next_frontier.append(caller)
            frontier = next_frontier

        for caller, hits in sorted(direct.items()):
            path = self._caller_path(project, caller)
            if path is None:
                continue
            for lineno, col, source in hits:
                yield self.violation(
                    path,
                    lineno,
                    col,
                    f"`{_short(caller)}` reads the wall clock directly "
                    f"(`{source}()`); host time is confined to "
                    "`repro.perf.timer`",
                )
        for caller, next_hop in sorted(tainted.items()):
            path = self._caller_path(project, caller)
            if path is None:
                continue
            lineno = graph.edges[caller][next_hop]
            chain = self._chain(caller, tainted, direct)
            yield self.violation(
                path,
                lineno,
                0,
                f"`{_short(caller)}` transitively reaches a wall clock: "
                f"{chain}; route timing through `repro.perf.timer` or "
                "cut the call path",
            )

    @staticmethod
    def _exempt_callers(project: ProjectIndex) -> Set[str]:
        out: Set[str] = set()
        for qualname, info in project.functions.items():
            if info.module in WALL_CLOCK_EXEMPT_MODULES:
                out.add(qualname)
        for module in WALL_CLOCK_EXEMPT_MODULES:
            out.add(f"{module}.{MODULE_BODY}")
        return out

    @staticmethod
    def _caller_path(project: ProjectIndex, caller: str) -> Optional[str]:
        info = project.functions.get(caller)
        if info is not None:
            return info.path
        # Class-body callers ("pkg.mod.Cls.<module>") have no
        # FunctionInfo; anchor to their module's file.
        module = caller.rsplit(".", 2)[0] if caller.endswith(MODULE_BODY) else None
        if module is not None and module in project.modules:
            return project.modules[module].path
        return None

    @staticmethod
    def _chain(
        start: str,
        tainted: Dict[str, str],
        direct: Dict[str, List[Tuple[int, int, str]]],
    ) -> str:
        hops = [start]
        current = start
        while current in tainted:
            current = tainted[current]
            hops.append(current)
            if len(hops) > 12:  # cycles cannot recurse forever
                break
        rendered = " -> ".join(_short(hop) for hop in hops)
        if current in direct:
            rendered += f" -> {direct[current][0][2]}()"
        return rendered


# -- R1: RNG-stream discipline ----------------------------------------------

#: Fully-resolved constructor names that open an RNG stream.
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)

#: Pure numeric wrappers a derived seed may pass through.
_SEED_WRAPPERS = frozenset({"int", "abs", "hash", "min", "max", "round", "sum"})

_OK = "ok"
_NEUTRAL = "neutral"  # literals: fine inside arithmetic, not alone


class RNGStreamRule(ProgramRule):
    """R1: every RNG stream is seeded from plumbed-in state."""

    rule_id = "R1"
    title = "RNG-stream discipline: seeds flow from parameters/config"

    def check_program(self, project: ProjectIndex) -> Iterable[Violation]:
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            yield from self._check_function(project, info)

    # -- per-function scan -------------------------------------------------

    def _check_function(
        self, project: ProjectIndex, info: FunctionInfo
    ) -> Iterable[Violation]:
        imports = project.imports.get(info.module, {})
        module_globals = project.module_globals.get(info.module, set())
        env: Set[str] = set()
        if isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = info.node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                env.add(arg.arg)
            body = info.node.body
        elif isinstance(info.node, ast.Module):
            body = info.node.body
        else:  # pragma: no cover - index only stores the above
            return
        state = _ScanState(self, info, imports, module_globals, env)
        yield from state.visit(body)


class _ScanState:
    """One in-order pass over a function body: env tracking + checks."""

    def __init__(
        self,
        rule: RNGStreamRule,
        info: FunctionInfo,
        imports: Dict[str, str],
        module_globals: Set[str],
        env: Set[str],
    ) -> None:
        self.rule = rule
        self.info = info
        self.imports = imports
        self.module_globals = module_globals
        self.env = env

    # -- statement traversal (source order, own scope only) ---------------

    def visit(self, stmts: List[ast.stmt]) -> Iterable[Violation]:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # separate FunctionInfo / class entries
            if isinstance(stmt, ast.Assign):
                yield from self.check_expr(stmt.value)
                seeded = self.status(stmt.value) == _OK
                for target in stmt.targets:
                    self.bind(target, seeded)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if stmt.value is not None:
                    yield from self.check_expr(stmt.value)
                    self.bind(stmt.target, self.status(stmt.value) == _OK)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self.check_expr(stmt.iter)
                self.bind(stmt.target, self.status(stmt.iter) == _OK)
                yield from self.visit(stmt.body)
                yield from self.visit(stmt.orelse)
            elif isinstance(stmt, ast.While):
                yield from self.check_expr(stmt.test)
                yield from self.visit(stmt.body)
                yield from self.visit(stmt.orelse)
            elif isinstance(stmt, ast.If):
                yield from self.check_expr(stmt.test)
                yield from self.visit(stmt.body)
                yield from self.visit(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield from self.check_expr(item.context_expr)
                    if item.optional_vars is not None:
                        self.bind(
                            item.optional_vars,
                            self.status(item.context_expr) == _OK,
                        )
                yield from self.visit(stmt.body)
            elif isinstance(stmt, ast.Try):
                yield from self.visit(stmt.body)
                for handler in stmt.handlers:
                    yield from self.visit(handler.body)
                yield from self.visit(stmt.orelse)
                yield from self.visit(stmt.finalbody)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        yield from self.check_expr(child)

    def bind(self, target: ast.AST, seeded: bool) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                if seeded:
                    self.env.add(node.id)
                else:
                    self.env.discard(node.id)

    # -- construction-site checks -----------------------------------------

    def check_expr(self, expr: ast.AST) -> Iterable[Violation]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                constructor = self._rng_constructor(node)
                if constructor is None:
                    continue
                problem = self._construction_problem(node)
                if problem is not None:
                    rendered = _dotted(node.func) or constructor
                    yield self.rule.violation(
                        self.info.path,
                        node.lineno,
                        node.col_offset,
                        f"`{rendered}(...)` {problem} — every RNG stream "
                        "must be seeded by dataflow from a parameter, "
                        "config field, or derived-seed helper",
                    )

    def _rng_constructor(self, node: ast.Call) -> Optional[str]:
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.imports.get(head)
        if resolved is not None:
            full = f"{resolved}.{rest}" if rest else resolved
        else:
            full = dotted
        return full if full in RNG_CONSTRUCTORS else None

    def _construction_problem(self, node: ast.Call) -> Optional[str]:
        seed_expr: Optional[ast.AST] = None
        if node.args:
            seed_expr = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed_expr = keyword.value
                    break
        if seed_expr is None:
            return "is constructed without a seed"
        status = self.status(seed_expr)
        if status == _OK:
            return None
        if status == _NEUTRAL:
            return "is seeded from a literal"
        return f"is seeded from {status}"

    # -- seed-expression dataflow -----------------------------------------

    def status(self, expr: ast.AST) -> str:
        """``_OK`` / ``_NEUTRAL`` / reason-string (= banned)."""
        if isinstance(expr, ast.Constant):
            return _NEUTRAL
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return _OK
            if expr.id in self.module_globals or expr.id in self.imports:
                return f"module-level global `{expr.id}`"
            return f"unresolved name `{expr.id}`"
        if isinstance(expr, ast.Attribute):
            dotted = _dotted(expr)
            root = dotted.split(".")[0] if dotted else None
            if root in ("self", "cls") or (root is not None and root in self.env):
                return _OK  # config field / parameter attribute
            if root is not None and (
                root in self.module_globals or root in self.imports
            ):
                return f"module-level global `{dotted}`"
            return f"unresolved attribute `{dotted or expr.attr}`"
        if isinstance(expr, ast.Call):
            name = _dotted(expr.func)
            leaf = (name or "").split(".")[-1]
            if "seed" in leaf.lower():
                return _OK  # derived-seed helper by naming convention
            if leaf in _SEED_WRAPPERS:
                return self._combine(
                    [self.status(arg) for arg in expr.args] or [_NEUTRAL]
                )
            return f"opaque call `{name or '<expr>'}(...)`"
        if isinstance(expr, ast.Subscript):
            return self.status(expr.value)
        if isinstance(expr, ast.BinOp):
            return self._combine([self.status(expr.left), self.status(expr.right)])
        if isinstance(expr, ast.UnaryOp):
            return self.status(expr.operand)
        if isinstance(expr, ast.BoolOp):
            return self._combine([self.status(value) for value in expr.values])
        if isinstance(expr, ast.IfExp):
            return self._combine([self.status(expr.body), self.status(expr.orelse)])
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._combine([self.status(elt) for elt in expr.elts] or [_NEUTRAL])
        return "an unsupported seed expression"

    @staticmethod
    def _combine(statuses: List[str]) -> str:
        for status in statuses:
            if status not in (_OK, _NEUTRAL):
                return status
        if any(status == _OK for status in statuses):
            return _OK
        return _NEUTRAL


# -- P1: multiprocessing / fork safety ---------------------------------------

#: Only modules under this package submit work to process pools.
P1_SCOPE_PREFIX = "repro.parallel"

#: Attribute names that hand a callable to another process.
SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "map_async", "imap", "imap_unordered"}
)


class ForkSafetyRule(ProgramRule):
    """P1: pool entry points are picklable; worker trees are side-effect free."""

    rule_id = "P1"
    title = "fork safety: picklable pool entries, no worker global writes"

    def check_program(self, project: ProjectIndex) -> Iterable[Violation]:
        entries: List[str] = []
        yield from self._check_all_submissions(project, entries)
        for qualname in sorted(project.graph.reachable(entries)):
            info = project.functions.get(qualname)
            if info is None:
                continue
            yield from self._check_worker_function(project, info)

    def pool_entries(self, project: ProjectIndex) -> List[str]:
        """Qualified names of the functions submitted to process pools:
        the roots of the worker tree."""
        entries: List[str] = []
        for _ in self._check_all_submissions(project, entries):
            pass
        return entries

    def _check_all_submissions(
        self, project: ProjectIndex, entries: List[str]
    ) -> Iterable[Violation]:
        for module_name in sorted(project.modules):
            if (
                module_name == P1_SCOPE_PREFIX
                or module_name.startswith(P1_SCOPE_PREFIX + ".")
            ):
                yield from self._check_submissions(
                    project,
                    project.graph,
                    module_name,
                    project.modules[module_name],
                    entries,
                )

    # -- submission sites --------------------------------------------------

    def _check_submissions(
        self,
        project: ProjectIndex,
        graph: CallGraph,
        module_name: str,
        module: ModuleUnderLint,
        entries: List[str],
    ) -> Iterable[Violation]:
        graph._module = module  # resolution context for this module
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBMIT_METHODS
            ):
                continue
            if not node.args:
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                yield self.violation(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    "lambda submitted to a process pool is not picklable; "
                    "use a module-top-level function",
                )
                continue
            targets = graph.resolve_ref(worker, cls=None, scope={})
            resolved = [
                project.functions[t] for t in targets if t in project.functions
            ]
            if not resolved and isinstance(worker, ast.Name):
                # ``submit(job)`` where ``job`` is a nested def: module
                # scope cannot see it, so look it up by name among this
                # module's nested functions to report the closure, not
                # an "unresolved" cop-out.
                resolved = [
                    info
                    for info in project.functions.values()
                    if info.module == module_name
                    and info.name == worker.id
                    and info.is_nested
                ]
            if not resolved:
                yield self.violation(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    "worker entry submitted to a process pool cannot be "
                    "resolved statically; submit a module-top-level "
                    "function by name",
                )
                continue
            for info in resolved:
                if info.is_nested:
                    yield self.violation(
                        module.path,
                        node.lineno,
                        node.col_offset,
                        f"nested function `{_short(info.qualname)}` submitted "
                        "to a process pool is a closure and not picklable",
                    )
                elif info.cls is not None:
                    yield self.violation(
                        module.path,
                        node.lineno,
                        node.col_offset,
                        f"method `{_short(info.qualname)}` submitted to a "
                        "process pool drags its instance through pickle; "
                        "use a module-top-level function",
                    )
                else:
                    entries.append(info.qualname)

    # -- worker-tree side effects ------------------------------------------

    def _check_worker_function(
        self, project: ProjectIndex, info: FunctionInfo
    ) -> Iterable[Violation]:
        if not isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        imports = project.imports.get(info.module, {})
        own_mutables = project.mutable_globals.get(info.module, set())
        declared_global: Set[str] = set()
        for node in self._own_scope(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
                yield self.violation(
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"worker-reachable `{_short(info.qualname)}` declares "
                    f"`global {', '.join(node.names)}` — worker state must "
                    "stay process-local",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = self._mutable_global_target(
                        target, project, info.module, imports, own_mutables
                    )
                    if name is not None:
                        yield self.violation(
                            info.path,
                            node.lineno,
                            node.col_offset,
                            f"worker-reachable `{_short(info.qualname)}` "
                            f"writes module-level mutable `{name}` — a "
                            "cross-process race; pass state through the "
                            "job payload instead",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
            ):
                name = self._module_global_name(
                    node.func.value, project, info.module, imports, own_mutables
                )
                if name is not None:
                    yield self.violation(
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"worker-reachable `{_short(info.qualname)}` mutates "
                        f"module-level `{name}` via `.{node.func.attr}()` — "
                        "a cross-process race; pass state through the job "
                        "payload instead",
                    )
            elif isinstance(node, ast.Call) and self._is_memmap_call(
                node.func, imports
            ):
                # Read-only maps (mode "r" / copy-on-write "c") are the
                # sanctioned way for workers to share a parent's compiled
                # op stream by path; anything writable (including the
                # "r+" default) aliases dirty pages across processes.
                mode = self._memmap_mode_arg(node)
                if not (
                    isinstance(mode, ast.Constant)
                    and mode.value in ("r", "c")
                ):
                    yield self.violation(
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"worker-reachable `{_short(info.qualname)}` opens a "
                        "writable np.memmap — forked workers would race on "
                        "the shared pages; open with mode='r' (or "
                        "copy-on-write 'c') and pass the path through the "
                        "job payload",
                    )

    @staticmethod
    def _is_memmap_call(func: ast.AST, imports: Dict[str, str]) -> bool:
        """Is this call expression ``np.memmap(...)`` (however imported)?"""
        if isinstance(func, ast.Attribute) and func.attr == "memmap":
            return (
                isinstance(func.value, ast.Name)
                and imports.get(func.value.id) == "numpy"
            )
        if isinstance(func, ast.Name):
            return imports.get(func.id) == "numpy.memmap"
        return False

    @staticmethod
    def _memmap_mode_arg(call: ast.Call) -> Optional[ast.expr]:
        """The ``mode`` argument expression, keyword or positional."""
        for keyword in call.keywords:
            if keyword.arg == "mode":
                return keyword.value
        if len(call.args) > 2:  # np.memmap(filename, dtype, mode, ...)
            return call.args[2]
        return None

    @staticmethod
    def _own_scope(root: ast.AST) -> Iterable[ast.AST]:
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                stack.extend(ast.iter_child_nodes(node))

    def _mutable_global_target(
        self,
        target: ast.AST,
        project: ProjectIndex,
        module: str,
        imports: Dict[str, str],
        own_mutables: Set[str],
    ) -> Optional[str]:
        """Subscript stores into module-level mutables (``CACHE[k] = v``)."""
        if isinstance(target, ast.Subscript):
            return self._module_global_name(
                target.value, project, module, imports, own_mutables
            )
        return None

    @staticmethod
    def _module_global_name(
        expr: ast.AST,
        project: ProjectIndex,
        module: str,
        imports: Dict[str, str],
        own_mutables: Set[str],
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in own_mutables:
                return expr.id
            imported = imports.get(expr.id)
            if imported is not None and "." in imported:
                owner, _, leaf = imported.rpartition(".")
                if leaf in project.mutable_globals.get(owner, set()):
                    return imported
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = imports.get(expr.value.id)
            if owner is not None and expr.attr in project.mutable_globals.get(
                owner, set()
            ):
                return f"{owner}.{expr.attr}"
        return None
