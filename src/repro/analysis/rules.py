"""The project-specific rule catalogue.

Each rule mechanises one convention the reproduction's guarantees rest
on.  The golden traces are byte-for-byte regression oracles and the
dirty-budget bound is the paper's durability argument — both rot
silently if wall clocks, unseeded RNG, unguarded event construction, or
layer-violating PTE pokes creep in.  These rules turn each convention
into a failing build instead of a corrupted fixture.

==== =================================================================
ID   convention enforced
==== =================================================================
D1   determinism: no global-state RNG (``random.randint``,
     ``np.random.rand``), no inherently nondeterministic source
     (``uuid``, ``os.urandom``, ``secrets``).  Wall clocks are W1's and
     RNG construction is R1's (:mod:`repro.analysis.program_rules`)
V1   virtual-time discipline: ``*_ns`` values never derive from a
     wall clock — nanosecond timestamps flow from ``sim.clock``
T1   tracer guard: trace-event objects are only constructed under an
     ``if tracer.enabled`` guard (zero-overhead untraced path)
L1   layering: only ``repro.mem`` may index the ``PageTable`` bit
     columns (``dirty`` / ``write_protected`` / ``shadow_dirty`` and
     their byte forms ``_dirty_bits`` / ``_wp_bits`` / ``_shadow_bits``);
     everyone else goes through the MMU
E1   no bare ``assert`` for invariant enforcement in shipped code —
     ``python -O`` strips asserts, so correctness checks must raise
     typed exceptions
==== =================================================================
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.framework import ModuleUnderLint, Rule, Violation

# -- shared helpers ----------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Wall-clock call targets.  Matched on the full dotted name or any
#: dotted suffix (so ``datetime.datetime.now`` matches ``datetime.now``).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: ``random.<fn>`` module-level calls that mutate/read the global RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)

#: ``np.random.<fn>`` legacy global-state API.
NP_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "uniform",
        "normal",
        "bytes",
    }
)

#: Inherently nondeterministic calls (exact dotted names).
NONDETERMINISTIC_CALLS = frozenset(
    {
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)


def _matches_wall_clock(dotted: str) -> bool:
    for banned in WALL_CLOCK_CALLS:
        if dotted == banned or dotted.endswith("." + banned):
            return True
    return False


def _nondeterministic_call(node: ast.Call) -> Optional[str]:
    """Message for a D1-violating call, or ``None`` when the call is fine."""
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    if dotted in NONDETERMINISTIC_CALLS:
        return f"nondeterministic source `{dotted}()` breaks seeded reproducibility"
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] == "random" and parts[1] in GLOBAL_RANDOM_FUNCS:
        return (
            f"`{dotted}()` uses the global RNG; construct a seeded "
            "`random.Random(seed)` instance instead"
        )
    if (
        len(parts) == 3
        and parts[0] in ("np", "numpy")
        and parts[1] == "random"
        and parts[2] in NP_GLOBAL_RANDOM_FUNCS
    ):
        return (
            f"`{dotted}()` uses numpy's global RNG state; use a seeded "
            "`np.random.default_rng(seed)` generator"
        )
    return None


class DeterminismRule(Rule):
    """D1: no global-state RNG, no inherently nondeterministic source."""

    rule_id = "D1"
    title = "determinism: no global-state RNG or nondeterministic sources"

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = _nondeterministic_call(node)
                if message is not None:
                    yield self.violation(module, node, message)


class VirtualTimeRule(Rule):
    """V1: ``*_ns`` quantities must never be derived from a wall clock."""

    rule_id = "V1"
    title = "virtual-time discipline: *_ns values flow from sim.clock"

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            targets: List[Tuple[str, ast.AST]] = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    targets.extend(self._ns_names(target))
                value: Optional[ast.AST] = node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets.extend(self._ns_names(node.target))
                value = node.value
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is not None and keyword.arg.endswith("_ns"):
                        culprit = self._wall_clock_in(keyword.value)
                        if culprit is not None:
                            yield self.violation(
                                module,
                                node,
                                self._message(keyword.arg, culprit),
                            )
                continue
            else:
                continue
            if value is None or not targets:
                continue
            culprit = self._wall_clock_in(value)
            if culprit is not None:
                name = targets[0][0]
                yield self.violation(module, node, self._message(name, culprit))

    @staticmethod
    def _message(name: str, culprit: str) -> str:
        return (
            f"`{name}` is a *_ns quantity derived from wall clock "
            f"`{culprit}()`; virtual-time nanoseconds must flow from "
            "`sim.clock`"
        )

    @staticmethod
    def _ns_names(target: ast.AST) -> List[Tuple[str, ast.AST]]:
        """(name, node) for every ``*_ns`` binding inside ``target``."""
        out: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and node.id.endswith("_ns"):
                out.append((node.id, node))
            elif isinstance(node, ast.Attribute) and node.attr.endswith("_ns"):
                out.append((node.attr, node))
        return out

    @staticmethod
    def _wall_clock_in(value: ast.AST) -> Optional[str]:
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None and _matches_wall_clock(dotted):
                    return dotted
        return None


#: Trace-event classes defined by :mod:`repro.obs.events`.
EVENT_CLASS_NAMES = frozenset(
    {
        "TraceEvent",
        "WriteFault",
        "SyncEviction",
        "ProactiveFlush",
        "EpochScan",
        "TLBFlush",
        "SSDWrite",
        "BudgetWait",
        "FlushComplete",
        "SSDFault",
        "BatteryDegraded",
        "ShardRebalance",
        "BudgetLease",
        "DemandStarved",
        "ShardMigration",
        "BudgetHandoff",
    }
)

_EVENTS_MODULE_SUFFIX = "obs.events"


def _mentions_enabled(expr: ast.AST) -> bool:
    """Is ``expr`` a truthiness test on an ``enabled`` attribute/name?"""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "enabled"
    if isinstance(expr, ast.Name):
        return expr.id == "enabled"
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
        return any(_mentions_enabled(value) for value in expr.values)
    return False


def _is_not_enabled(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.Not)
        and _mentions_enabled(expr.operand)
    )


def _terminates(body: List[ast.stmt]) -> bool:
    if not body:
        return False
    return isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class TracerGuardRule(Rule):
    """T1: event objects are built only under an ``enabled`` guard.

    Two guard idioms are recognised:

    1. lexically inside ``if <...>.enabled:`` (including ``and`` chains);
    2. after an early return ``if not <...>.enabled: return`` earlier in
       the same suite (the helper-method idiom).

    The rule keys off names imported from ``repro.obs.events`` (or the
    module itself imported as an alias), so unrelated classes that merely
    share a name are not flagged.
    """

    rule_id = "T1"
    title = "tracer guard: events constructed only when tracer.enabled"

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        event_names, module_aliases = self._event_bindings(module.tree)
        if not event_names and not module_aliases:
            return []
        self._module = module
        self._event_names = event_names
        self._module_aliases = module_aliases
        self._found: List[Violation] = []
        self._walk_stmts(module.tree.body, guarded=False)
        return self._found

    @staticmethod
    def _event_bindings(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        """Local names bound to event classes / to the events module."""
        event_names: Set[str] = set()
        module_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                if (
                    node.module == _EVENTS_MODULE_SUFFIX
                    or node.module.endswith("." + _EVENTS_MODULE_SUFFIX)
                ):
                    for alias in node.names:
                        if alias.name in EVENT_CLASS_NAMES:
                            event_names.add(alias.asname or alias.name)
                elif node.module in ("repro.obs", "obs") or node.module.endswith(
                    ".obs"
                ):
                    for alias in node.names:
                        if alias.name == "events":
                            module_aliases.add(alias.asname or "events")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _EVENTS_MODULE_SUFFIX or alias.name.endswith(
                        "." + _EVENTS_MODULE_SUFFIX
                    ):
                        if alias.asname is not None:
                            module_aliases.add(alias.asname)
        return event_names, module_aliases

    def _is_event_constructor(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in self._event_names:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in EVENT_CLASS_NAMES
            and isinstance(func.value, ast.Name)
            and func.value.id in self._module_aliases
        ):
            return func.attr
        return None

    # -- guarded statement walk -------------------------------------------

    def _walk_stmts(self, stmts: List[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, guarded)
                positive = _mentions_enabled(stmt.test)
                negative = _is_not_enabled(stmt.test)
                self._walk_stmts(stmt.body, guarded or positive)
                self._walk_stmts(stmt.orelse, guarded or negative)
                if negative and not stmt.orelse and _terminates(stmt.body):
                    guarded = True  # early-return guard covers the rest
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in stmt.decorator_list:
                    self._scan_expr(decorator, guarded)
                for default in stmt.args.defaults + stmt.args.kw_defaults:
                    if default is not None:
                        self._scan_expr(default, guarded)
                self._walk_stmts(stmt.body, guarded=False)
            elif isinstance(stmt, ast.ClassDef):
                for decorator in stmt.decorator_list:
                    self._scan_expr(decorator, guarded)
                for base in stmt.bases:
                    self._scan_expr(base, guarded)
                self._walk_stmts(stmt.body, guarded=False)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, guarded)
                self._walk_stmts(stmt.body, guarded)
                self._walk_stmts(stmt.orelse, guarded)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, guarded)
                self._walk_stmts(stmt.body, guarded)
                self._walk_stmts(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guarded)
                self._walk_stmts(stmt.body, guarded)
            elif isinstance(stmt, ast.Try):
                self._walk_stmts(stmt.body, guarded)
                for handler in stmt.handlers:
                    self._walk_stmts(handler.body, guarded)
                self._walk_stmts(stmt.orelse, guarded)
                self._walk_stmts(stmt.finalbody, guarded)
            else:
                self._scan_expr(stmt, guarded)

    def _scan_expr(self, node: ast.AST, guarded: bool) -> None:
        if guarded:
            return
        if isinstance(node, ast.IfExp) and _mentions_enabled(node.test):
            self._scan_expr(node.orelse, guarded=False)
            return
        if isinstance(node, ast.Call):
            name = self._is_event_constructor(node.func)
            if name is not None:
                self._found.append(
                    self.violation(
                        self._module,
                        node,
                        f"trace event `{name}` constructed outside an "
                        "`if tracer.enabled` guard — the untraced path must "
                        "allocate nothing",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._scan_expr(child, guarded)


#: The PageTable bit columns only ``repro.mem`` may index directly: the
#: numpy views and the bytearrays under them.
PTE_BIT_ARRAYS = frozenset(
    {
        "dirty",
        "write_protected",
        "shadow_dirty",
        "_dirty_bits",
        "_wp_bits",
        "_shadow_bits",
    }
)


class LayeringRule(Rule):
    """L1: PTE bit arrays are ``repro.mem``-private."""

    rule_id = "L1"
    title = "layering: PTE bit arrays indexed only inside repro.mem"

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        name = module.dotted_name
        if name == "repro.mem" or name.startswith("repro.mem."):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                value = node.value
                if isinstance(value, ast.Attribute) and value.attr in PTE_BIT_ARRAYS:
                    yield self.violation(
                        module,
                        node,
                        f"direct index of PageTable.{value.attr}; only "
                        "`repro.mem` may touch PTE bit arrays — go through "
                        "the MMU API",
                    )


class BareAssertRule(Rule):
    """E1: shipped invariants must survive ``python -O``."""

    rule_id = "E1"
    title = "no bare assert for invariant enforcement in src/"

    def check(self, module: ModuleUnderLint) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    module,
                    node,
                    "bare `assert` is stripped under `python -O`; raise a "
                    "typed exception (e.g. InvariantViolation) instead",
                )
