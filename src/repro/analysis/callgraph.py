"""Project-wide symbol table and over-approximate call graph.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, so the conventions they enforce stop at module boundaries: a
helper three calls deep can reach ``time.monotonic`` without any single
module looking wrong.  This module builds the cross-module picture the
whole-program rules (:mod:`repro.analysis.program_rules`) run on:

:class:`ProjectIndex`
    Every parsed module plus lookup tables — functions and classes by
    qualified name, import alias maps, module-level bindings, and the
    subset of module-level bindings whose initialiser is a mutable
    container (the state the fork-safety rule cares about).

:class:`CallGraph`
    Edges from each function (and each module body, as the pseudo
    function ``pkg.mod.<module>``) to the targets its call sites can
    reach.  Resolution is deliberately *over-approximate* — soundness
    for the taint rules means never missing a possible callee:

    * names resolve through local nested defs, the module's own
      top-level defs, then the import alias map;
    * dotted calls resolve through the alias map to either a project
      symbol or an *external* dotted name (``time.perf_counter``,
      ``numpy.random.default_rng``) kept verbatim for source matching;
    * ``self.foo()`` resolves to the enclosing class's ``foo`` when it
      exists, else to every project method named ``foo``;
    * ``obj.foo()`` on an unresolvable receiver resolves to every
      project *method* named ``foo`` (the classic name-based CHA
      over-approximation);
    * a bare reference to a project function passed as a call argument
      (callbacks, ``functools.partial``, pool submissions) adds an edge
      from the caller — higher-order flow is approximated as "the
      receiver may call it".

    Known false-negative classes (documented in ARCHITECTURE §14):
    functions reached only through containers or instance attributes
    (``self.hooks["x"]()``), ``getattr`` with dynamic names, and
    ``eval``/``exec``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.framework import ModuleUnderLint, parse_files

#: Pseudo function name for a module's top-level statements.
MODULE_BODY = "<module>"

#: Receiver-method names treated as container mutations by P1.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Constructors whose result is a mutable container (for module-global
#: classification).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "OrderedDict", "defaultdict", "deque", "Counter"}
)


@dataclass
class FunctionInfo:
    """One function, method, or module body in the project."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    path: str
    lineno: int
    node: ast.AST
    is_nested: bool = False
    is_property: bool = False

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition plus its statically visible public surface."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    class_attrs: Set[str] = field(default_factory=set)
    instance_attrs: Set[str] = field(default_factory=set)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_property_def(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    for decorator in node.decorator_list:
        name = _dotted(decorator)
        if name in ("property", "functools.cached_property", "cached_property"):
            return True
        if name is not None and name.endswith(".setter"):
            return True
    return False


def _resolve_relative(module: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # level=1 means "the current package": strip the module's own leaf.
    if node.level > len(parts):
        return node.module
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else node.module


class ProjectIndex:
    """Symbol tables over one set of parsed modules."""

    def __init__(self, modules: Sequence[ModuleUnderLint]) -> None:
        #: dotted module name -> parsed module (last one wins on clash).
        self.modules: Dict[str, ModuleUnderLint] = {
            m.dotted_name: m for m in modules
        }
        #: qualified name -> function (includes ``<module>`` bodies).
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualified name -> class.
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> qualnames of every project method with that name.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: module -> local alias -> absolute dotted target.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: module -> names bound at module top level.
        self.module_globals: Dict[str, Set[str]] = {}
        #: module -> top-level names bound to a mutable container literal.
        self.mutable_globals: Dict[str, Set[str]] = {}
        for module in self.modules.values():
            self._index_module(module)
        self.graph = CallGraph(self)

    @classmethod
    def from_paths(
        cls, paths: Sequence[Union[str, Path]]
    ) -> "ProjectIndex":
        """Parse every ``.py`` file under ``paths`` (skipping ``E999`` files)."""
        return cls(parse_files(paths)[1])

    # -- indexing ----------------------------------------------------------

    def _index_module(self, module: ModuleUnderLint) -> None:
        name = module.dotted_name
        imports: Dict[str, str] = {}
        top_names: Set[str] = set()
        mutable: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(name, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        for stmt in module.tree.body:
            for bound in self._bound_names(stmt):
                top_names.add(bound)
            if isinstance(stmt, ast.Assign) and self._is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutable.add(target.id)
            elif (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and self._is_mutable_value(stmt.value)
            ):
                mutable.add(stmt.target.id)
        self.imports[name] = imports
        self.module_globals[name] = top_names
        self.mutable_globals[name] = mutable

        body_info = FunctionInfo(
            qualname=f"{name}.{MODULE_BODY}",
            module=name,
            name=MODULE_BODY,
            cls=None,
            path=module.path,
            lineno=1,
            node=module.tree,
        )
        self.functions[body_info.qualname] = body_info
        self._index_scope(module, module.tree.body, prefix=name, cls=None, nested=False)

    @staticmethod
    def _bound_names(stmt: ast.stmt) -> Iterable[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name.split(".")[0])

    @staticmethod
    def _is_mutable_value(value: ast.AST) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
                return True
        return False

    def _index_scope(
        self,
        module: ModuleUnderLint,
        body: List[ast.stmt],
        prefix: str,
        cls: Optional[str],
        nested: bool,
        class_info: Optional[ClassInfo] = None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.dotted_name,
                    name=stmt.name,
                    cls=cls,
                    path=module.path,
                    lineno=stmt.lineno,
                    node=stmt,
                    is_nested=nested,
                    is_property=_is_property_def(stmt),
                )
                self.functions[qualname] = info
                if cls is not None and class_info is not None:
                    if info.is_property:
                        class_info.properties.add(stmt.name)
                    else:
                        class_info.methods.setdefault(stmt.name, info)
                    self.methods_by_name.setdefault(stmt.name, []).append(qualname)
                    self._collect_instance_attrs(stmt, class_info)
                # Functions nested inside this one are methods of nobody.
                self._index_scope(
                    module, stmt.body, prefix=qualname, cls=None, nested=True
                )
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                info = ClassInfo(
                    qualname=qualname,
                    module=module.dotted_name,
                    name=stmt.name,
                    path=module.path,
                    lineno=stmt.lineno,
                    node=stmt,
                )
                self.classes[qualname] = info
                for class_stmt in stmt.body:
                    if isinstance(class_stmt, ast.Assign):
                        for target in class_stmt.targets:
                            if isinstance(target, ast.Name):
                                info.class_attrs.add(target.id)
                    elif isinstance(class_stmt, ast.AnnAssign) and isinstance(
                        class_stmt.target, ast.Name
                    ):
                        info.class_attrs.add(class_stmt.target.id)
                self._index_scope(
                    module,
                    stmt.body,
                    prefix=qualname,
                    cls=stmt.name,
                    nested=nested,
                    class_info=info,
                )

    @staticmethod
    def _collect_instance_attrs(
        method: Union[ast.FunctionDef, ast.AsyncFunctionDef], info: ClassInfo
    ) -> None:
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.instance_attrs.add(target.attr)

    # -- queries -----------------------------------------------------------

    def module_for_path(self, path: str) -> Optional[ModuleUnderLint]:
        for module in self.modules.values():
            if module.path == path:
                return module
        return None

    def is_project_target(self, target: str) -> bool:
        return target in self.functions or target in self.classes


class CallGraph:
    """Call edges between project functions, built once per index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: caller qualname -> callee target -> first call-site line.
        #: Targets are project qualnames or external dotted names.
        self.edges: Dict[str, Dict[str, int]] = {}
        #: caller qualname -> (line, col, external target) of every call
        #: site that leaves the project: the wall-clock sources W1 reports.
        self.external_calls: Dict[str, List[Tuple[int, int, str]]] = {}
        for module in index.modules.values():
            self._build_module(module)

    # -- construction ------------------------------------------------------

    def _build_module(self, module: ModuleUnderLint) -> None:
        name = module.dotted_name
        self._module = module
        self._walk_body(
            module.tree.body,
            caller=f"{name}.{MODULE_BODY}",
            cls=None,
            scope={},
        )

    def _walk_body(
        self,
        body: List[ast.stmt],
        caller: str,
        cls: Optional[str],
        scope: Dict[str, str],
    ) -> None:
        """Attribute the call sites of ``body`` to ``caller``.

        ``scope`` maps locally-defined function names to their qualnames
        so references to nested defs resolve (``best_of(1, one_pass)``).
        """
        # First pass: register sibling defs so forward references resolve.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope[stmt.name] = f"{caller}.{stmt.name}" if not caller.endswith(
                    f".{MODULE_BODY}"
                ) else f"{caller[: -len(MODULE_BODY) - 1]}.{stmt.name}"
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = scope[stmt.name]
                for decorator in stmt.decorator_list:
                    self._scan_expr(decorator, caller, cls, scope)
                for default in list(stmt.args.defaults) + [
                    d for d in stmt.args.kw_defaults if d is not None
                ]:
                    self._scan_expr(default, caller, cls, scope)
                self._walk_body(stmt.body, caller=qualname, cls=cls, scope=dict(scope))
            elif isinstance(stmt, ast.ClassDef):
                class_qual = self._class_qualname(caller, stmt.name)
                for decorator in stmt.decorator_list:
                    self._scan_expr(decorator, caller, cls, scope)
                for base in stmt.bases:
                    self._scan_expr(base, caller, cls, scope)
                self._walk_body(
                    stmt.body,
                    caller=f"{class_qual}.{MODULE_BODY}",
                    cls=stmt.name,
                    scope=dict(scope),
                )
            else:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        self._record_call(node, caller, cls, scope)

    def _class_qualname(self, caller: str, class_name: str) -> str:
        if caller.endswith(f".{MODULE_BODY}"):
            return f"{caller[: -len(MODULE_BODY) - 1]}.{class_name}"
        return f"{caller}.{class_name}"

    def _scan_expr(
        self, expr: ast.AST, caller: str, cls: Optional[str], scope: Dict[str, str]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, caller, cls, scope)

    def _record_call(
        self,
        node: ast.Call,
        caller: str,
        cls: Optional[str],
        scope: Dict[str, str],
    ) -> None:
        for target in self.resolve_call(node.func, cls, scope):
            self._add_edge(caller, target, node.lineno)
            if not self.index.is_project_target(target):
                self.external_calls.setdefault(caller, []).append(
                    (node.lineno, node.col_offset, target)
                )
        # Higher-order over-approximation: a project function whose
        # reference is handed to any call may be invoked by the receiver.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                for target in self.resolve_ref(arg, cls, scope):
                    if self.index.is_project_target(target):
                        self._add_edge(caller, target, node.lineno)

    def _add_edge(self, caller: str, target: str, lineno: int) -> None:
        self.edges.setdefault(caller, {}).setdefault(target, lineno)

    # -- resolution --------------------------------------------------------

    def resolve_call(
        self, func: ast.AST, cls: Optional[str], scope: Dict[str, str]
    ) -> List[str]:
        """Possible targets of calling ``func`` — project qualnames or
        external dotted names.  Empty when nothing can be said (builtins,
        local variables holding functions)."""
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, scope)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, cls, scope)
        if isinstance(func, ast.Call):
            # Calling the result of a call: ``partial(f, x)()`` — the
            # reference edge for ``f`` was already recorded.
            return []
        return []

    def resolve_ref(
        self, expr: ast.AST, cls: Optional[str], scope: Dict[str, str]
    ) -> List[str]:
        """Like :meth:`resolve_call` but for a bare reference."""
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id, scope)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(expr, cls, scope)
        return []

    def _resolve_name(self, name: str, scope: Dict[str, str]) -> List[str]:
        module = self._module.dotted_name
        if name in scope:
            return [scope[name]]
        top_level = f"{module}.{name}"
        if top_level in self.index.functions:
            return [top_level]
        if top_level in self.index.classes:
            init = f"{top_level}.__init__"
            return [init] if init in self.index.functions else [top_level]
        imported = self.index.imports.get(module, {}).get(name)
        if imported is not None:
            return self._resolve_dotted_target(imported)
        return []

    def _resolve_attribute(
        self, func: ast.Attribute, cls: Optional[str], scope: Dict[str, str]
    ) -> List[str]:
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            # ``super().__init__(...)``: the parent is not statically
            # known, and flooding to every same-named method in the
            # project would bury real edges.  Documented false-negative.
            return []
        dotted = _dotted(func)
        module = self._module.dotted_name
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head == "self" and cls is not None:
                class_qual = f"{module}.{cls}"
                info = self.index.classes.get(class_qual)
                if info is not None and "." not in rest and rest in info.methods:
                    return [info.methods[rest].qualname]
                return self._methods_named(dotted.rsplit(".", 1)[-1])
            if head == "cls" and cls is not None:
                return self._methods_named(dotted.rsplit(".", 1)[-1])
            imported = self.index.imports.get(module, {}).get(head)
            if imported is not None:
                return self._resolve_dotted_target(f"{imported}.{rest}")
            top_level = f"{module}.{head}"
            if top_level in self.index.classes:
                # Unbound method access: ``TLB.flush_all``.
                candidate = f"{top_level}.{rest}"
                if candidate in self.index.functions:
                    return [candidate]
        # Arbitrary receiver: name-based over-approximation over methods.
        return self._methods_named(func.attr)

    def _methods_named(self, name: str) -> List[str]:
        return list(self.index.methods_by_name.get(name, ()))

    def _resolve_dotted_target(self, dotted: str) -> List[str]:
        """A fully-expanded dotted name — project symbol or external."""
        if dotted in self.index.functions:
            return [dotted]
        if dotted in self.index.classes:
            init = f"{dotted}.__init__"
            return [init] if init in self.index.functions else [dotted]
        # ``pkg.mod.Class.method`` / ``pkg.mod.func`` via a module import.
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            if prefix in self.index.modules:
                candidate = dotted
                if candidate in self.index.functions:
                    return [candidate]
                if candidate in self.index.classes:
                    init = f"{candidate}.__init__"
                    return [init] if init in self.index.functions else [candidate]
                # A project module's attribute we cannot see (re-export):
                # keep it as an unresolved external-looking name.
                return [dotted]
        return [dotted]

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> Dict[str, int]:
        return dict(self.edges.get(qualname, {}))

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Project functions transitively reachable from ``roots``."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.index.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for target in self.edges.get(current, {}):
                if target in seen:
                    continue
                if target in self.index.functions:
                    stack.append(target)
                elif target in self.index.classes:
                    seen.add(target)
        return seen

    def render_module_edges(self, module: str) -> str:
        """Deterministic ``caller -> callee`` listing for one module.

        The golden call-graph snapshot test pins this rendering for
        ``repro.core.flusher`` so resolution changes are reviewed, not
        silent.
        """
        prefix = module + "."
        lines: List[str] = []
        for caller in sorted(self.edges):
            if not caller.startswith(prefix):
                continue
            for target in sorted(self.edges[caller]):
                lines.append(f"{caller} -> {target}")
        return "\n".join(lines) + "\n"
