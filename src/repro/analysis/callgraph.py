"""A project-wide call graph over the parsed :class:`Project` (PR 10).

PR 8's rules were per-file and syntactic; the concurrency rules introduced
here (RP-GUARD, RP-LOCKORDER, RP-HOLD) need to answer *interprocedural*
questions — "is this helper only ever called with the cache lock held?",
"does anything reachable from this call site acquire a second lock?".  This
module builds the one shared answer machine:

* every ``def`` in the project (module functions, methods, nested functions)
  becomes a :class:`FunctionRef` keyed by ``(relpath, dotted qualname)``
  (``Class.method``, ``outer.inner``);
* call edges are resolved for the shapes that actually occur in this
  codebase: bare names (nested defs first, then module scope, then
  project-resolved imports, then class constructors → ``__init__``),
  ``self.method(...)`` (including base classes defined in the project),
  ``self.attr.method(...)`` via attribute-type inference from
  ``self.attr = ClassName(...)`` assignments, and ``local = ClassName(...)``
  followed by ``local.method(...)``;
* a read of a project ``@property`` on a receiver of one of those shapes
  (``self.prop``, ``self.attr.prop``, ``local.prop``) is an edge to its
  getter, since the read runs the getter: a lock the getter takes is as
  visible to the lock rules as one taken by a called method.

The graph is deliberately *unsound where python is dynamic* (no flow
analysis through containers, no duck typing): a rule that consumes it must
treat "no edge" as "unknown", never as "proven absent".  That is the right
polarity for a linter — missing edges can only ever cause missed findings
in exotic code, not false positives in ordinary code.

Building the graph walks every file once and resolving edges is a few
dictionary probes per call site; the result is memoised per
:class:`Project` (see :func:`project_callgraph`) so the four concurrency
rules and RP-TICK share one build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .framework import Project, SourceFile, own_statements

__all__ = [
    "FunctionRef",
    "FunctionInfo",
    "ClassInfo",
    "CallEdge",
    "CallGraph",
    "project_callgraph",
]


@dataclass(frozen=True, order=True)
class FunctionRef:
    """Stable identity of one function: file relpath + dotted qualname."""

    path: str
    qualname: str

    @property
    def name(self) -> str:
        """The bare (last-segment) name."""
        return self.qualname.rpartition(".")[2]

    def __str__(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class FunctionInfo:
    """One analysed function and its lexical context."""

    ref: FunctionRef
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    file: SourceFile
    #: Nearest enclosing class, if any (methods *and* defs nested inside
    #: methods — both see the same ``self`` via closure).
    class_name: Optional[str]
    #: True when lexically nested inside another function: not addressable
    #: from outside its enclosing scope, so "all call sites" is a complete
    #: set for such functions even without a leading underscore.
    is_nested: bool


@dataclass
class ClassInfo:
    """One class definition: where it lives, its methods, its bases."""

    name: str
    path: str
    #: method name -> FunctionRef (direct defs only; see resolve_method).
    methods: Dict[str, FunctionRef] = field(default_factory=dict)
    #: base-class names as written (resolved through imports where possible).
    bases: List[str] = field(default_factory=list)


@dataclass
class CallEdge:
    """One resolved call site: a call, or the read of a property."""

    caller: FunctionRef
    callee: FunctionRef
    #: The ``ast.Call``, or the ``ast.Attribute`` that reads a property.
    node: ast.expr
    #: True for ``self.m(...)`` calls (and calls from a method into its own
    #: nested defs): caller and callee share the same instance, so a lock
    #: attribute means the same lock object on both sides.  Cross-instance
    #: calls (``other._helper()``) must never satisfy a same-lock proof.
    via_self: bool


#: Constructor names treated as lock objects by the lock model; kept here so
#: attribute-type inference records them even though they are stdlib classes.
_STDLIB_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Queue",
    "SimpleQueue",
    "LifoQueue",
    "PriorityQueue",
    "Pool",
    "Thread",
}


class _FileScope:
    """Per-file name environment: imports and module-level defs/classes."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        #: imported name -> (resolved project relpath or None, original name)
        self.imports: Dict[str, Tuple[Optional[str], str]] = {}
        #: module-level function name -> qualname (identity here)
        self.functions: Set[str] = set()
        #: class name (local) -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}


def _module_relpath_candidates(dotted: Sequence[str]) -> List[str]:
    """Relpaths a dotted absolute module could live at (``src/`` layout)."""
    base = "/".join(dotted)
    return [f"src/{base}.py", f"src/{base}/__init__.py", f"{base}.py"]


class CallGraph:
    """The resolved call graph of one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[FunctionRef, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: (class name, attribute) -> constructor class name (last segment),
        #: from ``self.attr = ClassName(...)`` in any method of the class.
        self.attr_types: Dict[Tuple[str, str], str] = {}
        self._edges_out: Dict[FunctionRef, List[CallEdge]] = {}
        self._edges_in: Dict[FunctionRef, List[CallEdge]] = {}
        self._scopes: Dict[str, _FileScope] = {}
        self._paths: Set[str] = {f.relpath for f in project.files}
        self._build()

    # -- queries -------------------------------------------------------------

    def lookup(self, suffix: str, qualname: str) -> Optional[FunctionInfo]:
        """The function *qualname* in the module whose relpath ends with
        *suffix* (the addressing scheme registries like HOT_LOOPS use)."""
        module = self.project.module(suffix)
        if module is None:
            return None
        return self.functions.get(FunctionRef(module.relpath, qualname))

    def info(self, ref: FunctionRef) -> Optional[FunctionInfo]:
        return self.functions.get(ref)

    def callees(self, ref: FunctionRef) -> List[CallEdge]:
        return self._edges_out.get(ref, [])

    def callers(self, ref: FunctionRef) -> List[CallEdge]:
        return self._edges_in.get(ref, [])

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        return self.attr_types.get((class_name, attr))

    def resolve_method(self, class_name: str, method: str) -> Optional[FunctionRef]:
        """*method* on *class_name*, searching project-defined bases."""
        seen: Set[str] = set()

        def search(name: str) -> Optional[FunctionRef]:
            if name in seen:
                return None  # inheritance cycle in broken input
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                return None
            if method in info.methods:
                return info.methods[method]
            for base in info.bases:
                found = search(base)
                if found is not None:
                    return found
            return None

        return search(class_name)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        for file in self.project.parsed():
            self._scopes[file.relpath] = self._index_file(file)
        self._resolve_import_targets()
        self._infer_attr_types()
        for file in self.project.parsed():
            self._resolve_calls(file)

    def _index_file(self, file: SourceFile) -> _FileScope:
        scope = _FileScope(file)

        def visit(node: ast.AST, prefix: str, cls: Optional[str], nested: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    ref = FunctionRef(file.relpath, qual)
                    self.functions[ref] = FunctionInfo(
                        ref=ref,
                        node=child,
                        file=file,
                        class_name=cls,
                        is_nested=nested,
                    )
                    if not prefix:
                        scope.functions.add(child.name)
                    if cls is not None and (
                        prefix == cls or prefix.endswith("." + cls)
                    ):
                        # direct method of the class (prefix == ...Class)
                        self.classes[cls].methods.setdefault(child.name, ref)
                    visit(child, qual, cls, True)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    info = ClassInfo(name=child.name, path=file.relpath)
                    for base in child.bases:
                        if isinstance(base, ast.Name):
                            info.bases.append(base.id)
                        elif isinstance(base, ast.Attribute):
                            info.bases.append(base.attr)
                    # last definition wins on a (rare) project-wide name clash
                    self.classes[child.name] = info
                    scope.classes[child.name] = info
                    visit(child, qual, child.name, nested)
                else:
                    visit(child, prefix, cls, nested)

        if file.tree is not None:
            visit(file.tree, "", None, False)
            for node in file.tree.body:
                self._index_import(scope, node)
        return scope

    def _index_import(self, scope: _FileScope, node: ast.AST) -> None:
        if isinstance(node, ast.ImportFrom):
            target = self._resolve_module(scope.file.relpath, node.module, node.level)
            for alias in node.names:
                if alias.name == "*":
                    continue
                scope.imports[alias.asname or alias.name] = (target, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b.c` binds `a`; only useful as a module name.
                bound = (alias.asname or alias.name).split(".")[0]
                scope.imports.setdefault(bound, (None, alias.name))

    def _resolve_module(
        self, relpath: str, module: Optional[str], level: int
    ) -> Optional[str]:
        """Map an import statement to a project file relpath, if it is one."""
        if level == 0:
            if module is None:
                return None
            for candidate in _module_relpath_candidates(module.split(".")):
                if candidate in self._paths:
                    return candidate
            return None
        parts = relpath.split("/")[:-1]  # directory of the importing file
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        if module:
            parts = parts + module.split(".")
        for candidate in (
            "/".join(parts) + ".py",
            "/".join(parts) + "/__init__.py",
        ):
            if candidate in self._paths:
                return candidate
        return None

    def _resolve_import_targets(self) -> None:
        """Second pass: make `from .mod import Name` resolve to classes too."""
        for scope in self._scopes.values():
            for local, (target, original) in scope.imports.items():
                if target is None:
                    continue
                other = self._scopes.get(target)
                if other is None:
                    continue
                if original in other.classes and local not in scope.classes:
                    scope.classes[local] = other.classes[original]

    @staticmethod
    def _constructor_name(value: ast.AST) -> Optional[str]:
        """``ClassName`` for ``ClassName(...)`` / ``mod.ClassName(...)``,
        looking through ``a if c else b`` and ``a or b`` alternatives."""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
            return None
        if isinstance(value, ast.IfExp):
            return CallGraph._constructor_name(value.body) or CallGraph._constructor_name(
                value.orelse
            )
        if isinstance(value, ast.BoolOp):
            for option in value.values:
                name = CallGraph._constructor_name(option)
                if name is not None:
                    return name
        return None

    def _infer_attr_types(self) -> None:
        for info in self.functions.values():
            if info.class_name is None:
                continue
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                type_name = self._constructor_name(value)
                if type_name is None:
                    continue
                if type_name not in self.classes and type_name not in _STDLIB_CONSTRUCTORS:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        key = (info.class_name, target.attr)
                        self.attr_types.setdefault(key, type_name)

    def _resolve_calls(self, file: SourceFile) -> None:
        scope = self._scopes[file.relpath]
        for ref, info in list(self.functions.items()):
            if ref.path != file.relpath:
                continue
            local_types = self._local_constructions(info)
            nodes = list(own_statements(info.node))
            called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
            for node in nodes:
                if isinstance(node, ast.Call):
                    resolved = self._resolve_call(scope, info, node, local_types)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in called
                ):
                    resolved = self._resolve_property_read(info, node, local_types)
                else:
                    continue
                for callee, via_self in resolved:
                    edge = CallEdge(
                        caller=ref, callee=callee, node=node, via_self=via_self
                    )
                    self._edges_out.setdefault(ref, []).append(edge)
                    self._edges_in.setdefault(callee, []).append(edge)

    def _local_constructions(self, info: FunctionInfo) -> Dict[str, str]:
        """local variable name -> class name, for ``x = ClassName(...)`` and
        ``x = self.attr`` (via inferred attribute types) in *info*'s body."""
        result: Dict[str, str] = {}
        for node in own_statements(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            type_name = self._constructor_name(node.value)
            if type_name is None and (
                isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
                and info.class_name is not None
            ):
                type_name = self.attr_types.get((info.class_name, node.value.attr))
            if type_name is not None:
                result.setdefault(target.id, type_name)
        return result

    def _resolve_call(
        self,
        scope: _FileScope,
        info: FunctionInfo,
        call: ast.Call,
        local_types: Dict[str, str],
    ) -> List[Tuple[FunctionRef, bool]]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(scope, info, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(scope, info, func, local_types)
        return []

    def _resolve_name_call(
        self, scope: _FileScope, info: FunctionInfo, name: str
    ) -> List[Tuple[FunctionRef, bool]]:
        # nested def in an enclosing *function* scope, innermost first
        # (class bodies are not part of python's lexical lookup chain, so a
        # prefix is only considered while it still names a function)
        prefix = info.ref.qualname
        while prefix:
            candidate = FunctionRef(info.ref.path, f"{prefix}.{name}")
            if (
                FunctionRef(info.ref.path, prefix) in self.functions
                and candidate in self.functions
            ):
                return [(candidate, info.class_name is not None)]
            prefix = prefix.rpartition(".")[0]
        # module-level function in the same file
        if name in scope.functions:
            return [(FunctionRef(info.ref.path, name), False)]
        # class constructor (local or imported) -> __init__
        cls = scope.classes.get(name)
        if cls is not None:
            init = self.resolve_method(cls.name, "__init__")
            return [(init, False)] if init is not None else []
        # imported project function
        imported = scope.imports.get(name)
        if imported is not None and imported[0] is not None:
            candidate = FunctionRef(imported[0], imported[1])
            if candidate in self.functions:
                return [(candidate, False)]
        return []

    def _receiver_class(
        self, info: FunctionInfo, value: ast.AST, local_types: Dict[str, str]
    ) -> Optional[Tuple[str, bool]]:
        """The project class of the receiver *value*, and whether it is
        ``self``: ``self`` itself, ``self.attr`` via inferred attribute
        types, or a local built by ``local = ClassName(...)``."""
        if isinstance(value, ast.Name) and value.id == "self":
            return (info.class_name, True) if info.class_name is not None else None
        if isinstance(value, ast.Name):
            type_name = local_types.get(value.id)
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and info.class_name is not None
        ):
            type_name = self.attr_types.get((info.class_name, value.attr))
        else:
            return None
        if type_name not in self.classes:
            return None
        return type_name, False

    def _resolve_attribute_call(
        self,
        scope: _FileScope,
        info: FunctionInfo,
        func: ast.Attribute,
        local_types: Dict[str, str],
    ) -> List[Tuple[FunctionRef, bool]]:
        value = func.value
        # ClassName.method(...) — unbound / static style
        if isinstance(value, ast.Name) and value.id in scope.classes:
            target = self.resolve_method(scope.classes[value.id].name, func.attr)
            if target is not None:
                return [(target, False)]
        receiver = self._receiver_class(info, value, local_types)
        if receiver is None:
            return []
        target = self.resolve_method(receiver[0], func.attr)
        return [(target, receiver[1])] if target is not None else []

    def _resolve_property_read(
        self, info: FunctionInfo, node: ast.Attribute, local_types: Dict[str, str]
    ) -> List[Tuple[FunctionRef, bool]]:
        """``receiver.prop`` as a call of the ``@property`` getter ``prop``."""
        receiver = self._receiver_class(info, node.value, local_types)
        if receiver is None:
            return []
        target = self.resolve_method(receiver[0], node.attr)
        if target is None or not any(
            isinstance(decorator, ast.Name) and decorator.id == "property"
            for decorator in self.functions[target].node.decorator_list
        ):
            return []
        return [(target, receiver[1])]


def project_callgraph(project: Project) -> CallGraph:
    """The (memoised) call graph of *project*.

    Rules run over the same ``Project`` instance within one lint pass;
    caching on the instance means RP-GUARD, RP-LOCKORDER, RP-HOLD,
    RP-YIELD and RP-TICK share a single build.
    """
    graph = getattr(project, "_callgraph_cache", None)
    if graph is None:
        graph = CallGraph(project)
        project._callgraph_cache = graph  # type: ignore[attr-defined]
    return graph
