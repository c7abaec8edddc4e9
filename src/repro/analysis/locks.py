"""The shared lock model behind the concurrency rules (PR 10).

Three reusable pieces, consumed by RP-GUARD / RP-LOCKORDER / RP-HOLD /
RP-YIELD (:mod:`repro.analysis.rules.guards` and friends):

* **Lock discovery** — every ``self.<attr> = threading.Lock() / RLock() /
  Condition() / Semaphore()`` assignment in a project class becomes a
  :class:`LockDef`.  Locks are identified name-level as ``Class.attr``
  (``EvaluationCache._lock``): all instances of a class share one
  discipline, which is exactly the granularity a lock-order or guarded-by
  contract wants.
* **Guarded-attribute mapping** — which mutable attributes a lock protects,
  declared at the definition site with a ``# guarded-by: <lock_attr>``
  comment on the attribute's assignment line.  Stale or contradictory
  declarations are surfaced as errors: a typo must not silently disable a
  check.
* **Held-lock tracking** — :func:`iter_with_held` walks a function body
  yielding ``(node, frozenset of held lock attrs)``, entering
  ``with self.<lock>:`` blocks and *not* descending into nested
  ``def``/``lambda`` bodies (a nested function runs when called — possibly
  after the lock is released — so its body gets an empty held-set and must
  be justified through the call graph instead).

Only ``with self.<attr>:`` acquisitions are tracked.  Bare ``lock.acquire()``
calls and locks reached through aliases are invisible to the model; the
codebase uses context managers exclusively, and RP-LOCKORDER/RP-HOLD treat
"not tracked" as "not held" (missed findings, never false ones).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph
from .framework import SourceFile, own_statements

__all__ = [
    "LOCK_KINDS",
    "LockDef",
    "GuardMap",
    "discover_locks",
    "locks_by_class",
    "build_guard_map",
    "match_self_lock",
    "iter_with_held",
    "held_at_nodes",
]

#: Recognised lock constructors -> is the resulting lock reentrant?
#: ``Condition()`` defaults to an RLock, so re-entry is legal.
LOCK_KINDS: Dict[str, bool] = {
    "Lock": False,
    "RLock": True,
    "Condition": True,
    "Semaphore": False,
    "BoundedSemaphore": False,
}

#: ``# guarded-by: _lock`` on an attribute's assignment line.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True, order=True)
class LockDef:
    """One discovered lock attribute of one class."""

    path: str
    cls: str
    attr: str
    kind: str
    line: int

    @property
    def name(self) -> str:
        """The project-wide name of this lock (``QueryService._lock``)."""
        return f"{self.cls}.{self.attr}"

    @property
    def reentrant(self) -> bool:
        return LOCK_KINDS.get(self.kind, False)


@dataclass
class GuardMap:
    """guarded (class, attribute) -> guarding lock, plus declaration errors."""

    guarded: Dict[Tuple[str, str], LockDef] = field(default_factory=dict)
    #: (path, line, message) — converted to findings by the consuming rule.
    errors: List[Tuple[str, int, str]] = field(default_factory=list)


def _self_attr_assignments(
    graph: CallGraph,
) -> Iterator[Tuple[str, SourceFile, str, ast.AST, ast.AST]]:
    """(class name, file, attr, assignment node, value) for every
    ``self.<attr> = ...`` in a method body across the project.

    Each body is walked without its nested defs: the call graph lists those
    on their own, so entering them would yield their assignments twice."""
    for info in graph.functions.values():
        if info.class_name is None:
            continue
        for node in own_statements(info.node):
            if isinstance(node, ast.Assign):
                targets: Sequence[ast.AST] = node.targets
                value: Optional[ast.AST] = node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield info.class_name, info.file, target.attr, node, value or node


def discover_locks(graph: CallGraph) -> Dict[Tuple[str, str], LockDef]:
    """(class, attr) -> :class:`LockDef` for every lock-constructor
    assignment in the project (memoised on the graph)."""
    cached = getattr(graph, "_locks_cache", None)
    if cached is not None:
        return cached
    locks: Dict[Tuple[str, str], LockDef] = {}
    for cls, _file, attr, node, value in _self_attr_assignments(graph):
        kind = CallGraph._constructor_name(value)
        if kind in LOCK_KINDS:
            info = graph.classes.get(cls)
            path = info.path if info is not None else ""
            locks.setdefault(
                (cls, attr),
                LockDef(path=path, cls=cls, attr=attr, kind=kind, line=node.lineno),
            )
    graph._locks_cache = locks  # type: ignore[attr-defined]
    return locks


def locks_by_class(locks: Dict[Tuple[str, str], LockDef]) -> Dict[str, Dict[str, LockDef]]:
    result: Dict[str, Dict[str, LockDef]] = {}
    for (cls, attr), lock in locks.items():
        result.setdefault(cls, {})[attr] = lock
    return result


def build_guard_map(graph: CallGraph) -> GuardMap:
    """Read every ``# guarded-by: <lock>`` comment on a ``self.<attr> = ...``
    line of a method into a :class:`GuardMap`.

    A comment naming something that is not a lock of the class, a lock
    guarded by another lock, and one attribute guarded by two locks are
    errors rather than silently ignored declarations.
    """
    result = GuardMap()
    locks = discover_locks(graph)
    per_class = locks_by_class(locks)
    for cls, file, attr, node, _value in _self_attr_assignments(graph):
        match = _GUARDED_BY.search(file.line_text(node.lineno))
        if match is None:
            continue
        lock_attr = match.group(1)
        lock = per_class.get(cls, {}).get(lock_attr)
        if lock is None:
            message = (
                f"guarded-by comment names {cls}.{lock_attr}, which is "
                "not a lock attribute of the class"
            )
        elif (cls, attr) in locks:
            message = f"{cls}.{attr} is itself a lock and cannot be guarded-by another lock"
        else:
            existing = result.guarded.setdefault((cls, attr), lock)
            if existing == lock:
                continue
            message = (
                f"{cls}.{attr} declared guarded by both "
                f"{existing.name} and {lock.name}; pick one"
            )
        result.errors.append((file.relpath, node.lineno, message))
    return result


def match_self_lock(expr: ast.AST, lock_attrs: Set[str]) -> Optional[str]:
    """``self.<attr>`` when *attr* is a known lock of the current class."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in lock_attrs
    ):
        return expr.attr
    return None


def iter_with_held(
    func: ast.AST, lock_attrs: Set[str]
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """Yield ``(node, held lock attrs)`` for every node lexically inside
    *func*, tracking ``with self.<lock>:`` blocks.

    Nested ``def``/``lambda`` bodies are skipped — they execute when called,
    not where they are defined, so lexical held-ness does not transfer.
    Comprehension bodies *are* included: list/dict/set comprehensions run
    eagerly at the point of appearance.  ``with`` items acquire left to
    right, so a later item's context expression already sees the earlier
    items held.
    """

    def visit(node: ast.AST, held: FrozenSet[str]) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                yield child, held
                current = held
                for item in child.items:
                    yield item.context_expr, current
                    yield from visit(item.context_expr, current)
                    if item.optional_vars is not None:
                        yield item.optional_vars, current
                        yield from visit(item.optional_vars, current)
                    attr = match_self_lock(item.context_expr, lock_attrs)
                    if attr is not None:
                        current = current | {attr}
                for statement in child.body:
                    if isinstance(
                        statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue  # a def directly under `with` is still a def
                    yield statement, current
                    yield from visit(statement, current)
            else:
                yield child, held
                yield from visit(child, held)

    yield from visit(func, frozenset())


def held_at_nodes(func: ast.AST, lock_attrs: Set[str]) -> Dict[int, FrozenSet[str]]:
    """``id(node) -> held lock attrs`` for every node in *func* — the random
    access form of :func:`iter_with_held` (used to ask "was this specific
    call site lock-held?" when proving helpers via the call graph)."""
    return {id(node): held for node, held in iter_with_held(func, lock_attrs)}
