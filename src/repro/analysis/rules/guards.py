"""RP-GUARD: guarded attributes are only touched with their lock held (PR 10).

PR 9 made one warm :class:`~repro.evaluation.session.Session` shared across
a thread pool; the attributes that keep that safe (the cache's containers,
the service's backlog state, the stats samples, the session's resilience
counters) are each guarded by a specific lock — a contract that previously
lived in docstrings.  This rule makes it checkable:

* a ``# guarded-by: <lock>`` comment on an attribute's assignment line
  maps that mutable attribute to its lock;
* any ``self.<attr>`` read or write of a guarded attribute that is not
  lexically inside the matching ``with self.<lock>:`` is a finding —
  *unless* the enclosing function is a private helper (or a nested def)
  that the call graph proves is only ever called with the lock held (no
  lock of its own, every call site inside a locked region — the shape
  ``tests/test_analysis.py::test_guard_rule_proves_helper_called_under_lock``
  pins down).

``__init__`` is exempt: construction happens-before publication, so the
single-threaded initial assignments need no lock.  ``lambda`` bodies are
not scanned — the only lambdas near locks here are ``Condition.wait_for``
predicates, which the condition invokes with its own lock held.

The proof is deliberately narrow: only same-class call sites through
``self`` count (a lock attribute on a *different* instance is a different
lock), public methods are never proven (any external caller could appear),
and recursion without a locked entry point fails the proof.  "Cannot
prove" therefore means "finding", keeping the rule's errors one-sided.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Set, Tuple

from ..callgraph import CallGraph, FunctionRef, project_callgraph
from ..framework import Finding, Project, Rule
from ..locks import (
    LockDef,
    build_guard_map,
    discover_locks,
    held_at_nodes,
    iter_with_held,
    locks_by_class,
)

__all__ = ["GuardedByRule"]

#: Functions whose bare name exempts their body: construction and teardown
#: happen-before/after any sharing, so their assignments need no lock.
_EXEMPT_METHODS = {"__init__", "__del__"}


class GuardedByRule(Rule):
    id = "RP-GUARD"
    title = "guarded attributes are only accessed with their lock held"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project_callgraph(project)
        guard_map = build_guard_map(graph)
        for path, line, message in guard_map.errors:
            yield Finding(path=path, line=line, rule=self.id, message=message)
        guarded_by_class = locks_by_class(guard_map.guarded)
        if not guarded_by_class:
            return
        lock_attrs_by_class = {
            cls: set(attrs) for cls, attrs in locks_by_class(discover_locks(graph)).items()
        }
        self._held_maps: Dict[FunctionRef, Dict[int, FrozenSet[str]]] = {}
        self._proofs: Dict[Tuple[FunctionRef, str], bool] = {}

        for ref in sorted(graph.functions):
            info = graph.functions[ref]
            cls = info.class_name
            if cls is None or cls not in guarded_by_class:
                continue
            if ref.name in _EXEMPT_METHODS and not info.is_nested:
                continue
            guarded = guarded_by_class[cls]
            lock_attrs = lock_attrs_by_class.get(cls, set())
            reported: Set[Tuple[int, str]] = set()
            for node, held in iter_with_held(info.node, lock_attrs):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                ):
                    continue
                lock = guarded[node.attr]
                if lock.attr in held:
                    continue
                if self._proven_lock_held(graph, lock_attrs_by_class, ref, lock, set()):
                    continue  # whole function proven entered under this lock
                key = (node.lineno, node.attr)
                if key in reported:
                    continue
                reported.add(key)
                yield Finding(
                    path=ref.path,
                    line=node.lineno,
                    rule=self.id,
                    message=f"{cls}.{node.attr} accessed without holding its "
                    f"guarding lock self.{lock.attr} ({lock.name}); hold the "
                    "lock, snapshot under it, or suppress with a rationale",
                )

    # -- "only called under the lock" proof ----------------------------------

    def _held_map(
        self,
        graph: CallGraph,
        lock_attrs_by_class: Dict[str, Set[str]],
        ref: FunctionRef,
    ) -> Dict[int, FrozenSet[str]]:
        cached = self._held_maps.get(ref)
        if cached is None:
            info = graph.functions[ref]
            attrs = lock_attrs_by_class.get(info.class_name or "", set())
            cached = held_at_nodes(info.node, attrs)
            self._held_maps[ref] = cached
        return cached

    def _proven_lock_held(
        self,
        graph: CallGraph,
        lock_attrs_by_class: Dict[str, Set[str]],
        ref: FunctionRef,
        lock: LockDef,
        stack: Set[FunctionRef],
    ) -> bool:
        """Is *ref* only ever entered with *lock* (a lock of its own class,
        on the same instance) already held?"""
        info = graph.info(ref)
        if info is None or info.class_name != lock.cls:
            return False
        name = ref.name
        private = info.is_nested or (name.startswith("_") and not name.startswith("__"))
        if not private:
            return False  # public surface: any unlocked caller could appear
        cache_key = (ref, lock.name)
        if cache_key in self._proofs:
            return self._proofs[cache_key]
        if ref in stack:
            return False  # recursive cycle with no locked entry point
        callers = graph.callers(ref)
        if not callers:
            self._proofs[cache_key] = False
            return False
        stack.add(ref)
        proven = True
        for edge in callers:
            caller_info = graph.info(edge.caller)
            if (
                not edge.via_self
                or caller_info is None
                or caller_info.class_name != lock.cls
            ):
                proven = False
                break
            held = self._held_map(graph, lock_attrs_by_class, edge.caller).get(
                id(edge.node), frozenset()
            )
            if lock.attr in held:
                continue
            if self._proven_lock_held(
                graph, lock_attrs_by_class, edge.caller, lock, stack
            ):
                continue
            proven = False
            break
        stack.discard(ref)
        self._proofs[cache_key] = proven
        return proven
