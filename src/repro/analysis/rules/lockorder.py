"""RP-LOCKORDER: lock acquisitions follow one sanctioned partial order (PR 10).

Deadlock needs two locks taken in opposite orders by two threads.  The
cheap static defence is a *global acquisition order*: every nested
acquisition — lexical (``with self._a: ... with self._b:``) or through a
call made while a lock is held (``with self._lock: self._stats.note(...)``
where ``note`` takes ``ServiceStats._lock``) — must be an edge of the
sanctioned partial order declared in :data:`LOCK_ORDER`.  The rule

* discovers every lock in the project (see :mod:`repro.analysis.locks`),
* extracts the acquisition-order graph over the named locks — the gate
  condition, the cache RLock, the session memo lock, the service and stats
  locks — following call edges from held regions through the shared call
  graph (transitively, cycle-safe),
* flags any edge outside :data:`LOCK_ORDER`, any cycle in the observed
  graph, and any re-acquisition of a non-reentrant lock (a plain ``Lock``
  taken while the *same* lock name is already held: certain deadlock on
  one instance, an ordering hazard across two).

Locks are compared name-level (``Class.attr``): two instances of one class
share a discipline, which is conservative in exactly the direction a
deadlock rule wants.  The live tree sanctions a single edge —
``QueryService._lock → ServiceStats._lock`` (admission bookkeeping inside
the admission lock); everything else must stay single-lock.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..callgraph import CallGraph, FunctionRef, project_callgraph
from ..framework import Finding, Project, Rule
from ..locks import LockDef, discover_locks, iter_with_held, locks_by_class, match_self_lock

__all__ = ["LockOrderRule", "LOCK_ORDER"]

#: The sanctioned acquisition-order edges, ``(outer lock, inner lock)`` by
#: project-wide lock name.  This is a *partial order*: an edge not listed
#: here is a finding even if it is acyclic — new nested acquisitions must
#: be reviewed and added deliberately.  Keep this table acyclic
#: (``tests/test_analysis.py`` asserts it).
LOCK_ORDER: Tuple[Tuple[str, str], ...] = (
    ("QueryService._lock", "ServiceStats._lock"),
)


class LockOrderRule(Rule):
    id = "RP-LOCKORDER"
    title = "nested lock acquisitions follow the sanctioned partial order"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project_callgraph(project)
        locks = discover_locks(graph)
        if not locks:
            return
        per_class = locks_by_class(locks)
        self._acquired_cache: Dict[FunctionRef, Set[LockDef]] = {}

        #: (outer name, inner name) -> first observed site (path, line, detail)
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        reentry: List[Finding] = []

        for ref in sorted(graph.functions):
            info = graph.functions[ref]
            attrs = per_class.get(info.class_name or "", {})
            edges_by_node = {
                id(edge.node): [] for edge in graph.callees(ref)
            }  # type: Dict[int, List]
            for edge in graph.callees(ref):
                edges_by_node[id(edge.node)].append(edge)
            for node, held in iter_with_held(info.node, set(attrs)):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    current = set(held)
                    for item in node.items:
                        acquired = match_self_lock(item.context_expr, set(attrs))
                        if acquired is None:
                            continue
                        inner = attrs[acquired]
                        for held_attr in current:
                            outer = attrs[held_attr]
                            if outer.name == inner.name:
                                if not inner.reentrant:
                                    reentry.append(
                                        Finding(
                                            path=ref.path,
                                            line=node.lineno,
                                            rule=self.id,
                                            message=f"{inner.name} is a non-reentrant "
                                            f"{inner.kind} re-acquired while already "
                                            "held: guaranteed deadlock",
                                        )
                                    )
                            else:
                                edges.setdefault(
                                    (outer.name, inner.name),
                                    (ref.path, node.lineno, f"in {ref.qualname}"),
                                )
                        current.add(acquired)
                elif held:  # a call, or a property read the call graph resolved
                    for edge in edges_by_node.get(id(node), []):
                        for inner in self._acquired_closure(
                            graph, per_class, edge.callee, set()
                        ):
                            for held_attr in held:
                                outer = attrs[held_attr]
                                if outer.name == inner.name:
                                    if not inner.reentrant:
                                        reentry.append(
                                            Finding(
                                                path=ref.path,
                                                line=node.lineno,
                                                rule=self.id,
                                                message=f"call to {edge.callee.qualname} "
                                                f"re-acquires non-reentrant {inner.name} "
                                                "while it is already held",
                                            )
                                        )
                                else:
                                    edges.setdefault(
                                        (outer.name, inner.name),
                                        (
                                            ref.path,
                                            node.lineno,
                                            f"in {ref.qualname} via "
                                            f"{edge.callee.qualname}",
                                        ),
                                    )

        yield from sorted(reentry)
        sanctioned = set(LOCK_ORDER)
        for (outer, inner), (path, line, detail) in sorted(edges.items()):
            if (outer, inner) in sanctioned:
                continue
            yield Finding(
                path=path,
                line=line,
                rule=self.id,
                message=f"lock acquisition edge {outer} -> {inner} ({detail}) is "
                "outside the sanctioned order; extend LOCK_ORDER in "
                "repro/analysis/rules/lockorder.py deliberately or restructure",
            )
        cycle = _find_cycle(set(edges))
        if cycle is not None:
            first = edges[(cycle[0], cycle[1])]
            yield Finding(
                path=first[0],
                line=first[1],
                rule=self.id,
                message="lock acquisition cycle: " + " -> ".join(cycle),
            )

    def _acquired_closure(
        self,
        graph: CallGraph,
        per_class: Dict[str, Dict[str, LockDef]],
        ref: FunctionRef,
        stack: Set[FunctionRef],
    ) -> Set[LockDef]:
        """Every lock *ref* may acquire, directly or through its callees."""
        cached = self._acquired_cache.get(ref)
        if cached is not None:
            return cached
        if ref in stack:
            return set()
        info = graph.info(ref)
        if info is None:
            return set()
        stack.add(ref)
        attrs = per_class.get(info.class_name or "", {})
        acquired: Set[LockDef] = set()
        for node, _held in iter_with_held(info.node, set(attrs)):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = match_self_lock(item.context_expr, set(attrs))
                    if attr is not None:
                        acquired.add(attrs[attr])
        for edge in graph.callees(ref):
            acquired |= self._acquired_closure(graph, per_class, edge.callee, stack)
        stack.discard(ref)
        self._acquired_cache[ref] = acquired
        return acquired


def _find_cycle(edges: Set[Tuple[str, str]]) -> Optional[List[str]]:
    """One cycle in the name-level edge set, as ``[a, b, ..., a]``."""
    adjacency: Dict[str, List[str]] = {}
    for outer, inner in sorted(edges):
        adjacency.setdefault(outer, []).append(inner)
    visiting: List[str] = []
    done: Set[str] = set()

    def dfs(name: str) -> Optional[List[str]]:
        if name in visiting:
            start = visiting.index(name)
            return visiting[start:] + [name]
        if name in done:
            return None
        visiting.append(name)
        for target in adjacency.get(name, []):
            found = dfs(target)
            if found is not None:
                return found
        visiting.pop()
        done.add(name)
        return None

    for name in sorted(adjacency):
        found = dfs(name)
        if found is not None:
            return found
    return None
