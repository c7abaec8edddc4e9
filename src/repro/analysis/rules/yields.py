"""RP-YIELD: no ``yield`` lexically inside a ``with <lock>`` block (PR 10).

A generator that yields while holding a lock suspends with the lock still
held; it is released only when the *consumer* chooses to resume or close
the generator — an unbounded time controlled by code that does not know it
is inside a critical section.  The streaming evaluators
(``Engine.solutions_stream``, ``tree_solutions_stream``) make this an easy
trap: snapshot under the lock, release, then yield from the snapshot.

The rule is purely lexical over the shared lock model: any ``yield`` /
``yield from`` whose enclosing statements include ``with self.<lock>:``
(locks discovered per :mod:`repro.analysis.locks`) is a finding.  Nested
``def`` bodies are separate units, so a generator *defined* inside a locked
region — but iterated later, outside it — is correctly not flagged; if it
yields inside its own ``with self.<lock>:`` it is flagged on its own.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import project_callgraph
from ..framework import Finding, Project, Rule
from ..locks import discover_locks, iter_with_held, locks_by_class

__all__ = ["YieldUnderLockRule"]


class YieldUnderLockRule(Rule):
    id = "RP-YIELD"
    title = "no yield inside a with-lock block"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project_callgraph(project)
        locks = discover_locks(graph)
        if not locks:
            return
        per_class = locks_by_class(locks)
        for ref in sorted(graph.functions):
            info = graph.functions[ref]
            attrs = per_class.get(info.class_name or "", {})
            if not attrs:
                continue
            for node, held in iter_with_held(info.node, set(attrs)):
                if held and isinstance(node, (ast.Yield, ast.YieldFrom)):
                    held_names = ", ".join(sorted(attrs[attr].name for attr in held))
                    yield Finding(
                        path=ref.path,
                        line=node.lineno,
                        rule=self.id,
                        message=f"yield while holding {held_names}: a suspended "
                        "generator keeps the lock for an unbounded time; "
                        "snapshot under the lock and yield outside it",
                    )
