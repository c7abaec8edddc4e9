"""RP-TICK and RP-MONO: deadline discipline in hot loops (PR 7).

**RP-TICK** — the registered hot-loop functions (homomorphism backtracking,
the AC-3 worklist, both enumeration streams, the generic pebble fixpoint,
the service's worker loop) must call ``tick()`` in every ``while`` loop and
every *outermost* ``for`` loop of their own body.  Inner loops are treated
as amortized by the enclosing loop's tick (the whole point of
``Budget.tick(n)``'s batched accounting), and nested ``def``\\ s are
separate units — ``_search_ids.backtrack`` registers the inner function, not
its driver.  A registered function that no longer exists is itself a
finding: a stale registry silently un-protects a hot loop.  Naive
evaluation ticks once per pattern node and has no loop to check, so
``tests/test_faults.py`` guards its deadline instead.

**RP-MONO** — deadline arithmetic uses the monotonic clock only, anywhere
in ``src/repro``: ``time.time()``, ``from time import time``, and argless
``datetime.now()`` / ``utcnow()`` / ``today()`` are flagged.  Wall-clock
timestamps jump under NTP steps and break absolute-deadline budgets that
several layers share.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..callgraph import project_callgraph
from ..framework import Finding, Project, Rule, own_statements

__all__ = ["TickRule", "MonotonicRule", "HOT_LOOPS"]

#: (module suffix, dotted qualname) of every registered hot-loop function.
#: Extend this list when a new enumeration / propagation loop lands.
HOT_LOOPS: Tuple[Tuple[str, str], ...] = (
    ("hom/homomorphism.py", "_search_ids.backtrack"),
    ("evaluation/wdeval.py", "tree_solutions_stream"),
    ("evaluation/wdeval.py", "forest_solutions_stream"),
    ("pebble/kernel.py", "ConsistencyKernel._solve_two_pebbles"),
    ("pebble/kernel.py", "ConsistencyKernel._solve_generic"),
    ("service/core.py", "QueryService._serve_loop"),
)

_TICK_NAMES = {"tick"}


def _outermost_loops(func: ast.AST) -> List[ast.AST]:
    """``while`` loops (all of them) and ``for`` loops not nested in another
    loop, within *func*'s own body (nested defs excluded)."""
    loops: List[ast.AST] = []

    def visit(node: ast.AST, inside_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.While):
                loops.append(child)
                visit(child, True)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                if not inside_loop:
                    loops.append(child)
                visit(child, True)
            else:
                visit(child, inside_loop)

    visit(func, False)
    return loops


def _loop_body_ticks(loop: ast.AST) -> bool:
    """Does the loop body (excluding nested defs) contain a ``tick(`` call?"""
    for statement in loop.body + getattr(loop, "orelse", []):
        for node in [statement, *own_statements(statement)]:
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _TICK_NAMES:
                    return True
                if isinstance(func, ast.Attribute) and func.attr in _TICK_NAMES:
                    return True
    return False


class TickRule(Rule):
    id = "RP-TICK"
    title = "registered hot loops call tick() in every while / outermost for"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project_callgraph(project)
        for suffix, qualname in HOT_LOOPS:
            module = project.module(suffix)
            if module is None or module.tree is None:
                continue  # fixture projects carry only the module under test
            info = graph.lookup(suffix, qualname)
            func = info.node if info is not None else None
            if func is None or not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield Finding(
                    path=module.relpath,
                    line=1,
                    rule=self.id,
                    message=f"registered hot-loop function {qualname!r} not found; "
                    "update HOT_LOOPS in repro/analysis/rules/budgets.py",
                )
                continue
            for loop in _outermost_loops(func):
                if not _loop_body_ticks(loop):
                    shape = "while" if isinstance(loop, ast.While) else "for"
                    yield Finding(
                        path=module.relpath,
                        line=loop.lineno,
                        rule=self.id,
                        message=f"{qualname}: {shape} loop without a tick() call; "
                        "hot loops must stay deadline-responsive",
                    )


class MonotonicRule(Rule):
    id = "RP-MONO"
    title = "deadline arithmetic uses the monotonic clock only"

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.parsed():
            wall_time_names: Set[str] = set()
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ImportFrom) and node.module == "time":
                    for alias in node.names:
                        if alias.name == "time":
                            wall_time_names.add(alias.asname or alias.name)
                            yield Finding(
                                path=file.relpath,
                                line=node.lineno,
                                rule=self.id,
                                message="`from time import time` imports the wall "
                                "clock; deadlines must use time.monotonic()",
                            )
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "time"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    yield Finding(
                        path=file.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message="time.time() is wall clock; deadline/budget code "
                        "must use time.monotonic()",
                    )
                elif isinstance(func, ast.Name) and func.id in wall_time_names:
                    yield Finding(
                        path=file.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message="time() (wall clock) call; deadline/budget code "
                        "must use time.monotonic()",
                    )
                elif isinstance(func, ast.Attribute) and func.attr in {
                    "utcnow",
                    "today",
                }:
                    if self._is_datetime_chain(func.value):
                        yield Finding(
                            path=file.relpath,
                            line=node.lineno,
                            rule=self.id,
                            message=f"datetime.{func.attr}() is wall clock; use "
                            "time.monotonic() for durations",
                        )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "now"
                    and not node.args
                    and not node.keywords
                    and self._is_datetime_chain(func.value)
                ):
                    yield Finding(
                        path=file.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message="argless datetime.now() is wall clock; use "
                        "time.monotonic() for durations",
                    )

    @staticmethod
    def _is_datetime_chain(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "datetime"
        if isinstance(node, ast.Attribute):
            return node.attr == "datetime"
        return False
