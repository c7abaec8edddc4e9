"""RP-HOLD: no blocking call while a lock is held (PR 10).

Every lock in this codebase protects micro-critical sections — a few
dictionary probes, a counter bump.  The moment a blocking operation runs
inside one, every other thread convoys behind it: the service's admission
lock waiting on an unbounded ``queue.put`` would stall `submit` fleet-wide,
a ``time.sleep`` under the cache RLock would freeze all readers.  This
rule flags, inside any ``with self.<lock>:`` region:

* ``time.sleep`` / bare ``sleep(...)``;
* ``queue.get()`` / ``queue.put(item)`` without a timeout on queue-like
  receivers (``*_nowait`` and timeout-carrying forms are fine);
* socket operations (``recv`` / ``recvfrom`` / ``recv_into`` / ``accept`` /
  ``sendall`` always; ``send`` / ``connect`` on socket-named receivers);
* ``Pool`` / ``Thread`` waits (``join`` / ``map`` / ``imap`` / ``apply`` /
  ``starmap`` on pool/thread-like receivers, timeout-less ``join``);
* ``wait`` / ``wait_for`` without a timeout — except on the held lock
  itself: ``Condition.wait`` *releases* the condition it is called on, but
  still blocks any **other** lock the thread holds;
* ``Engine`` / ``Session`` evaluation entry points (``check_many``,
  ``solutions_stream``, ...) on session/engine receivers — a full SPARQL
  evaluation under a lock is the service-level convoy;
* any call whose transitive callees (via the shared call graph) do one of
  the above — the finding is reported at the call site under the lock and
  names the blocking operation it reaches.

Receivers are classified by inferred attribute type where the call graph
has one (``self._queue = queue.Queue()``) and by name hints otherwise
("queue" / "sock" / "conn" / "pool" / "thread" / "session" / "engine"
substrings), so ``dict.get``, ``str.join`` and ``budget.check()`` do not
false-positive.  Lock *acquisitions* under a lock are deliberately not in
scope here — that is RP-LOCKORDER's domain.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..callgraph import CallGraph, FunctionRef, project_callgraph
from ..framework import Finding, Project, Rule, chain_attributes, own_statements
from ..locks import discover_locks, iter_with_held, locks_by_class

__all__ = ["HoldWhileBlockingRule"]

_SOCKET_ALWAYS = {"recv", "recvfrom", "recv_into", "accept", "sendall"}
_SOCKET_HINTED = {"send", "connect"}
_POOL_METHODS = {"map", "starmap", "imap", "imap_unordered", "apply", "join"}
_WAIT_METHODS = {"wait", "wait_for"}
_EVAL_ENTRYPOINTS = {
    "check",
    "check_many",
    "check_iter",
    "contains",
    "solutions",
    "solutions_stream",
    "evaluate",
    "query",
}
_QUEUE_TYPES = {"Queue", "SimpleQueue", "LifoQueue", "PriorityQueue"}
_POOL_TYPES = {"Pool", "Thread"}
_EVAL_TYPES = {"Session", "Engine"}


def _has_timeout(call: ast.Call, extra_positional: int = 0) -> bool:
    """A ``timeout=`` keyword, or more positional args than the operation's
    payload needs (``q.get(True, 5)``, ``thread.join(2.0)``)."""
    if any(keyword.arg == "timeout" for keyword in call.keywords):
        return True
    return len(call.args) > extra_positional


def _receiver_names(func: ast.Attribute) -> str:
    """Lower-cased dotted receiver text for substring hints."""
    names = chain_attributes(func.value)
    root = func.value
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        root = root.value
    if isinstance(root, ast.Name):
        names.append(root.id)
    return ".".join(names).lower()


class HoldWhileBlockingRule(Rule):
    id = "RP-HOLD"
    title = "no blocking call while a lock is held"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = project_callgraph(project)
        locks = discover_locks(graph)
        if not locks:
            return
        per_class = locks_by_class(locks)
        self._closure_cache: Dict[FunctionRef, Optional[Tuple[str, str, int]]] = {}

        for ref in sorted(graph.functions):
            info = graph.functions[ref]
            attrs = per_class.get(info.class_name or "", {})
            if not attrs:
                continue
            edges_by_node: Dict[int, List] = {}
            for edge in graph.callees(ref):
                edges_by_node.setdefault(id(edge.node), []).append(edge)
            reported: Set[int] = set()
            for node, held in iter_with_held(info.node, set(attrs)):
                if not held or not isinstance(node, ast.Call):
                    continue
                if node.lineno in reported:
                    continue
                reason = self._blocking_reason(graph, info.class_name, node)
                if reason is not None:
                    # Condition.wait releases the lock it is called on; only
                    # *other* held locks make it a convoy.
                    released = self._released_lock(node, held)
                    effective = held - {released} if released else held
                    if not effective:
                        continue
                    held_names = ", ".join(
                        sorted(attrs[attr].name for attr in effective)
                    )
                    reported.add(node.lineno)
                    yield Finding(
                        path=ref.path,
                        line=node.lineno,
                        rule=self.id,
                        message=f"{reason} while holding {held_names}; move the "
                        "blocking operation outside the locked region",
                    )
                    continue
                for edge in edges_by_node.get(id(node), []):
                    reached = self._blocking_closure(graph, edge.callee, set())
                    if reached is None:
                        continue
                    reason_text, where_path, where_line = reached
                    held_names = ", ".join(sorted(attrs[attr].name for attr in held))
                    reported.add(node.lineno)
                    yield Finding(
                        path=ref.path,
                        line=node.lineno,
                        rule=self.id,
                        message=f"call to {edge.callee.qualname} while holding "
                        f"{held_names} reaches blocking {reason_text} "
                        f"({where_path}:{where_line})",
                    )
                    break

    # -- classification ------------------------------------------------------

    def _blocking_reason(
        self, graph: CallGraph, class_name: Optional[str], call: ast.Call
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "sleep":
                return "sleep()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        hints = _receiver_names(func)
        receiver_type = self._receiver_type(graph, class_name, func.value)
        if method == "sleep":
            return "time.sleep()"
        if method in {"get", "put"}:
            queue_like = receiver_type in _QUEUE_TYPES or "queue" in hints
            if queue_like and not _has_timeout(call, 1 if method == "put" else 0):
                return f"queue .{method}() without a timeout"
            return None
        if method in _SOCKET_ALWAYS:
            return f"socket .{method}()"
        if method in _SOCKET_HINTED and ("sock" in hints or "conn" in hints):
            return f"socket .{method}()"
        if method in _POOL_METHODS:
            pool_like = receiver_type in _POOL_TYPES or any(
                hint in hints for hint in ("pool", "thread", "proc", "worker")
            )
            if pool_like and not (method == "join" and _has_timeout(call)):
                return f"pool/thread .{method}()"
            return None
        if method in _WAIT_METHODS:
            if _has_timeout(call, 1 if method == "wait_for" else 0):
                return None
            return f".{method}() without a timeout"
        if method in _EVAL_ENTRYPOINTS:
            eval_like = receiver_type in _EVAL_TYPES or any(
                hint in hints for hint in ("session", "engine")
            )
            if eval_like:
                return f"evaluation entry point .{method}()"
            return None
        return None

    @staticmethod
    def _released_lock(call: ast.Call, held: frozenset) -> Optional[str]:
        """``self.<cond>.wait(...)`` on a held lock releases that lock."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _WAIT_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and func.value.attr in held
        ):
            return func.value.attr
        return None

    @staticmethod
    def _receiver_type(
        graph: CallGraph, class_name: Optional[str], value: ast.AST
    ) -> Optional[str]:
        """Inferred constructor name of ``self.<attr>`` receivers."""
        if (
            class_name is not None
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            return graph.attr_type(class_name, value.attr)
        return None

    def _blocking_closure(
        self, graph: CallGraph, ref: FunctionRef, stack: Set[FunctionRef]
    ) -> Optional[Tuple[str, str, int]]:
        """The first blocking operation reachable from *ref* (its own body
        first, then callees breadth-last), or None."""
        if ref in self._closure_cache:
            return self._closure_cache[ref]
        if ref in stack:
            return None
        info = graph.info(ref)
        if info is None:
            return None
        stack.add(ref)
        result: Optional[Tuple[str, str, int]] = None
        for node in own_statements(info.node):
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(graph, info.class_name, node)
            if reason is not None:
                result = (reason, ref.path, node.lineno)
                break
        hit_cycle = False
        if result is None:
            for edge in graph.callees(ref):
                if edge.callee in stack:
                    hit_cycle = True
                    continue
                result = self._blocking_closure(graph, edge.callee, stack)
                if result is not None:
                    break
        stack.discard(ref)
        if result is not None or not hit_cycle:
            # a None computed through a truncated recursion cycle is not a
            # settled answer; leave it uncached so other paths re-derive it
            self._closure_cache[ref] = result
        return result
