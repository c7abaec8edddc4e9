"""Traced launcher for ``repro serve``, and the per-layer numbers from its spans.

Run as ``python bench/tracer.py SPANS.jsonl serve GRAPH [serve options]``.  It
replaces a fixed table of public callables (:data:`WRAPPED`) with timing
wrappers where they are bound, then calls ``repro.cli.main(["serve", ...])``.
The program itself is unchanged: every span is recorded from outside, around
the call into a layer.

Recording is off until the process receives ``SIGUSR1`` and stops at
``SIGUSR2``; each toggle is acknowledged with a ``# trace on`` / ``# trace
off`` line on stdout, so the benchmark can open its window after the
acknowledgement.  Spans stay in memory and are written as JSON lines when the
server exits (``SIGINT``).  Each span has its name, start and end (seconds,
``perf_counter``), thread, parent (the enclosing span on that thread), the
request id last decoded on that thread (``None`` on worker threads), its self
time, and, for a callable that returns a generator, the number of items the
generator yielded (``None`` otherwise).  A generator is timed across all of
its ``next()`` calls and recorded once, when it finishes or is closed.

:func:`layer_metrics` turns a span list into the per-layer metrics of
``bench/README.md``; it needs no import of ``repro``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import signal
import sys
import threading
from collections import defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Dict, Iterable, List, Optional

#: ``(module, attribute)`` of every wrapped callable; the span name is
#: ``module.attribute``.  Functions are wrapped in the module that calls them.
WRAPPED = (
    ("repro.service.server", "decode_line"),
    ("repro.service.server", "request_from_wire"),
    ("repro.service.server", "response_lines"),
    ("repro.service.server", "encode_line"),
    ("repro.service.core", "QueryService.submit"),
    ("repro.service.core", "QueryService.solution_chunks"),
    ("repro.service.core", "PendingResponse.result"),
    ("repro.service.core", "parse_pattern"),
    ("repro.service.gate", "ReadWriteGate.acquire_read"),
    ("repro.service.gate", "ReadWriteGate.acquire_write"),
    ("repro.service.gate", "ReadWriteGate.release_write"),
    ("repro.evaluation.session", "Session.engine"),
    ("repro.evaluation.session", "Session.check_many"),
    ("repro.evaluation.session", "Session.solutions"),
    ("repro.evaluation.plan", "Planner.plan"),
    ("repro.evaluation.plan", "Planner.plan_enumeration"),
    ("repro.evaluation.plan", "CostModel.estimate"),
    ("repro.evaluation.cache", "EvaluationCache.target_index"),
    ("repro.evaluation.cache", "EvaluationCache.extension_exists"),
    ("repro.evaluation.cache", "EvaluationCache.mu_subtree"),
    ("repro.evaluation.cache", "EvaluationCache.homomorphisms_stream"),
    ("repro.evaluation.cache", "EvaluationCache.pebble_winner"),
    ("repro.evaluation.cache", "EvaluationCache.pebble_kernel"),
    ("repro.evaluation.cache", "EvaluationCache.tree_solution_list"),
    ("repro.evaluation.cache", "find_homomorphism"),
    ("repro.evaluation.cache", "target_index"),
    ("repro.hom.homomorphism", "all_homomorphisms"),
    ("repro.hom.homomorphism", "ColumnarTargetIndex.candidates"),
    ("repro.hom.homomorphism", "ColumnarTargetIndex.pattern_solutions"),
    ("repro.pebble.kernel", "ConsistencyKernel.prepare"),
    ("repro.pebble.kernel", "ConsistencyKernel.winner"),
    ("repro.rdf.graph", "RDFGraph.add_all"),
    ("repro.rdf.graph", "RDFGraph.discard"),
    ("repro.rdf.graph", "RDFGraph.sorted_domain"),
)

_SERVER = "repro.service.server."
_CORE = "repro.service.core."
_GATE = "repro.service.gate.ReadWriteGate."
_SESSION = "repro.evaluation.session.Session."
_PLAN = "repro.evaluation.plan."
_CACHE = "repro.evaluation.cache."
_HOM = "repro.hom.homomorphism."
_KERNEL = "repro.pebble.kernel.ConsistencyKernel."
_GRAPH = "repro.rdf.graph.RDFGraph."
_FIND = _CACHE + "find_homomorphism"
_ENUMERATE = _HOM + "all_homomorphisms"
_SCANS = (_HOM + "ColumnarTargetIndex.candidates", _HOM + "ColumnarTargetIndex.pattern_solutions")
_PLANS = (_PLAN + "Planner.plan", _PLAN + "Planner.plan_enumeration")

#: Per-layer self time per request: metric -> the spans whose self time it sums.
SELF_TIME = {
    "protocol.decode_ms": (_SERVER + "decode_line", _SERVER + "request_from_wire"),
    "protocol.encode_ms": (_SERVER + "response_lines", _SERVER + "encode_line"),
    "service.submit_ms": (_CORE + "QueryService.submit",),
    "service.chunk_ms": (_CORE + "QueryService.solution_chunks",),
    "gate.read_wait_ms": (_GATE + "acquire_read",),
    "gate.write_wait_ms": (_GATE + "acquire_write",),
    "sparql.parse_ms": (_CORE + "parse_pattern",),
    "session.engine_ms": (_SESSION + "engine",),
    "session.eval_ms": (_SESSION + "check_many", _SESSION + "solutions"),
    "plan.resolve_ms": _PLANS + (_PLAN + "CostModel.estimate",),
    "cache.self_ms": tuple(
        _CACHE + "EvaluationCache." + method
        for method in (
            "target_index",
            "extension_exists",
            "mu_subtree",
            "homomorphisms_stream",
            "pebble_winner",
            "pebble_kernel",
            "tree_solution_list",
        )
    ),
    "hom.index_build_ms": (_CACHE + "target_index",),
    "kernel.build_ms": (_KERNEL + "prepare",),
    "kernel.solve_ms": (_KERNEL + "winner",),
    "store.scan_ms": _SCANS,
    "store.mutate_ms": (_GRAPH + "add_all", _GRAPH + "discard"),
    "store.domain_ms": (_GRAPH + "sorted_domain",),
}

# --- recording ------------------------------------------------------------------


class Tracer:
    """The span recorder behind every wrapper installed in one process."""

    def __init__(self) -> None:
        #: Recorded span tuples (``list.append`` is atomic across threads).
        self.spans: List[tuple] = []
        self.recording = threading.Event()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = threading.current_thread().name
            local.rid = None
        return stack

    def _record(self, sid, name, parent, start, end, self_time, items) -> None:
        if self.recording.is_set():
            self._stack()  # a generator may be closed on a thread that never traced
            local = self._local
            self.spans.append((sid, name, local.thread, parent, local.rid, start, end, self_time, items))

    def _timed_generator(self, name, sid, parent, generator, start, busy, children):
        """Yield from *generator*, timing every ``next()`` as part of one span."""
        items = 0
        end = start + busy
        try:
            while True:
                stack = self._stack()
                frame = [sid, 0.0]
                stack.append(frame)
                began = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    busy += end - began
                    children += frame[1]
                    if stack:
                        stack[-1][1] += end - began
                items += 1
                yield item
        finally:
            generator.close()
            self._record(sid, name, parent, start, end, busy - children, items)

    def wrap(self, name: str, function):
        """*function* with every call recorded as a span called *name*."""
        decodes = name == _SERVER + "decode_line"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            if decodes and isinstance(result, dict):
                self._local.rid = result.get("id")
            if isinstance(result, GeneratorType):
                return self._timed_generator(name, frame[0], parent, result, start, end - start, frame[1])
            self._record(frame[0], name, parent, start, end, end - start - frame[1], None)
            return result

        return traced

    def install(self) -> None:
        """Replace every :data:`WRAPPED` callable with its timing wrapper."""
        for module_name, attribute in WRAPPED:
            owner = importlib.import_module(module_name)
            *classes, leaf = attribute.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            setattr(owner, leaf, self.wrap(f"{module_name}.{attribute}", getattr(owner, leaf)))

    def toggle(self, on: bool) -> None:
        """Start (dropping earlier spans) or stop recording; acknowledge on stdout."""
        if on:
            self.spans.clear()
            self.recording.set()
        else:
            self.recording.clear()
        print(f"# trace {'on' if on else 'off'}", flush=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, thread, parent, rid, start, end, self_time, items in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "thread": thread,
                    "parent": parent,
                    "rid": rid,
                    "start": start,
                    "end": end,
                    "self": self_time,
                    "items": items,
                }
                handle.write(json.dumps(record) + "\n")


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: tracer.py SPANS.jsonl serve GRAPH [serve options]", file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.toggle(True))
    signal.signal(signal.SIGUSR2, lambda *_: tracer.toggle(False))
    from repro.cli import main as repro_main

    code = repro_main(serve_argv)
    tracer.write(spans_path)
    return code


# --- analysis ---------------------------------------------------------------------


def read_spans(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _write_hold(spans: Iterable[dict]) -> float:
    """Seconds between each ``acquire_write`` and the next ``release_write``
    on the same thread."""
    by_thread: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["name"] in (_GATE + "acquire_write", _GATE + "release_write"):
            by_thread[span["thread"]].append(span)
    total = 0.0
    for events in by_thread.values():
        acquired: Optional[float] = None
        for span in sorted(events, key=lambda s: s["start"]):
            if span["name"].endswith("acquire_write"):
                acquired = span["end"]
            elif acquired is not None:
                total += span["start"] - acquired
                acquired = None
    return total


def layer_metrics(spans: List[dict], requests: int, answers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see ``bench/README.md``).

    Times are milliseconds per completed request; *answers* is the number
    of verdicts plus solutions the window returned.
    """
    per_request = 1000.0 / max(1, requests)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    names = {span["id"]: span["name"] for span in spans}
    waited = 0.0
    worker_roots = 0.0
    find_search = 0.0
    for span in spans:
        name = span["name"]
        self_time[name] += span["self"]
        calls[name] += 1
        items[name] += span["items"] or 0
        if name == _CORE + "PendingResponse.result":
            waited += span["end"] - span["start"]
        elif span["parent"] is None and span["thread"].startswith("repro-service"):
            worker_roots += span["end"] - span["start"]
        if name == _ENUMERATE and names.get(span["parent"]) == _FIND:
            find_search += span["self"]
    metrics = {
        metric: sum(self_time[name] for name in members) * per_request
        for metric, members in SELF_TIME.items()
    }
    plans = sum(calls[name] for name in _PLANS)
    metrics.update(
        {
            "service.queue_ms": (waited - worker_roots) * per_request,
            "gate.write_hold_ms": _write_hold(spans) * per_request,
            "sparql.parses_per_req": calls[_CORE + "parse_pattern"] / max(1, requests),
            "plan.fresh_share": calls[_PLAN + "CostModel.estimate"] / max(1, plans),
            "hom.find_ms": (self_time[_FIND] + find_search) * per_request,
            "hom.find_calls": calls[_FIND] / max(1, requests),
            "hom.enumerate_ms": (self_time[_ENUMERATE] - find_search) * per_request,
            "kernel.solves_per_req": calls[_KERNEL + "winner"] / max(1, requests),
            "store.rows_per_answer": sum(items[name] for name in _SCANS) / max(1, answers),
        }
    )
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
