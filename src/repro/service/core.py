"""A long-lived concurrent query service over one shared warm Session.

:class:`QueryService` is the server-shaped front end the ROADMAP's "heavy
traffic" north star asks for: where :class:`~repro.evaluation.session.Session`
is a library object driven by one caller, the service is a **thread pool**
(stdlib only) answering many concurrent clients through one shared session —
so every request benefits from every previous request's memoized
homomorphism tests, kernels, target indexes and recorded answer lists.

The moving parts:

* **operations** — ``check`` (membership, one or many candidate mappings),
  ``solutions`` (full enumeration; the socket layer streams it in chunks),
  ``explain`` (the plan the planner resolves for the query against the live
  graph), ``update`` (online graph mutation: remove-then-add batches) and
  ``stats`` (the introspection snapshot);
* **consistency** — a :class:`~repro.service.gate.ReadWriteGate` serializes
  updates against in-flight queries: queries hold the gate shared, updates
  hold it exclusively, so every response is pinned to exactly one
  ``RDFGraph.version`` (reported on the response) and the session cache's
  version-keyed invalidation stays sound under threads;
* **admission control** — a bounded backlog (``max_pending``) in front of
  ``max_inflight`` worker threads; when the backlog is full, `submit`
  raises a typed :class:`~repro.exceptions.ServiceOverloadedError`
  *immediately* instead of queueing forever, so overload degrades into
  fast rejections rather than unbounded latency;
* **deadlines** — a per-request :class:`~repro.evaluation.budget.Budget` is
  created at admission, so queue wait, gate wait and evaluation all count
  against the same allowance; violations come back as typed
  ``DeadlineExceeded`` error responses, never hung clients;
* **introspection** — per-operation latency percentiles, rejection /
  deadline / error counters, cache and resilience counters of the
  underlying session, all in :meth:`QueryService.stats` (the ``stats`` op
  and ``repro serve``'s ``/stats``-style call).

Every failure mode resolves the client's :class:`PendingResponse` with a
typed error response — a submitted request **always** receives exactly one
response, including during shutdown (drained requests answer with
``ServiceClosedError``).
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from time import monotonic
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union, cast

from ..evaluation.budget import Budget
from ..evaluation.session import Session
from ..rdf.graph import RDFGraph
from ..rdf.triples import Triple
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..sparql.parser import parse_pattern
from ..exceptions import (
    DeadlineExceeded,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    error_class,
)
from .gate import ReadWriteGate

__all__ = [
    "DEFAULT_GRAPH",
    "OPERATIONS",
    "PendingResponse",
    "QueryService",
    "Request",
    "Response",
    "ServiceStats",
]

#: The implicit graph name when a service is built over a single graph.
DEFAULT_GRAPH = "default"

#: Latency samples kept per operation (oldest dropped first).
_MAX_LATENCY_SAMPLES = 4096
#: Bound on the query-text parse memo (oldest dropped first).
_MAX_PATTERNS = 256
#: Solutions per streamed ``chunk`` line when a request names no size.
_CHUNK_SIZE = 256
#: Counters of entry kinds the cache does not keep (``subtree``, ``pebble``:
#: nothing is stored per mapping); the ``stats`` operation reports them as 0
#: because ``bench/run.py`` still reads them.
_RETIRED_CACHE_COUNTERS = dict.fromkeys(
    ("subtree_hits", "subtree_misses", "pebble_hits", "pebble_misses"), 0
)

#: The operations the service understands (also the protocol's ``op`` field).
OPERATIONS = ("check", "solutions", "explain", "update", "stats")


@dataclass
class Request:
    """One service request (the in-process face of a protocol message).

    ``mappings`` carries the candidate mappings of a ``check``; ``add`` /
    ``remove`` the triple batches of an ``update`` (removes are applied
    first, then adds, under one exclusive gate section).  ``deadline`` is
    the per-request wall-clock allowance in seconds (the service default
    applies when ``None``).
    """

    op: str
    query: Optional[str] = None
    graph: str = DEFAULT_GRAPH
    mappings: Sequence[Mapping] = ()
    method: str = "auto"
    width: Optional[int] = None
    deadline: Optional[float] = None
    add: Sequence[Triple] = ()
    remove: Sequence[Triple] = ()


@dataclass
class Response:
    """One service response; exactly one per submitted request.

    ``graph_version`` pins query responses to the ``RDFGraph.version`` the
    evaluation observed (the gate guarantees it did not move mid-request)
    and update responses to the version the mutation produced.  ``elapsed``
    is the client-visible latency in seconds — admission to completion,
    queue wait included.
    """

    op: str
    ok: bool
    result: object = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    graph_version: Optional[int] = None
    elapsed: float = 0.0
    request_id: int = -1

    def raise_for_error(self) -> "Response":
        """Re-raise a typed error response as its library exception.

        The ``error_type`` name resolves through
        :func:`~repro.exceptions.error_class`.  Returns ``self`` when ``ok``.
        """
        if self.ok:
            return self
        raise error_class(self.error_type)(self.error or "service request failed")


class PendingResponse:
    """The client's handle on a submitted request (a tiny future).

    The service resolves every pending exactly once — success, typed
    error, deadline, or shutdown drain — so :meth:`result` never hangs on
    a live service.
    """

    def __init__(self, request: Request, budget: Optional[Budget], position: int) -> None:
        self.request = request
        self.budget = budget
        #: The service-assigned submission sequence number (what a
        #: :class:`~repro.evaluation.faults.FaultPlan` targets).
        self.position = position
        self.submitted_at = monotonic()
        self._event = threading.Event()
        self._response: Optional[Response] = None

    def done(self) -> bool:
        """Whether the response has arrived."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block for the response (*timeout* in seconds; ``None`` = forever)."""
        if not self._event.wait(timeout):
            raise ServiceError(
                f"no response to {self.request.op!r} request #{self.position} "
                f"within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _resolve(self, response: Response) -> None:
        if self._response is None:
            self._response = response
            self._event.set()


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class ServiceStats:
    """Aggregate counters and latency samples of one :class:`QueryService`.

    All methods are thread-safe; :meth:`snapshot` is what the ``stats``
    operation returns.  Latency samples are bounded per operation (oldest
    dropped first), so a long-lived service's stats stay O(1) in memory.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_at = monotonic()  # immutable after init
        self.admitted: Dict[str, int] = {}  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.ok = 0  # guarded-by: _lock
        self.errors = 0  # guarded-by: _lock
        self.rejected_overload = 0  # guarded-by: _lock
        self.deadline_trips = 0  # guarded-by: _lock
        self.updates_applied = 0  # guarded-by: _lock
        self.triples_added = 0  # guarded-by: _lock
        self.triples_removed = 0  # guarded-by: _lock
        self.error_types: Dict[str, int] = {}  # guarded-by: _lock
        self._latencies: Dict[str, List[float]] = {}  # guarded-by: _lock
        self.peak_inflight = 0  # guarded-by: _lock

    # --- recording ---------------------------------------------------------
    def note_admitted(self, op: str) -> None:
        with self._lock:
            self.admitted[op] = self.admitted.get(op, 0) + 1

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected_overload += 1

    def note_inflight(self, inflight: int) -> None:
        with self._lock:
            if inflight > self.peak_inflight:
                self.peak_inflight = inflight

    def note_completed(self, response: Response) -> None:
        with self._lock:
            self.completed += 1
            if response.ok:
                self.ok += 1
            else:
                self.errors += 1
                kind = response.error_type or "unknown"
                self.error_types[kind] = self.error_types.get(kind, 0) + 1
                if response.error_type == "DeadlineExceeded":
                    self.deadline_trips += 1
            samples = self._latencies.setdefault(response.op, [])
            samples.append(response.elapsed)
            if len(samples) > _MAX_LATENCY_SAMPLES:
                del samples[: len(samples) - _MAX_LATENCY_SAMPLES]

    def note_update(self, added: int, removed: int) -> None:
        with self._lock:
            self.updates_applied += 1
            self.triples_added += added
            self.triples_removed += removed

    # --- reporting ---------------------------------------------------------
    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-operation (and overall) p50/p95/p99 latency in milliseconds."""
        with self._lock:
            samples = {op: list(values) for op, values in self._latencies.items()}
        samples["all"] = [value for values in samples.values() for value in values]
        summary: Dict[str, Dict[str, float]] = {}
        for op, values in samples.items():
            values.sort()
            summary[op] = {
                "count": len(values),
                "p50_ms": _percentile(values, 0.50) * 1000.0,
                "p95_ms": _percentile(values, 0.95) * 1000.0,
                "p99_ms": _percentile(values, 0.99) * 1000.0,
            }
        return summary

    def snapshot(self) -> dict:
        with self._lock:
            base = {
                "uptime_s": monotonic() - self._started_at,
                "admitted": dict(self.admitted),
                "completed": self.completed,
                "ok": self.ok,
                "errors": self.errors,
                "error_types": dict(self.error_types),
                "rejected_overload": self.rejected_overload,
                "deadline_trips": self.deadline_trips,
                "updates_applied": self.updates_applied,
                "triples_added": self.triples_added,
                "triples_removed": self.triples_removed,
                "peak_inflight": self.peak_inflight,
            }
        base["latency"] = self.latency_summary()
        return base


#: Internal queue sentinel telling one worker thread to exit.
class _Stop:
    pass


_STOP = _Stop()


class QueryService:
    """A thread-pool query server over one shared warm session (module docs).

    Parameters
    ----------
    graphs:
        The data being served: a single :class:`~repro.rdf.graph.RDFGraph`
        (registered under ``"default"``) or a ``{name: graph}`` mapping.
    session:
        The shared :class:`~repro.evaluation.session.Session`; a fresh one
        is created when omitted.  Long-lived services should bound it
        (``Session(cache=EvaluationCache(max_entries_per_graph), max_engines=...)``).
    max_inflight:
        Worker threads — the number of requests evaluating concurrently.
    max_pending:
        Backlog bound: admitted-but-not-started requests beyond this are
        rejected with :class:`~repro.exceptions.ServiceOverloadedError`.
    default_deadline:
        Per-request wall-clock allowance in seconds applied when a request
        carries none (``None`` = unbounded).
    faults:
        Test-only :class:`~repro.evaluation.faults.FaultPlan`; fired by
        request **position** (the submission sequence number) before the
        request executes.  ``None`` in production.

    >>> from repro.rdf import RDFGraph, Triple
    >>> from repro.sparql.mappings import Mapping
    >>> service = QueryService(RDFGraph([Triple.of("a", "knows", "b")]))
    >>> service.check("((?x knows ?y) OPT (?y email ?e))", Mapping.of(x="a", y="b"))
    True
    >>> service.close()
    """

    def __init__(
        self,
        graphs: Union[RDFGraph, Dict[str, RDFGraph]],
        session: Optional[Session] = None,
        max_inflight: int = 4,
        max_pending: int = 64,
        default_deadline: Optional[float] = None,
        faults: Optional[object] = None,
    ) -> None:
        if isinstance(graphs, RDFGraph):
            graphs = {DEFAULT_GRAPH: graphs}
        if not graphs:
            raise ServiceError("a QueryService needs at least one graph to serve")
        if max_inflight < 1:
            raise ServiceError("max_inflight must be a positive integer")
        if max_pending < 0:
            raise ServiceError("max_pending must be >= 0")
        self._graphs: Dict[str, RDFGraph] = dict(graphs)
        self._session = session if session is not None else Session()
        self._gate = ReadWriteGate()
        self._stats = ServiceStats()
        self._max_inflight = max_inflight
        self._max_pending = max_pending
        self._default_deadline = default_deadline
        self._faults = faults
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._lock = threading.Lock()
        self._backlog = 0  # guarded-by: _lock
        self._inflight = 0  # guarded-by: _lock
        self._sequence = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._patterns: Dict[str, GraphPattern] = {}  # guarded-by: _lock
        self._threads = [
            threading.Thread(
                target=self._serve_loop, name=f"repro-service-{i}", daemon=True
            )
            for i in range(max_inflight)
        ]
        for thread in self._threads:
            thread.start()

    # --- introspection -----------------------------------------------------
    @property
    def session(self) -> Session:
        """The shared session every request evaluates through."""
        return self._session

    @property
    def gate(self) -> ReadWriteGate:
        """The reader/writer gate serializing updates against queries."""
        return self._gate

    @property
    def graphs(self) -> Dict[str, RDFGraph]:
        """The registered graphs by name (live objects, not copies)."""
        return dict(self._graphs)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        with self._lock:
            backlog, closed = self._backlog, self._closed
        return (
            f"QueryService(<{len(self._graphs)} graphs, "
            f"workers={self._max_inflight}, backlog={backlog}, "
            f"closed={closed}>)"
        )

    def stats(self) -> dict:
        """The introspection snapshot (what the ``stats`` operation returns).

        Service-level counters and latency percentiles
        (:class:`ServiceStats`), the live backlog/inflight gauges, per-graph
        size and version, and the underlying session's cache and resilience
        counters.
        """
        snapshot = self._stats.snapshot()
        with self._lock:
            snapshot["backlog"] = self._backlog
            snapshot["inflight"] = self._inflight
            snapshot["max_pending"] = self._max_pending
            snapshot["max_inflight"] = self._max_inflight
        snapshot["graphs"] = {
            name: {"triples": len(graph), "version": graph.version}
            for name, graph in self._graphs.items()
        }
        snapshot["cache"] = {
            **_RETIRED_CACHE_COUNTERS, **self._session.cache.statistics.as_dict()
        }
        snapshot["resilience"] = self._session.statistics.resilience_summary()
        snapshot["engines"] = self._session.engine_count
        return snapshot

    # --- admission ---------------------------------------------------------
    def submit(self, request: Request) -> PendingResponse:
        """Admit *request* (non-blocking) and return its response handle.

        Raises :class:`~repro.exceptions.ServiceError` for unknown
        operations, :class:`~repro.exceptions.ServiceClosedError` after
        :meth:`close`, and :class:`~repro.exceptions.ServiceOverloadedError`
        when the backlog is full — the typed rejection of admission
        control.  The per-request :class:`~repro.evaluation.budget.Budget`
        starts **now**: time spent queued counts against the deadline.
        """
        if request.op not in OPERATIONS:
            raise ServiceError(
                f"unknown operation {request.op!r}; expected one of {OPERATIONS}"
            )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed; no new requests")
            if self._backlog >= self._max_pending:
                self._stats.note_rejected()
                raise ServiceOverloadedError(
                    f"service overloaded: {self._backlog} request(s) pending "
                    f"(max_pending={self._max_pending}, "
                    f"max_inflight={self._max_inflight}); retry later",
                    pending=self._backlog,
                    max_pending=self._max_pending,
                )
            deadline = (
                request.deadline
                if request.deadline is not None
                else self._default_deadline
            )
            budget = Budget(deadline=deadline) if deadline is not None else None
            pending = PendingResponse(request, budget, self._sequence)
            self._sequence += 1
            self._backlog += 1
            self._stats.note_admitted(request.op)
            # put_nowait: identical to put() on an unbounded Queue, but
            # syntactically non-blocking — enqueueing must stay inside the
            # lock so close(drain=False) cannot drain between admission and
            # enqueue (the request would hang unresolved).
            self._queue.put_nowait(pending)
        return pending

    def request(self, request: Request, timeout: Optional[float] = None) -> Response:
        """Submit and block for the response (the closed-loop client shape)."""
        return self.submit(request).result(timeout)

    # --- convenience entry points ------------------------------------------
    def check(
        self,
        query: str,
        mappings: Union[Mapping, Sequence[Mapping]],
        graph: str = DEFAULT_GRAPH,
        method: str = "auto",
        width: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Union[bool, List[bool]]:
        """Membership through the service; raises typed errors on failure.

        A single :class:`~repro.sparql.mappings.Mapping` returns one bool;
        a sequence returns the verdict list in input order.
        """
        single = isinstance(mappings, Mapping)
        batch: Sequence[Mapping] = [mappings] if single else list(mappings)
        response = self.request(
            Request(
                op="check",
                query=query,
                graph=graph,
                mappings=batch,
                method=method,
                width=width,
                deadline=deadline,
            )
        ).raise_for_error()
        verdicts: List[bool] = response.result  # type: ignore[assignment]
        return verdicts[0] if single else verdicts

    def solutions(
        self,
        query: str,
        graph: str = DEFAULT_GRAPH,
        method: str = "auto",
        deadline: Optional[float] = None,
    ) -> Set[Mapping]:
        """Full enumeration ``⟦P⟧G`` through the service (typed errors raise)."""
        response = self.request(
            Request(
                op="solutions", query=query, graph=graph, method=method, deadline=deadline
            )
        ).raise_for_error()
        return response.result  # type: ignore[return-value]

    def explain(
        self, query: str, graph: str = DEFAULT_GRAPH, method: str = "auto"
    ) -> str:
        """The human-readable plan for *query* against the live graph."""
        response = self.request(
            Request(op="explain", query=query, graph=graph, method=method)
        ).raise_for_error()
        return response.result  # type: ignore[return-value]

    def update(
        self,
        graph: str = DEFAULT_GRAPH,
        add: Sequence[Triple] = (),
        remove: Sequence[Triple] = (),
        deadline: Optional[float] = None,
    ) -> dict:
        """Apply an online mutation batch (removes, then adds) exclusively."""
        response = self.request(
            Request(op="update", graph=graph, add=add, remove=remove, deadline=deadline)
        ).raise_for_error()
        return response.result  # type: ignore[return-value]

    # --- the request loop --------------------------------------------------
    def _serve_loop(self) -> None:
        """One worker thread: dequeue, gate, evaluate, always respond.

        Registered in the RP-TICK ``HOT_LOOPS`` registry: the loop ticks
        each request's budget at dequeue (the queue wait costs a step and
        stays deadline-responsive) and then takes an immediate
        :meth:`~repro.evaluation.budget.Budget.check`, so a request that
        expired while queued is rejected with a typed deadline response
        before any evaluation work happens.
        """
        while True:
            item = self._queue.get()
            if isinstance(item, _Stop):
                break
            pending = cast(PendingResponse, item)
            with self._lock:
                self._backlog -= 1
                self._inflight += 1
                self._stats.note_inflight(self._inflight)
            try:
                if pending.budget is not None:
                    pending.budget.tick()  # queue wait counts against the budget
                    pending.budget.check()  # expired while queued: reject now
                response = self._execute(pending)
            except DeadlineExceeded as error:
                response = self._error_response(pending, error)
            except ReproError as error:
                response = self._error_response(pending, error)
            except Exception as error:  # defensive: a bug must not hang clients
                response = self._error_response(
                    pending,
                    ServiceError(
                        f"internal service error: {type(error).__name__}: {error}"
                    ),
                )
            finally:
                with self._lock:
                    self._inflight -= 1
            self._finish(pending, response)

    def _finish(self, pending: PendingResponse, response: Response) -> None:
        response.elapsed = monotonic() - pending.submitted_at
        response.request_id = pending.position
        self._stats.note_completed(response)
        pending._resolve(response)

    def _error_response(self, pending: PendingResponse, error: ReproError) -> Response:
        return Response(
            op=pending.request.op,
            ok=False,
            error=str(error),
            error_type=type(error).__name__,
        )

    def _execute(self, pending: PendingResponse) -> Response:
        request = pending.request
        if self._faults is not None:
            self._faults.fire(  # type: ignore[union-attr]
                pending.position, self._graphs.get(request.graph)
            )
        handler = getattr(self, f"_op_{request.op}")
        return handler(pending)

    # --- operation handlers ------------------------------------------------
    def _pattern(self, request: Request) -> GraphPattern:
        if not request.query:
            raise ServiceError(f"operation {request.op!r} needs a query")
        with self._lock:
            pattern = self._patterns.get(request.query)
        if pattern is not None:
            return pattern
        pattern = parse_pattern(request.query)
        with self._lock:
            while len(self._patterns) >= _MAX_PATTERNS:
                self._patterns.pop(next(iter(self._patterns)))
            self._patterns[request.query] = pattern
        return pattern

    def _graph(self, request: Request) -> RDFGraph:
        graph = self._graphs.get(request.graph)
        if graph is None:
            raise ServiceError(
                f"unknown graph {request.graph!r}; registered: "
                f"{sorted(self._graphs)}"
            )
        return graph

    def _op_check(self, pending: PendingResponse) -> Response:
        request = pending.request
        pattern = self._pattern(request)
        graph = self._graph(request)
        mappings = list(request.mappings)
        if not mappings:
            raise ServiceError("operation 'check' needs at least one candidate mapping")
        with self._gate.read(pending.budget):
            verdicts = self._session.check_many(
                pattern,
                graph,
                mappings,
                method=request.method,
                width=request.width,
                budget=pending.budget,
            )
            version = graph.version
        return Response(op="check", ok=True, result=verdicts, graph_version=version)

    def _op_solutions(self, pending: PendingResponse) -> Response:
        request = pending.request
        pattern = self._pattern(request)
        graph = self._graph(request)
        with self._gate.read(pending.budget):
            answers = self._session.solutions(
                pattern, graph, method=request.method, budget=pending.budget
            )
            version = graph.version
        return Response(op="solutions", ok=True, result=answers, graph_version=version)

    def _op_explain(self, pending: PendingResponse) -> Response:
        request = pending.request
        pattern = self._pattern(request)
        graph = self._graph(request)
        with self._gate.read(pending.budget):
            text = self._session.explain(
                pattern, method=request.method, width=request.width, graph=graph
            )
            version = graph.version
        return Response(op="explain", ok=True, result=text, graph_version=version)

    def _op_update(self, pending: PendingResponse) -> Response:
        request = pending.request
        graph = self._graph(request)
        removes = list(request.remove)
        adds = list(request.add)
        with self._gate.write(pending.budget):
            removed = 0
            for triple in removes:
                if triple in graph:
                    graph.discard(triple)
                    removed += 1
            size = len(graph)
            if adds:
                graph.add_all(adds)
            added = len(graph) - size
            version = graph.version
        self._stats.note_update(added, removed)
        return Response(
            op="update",
            ok=True,
            result={"added": added, "removed": removed, "version": version},
            graph_version=version,
        )

    def _op_stats(self, pending: PendingResponse) -> Response:
        return Response(op="stats", ok=True, result=self.stats())

    # --- chunked delivery ---------------------------------------------------
    def solution_chunks(
        self, response: Response, chunk_size: Optional[int] = None
    ) -> Iterator[List[Mapping]]:
        """A ``solutions`` response's answer set in deterministic chunks.

        The evaluation already ran (pinned to one graph version under the
        read gate); chunking happens from memory, so a slow consumer never
        holds the gate.  This is what the socket layer streams as
        ``chunk`` lines; *chunk_size* defaults to 256 solutions per chunk.
        """
        if not response.ok or response.op != "solutions":
            raise ServiceError("solution_chunks() needs a successful solutions response")
        size = chunk_size if chunk_size is not None else _CHUNK_SIZE
        answers: List[Mapping] = sorted(response.result, key=repr)  # type: ignore[arg-type]
        for start in range(0, len(answers), size):
            yield answers[start : start + size]

    # --- lifecycle ----------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the service down; every outstanding request gets a response.

        With ``drain=True`` (default) queued requests are served first;
        with ``drain=False`` they are resolved immediately with typed
        :class:`~repro.exceptions.ServiceClosedError` responses.  Worker
        threads are joined (*timeout* per thread).  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Stop):
                    continue
                stranded = cast(PendingResponse, item)
                with self._lock:
                    self._backlog -= 1
                self._finish(
                    stranded,
                    self._error_response(
                        stranded,
                        ServiceClosedError("service closed before execution"),
                    ),
                )
        for _thread in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
