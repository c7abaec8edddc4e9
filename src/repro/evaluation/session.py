"""A multi-pattern, multi-graph evaluation workspace.

Serving realistic wdEVAL traffic means answering *sets* of instances — many
candidate mappings, many patterns, many graphs — behind one shared cache.
:class:`Session` is that workspace:

* engines are created (and memoized) per pattern through one shared
  :class:`~repro.evaluation.cache.EvaluationCache`, so structurally
  overlapping patterns reuse each other's homomorphism tests, kernels and
  target indexes;
* every entry point resolves its ``method=`` through the pattern's
  :class:`~repro.evaluation.plan.Planner` — exactly once per batch — and
  :meth:`plan` / :meth:`explain` expose the decision;
* :meth:`check_iter` is the one membership batch loop: it deduplicates the
  mappings, decides them lazily in this process or over a worker-process
  pool, and releases the verdicts in input order, identical to a loop of
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` calls;
  :meth:`check_many` is ``list(check_iter(...))``;
* :meth:`solutions` enumerates one pattern's answer set and
  :meth:`solutions_stream` streams it lazily (a deduplicated generator);
  the natural strategy records each tree's answers in the shared cache,
  so a repeated pattern over an unchanged graph replays them;
* the membership pool is **crash-aware**: a dead worker breaks its
  executor, the unfinished chunks are resubmitted once on a fresh one, and
  a second failure re-runs the remainder serially in the parent — answers
  are never lost and never duplicated, and the recovery is accounted in
  :class:`EvaluationStatistics` (``worker_crashes`` /
  ``cells_degraded_serial``);
* wall-clock / step budgets (:class:`~repro.evaluation.budget.Budget`)
  travel with the chunks into the workers; every entry point reports a
  violated budget one way, by raising
  :class:`~repro.exceptions.DeadlineExceeded` (counted once on
  :attr:`Session.statistics`), and a stream yields its partial results
  before it raises; and a deterministic fault-injection harness
  (:mod:`repro.evaluation.faults`) drives the crash ladder in tests with
  real SIGKILLs.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .budget import Budget, budget_from
from .cache import EvaluationCache
from .context import EvalContext
from .engine import Engine
from .plan import Plan
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..exceptions import (
    DeadlineExceeded,
    EvaluationError,
    ReproError,
    WorkerCrashError,
)

__all__ = ["Session", "PatternLike", "EvaluationStatistics"]

#: Anything a session entry point accepts as "a pattern".
PatternLike = Union[Engine, GraphPattern, WDPatternForest]

#: How many executors one batch may run before the parent re-runs the
#: unfinished chunks serially (1 original + 1 retry after a worker crash).
_MAX_POOL_ATTEMPTS = 2


# --- the membership pool ------------------------------------------------------
#
# Workers are initialised once per executor with the forest and graph and
# then receive chunks of mappings; each worker owns an EvaluationCache, so the
# per-graph index, memo tables and consistency kernels are built once per
# worker, not per chunk.
#
# With the ``fork`` start method the parent warms its own cache *before* the
# executor starts and hands the live engine to the initializer — fork does
# not pickle initargs, so every worker starts with the precomputed kernels and
# target index already in (copy-on-write shared) memory.  Under ``spawn`` or
# ``forkserver`` the initargs are pickled, the engine arrives without its
# cache, and the workers start cold: they rebuild the µ-independent state once
# in the initializer instead of lazily per chunk.
#
# Chunks carry their submission *position* so the fault-injection harness can
# target "the worker that picks up chunk N" deterministically.  An optional
# Budget travels in the initargs (absolute monotonic deadlines stay
# meaningful across processes on Linux), as does the test-only FaultPlan.

# Rebound wholesale by _init_worker in every worker process before any task
# runs, and never read in the parent — fork-inherited contents are inert, so
# worker writes cannot leak across the boundary.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    forest: WDPatternForest,
    width_bound: Optional[int],
    graph: RDFGraph,
    method: str,
    width: Optional[int],
    warm_engine: Optional[Engine] = None,
    budget: Optional[Budget] = None,
    faults: Optional[object] = None,
) -> None:
    if warm_engine is not None:
        # Fork path: the parent's engine (and its warmed cache) arrives by
        # address, not by pickle; reuse it directly.
        engine = warm_engine
    else:
        engine = Engine(forest=forest, width_bound=width_bound, cache=EvaluationCache())
        plan = engine.plan(method, width)
        plan.strategy_obj.warm(engine.forest, graph, plan, engine.cache)
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["method"] = method
    _WORKER_STATE["width"] = width
    _WORKER_STATE["budget"] = budget
    _WORKER_STATE["faults"] = faults


def _worker_contains_chunk(task: Tuple[int, List[Mapping]]) -> List[bool]:
    """The verdicts of one chunk of mappings, decided in a worker process."""
    position, mappings = task
    engine: Engine = _WORKER_STATE["engine"]  # type: ignore[assignment]
    graph: RDFGraph = _WORKER_STATE["graph"]  # type: ignore[assignment]
    faults = _WORKER_STATE["faults"]
    if faults is not None:
        faults.fire(position, graph)  # type: ignore[attr-defined]
    return [
        engine.contains(
            graph,
            mu,
            method=_WORKER_STATE["method"],  # type: ignore[arg-type]
            width=_WORKER_STATE["width"],  # type: ignore[arg-type]
            budget=_WORKER_STATE["budget"],  # type: ignore[arg-type]
        )
        for mu in mappings
    ]


def _start_method() -> str:
    """The effective multiprocessing start method (monkeypatchable seam).

    Uses ``allow_none`` so that pure introspection (``worker_mode()``,
    ``repr``) never fixes the default context as a side effect — a later
    ``multiprocessing.set_start_method()`` in application code must still
    work.  While unfixed, the platform default (the first entry of
    ``get_all_start_methods()``) is what a pool would use.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = multiprocessing.get_all_start_methods()[0]
    return method


def _harvest(future) -> List[bool]:
    """One chunk's verdicts, normalising raw worker escapes to ReproError.

    Library exceptions (including :class:`DeadlineExceeded`) pass through
    unchanged and :class:`BrokenProcessPool` is left to the crash ladder;
    transport-layer failures (broken pipes, EOF on a dead connection) become
    :class:`WorkerCrashError`, and anything else a worker raised becomes
    :class:`EvaluationError` — no raw ``multiprocessing`` exception ever
    escapes a session entry point.
    """
    try:
        return future.result()
    except (ReproError, BrokenProcessPool):
        raise
    except (OSError, EOFError, multiprocessing.ProcessError) as error:
        raise WorkerCrashError(
            f"worker result lost to a transport failure: "
            f"{type(error).__name__}: {error}"
        ) from None
    except Exception as error:
        raise EvaluationError(
            f"evaluation worker failed: {type(error).__name__}: {error}"
        ) from error


def _chunked(mappings: Sequence[Mapping], processes: int) -> List[List[Mapping]]:
    """About four chunks per worker: few messages, and a crash loses little."""
    size = max(1, len(mappings) // (processes * 4))
    return [list(mappings[start : start + size]) for start in range(0, len(mappings), size)]


class EvaluationStatistics:
    """The session's resilience counters (:attr:`Session.statistics`).

    * ``worker_crashes`` — pool executors broken by a dead worker (SIGKILL,
      OOM, ...);
    * ``cells_degraded_serial`` — membership chunks re-run serially in the
      parent after the pool lost them twice;
    * ``deadline_trips`` — budget violations raised by a session entry point.
    """

    __slots__ = ("worker_crashes", "cells_degraded_serial", "deadline_trips")

    def __init__(self) -> None:
        self.worker_crashes = 0
        self.cells_degraded_serial = 0
        self.deadline_trips = 0

    def resilience_summary(self) -> str:
        """One line for ``batch --stats`` and the service's ``stats`` op."""
        return (
            f"{self.worker_crashes} worker crash(es), "
            f"{self.cells_degraded_serial} cell(s) degraded serial, "
            f"{self.deadline_trips} deadline trip(s)"
        )

    def __repr__(self) -> str:
        return f"EvaluationStatistics({self.resilience_summary()})"


class Session:
    """Evaluate many patterns against many graphs through one shared cache.

    The service-layer front door: engines are memoized per pattern
    (structurally for :class:`~repro.sparql.algebra.GraphPattern` inputs),
    every ``method=`` resolves through the pattern's cost-based
    :class:`~repro.evaluation.plan.Planner` (:meth:`plan` / :meth:`explain`
    expose the decision per graph), :meth:`check_many` / :meth:`check_iter`
    batch membership, and :meth:`solutions` / :meth:`solutions_stream`
    enumerate one pattern at a time.  The membership pool warms the
    µ-independent cache state before forking so workers inherit hot indexes
    and kernels.  Every cache/pool/warm feature
    is answer-preserving, and the pool recovers from worker crashes (retry
    once on a fresh executor, then serial re-run in the parent) without
    losing or duplicating answers.

    **Thread safety.**  One session may be driven from multiple threads —
    the :class:`~repro.service.QueryService` evaluates requests on a
    thread pool over one shared session.  The engine memo and the
    session-lifetime resilience counters are lock-guarded here, and the
    shared :class:`~repro.evaluation.cache.EvaluationCache` serializes its
    own structural operations (see its module docs).  The contract is
    *safe for concurrent readers of unmutated graphs*: callers that mutate
    a served graph must serialize the mutation against in-flight calls
    themselves (the service does this with its reader/writer gate).

    Parameters
    ----------
    cache:
        The shared :class:`~repro.evaluation.cache.EvaluationCache`; a fresh
        unbounded one is created when omitted.  Pass
        ``EvaluationCache(max_entries_per_graph)`` to bound it.
    processes:
        Default worker-pool size of :meth:`check_many` / :meth:`check_iter`;
        ``None`` (or 1) keeps everything serial.  Per-call ``processes=``
        overrides it.
    max_engines:
        Bound on the engine memo; the least recently used engines (and the
        source patterns their memo keys hold) are evicted first.  ``None`` (the
        default) means unbounded — like the cache, prefer a bound for
        long-lived sessions serving a stream of distinct ad-hoc patterns.
    faults:
        Test-only :class:`~repro.evaluation.faults.FaultPlan` injecting
        deterministic worker faults into the membership pool; ``None``
        (always, in production) disables injection entirely.

    >>> from repro.sparql import parse_pattern
    >>> from repro.rdf import RDFGraph, Triple
    >>> from repro.sparql.mappings import Mapping
    >>> session = Session()
    >>> g = RDFGraph([Triple.of("a", "knows", "b")])
    >>> p = parse_pattern("((?x knows ?y) OPT (?y email ?e))")
    >>> session.check_many(p, g, [Mapping.of(x="a", y="b")])
    [True]
    """

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        processes: Optional[int] = None,
        max_engines: Optional[int] = None,
        faults: Optional[object] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise EvaluationError("processes must be a positive integer")
        if max_engines is not None and max_engines < 1:
            raise EvaluationError("max_engines must be a positive integer")
        self._cache = cache if cache is not None else EvaluationCache()
        self._processes = processes
        self._max_engines = max_engines
        self._faults = faults
        # Session-lifetime resilience counters.
        self._statistics = EvaluationStatistics()  # guarded-by: _memo_lock
        # Engine memo: (source pattern, width bound) -> engine,
        # insertion-ordered by recency (hits re-insert).  GraphPattern keys
        # compare structurally; Engine and WDPatternForest keys hash by
        # identity, and the key itself keeps its source alive while the
        # entry lives.
        self._engines: Dict[Tuple[PatternLike, Optional[int]], Engine] = {}  # guarded-by: _memo_lock
        # Guards the engine memo (the LRU hit pops and re-inserts) and the
        # session-lifetime resilience counters: the query service drives one
        # session from many threads, and the shared EvaluationCache already
        # carries its own lock.  See the class docstring's thread-safety
        # paragraph.
        self._memo_lock = threading.Lock()

    # --- introspection -----------------------------------------------------
    @property
    def cache(self) -> EvaluationCache:
        """The evaluation cache shared by every engine of this session."""
        return self._cache

    @property
    def engine_count(self) -> int:
        """How many engines the session currently memoizes."""
        with self._memo_lock:
            return len(self._engines)

    @property
    def statistics(self) -> EvaluationStatistics:
        """Session-lifetime resilience counters (worker crashes, serial
        degradations, deadline trips), accumulated across calls."""
        # Documented live-counter publication: the object reference is fixed
        # for the session's lifetime (only the counters inside mutate, under
        # _memo_lock via _note), so handing it out unlocked is safe.
        return self._statistics  # repro: ignore[RP-GUARD]

    def __repr__(self) -> str:
        return (
            f"Session(<{self.engine_count} engines, "
            f"processes={self._processes}, "
            f"workers={self.worker_mode()}>)"
        )

    def worker_mode(self, processes: Optional[int] = None) -> str:
        """The effective worker mode of the membership pool.

        One of ``"serial"`` (no pool would be used), ``"fork-warm"`` (fork
        start method: workers inherit the warmed parent state), or the start
        method name (``"spawn"`` / ``"forkserver"``), under which workers
        start cold.  This is what ``batch --stats`` prints.  Once the
        session has seen resilience events (worker crashes, serial
        degradations, deadline trips) the mode string carries a bracketed
        summary.
        """
        processes = processes if processes is not None else self._processes
        if processes is None or processes <= 1:
            mode = "serial"
        else:
            start_method = _start_method()
            mode = "fork-warm" if start_method == "fork" else start_method
        with self._memo_lock:
            s = self._statistics
            eventful = bool(s.worker_crashes or s.cells_degraded_serial or s.deadline_trips)
            summary = s.resilience_summary() if eventful else ""
        if eventful:
            return f"{mode} [{summary}]"
        return mode

    # --- resilience plumbing ------------------------------------------------
    def _note(self, attr: str) -> None:
        """Bump one of the session's resilience counters."""
        with self._memo_lock:
            setattr(self._statistics, attr, getattr(self._statistics, attr) + 1)

    # --- engines -----------------------------------------------------------
    def engine(self, pattern: PatternLike, width_bound: Optional[int] = None) -> Engine:
        """The session engine for *pattern*, created once and memoized.

        Accepts a :class:`~repro.sparql.algebra.GraphPattern` (memoized
        structurally, so equal patterns share one engine), a
        :class:`~repro.patterns.forest.WDPatternForest`, or an existing
        :class:`Engine` (re-wired onto the session cache when necessary).
        """
        if isinstance(pattern, Engine):
            if pattern.cache is self._cache and width_bound is None:
                # Already wired to this session (typically one of our own
                # memoized engines routed back in): use it as-is.  No memo
                # entry — the caller holds the reference, and re-memoizing
                # it under a second key would defeat the LRU bound.
                return pattern
        elif not isinstance(pattern, (GraphPattern, WDPatternForest)):
            raise EvaluationError(
                f"expected an Engine, GraphPattern or WDPatternForest, "
                f"got {type(pattern).__name__}"
            )
        key = (pattern, width_bound)
        with self._memo_lock:
            hit = self._engines.pop(key, None)
            if hit is not None:
                self._engines[key] = hit  # re-insert at the recent end (LRU)
                return hit
        if isinstance(pattern, Engine):
            engine = Engine(
                pattern.pattern,
                pattern.forest,
                width_bound if width_bound is not None else pattern.width_bound,
                cache=self._cache,
            )
        elif isinstance(pattern, WDPatternForest):
            engine = Engine(forest=pattern, width_bound=width_bound, cache=self._cache)
        else:
            engine = Engine(pattern, width_bound=width_bound, cache=self._cache)
        with self._memo_lock:
            # A concurrent builder may have memoized the same structural key
            # while this engine was constructed; keep the first one so every
            # thread converges on a single shared engine.
            hit = self._engines.pop(key, None)
            if hit is not None:
                self._engines[key] = hit
                return hit
            if self._max_engines is not None:
                while len(self._engines) >= self._max_engines:
                    self._engines.pop(next(iter(self._engines)))
            self._engines[key] = engine
        return engine

    # --- planning ----------------------------------------------------------
    def plan(
        self,
        pattern: PatternLike,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> Plan:
        """The plan :meth:`check` would execute for this pattern/method.

        With a *graph* the plan is resolved per ``(pattern, graph)`` cell
        through the cost model and carries the
        :class:`~repro.evaluation.plan.CostEstimate` — exactly what
        :meth:`check` / :meth:`check_many` run against that graph.
        """
        return self.engine(pattern).plan(method, width, graph=graph)

    def explain(
        self,
        pattern: PatternLike,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> str:
        """Human-readable account of the strategy choice (see :meth:`plan`)."""
        return self.plan(pattern, method, width, graph=graph).explain()

    # --- membership --------------------------------------------------------
    def check(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mu: Mapping,
        method: str = "auto",
        width: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Decide ``µ ∈ ⟦P⟧G`` through the session cache.

        ``deadline`` (seconds) or an explicit ``budget`` bounds the check;
        a violation raises :class:`~repro.exceptions.DeadlineExceeded`.
        """
        try:
            return self.engine(pattern).contains(
                graph, mu, method=method, width=width, deadline=deadline, budget=budget
            )
        except DeadlineExceeded:
            self._note("deadline_trips")
            raise

    def _pool_size(
        self, processes: Optional[int], unique: Sequence[Mapping], plan: Plan
    ) -> int:
        """How many workers a batch of *unique* mappings runs on (0 = serial)."""
        processes = processes if processes is not None else self._processes
        if (
            processes is None
            or processes <= 1
            or len(unique) <= 1
            or not plan.strategy_obj.parallel_safe
        ):
            return 0
        return min(processes, len(unique))

    def check_many(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> List[bool]:
        """Decide ``µ ∈ ⟦P⟧G`` for every mapping, in input order.

        Exactly ``list(check_iter(...))`` over the same arguments: the
        booleans a loop of :meth:`Engine.contains` calls would return, with
        the cache shared across instances, repeated mappings deduplicated,
        the method resolved once per batch and — when *processes* (or the
        session default) asks for it — chunks decided on worker processes.
        """
        return list(
            self.check_iter(
                pattern,
                graph,
                mappings,
                method=method,
                width=width,
                processes=processes,
                deadline=deadline,
                budget=budget,
            )
        )

    def check_iter(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[bool]:
        """Stream the verdicts ``µ ∈ ⟦P⟧G``, in input order.

        The method is resolved once for the batch and each distinct mapping
        is decided once; a repeated mapping replays its first verdict.
        Serially the distinct mappings run through the strategy's lazy
        :meth:`~repro.evaluation.plan.Strategy.contains_iter` hook (the
        naive strategy materialises ``⟦P⟧G`` once per batch); with
        *processes* (or the session default) they are decided in chunks by
        the crash-tolerant pool of :meth:`_pool_map`.  Either way each
        input mapping's verdict is released as soon as it is decided (what
        ``repro batch`` prints).  ``deadline``/``budget`` bound the whole
        batch, parent and workers alike, and raise
        :class:`~repro.exceptions.DeadlineExceeded` mid-iteration.
        """
        engine = self.engine(pattern)
        mappings = list(mappings)
        if not mappings:
            return
        run_budget = budget_from(deadline, budget)
        plan = engine.plan(method, width, graph=graph)
        unique = list(dict.fromkeys(mappings))
        workers = self._pool_size(processes, unique, plan)
        known: Dict[Mapping, bool] = {}
        try:
            if run_budget is not None:
                run_budget.check()  # pre-expired budgets trip up front
            if workers:
                landed = self._pool_map(engine, graph, plan, unique, workers, run_budget)
            else:
                landed = self._decide(engine, graph, plan, unique, run_budget)
            with closing(landed):
                for mu in mappings:
                    while mu not in known:
                        decided, verdict = next(landed)
                        known[decided] = verdict
                    yield known[mu]
        except DeadlineExceeded:
            self._note("deadline_trips")
            raise

    def _decide(
        self,
        engine: Engine,
        graph: RDFGraph,
        plan: Plan,
        mappings: Sequence[Mapping],
        budget: Optional[Budget],
    ) -> Iterator[Tuple[Mapping, bool]]:
        """Decide *mappings* in this process, yielding ``(µ, verdict)``
        lazily, in order."""
        context = EvalContext(cache=self._cache, budget=budget)
        verdicts = plan.strategy_obj.contains_iter(
            engine.pattern, engine.forest, graph, mappings, plan, context
        )
        yield from zip(mappings, verdicts)

    def _pool_map(
        self,
        engine: Engine,
        graph: RDFGraph,
        plan: Plan,
        mappings: Sequence[Mapping],
        workers: int,
        budget: Optional[Budget],
    ) -> Iterator[Tuple[Mapping, bool]]:
        """Decide *mappings* in chunks on worker processes, yielding
        ``(µ, verdict)`` exactly once per mapping, chunk by chunk in
        completion order.

        The crash ladder has three rungs:

        1. verdicts are harvested as chunks land;
        2. a dead worker breaks the executor — every chunk still in flight
           fails with :class:`BrokenProcessPool` — and the chunks without
           verdicts are resubmitted once on a fresh executor;
        3. whatever that executor loses too is re-run serially in the
           parent.

        A *budget* bounds every wait, so a deadline fires while the pool is
        busy; the executor then cancels its queued chunks, and the running
        ones trip their own copy of the budget.
        """
        chunks = _chunked(mappings, workers)
        ctx = multiprocessing.get_context()
        warm_engine: Optional[Engine] = None
        if _start_method() == "fork":
            # Build the µ-independent state once in the parent so the workers
            # fork with warm kernels/indexes instead of rebuilding them.  Only
            # the root-subtree instances: per-mapping witness-subtree lookups
            # would serialise in the parent (Amdahl); workers do those in
            # parallel against the copy-on-write shared kernels.
            plan.strategy_obj.warm(engine.forest, graph, plan, self._cache)
            warm_engine = engine
        faults = None if self._faults is None else self._faults.arm(ctx)  # type: ignore[attr-defined]
        initargs = (
            engine.forest,
            engine.width_bound,
            graph,
            plan.strategy,
            plan.width,
            warm_engine,
            budget,
            faults,
        )
        unfinished = list(range(len(chunks)))
        for _attempt in range(_MAX_POOL_ATTEMPTS):
            if not unfinished:
                return
            lost: List[int] = []
            executor = ProcessPoolExecutor(
                min(workers, len(unfinished)),
                mp_context=ctx,
                initializer=_init_worker,
                initargs=initargs,
            )
            try:
                futures = {}
                for position in unfinished:
                    task = (position, chunks[position])
                    try:
                        future = executor.submit(_worker_contains_chunk, task)
                    except BrokenProcessPool:  # a worker died while we submitted
                        lost.append(position)
                    else:
                        futures[future] = position
                pending = set(futures)
                while pending:
                    done, pending = wait(
                        pending,
                        timeout=None if budget is None else budget.remaining(),
                        return_when=FIRST_COMPLETED,
                    )
                    if budget is not None:
                        budget.check()
                    for future in done:
                        try:
                            verdicts = _harvest(future)
                        except BrokenProcessPool:
                            lost.append(futures[future])
                            continue
                        yield from zip(chunks[futures[future]], verdicts)
            finally:
                executor.shutdown(wait=True, cancel_futures=True)
            if lost:
                self._note("worker_crashes")
            unfinished = sorted(lost)
        for position in unfinished:
            self._note("cells_degraded_serial")
            yield from self._decide(engine, graph, plan, chunks[position], budget)

    def warm(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        width: Optional[int] = None,
    ) -> int:
        """Precompute the µ-independent evaluation state for *graph*.

        For the pebble strategy this builds the shared target index, the
        graph domain, and the consistency kernels of every root-subtree
        child instance; for the natural strategy it builds the target
        index.  Returns the number of kernels ensured.  Warming is a pure
        performance feature — answers are identical with and without it —
        and is what :meth:`check_many` does before forking a worker pool.
        """
        engine = self.engine(pattern)
        plan = engine.plan(method, width, graph=graph)
        return plan.strategy_obj.warm(engine.forest, graph, plan, self._cache)

    # --- enumeration -------------------------------------------------------
    def solutions_stream(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[Mapping]:
        """Stream ``⟦P⟧G`` lazily as a deduplicated generator.

        ``method="auto"`` cost-picks the naive or natural strategy for
        *graph* (the pebble relaxation decides membership only and is
        rejected).  A violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` — at the call when the
        budget is already expired, else mid-stream — and counts one trip on
        :attr:`statistics` either way.
        """
        try:
            stream = self.engine(pattern).solutions_stream(graph, method, deadline, budget)
        except DeadlineExceeded:
            self._note("deadline_trips")
            raise
        return self._counting_trips(stream)

    def _counting_trips(self, stream: Iterator[Mapping]) -> Iterator[Mapping]:
        """*stream*, accounting a mid-stream deadline trip on the session."""
        try:
            yield from stream
        except DeadlineExceeded:
            self._note("deadline_trips")
            raise

    def solutions(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Set[Mapping]:
        """Enumerate the full answer set ``⟦P⟧G`` through the session cache.

        A violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` whose ``partial``
        attribute carries the solutions found before the trip.
        """
        try:
            return self.engine(pattern).solutions(graph, method, deadline, budget)
        except DeadlineExceeded:
            self._note("deadline_trips")
            raise
