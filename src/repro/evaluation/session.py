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
* :meth:`check_many` answers many mappings (deduplicated, optionally over a
  worker-process pool) with answers guaranteed identical to a loop of
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` calls,
  and :meth:`check_iter` streams the same verdicts in input order;
* :meth:`solutions_stream` enumerates lazily (a deduplicated generator);
  :meth:`solutions_many` batches enumeration over many patterns × many
  graphs — duplicate cells are evaluated once and fanned back out — and
  :meth:`solutions_iter` streams those batched results per solution;
* the membership pool is **crash-aware**: a dead worker breaks its
  executor, the unfinished chunks are resubmitted once on a fresh one, and
  a second failure re-runs the remainder serially in the parent — answers
  are never lost and never duplicated, and the recovery is accounted in
  :class:`~repro.evaluation.wdeval.EvaluationStatistics`
  (``worker_crashes`` / ``cells_degraded_serial``);
* wall-clock / step budgets (:class:`~repro.evaluation.budget.Budget`)
  travel with the chunks into the workers; a deadline-bounded
  :meth:`solutions_iter` yields its partial results and then a terminal
  :class:`~repro.evaluation.budget.TimeoutReport` instead of hanging; and
  a deterministic fault-injection harness
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

from .budget import Budget, TimeoutReport, budget_from
from .cache import EvaluationCache
from .context import EvalContext
from .engine import Engine
from .plan import Plan
from .wdeval import EvaluationStatistics
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

__all__ = ["Session", "PatternLike"]

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

# fork-safe: rebound wholesale by _init_worker in every worker process
# before any task runs, and never read in the parent — fork-inherited
# contents are inert, so worker writes cannot leak across the boundary.
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


class Session:
    """Evaluate many patterns against many graphs through one shared cache.

    The service-layer front door: engines are memoized per pattern
    (structurally for :class:`~repro.sparql.algebra.GraphPattern` inputs),
    every ``method=`` resolves through the pattern's cost-based
    :class:`~repro.evaluation.plan.Planner` (:meth:`plan` / :meth:`explain`
    expose the decision per graph), :meth:`check_many` / :meth:`check_iter`
    batch membership, :meth:`solutions_many` batches enumeration, and
    :meth:`solutions_iter` streams batched enumeration results.  The
    membership pool warms the µ-independent cache state before forking so
    workers inherit hot indexes and kernels.  Every cache/pool/warm feature
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
        one is created when omitted (bounded by *max_entries_per_graph*).
    processes:
        Default worker-pool size of :meth:`check_many` / :meth:`check_iter`;
        ``None`` (or 1) keeps everything serial.  Per-call ``processes=``
        overrides it.
    max_entries_per_graph:
        Budget for the implicitly created cache (ignored when *cache* is
        given); see :class:`~repro.evaluation.cache.EvaluationCache`.
    max_engines:
        Bound on the engine memo; the least recently used engines (and the
        pins on their source patterns) are evicted first.  ``None`` (the
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
        max_entries_per_graph: Optional[int] = None,
        max_engines: Optional[int] = None,
        faults: Optional[object] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise EvaluationError("processes must be a positive integer")
        if max_engines is not None and max_engines < 1:
            raise EvaluationError("max_engines must be a positive integer")
        self._cache = (
            cache if cache is not None else EvaluationCache(max_entries_per_graph)
        )
        self._processes = processes
        self._max_engines = max_engines
        self._faults = faults
        # Session-lifetime resilience counters; per-call `statistics=`
        # arguments additionally receive the events of their own call.
        self._statistics = EvaluationStatistics()
        # Engine memo: key -> (source object, engine), insertion-ordered by
        # recency (hits re-insert).  The source reference keeps id()-based
        # keys valid while the entry lives; eviction drops both.
        self._engines: Dict[object, Tuple[object, Engine]] = {}
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
        """Session-lifetime counters (resilience events accumulate here
        across calls; see
        :meth:`EvaluationStatistics.resilience_summary
        <repro.evaluation.wdeval.EvaluationStatistics.resilience_summary>`)."""
        # Documented live-counter publication: the object reference is fixed
        # for the session's lifetime (only the counters inside mutate, under
        # _memo_lock via _note/_trip), so handing it out unlocked is safe.
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
    def _note(self, attr: str, statistics: Optional[EvaluationStatistics]) -> None:
        """Bump a resilience counter on the session (and per-call) stats."""
        with self._memo_lock:
            setattr(self._statistics, attr, getattr(self._statistics, attr) + 1)
        if statistics is not None:
            setattr(statistics, attr, getattr(statistics, attr) + 1)

    def _trip(
        self, statistics: Optional[EvaluationStatistics], exc: DeadlineExceeded
    ) -> None:
        """Account a deadline trip once, wherever it was first raised."""
        with self._memo_lock:
            self._statistics.deadline_trips += 1
        if statistics is not None and exc.statistics is not statistics:
            # Not yet accounted on this object by a lower layer (Engine
            # attaches the statistics it bumped to the exception).
            statistics.deadline_trips += 1
            if exc.statistics is None:
                exc.statistics = statistics

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
                # under a second id-based key would defeat the LRU bound.
                return pattern
            key = ("engine", id(pattern), width_bound)
        elif isinstance(pattern, GraphPattern):
            key = ("pattern", pattern, width_bound)
        elif isinstance(pattern, WDPatternForest):
            key = ("forest", id(pattern), width_bound)
        else:
            raise EvaluationError(
                f"expected an Engine, GraphPattern or WDPatternForest, "
                f"got {type(pattern).__name__}"
            )
        with self._memo_lock:
            hit = self._engines.pop(key, None)
            if hit is not None:
                self._engines[key] = hit  # re-insert at the recent end (LRU)
                return hit[1]
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
                return hit[1]
            if self._max_engines is not None:
                while len(self._engines) >= self._max_engines:
                    self._engines.pop(next(iter(self._engines)))
            self._engines[key] = (pattern, engine)
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
        statistics: Optional[EvaluationStatistics] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Decide ``µ ∈ ⟦P⟧G`` through the session cache.

        ``deadline`` (seconds) or an explicit ``budget`` bounds the check;
        a violation raises :class:`~repro.exceptions.DeadlineExceeded`.
        """
        try:
            return self.engine(pattern).contains(
                graph,
                mu,
                method=method,
                width=width,
                statistics=statistics,
                deadline=deadline,
                budget=budget,
            )
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
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
        statistics: Optional[EvaluationStatistics] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> List[bool]:
        """Decide ``µ ∈ ⟦P⟧G`` for every mapping, in input order.

        Guaranteed to return exactly the booleans a loop of
        :meth:`Engine.contains` calls would, but sharing the cache across
        instances, deduplicating repeated mappings, resolving the method
        once per batch, and — when *processes* (or the session default) asks
        for it — deciding chunks of the instances on worker processes.  The
        pool is crash-tolerant: chunks lost to a dead worker are retried
        once on a fresh executor and then re-run serially in the parent
        (events are counted on *statistics* and on :attr:`statistics`).
        ``deadline``/``budget`` bound the whole batch, parent and workers
        alike; a violation raises
        :class:`~repro.exceptions.DeadlineExceeded`.

        The algorithmic counters of *statistics* (trees visited, child
        checks, ...) are only accumulated on the serial path; worker-side
        counters are not collected.
        """
        engine = self.engine(pattern)
        mappings = list(mappings)
        if not mappings:
            return []
        run_budget = budget_from(deadline, budget)
        plan = engine.plan(method, width, graph=graph)
        unique = list(dict.fromkeys(mappings))
        workers = self._pool_size(processes, unique, plan)
        try:
            if run_budget is not None:
                run_budget.check()  # pre-expired budgets trip up front
            if workers:
                chunks = _chunked(unique, workers)
                landed = dict(
                    self._pool_map(engine, graph, plan, chunks, workers, run_budget, statistics)
                )
                verdicts = [
                    answer for position in range(len(chunks)) for answer in landed[position]
                ]
            else:
                context = EvalContext(
                    cache=self._cache, statistics=statistics, budget=run_budget
                )
                verdicts = plan.strategy_obj.contains_many(
                    engine.pattern, engine.forest, graph, unique, plan, context
                )
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
            raise
        answers = dict(zip(unique, verdicts))
        return [answers[mu] for mu in mappings]

    def check_iter(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        statistics: Optional[EvaluationStatistics] = None,
        processes: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[bool]:
        """Stream the verdicts of :meth:`check_many`, in input order.

        Yields exactly the booleans :meth:`check_many` would return over the
        same arguments, but incrementally — each verdict as soon as it is
        decided, instead of blocking until the whole batch is done (what
        ``batch --stream`` prints).  Repeated mappings replay their first
        verdict.  With *processes* (or the session default) the distinct
        mappings are decided in chunks by the same crash-tolerant pool as
        :meth:`check_many`, and each input mapping's verdict is released as
        soon as its chunk lands; the algorithmic *statistics* counters are
        only accumulated on the serial path.  ``deadline``/``budget`` bound
        the whole stream and raise
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
                chunks = _chunked(unique, workers)
                with closing(
                    self._pool_map(engine, graph, plan, chunks, workers, run_budget, statistics)
                ) as landed:
                    for mu in mappings:
                        while mu not in known:
                            position, verdicts = next(landed)
                            known.update(zip(chunks[position], verdicts))
                        yield known[mu]
                return
            for mu in mappings:
                if mu not in known:
                    known[mu] = engine.contains(
                        graph,
                        mu,
                        method=method,
                        width=width,
                        statistics=statistics,
                        budget=run_budget,
                    )
                yield known[mu]
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
            raise

    def _pool_map(
        self,
        engine: Engine,
        graph: RDFGraph,
        plan: Plan,
        chunks: Sequence[List[Mapping]],
        workers: int,
        budget: Optional[Budget] = None,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> Iterator[Tuple[int, List[bool]]]:
        """Decide *chunks* on worker processes, yielding ``(position,
        verdicts)`` exactly once per chunk, in completion order.

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
        ctx = multiprocessing.get_context()
        warm_engine: Optional[Engine] = None
        if _start_method() == "fork":
            # Build the µ-independent state once in the parent so the workers
            # fork with warm kernels/indexes instead of rebuilding them.  No
            # mappings here on purpose: per-mapping witness-subtree lookups
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
                        yield futures[future], verdicts
            finally:
                executor.shutdown(wait=True, cancel_futures=True)
            if lost:
                self._note("worker_crashes", statistics)
            unfinished = sorted(lost)
        for position in unfinished:
            self._note("cells_degraded_serial", statistics)
            yield position, [
                engine.contains(graph, mu, method=plan.strategy, width=plan.width, budget=budget)
                for mu in chunks[position]
            ]

    def warm(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Optional[Iterable[Mapping]] = None,
        method: str = "auto",
        width: Optional[int] = None,
    ) -> int:
        """Precompute the µ-independent evaluation state for *graph*.

        For the pebble strategy this builds the shared target index, the
        graph domain, and the consistency kernels of every ``(witness
        subtree, child)`` instance the given *mappings* reach (the
        root-subtree instances when no mappings are given); for the natural
        strategy it builds the target index.  Returns the number of kernels
        ensured.  Warming is a pure performance feature — answers are
        identical with and without it — and is what :meth:`check_many` does
        before forking a worker pool.
        """
        engine = self.engine(pattern)
        plan = engine.plan(method, width, graph=graph)
        return plan.strategy_obj.warm(engine.forest, graph, plan, self._cache, mappings)

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

        ``method="auto"`` resolves to the natural strategy (the planner
        rejects the pebble strategy, which decides membership only).  A
        violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` mid-stream.
        """
        return self.engine(pattern).solutions_stream(graph, method, deadline, budget)

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
        except DeadlineExceeded as exc:
            self._trip(None, exc)
            raise

    def _distinct_cells(
        self, engines: Sequence[Engine], graph_list: Sequence[RDFGraph]
    ) -> List[Tuple[Engine, RDFGraph, Tuple[int, int]]]:
        """The distinct ``(engine, graph)`` cells in first-occurrence order."""
        seen: Set[Tuple[int, int]] = set()
        order: List[Tuple[Engine, RDFGraph, Tuple[int, int]]] = []
        for engine in engines:
            for graph in graph_list:
                key = (id(engine), id(graph))
                if key not in seen:
                    seen.add(key)
                    order.append((engine, graph, key))
        return order

    def solutions_many(
        self,
        patterns: Sequence[PatternLike],
        graphs: Union[RDFGraph, Sequence[RDFGraph]],
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> Union[List[Set[Mapping]], List[List[Set[Mapping]]]]:
        """Batched enumeration over many patterns × many graphs.

        Returns one answer set per ``(pattern, graph)`` cell: a flat list
        (one set per pattern) when *graphs* is a single graph, else a matrix
        with one row per pattern and one column per graph.  Duplicate cells
        — repeated patterns (structurally, for
        :class:`~repro.sparql.algebra.GraphPattern` inputs) or repeated
        graphs — are enumerated **once** and fanned back out, and all cells
        share the session cache.  Answer sets are guaranteed identical to
        per-pattern :meth:`Engine.solutions
        <repro.evaluation.engine.Engine.solutions>` calls.
        ``deadline``/``budget`` bound the whole batch and raise
        :class:`~repro.exceptions.DeadlineExceeded` (counted on *statistics*
        and on :attr:`statistics`).  For results as they are discovered,
        use :meth:`solutions_iter`.
        """
        single = isinstance(graphs, RDFGraph)
        graph_list: List[RDFGraph] = [graphs] if single else list(graphs)
        engines = [self.engine(pattern) for pattern in patterns]
        run_budget = budget_from(deadline, budget)
        try:
            distinct: Dict[Tuple[int, int], Set[Mapping]] = {
                key: engine.solutions(graph, method, budget=run_budget)
                for engine, graph, key in self._distinct_cells(engines, graph_list)
            }
        except DeadlineExceeded as exc:
            self._trip(statistics, exc)
            raise

        # Duplicate cells fan out as *independent copies*, exactly like the
        # equivalent loop of per-pattern Engine.solutions calls; a cell used
        # once hands out the computed set itself (no copy).
        uses = {key: 0 for key in distinct}
        for engine in engines:
            for graph in graph_list:
                uses[(id(engine), id(graph))] += 1

        def hand_out(key: Tuple[int, int]) -> Set[Mapping]:
            uses[key] -= 1
            answers = distinct[key]
            return set(answers) if uses[key] > 0 else answers

        matrix = [
            [hand_out((id(engine), id(graph))) for graph in graph_list] for engine in engines
        ]
        if single:
            return [row[0] for row in matrix]
        return matrix

    def solutions_iter(
        self,
        patterns: Sequence[PatternLike],
        graphs: Union[RDFGraph, Sequence[RDFGraph]],
        method: str = "auto",
        order: str = "submitted",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
        statistics: Optional[EvaluationStatistics] = None,
    ) -> Iterator[Union[Tuple[Tuple[int, int], Mapping], TimeoutReport]]:
        """Stream batched enumeration results as they are discovered.

        Yields ``((pattern_index, graph_index), mapping)`` pairs covering
        exactly the same answer sets as :meth:`solutions_many` over the same
        inputs, but incrementally — consumers see the first solutions while
        later cells are still unevaluated, instead of waiting for the whole
        batch.  *graphs* may be a single graph (all cells then have
        ``graph_index == 0``) or a sequence.

        Cells are evaluated in input order, row by row, every solution of a
        cell before the next cell: the first occurrence of a cell is
        consumed lazily from :meth:`solutions_stream`, and repeated cells
        replay the recorded answers.  Cells therefore also complete in
        submission order, so ``order="submitted"`` (the default) and
        ``order="completed"`` yield the same stream.

        With a ``deadline``/``budget``, the stream yields whatever it
        discovered in time and then **exactly one terminal**
        :class:`~repro.evaluation.budget.TimeoutReport` (instead of raising
        mid-iteration), then stops; check ``isinstance(item,
        TimeoutReport)`` when consuming bounded streams.
        """
        if order not in ("submitted", "completed"):
            raise EvaluationError(
                f"order must be 'submitted' or 'completed', got {order!r}"
            )
        single = isinstance(graphs, RDFGraph)
        graph_list: List[RDFGraph] = [graphs] if single else list(graphs)
        engines = [self.engine(pattern) for pattern in patterns]
        run_budget = budget_from(deadline, budget)
        cells: List[Tuple[Tuple[int, int], Tuple[int, int]]] = [
            ((i, j), (id(engine), id(graph)))
            for i, engine in enumerate(engines)
            for j, graph in enumerate(graph_list)
        ]
        uses: Dict[Tuple[int, int], int] = {}
        for _cell, key in cells:
            uses[key] = uses.get(key, 0) + 1
        by_key = {
            key: (engine, graph)
            for engine, graph, key in self._distinct_cells(engines, graph_list)
        }
        done: Dict[Tuple[int, int], Set[Mapping]] = {}
        cells_done = 0
        solutions_yielded = 0
        try:
            for cell, key in cells:
                if key in done:
                    for mu in done[key]:
                        yield cell, mu
                        solutions_yielded += 1
                    cells_done += 1
                    continue
                engine, graph = by_key[key]
                recorder: Optional[Set[Mapping]] = set() if uses[key] > 1 else None
                for mu in engine.solutions_stream(graph, method, budget=run_budget):
                    if recorder is not None:
                        recorder.add(mu)
                    yield cell, mu
                    solutions_yielded += 1
                if recorder is not None:
                    done[key] = recorder
                cells_done += 1
        except DeadlineExceeded:
            self._note("deadline_trips", statistics)
            elapsed, allowance = 0.0, None
            if run_budget is not None:
                elapsed = run_budget.elapsed()
                if run_budget.expires_at is not None:
                    allowance = run_budget.expires_at - run_budget.started_at
            yield TimeoutReport(
                elapsed=elapsed,
                deadline=allowance,
                cells_done=cells_done,
                cells_pending=len(cells) - cells_done,
                solutions_yielded=solutions_yielded,
                statistics=statistics,
                pending=tuple(f"cell {cell}" for cell, _key in cells[cells_done:]),
            )
