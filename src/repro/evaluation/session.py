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
  mappings, decides them lazily in this process, and releases the verdicts
  in input order, identical to a loop of
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` calls;
  :meth:`check_many` is ``list(check_iter(...))``;
* :meth:`solutions` enumerates one pattern's answer set and
  :meth:`solutions_stream` streams it lazily (a deduplicated generator);
  the natural strategy records each tree's answers in the shared cache,
  so a repeated pattern over an unchanged graph replays them;
* wall-clock / step budgets (:class:`~repro.evaluation.budget.Budget`)
  bound every entry point, which reports a violated budget one way, by
  raising :class:`~repro.exceptions.DeadlineExceeded` (counted once on
  :attr:`Session.statistics`); a stream yields its partial results before
  it raises.
"""

from __future__ import annotations

import threading
from contextlib import closing
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .budget import Budget, budget_from
from .cache import EvaluationCache
from .context import EvalContext
from .engine import Engine
from .plan import Plan
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..exceptions import DeadlineExceeded, EvaluationError

__all__ = ["Session", "PatternLike", "EvaluationStatistics"]

#: Anything a session entry point accepts as "a pattern".
PatternLike = Union[Engine, GraphPattern, WDPatternForest]


class EvaluationStatistics:
    """The session's resilience counter (:attr:`Session.statistics`):
    ``deadline_trips``, the budget violations raised by a session entry
    point."""

    __slots__ = ("deadline_trips",)

    def __init__(self) -> None:
        self.deadline_trips = 0

    def resilience_summary(self) -> str:
        """One line for ``batch --stats`` and the service's ``stats`` op."""
        return f"{self.deadline_trips} deadline trip(s)"

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
    enumerate one pattern at a time.  Every cache feature is
    answer-preserving.

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
    max_engines:
        Bound on the engine memo; the least recently used engines (and the
        source patterns their memo keys hold) are evicted first.  ``None`` (the
        default) means unbounded — like the cache, prefer a bound for
        long-lived sessions serving a stream of distinct ad-hoc patterns.

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
        max_engines: Optional[int] = None,
    ) -> None:
        if max_engines is not None and max_engines < 1:
            raise EvaluationError("max_engines must be a positive integer")
        self._cache = cache if cache is not None else EvaluationCache()
        self._max_engines = max_engines
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
        """Session-lifetime resilience counter (deadline trips), accumulated
        across calls."""
        # Documented live-counter publication: the object reference is fixed
        # for the session's lifetime (only the counter inside mutates, under
        # _memo_lock via _note_trip), so handing it out unlocked is safe.
        return self._statistics  # repro: ignore[RP-GUARD]

    def __repr__(self) -> str:
        return f"Session(<{self.engine_count} engines>)"

    def _note_trip(self) -> None:
        """Count one deadline trip on the session."""
        with self._memo_lock:
            self._statistics.deadline_trips += 1

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
            self._note_trip()
            raise

    def check_many(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        method: str = "auto",
        width: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> List[bool]:
        """Decide ``µ ∈ ⟦P⟧G`` for every mapping, in input order.

        Exactly ``list(check_iter(...))`` over the same arguments: the
        booleans a loop of :meth:`Engine.contains` calls would return, with
        the cache shared across instances, repeated mappings deduplicated
        and the method resolved once per batch.
        """
        return list(
            self.check_iter(
                pattern,
                graph,
                mappings,
                method=method,
                width=width,
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
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[bool]:
        """Stream the verdicts ``µ ∈ ⟦P⟧G``, in input order.

        The method is resolved once for the batch and each distinct mapping
        is decided once, through the strategy's lazy
        :meth:`~repro.evaluation.plan.Strategy.contains_iter` hook (the
        naive strategy materialises ``⟦P⟧G`` once per batch); a repeated
        mapping replays its first verdict.  Each input mapping's verdict is
        released as soon as it is decided (what ``repro batch`` prints).
        ``deadline``/``budget`` bound the whole batch and raise
        :class:`~repro.exceptions.DeadlineExceeded` mid-iteration.
        """
        engine = self.engine(pattern)
        mappings = list(mappings)
        if not mappings:
            return
        run_budget = budget_from(deadline, budget)
        plan = engine.plan(method, width, graph=graph)
        unique = list(dict.fromkeys(mappings))
        known: Dict[Mapping, bool] = {}
        try:
            if run_budget is not None:
                run_budget.check()  # pre-expired budgets trip up front
            context = EvalContext(cache=self._cache, budget=run_budget)
            verdicts = plan.strategy_obj.contains_iter(
                engine.pattern, engine.forest, graph, unique, plan, context
            )
            with closing(verdicts):
                # `unique` keeps first occurrences in input order, so the
                # next verdict is always that of the next unseen mapping.
                for mu in mappings:
                    if mu not in known:
                        known[mu] = next(verdicts)
                    yield known[mu]
        except DeadlineExceeded:
            self._note_trip()
            raise

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
            self._note_trip()
            raise
        return self._counting_trips(stream)

    def _counting_trips(self, stream: Iterator[Mapping]) -> Iterator[Mapping]:
        """*stream*, accounting a mid-stream deadline trip on the session."""
        try:
            yield from stream
        except DeadlineExceeded:
            self._note_trip()
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
            self._note_trip()
            raise
