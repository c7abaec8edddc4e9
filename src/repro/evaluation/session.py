"""A multi-pattern, multi-graph evaluation workspace.

Serving realistic wdEVAL traffic means answering *sets* of instances — many
candidate mappings, many patterns, many graphs — behind one shared cache.
:class:`Session` is that workspace, and it holds only what it adds over an
:class:`~repro.evaluation.engine.Engine`:

* engines are created (and memoized) per pattern through one shared
  :class:`~repro.evaluation.cache.EvaluationCache`, so structurally
  overlapping patterns reuse each other's homomorphism tests, kernels and
  target indexes; everything else an engine offers (a single ``contains``,
  ``plan(...).explain()``, ``solutions_stream``) is reached through
  :meth:`engine`;
* :meth:`check_iter` is the one membership batch loop: it resolves the
  ``method=``/``width=`` pair once through the pattern's
  :class:`~repro.evaluation.plan.Planner`, deduplicates the mappings,
  decides them lazily in this process, and releases the verdicts in input
  order, identical to a loop of
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` calls;
  :meth:`check_many` is ``list(check_iter(...))``;
* :meth:`solutions` enumerates one pattern's answer set; the natural
  strategy records each tree's answers in the shared cache, so a repeated
  pattern over an unchanged graph replays them;
* wall-clock / step budgets (:class:`~repro.evaluation.budget.Budget`)
  bound every entry point, which reports a violated budget one way, by
  raising :class:`~repro.exceptions.DeadlineExceeded`.
"""

from __future__ import annotations

import threading
from contextlib import closing
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from .budget import Budget, budget_from
from .cache import EvaluationCache
from .context import EvalContext
from .engine import Engine
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..exceptions import EvaluationError

__all__ = ["Session", "PatternLike"]

#: Anything a session entry point accepts as "a pattern".
PatternLike = Union[Engine, GraphPattern, WDPatternForest]


class Session:
    """Evaluate many patterns against many graphs through one shared cache.

    The service-layer front door: engines are memoized per pattern
    (structurally for :class:`~repro.sparql.algebra.GraphPattern` inputs),
    :meth:`check_many` / :meth:`check_iter` batch membership, and
    :meth:`solutions` enumerates one pattern at a time.  A declared width is
    a per-call ``width=`` argument, never a property of the session or of
    its engines.  Every cache feature is answer-preserving.

    **Thread safety.**  One session may be driven from multiple threads —
    the :class:`~repro.service.QueryService` evaluates requests on a
    thread pool over one shared session.  The engine memo is lock-guarded
    here, and the shared :class:`~repro.evaluation.cache.EvaluationCache`
    serializes its own structural operations (see its module docs).  The
    contract is *safe for concurrent readers of unmutated graphs*: callers
    that mutate a served graph must serialize the mutation against
    in-flight calls themselves (the service does this with its
    reader/writer gate).

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
    >>> session.engine(p).plan("pebble", width=1, graph=g).summary()
    'pebble(k=1, trusted)'
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
        # Engine memo: source pattern -> engine, insertion-ordered by
        # recency (hits re-insert).  GraphPattern keys compare structurally;
        # Engine and WDPatternForest keys hash by identity, and the key
        # itself keeps its source alive while the entry lives.
        self._engines: Dict[PatternLike, Engine] = {}  # guarded-by: _memo_lock
        # Guards the engine memo (the LRU hit pops and re-inserts): the
        # query service drives one session from many threads, and the shared
        # EvaluationCache already carries its own lock.  See the class
        # docstring's thread-safety paragraph.
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

    def __repr__(self) -> str:
        return f"Session(<{self.engine_count} engines>)"

    # --- engines -----------------------------------------------------------
    def engine(self, pattern: PatternLike) -> Engine:
        """The session engine for *pattern*, created once and memoized.

        Accepts a :class:`~repro.sparql.algebra.GraphPattern` (memoized
        structurally, so equal patterns share one engine), a
        :class:`~repro.patterns.forest.WDPatternForest`, or an existing
        :class:`Engine` (re-wired onto the session cache when necessary).
        """
        if isinstance(pattern, Engine):
            if pattern.cache is self._cache:
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
        with self._memo_lock:
            hit = self._engines.pop(pattern, None)
            if hit is not None:
                self._engines[pattern] = hit  # re-insert at the recent end (LRU)
                return hit
        if isinstance(pattern, Engine):
            engine = Engine(pattern.pattern, pattern.forest, cache=self._cache)
        elif isinstance(pattern, WDPatternForest):
            engine = Engine(forest=pattern, cache=self._cache)
        else:
            engine = Engine(pattern, cache=self._cache)
        with self._memo_lock:
            # A concurrent builder may have memoized the same structural key
            # while this engine was constructed; keep the first one so every
            # thread converges on a single shared engine.
            hit = self._engines.pop(pattern, None)
            if hit is not None:
                self._engines[pattern] = hit
                return hit
            if self._max_engines is not None:
                while len(self._engines) >= self._max_engines:
                    self._engines.pop(next(iter(self._engines)))
            self._engines[pattern] = engine
        return engine

    # --- membership --------------------------------------------------------
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
        if run_budget is not None:
            run_budget.check()  # pre-expired budgets trip up front
        context = EvalContext(cache=self._cache, budget=run_budget)
        verdicts = plan.strategy_obj.contains_iter(
            engine.pattern, engine.forest, graph, unique, plan, context
        )
        with closing(verdicts):
            # `unique` keeps first occurrences in input order, so the next
            # verdict is always that of the next unseen mapping.
            for mu in mappings:
                if mu not in known:
                    known[mu] = next(verdicts)
                yield known[mu]

    # --- enumeration -------------------------------------------------------
    def solutions(
        self,
        pattern: PatternLike,
        graph: RDFGraph,
        method: str = "auto",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Set[Mapping]:
        """Enumerate the full answer set ``⟦P⟧G`` through the session cache.

        A bare forward to the session engine's
        :meth:`~repro.evaluation.engine.Engine.solutions`, kept because the
        query service and the repository benchmark enumerate through the
        session by this name, and its default is ``method="auto"``.  A
        violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` whose ``partial``
        attribute carries the solutions found before the trip.
        """
        return self.engine(pattern).solutions(graph, method, deadline, budget)
