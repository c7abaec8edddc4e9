"""A unified evaluation facade.

:class:`Engine` wraps a well-designed graph pattern (or a pre-built forest)
and exposes the three evaluation strategies side by side:

* ``method="naive"`` — the compositional Pérez et al. semantics (reference);
* ``method="natural"`` — the wdPF algorithm with exact homomorphism tests
  (the coNP baseline);
* ``method="pebble"`` — the Theorem 1 algorithm (polynomial; exact when the
  per-call ``width`` dominates the pattern's domination width);
* ``method="auto"`` — pebble when a width is declared on the call or the
  pattern's domination width has already been computed, otherwise the
  natural algorithm.

A declared width is an argument of each call (``contains``, ``plan``), the
same claim the wire, ``repro check`` and ``repro batch`` carry per request;
the engine itself holds no width.

Method resolution lives in exactly one place: the engine's
:class:`~repro.evaluation.plan.Planner`.  :meth:`contains` and the
session's batch loop
(:meth:`Session.check_iter <repro.evaluation.session.Session.check_iter>`)
both delegate to it, and :meth:`plan` exposes the resolved
:class:`~repro.evaluation.plan.Plan` — ``plan(...).explain()`` says *why*
the pebble strategy was (not) chosen.  A check returns its verdict and
nothing else.

The engine also enumerates complete answer sets and exposes the pattern's
width measures, which is what the examples and the experiment harness use.
For many patterns / many graphs behind one shared cache, see
:class:`~repro.evaluation.session.Session`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from .budget import Budget, budget_from
from .cache import EvaluationCache
from .context import EvalContext
from .plan import Plan, Planner, PatternStats
from ..patterns.build import pattern_of_forest, wdpf
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping
from ..exceptions import DeadlineExceeded, EvaluationError

__all__ = ["Engine"]


class Engine:
    """Evaluation engine for a single well-designed graph pattern.

    Parameters
    ----------
    pattern:
        A well-designed :class:`~repro.sparql.algebra.GraphPattern`, or
        ``None`` when *forest* is given directly.
    forest:
        An already-built :class:`~repro.patterns.forest.WDPatternForest`
        (for example one of the paper's tree-defined families).
    cache:
        An optional :class:`~repro.evaluation.cache.EvaluationCache`.  When
        given, the natural membership path memoizes homomorphism tests and
        the pebble path shares one consistency kernel per child instance,
        per graph version.  One cache may be shared between many engines;
        results are identical with and without it.
    """

    def __init__(
        self,
        pattern: Optional[GraphPattern] = None,
        forest: Optional[WDPatternForest] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        if pattern is None and forest is None:
            raise EvaluationError("Engine requires a pattern or a forest")
        if forest is None:
            forest = wdpf(pattern)
        if pattern is None:
            pattern = pattern_of_forest(forest)
        self._pattern = pattern
        self._forest = forest
        self._domination_width: Optional[int] = None
        self._pattern_stats: Optional[PatternStats] = None
        self._planner = Planner(
            known_width=lambda: self._domination_width,
            width_oracle=self.domination_width,
            pattern_stats=self.pattern_stats,
        )
        self._context = EvalContext(cache=cache)

    # --- introspection -----------------------------------------------------------
    @property
    def pattern(self) -> GraphPattern:
        """The graph pattern being evaluated."""
        return self._pattern

    @property
    def forest(self) -> WDPatternForest:
        """The wdPF representation used by the structural algorithms."""
        return self._forest

    @property
    def cache(self) -> Optional[EvaluationCache]:
        """The evaluation cache attached to this engine (if any)."""
        return self._context.cache

    @property
    def planner(self) -> Planner:
        """The planner resolving ``method=`` arguments for this engine."""
        return self._planner

    def pattern_stats(self) -> PatternStats:
        """Cheap structural statistics of the pattern (computed once).

        These feed the planner's :class:`~repro.evaluation.plan.CostModel`
        whenever a plan is resolved for a concrete graph.
        """
        if self._pattern_stats is None:
            self._pattern_stats = PatternStats.of(self._forest)
        return self._pattern_stats

    def domination_width(self) -> int:
        """The (computed and cached) domination width of the pattern.

        This is expensive; it is computed lazily and only when requested or
        when ``method="pebble"`` needs a bound and none was supplied.  Once
        computed, ``method="auto"`` upgrades to the pebble strategy with
        this certified bound.
        """
        if self._domination_width is None:
            from ..width.domination import domination_width

            self._domination_width = domination_width(self._forest)
        return self._domination_width

    # --- planning ----------------------------------------------------------------------
    def plan(
        self,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> Plan:
        """The :class:`~repro.evaluation.plan.Plan` that :meth:`contains`
        would execute for ``(method, width)``.

        With a *graph* the plan is resolved **per cell**: it carries the
        planner's :class:`~repro.evaluation.plan.CostEstimate` and ``auto``
        picks the cheapest admissible strategy for that graph (this is what
        :meth:`contains` does).  Without one the graph-free rules apply.
        Plans are memoized, so repeated calls return the same frozen object.
        """
        return self._planner.plan(method, width, graph=graph)

    # --- membership --------------------------------------------------------------------
    def contains(
        self,
        graph: RDFGraph,
        mu: Mapping,
        method: str = "auto",
        width: Optional[int] = None,
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> bool:
        """Decide ``µ ∈ ⟦P⟧G``.

        ``width`` declares ``dw(P) <= width`` for the pebble method (and lets
        ``auto`` choose it); without one, pebble uses the domination width,
        computing it if need be.  ``method="auto"`` resolves through the cost
        model for *graph* (the resolved plan is memoized, so tight loops over
        one graph pay the planning cost once).  ``deadline`` (seconds) or an explicit
        ``budget`` bounds the check; a violation raises
        :class:`~repro.exceptions.DeadlineExceeded`.
        """
        plan = self._planner.plan(method, width, graph=graph)
        context = self._context.with_budget(budget_from(deadline, budget))
        # Up-front check: a pre-expired budget must trip even when the
        # instance is small enough to finish between amortized ticks.
        context.check_budget()
        return plan.strategy_obj.contains(self._pattern, self._forest, graph, mu, plan, context)

    # --- enumeration -------------------------------------------------------------------------
    def solutions(
        self,
        graph: RDFGraph,
        method: str = "natural",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Set[Mapping]:
        """Enumerate the full answer set ``⟦P⟧G``.

        ``method="auto"`` resolves to the natural strategy, as the default
        does (the pebble relaxation decides membership only and is
        rejected).  A violated ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` whose ``partial``
        attribute holds the solutions found before the trip.
        """
        partial: Set[Mapping] = set()
        try:
            partial.update(self.solutions_stream(graph, method, deadline, budget))
        except DeadlineExceeded as exc:
            if not exc.partial:
                exc.partial = tuple(partial)
            raise
        return partial

    def solutions_stream(
        self,
        graph: RDFGraph,
        method: str = "natural",
        deadline: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> Iterator[Mapping]:
        """Stream ``⟦P⟧G`` as a deduplicated generator (same methods as
        :meth:`solutions`; ``method="auto"`` is natural).  A violated
        ``deadline``/``budget`` raises
        :class:`~repro.exceptions.DeadlineExceeded` mid-stream."""
        plan = self._planner.plan_enumeration(method)
        context = self._context.with_budget(budget_from(deadline, budget))
        context.check_budget()  # pre-expired budgets trip before streaming
        return plan.strategy_obj.solutions_stream(
            self._pattern, self._forest, graph, context
        )
