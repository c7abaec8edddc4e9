"""Declarative evaluation planning: strategies, plans and the planner.

The paper's tractability frontier is about *choosing the right algorithm per
instance* — naive, natural, or the Theorem 1 pebble relaxation under a
certified width bound.  This module makes that choice a first-class object
instead of a string compared in several places:

* :class:`Strategy` — one executable evaluation strategy.  The three
  strategies (``naive``, ``natural``, ``pebble``) carry their own execution
  hooks (``contains``; ``contains_iter``, the lazy batch that
  :meth:`Session.check_iter <repro.evaluation.session.Session.check_iter>`
  draws the distinct mappings' verdicts from; ``solutions_stream``), so the
  callers dispatch on the strategy *object*, never on a method string.
* :class:`Plan` — a frozen record of one resolved choice: the strategy, the
  width bound it runs with, whether that bound is *certified* (computed as
  the pattern's true domination width) or merely trusted, and a
  human-readable rationale.  :meth:`Plan.explain` renders the decision.
* :class:`Planner` — the **single** home of ``method="auto"`` resolution
  and the one place a declared width enters (the per-call ``width``).
  :meth:`Engine.contains <repro.evaluation.engine.Engine.contains>`,
  :meth:`Engine.plan <repro.evaluation.engine.Engine.plan>` and the
  :class:`~repro.evaluation.session.Session` batch loop all delegate
  here, so the resolution logic can never disagree with itself.

The planner is **cost-based**: when the caller supplies the data graph,
``auto`` resolution consults a :class:`CostModel` that estimates the naive /
natural / pebble cost of the concrete ``(pattern, graph)`` cell from cheap
statistics (graph size, ``sorted_domain()`` cardinality, the pattern's
node/OPT-children counts and fresh-variable branching, the free width bound)
and picks the cheapest admissible strategy *per cell* instead of a fixed
preference.  The estimate rides on the resolved :class:`Plan` and is rendered
by :meth:`Plan.explain` (CLI ``explain --graph``).  Without a graph the
graph-free rules apply:

* ``naive`` / ``natural`` run as requested, no width involved;
* ``pebble`` uses the per-call ``width``, else the previously computed
  domination width, else it *computes* the domination width (exact but
  potentially expensive);
* ``auto`` prefers pebble **iff a bound is available for free** (a per-call
  width or an already-computed domination width) and otherwise falls back
  to the exact natural algorithm rather than pay for a width computation.

Ties in the cost estimates break toward the graph-free preference, so the
cost-based planner degenerates to those rules when the estimates cannot tell
the strategies apart.  The cost model never proposes a strategy whose
precondition fails: pebble needs a free width bound.

For enumeration (:meth:`Planner.plan_enumeration`) ``auto`` always resolves
to ``natural``, the top-down enumeration of every tree; ``naive`` runs when
asked, and the pebble relaxation decides membership only.

Resolved plans are memoized per ``(method, width, known domination width)``
— plus the graph's size statistics for graph-aware plans — so the unbatched
:meth:`Engine.contains <repro.evaluation.engine.Engine.contains>` hot loop
stops re-allocating plan dataclasses and rationale strings on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .context import EvalContext
from .naive import evaluate_pattern, pattern_contains
from ..exceptions import EvaluationError
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.algebra import GraphPattern
from ..sparql.mappings import Mapping

__all__ = [
    "Strategy",
    "Plan",
    "Planner",
    "PatternStats",
    "CostEstimate",
    "CostModel",
    "strategy_for",
    "method_names",
]


# --- the strategies ------------------------------------------------------------


class Strategy:
    """One executable evaluation strategy.

    Subclasses implement the execution hooks; the engines and sessions call
    through the instance resolved from a :class:`Plan`, so there is no
    method-string dispatch anywhere outside this module.
    """

    #: Registry name (the public ``method=`` value).
    name: str = ""
    #: One-line description used by :meth:`Plan.explain`.
    summary: str = ""
    #: Whether :meth:`solutions_stream` is implemented.
    supports_enumeration: bool = False
    #: Whether the strategy is parameterised by a width bound.
    uses_width: bool = False

    # --- execution hooks -----------------------------------------------------
    def contains(
        self,
        pattern: GraphPattern,
        forest: WDPatternForest,
        graph: RDFGraph,
        mu: Mapping,
        plan: "Plan",
        context: EvalContext,
    ) -> bool:
        """Decide ``µ ∈ ⟦P⟧G`` under *plan*."""
        raise NotImplementedError

    def contains_iter(
        self,
        pattern: GraphPattern,
        forest: WDPatternForest,
        graph: RDFGraph,
        mappings: Iterable[Mapping],
        plan: "Plan",
        context: EvalContext,
    ) -> Iterator[bool]:
        """Lazy batched membership: one verdict per mapping, in order (the
        caller deduplicates)."""
        for mu in mappings:
            yield self.contains(pattern, forest, graph, mu, plan, context)

    def solutions_stream(
        self,
        pattern: GraphPattern,
        forest: WDPatternForest,
        graph: RDFGraph,
        context: EvalContext,
    ) -> Iterator[Mapping]:
        """Stream the answer set ``⟦P⟧G`` (deduplicated)."""
        raise EvaluationError(
            f"the {self.name!r} strategy decides membership only and cannot enumerate"
        )

    def __repr__(self) -> str:
        return f"Strategy({self.name!r})"


class NaiveStrategy(Strategy):
    """The compositional Pérez et al. semantics (reference, exponential)."""

    name = "naive"
    summary = "materialise ⟦P⟧G bottom-up (Pérez et al. reference semantics)"
    supports_enumeration = True
    uses_width = False

    def contains(self, pattern, forest, graph, mu, plan, context):
        return pattern_contains(pattern, graph, mu, context.budget)

    def contains_iter(self, pattern, forest, graph, mappings, plan, context):
        # One materialisation of the full answer set serves every mapping.
        answer_set = evaluate_pattern(pattern, graph, context.budget)
        for mu in mappings:
            yield mu in answer_set

    def solutions_stream(self, pattern, forest, graph, context):
        return iter(evaluate_pattern(pattern, graph, context.budget))


class NaturalStrategy(Strategy):
    """The exact wdPF algorithm (Lemma 1) with NP-hard child tests."""

    name = "natural"
    summary = "exact wdPF evaluation (Lemma 1) with full homomorphism child tests"
    supports_enumeration = True
    uses_width = False

    def contains(self, pattern, forest, graph, mu, plan, context):
        from .wdeval import forest_contains  # deferred: wdeval imports plan's context

        return forest_contains(forest, graph, mu, context)

    def solutions_stream(self, pattern, forest, graph, context):
        from .wdeval import forest_solutions_stream

        return forest_solutions_stream(forest, graph, context)


class PebbleStrategy(Strategy):
    """The Theorem 1 algorithm: pebble-game relaxation of the child test."""

    name = "pebble"
    summary = "Theorem 1: natural evaluation with the existential (k+1)-pebble relaxation"
    supports_enumeration = False
    uses_width = True

    def contains(self, pattern, forest, graph, mu, plan, context):
        from .pebble_eval import forest_contains_pebble

        return forest_contains_pebble(forest, graph, mu, plan.width, context)


NAIVE = NaiveStrategy()
NATURAL = NaturalStrategy()
PEBBLE = PebbleStrategy()

_STRATEGIES: Dict[str, Strategy] = {NAIVE.name: NAIVE, NATURAL.name: NATURAL, PEBBLE.name: PEBBLE}


def method_names() -> Tuple[str, ...]:
    """Every accepted ``method=`` value (``auto`` plus the three strategies)."""
    return ("auto",) + tuple(sorted(_STRATEGIES))


def strategy_for(name: str) -> Strategy:
    """The strategy called *name* (raises for unknown names)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise EvaluationError(
            f"unknown method {name!r}; expected one of {method_names()}"
        ) from None


# --- the cost model --------------------------------------------------------------


@dataclass(frozen=True)
class PatternStats:
    """Cheap, graph-independent statistics of one wdPF (one tree walk).

    These are the pattern-side inputs of the :class:`CostModel`; an
    :class:`~repro.evaluation.engine.Engine` computes them once per pattern
    and hands them to its planner.

    Attributes
    ----------
    nodes / opt_children:
        Forest shape: total wdPT nodes, and non-root nodes (each non-root
        node is one OPT child somewhere, i.e. one NP-hard child test of the
        natural algorithm).
    triples:
        Total triple patterns across all nodes.
    max_new_vars:
        The largest number of variables any single node introduces over its
        ancestors — the branching factor of one indexed homomorphism search.
    max_branch_vars:
        The largest variable count accumulated along one root-to-leaf
        branch — what a bottom-up (naive) materialisation has to hold.
    """

    nodes: int
    opt_children: int
    triples: int
    max_new_vars: int
    max_branch_vars: int

    @classmethod
    def of(cls, forest: WDPatternForest) -> "PatternStats":
        """Compute the statistics of *forest* in one walk per tree."""
        nodes = opt_children = triples = 0
        max_new_vars = 0
        max_branch_vars = 0
        for tree in forest:
            order: List[int] = []
            stack = [tree.root]
            while stack:  # parents always precede their children
                node = stack.pop()
                order.append(node)
                stack.extend(tree.children_of(node))
            branch_vars: Dict[int, frozenset] = {}
            for node in order:
                nodes += 1
                triples += len(tree.pat(node).triples())
                node_vars = tree.vars(node)
                parent = tree.parent_of(node)
                inherited = branch_vars[parent] if parent is not None else frozenset()
                if parent is not None:
                    opt_children += 1
                max_new_vars = max(max_new_vars, len(node_vars - inherited))
                branch_vars[node] = inherited | node_vars
                max_branch_vars = max(max_branch_vars, len(branch_vars[node]))
        return cls(
            nodes=nodes,
            opt_children=opt_children,
            triples=triples,
            max_new_vars=max_new_vars,
            max_branch_vars=max_branch_vars,
        )


@dataclass(frozen=True)
class CostEstimate:
    """Per-strategy cost estimates for one ``(pattern, graph)`` cell.

    The numbers are *ordinal* operation counts, not wall-clock predictions:
    they only need to rank the strategies.  ``costs`` lists the admissible
    strategies in the planner's tie-break preference order (most preferred
    first); :meth:`cheapest` is the strategy the planner picks.
    """

    costs: Tuple[Tuple[str, float], ...]
    graph_triples: int
    graph_domain: int
    pattern_nodes: int
    opt_children: int

    def cost_of(self, name: str) -> Optional[float]:
        """The estimated cost of strategy *name* (``None`` if inadmissible)."""
        for strategy, cost in self.costs:
            if strategy == name:
                return cost
        return None

    def cheapest(self) -> str:
        """The cheapest admissible strategy; ties break toward the first
        (most preferred) entry, i.e. the graph-free choice."""
        best_name, best_cost = self.costs[0]
        for name, cost in self.costs[1:]:
            if cost < best_cost:
                best_name, best_cost = name, cost
        return best_name

    def render(self) -> str:
        """The estimates as a compact one-liner, e.g.
        ``natural ~1.3e+03 · naive ~2.0e+05``."""
        return " · ".join(f"{name} ~{cost:.1e}" for name, cost in self.costs)

    def render_inputs(self) -> str:
        """The cell statistics the estimates were computed from."""
        return (
            f"|G| = {self.graph_triples} triples, |dom(G)| = {self.graph_domain}, "
            f"{self.pattern_nodes} node(s), {self.opt_children} OPT child(ren)"
        )


#: The cost formulas cap every exponent and clamp every estimate, so the
#: ranking stays overflow-free.
_EXPONENT_CAP = 8
_COST_CEILING = 1e30


class CostModel:
    """Estimate naive / natural / pebble cost per ``(pattern, graph)`` cell.

    The formulas are deliberately crude — they model the dominant term of
    each algorithm from statistics that cost one tree walk and one memoized
    ``sorted_domain()`` call (see ``docs/planner.md`` for the derivation):

    * one indexed homomorphism search branches over the fresh variables of a
      node: ``search = |G| ** max_new_vars``;
    * **naive** materialises ``⟦P⟧G`` bottom-up: one search per node plus
      intermediate answer sets of up to ``|G| ** max_branch_vars`` rows;
    * **natural membership** finds the witness subtree (linear in the
      pattern) and runs one search per OPT child;
    * **pebble membership** replaces each child search with the polynomial
      ``(k+1)``-pebble game over ``|dom(G)| ** (k+1)`` positions.

    Exponents are capped at ``_EXPONENT_CAP`` and every estimate is clamped
    to ``_COST_CEILING`` so the ranking stays overflow-free.
    """

    def _power(self, base: float, exponent: int) -> float:
        return min(_COST_CEILING, base ** min(exponent, _EXPONENT_CAP))

    def estimate(
        self,
        pattern: PatternStats,
        graph_triples: int,
        graph_domain: int,
        width: Optional[int],
    ) -> CostEstimate:
        """The per-strategy membership estimates for one cell.

        *width* is the **free** width bound (``None`` when none is available
        — the pebble strategy is then inadmissible and gets no estimate, so
        the planner can never pick a strategy whose precondition fails).
        """
        n = float(max(2, graph_triples))
        d = float(max(2, graph_domain))
        pattern_work = pattern.nodes * max(1, pattern.triples)
        search = self._power(n, pattern.max_new_vars)
        materialise = min(
            _COST_CEILING,
            pattern.nodes * search + self._power(n, pattern.max_branch_vars),
        )
        costs: List[Tuple[str, float]] = []
        if width is not None:
            pebble = min(
                _COST_CEILING,
                pattern_work
                + pattern.opt_children
                * max(1, pattern.triples)
                * self._power(d, width + 1),
            )
            costs.append((PEBBLE.name, pebble))
        natural = min(_COST_CEILING, pattern_work + pattern.opt_children * search)
        costs.append((NATURAL.name, natural))
        costs.append((NAIVE.name, materialise))
        return CostEstimate(
            costs=tuple(costs),
            graph_triples=graph_triples,
            graph_domain=graph_domain,
            pattern_nodes=pattern.nodes,
            opt_children=pattern.opt_children,
        )


#: The model every :class:`Planner` ranks strategies with.
_COST_MODEL = CostModel()


# --- plans -----------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """One resolved evaluation decision (immutable, explainable).

    Attributes
    ----------
    requested:
        The ``method=`` value the caller asked for (possibly ``"auto"``).
    strategy:
        The concrete strategy the planner chose (a registry name).
    width:
        The width bound ``k`` the pebble strategy runs with (``None`` for
        width-free strategies); the game uses ``k+1`` pebbles.
    certified:
        ``True`` when *width* is the pattern's computed domination width —
        the pebble algorithm is then exact (Theorem 1).  ``False`` for
        user-supplied bounds, which are trusted but not verified.
    rationale:
        One human-readable sentence recording *why* this strategy was chosen.
    cost:
        The :class:`CostEstimate` the decision was based on, when the planner
        knew the graph (``None`` for graph-free plans).  Rendered by
        :meth:`explain` and the CLI's ``explain --graph``.
    """

    requested: str
    strategy: str
    width: Optional[int]
    certified: bool
    rationale: str
    cost: Optional[CostEstimate] = None

    @property
    def strategy_obj(self) -> Strategy:
        """The executable :class:`Strategy` behind :attr:`strategy`."""
        return strategy_for(self.strategy)

    def summary(self) -> str:
        """A compact one-liner, e.g. ``pebble(k=1, certified)``."""
        if self.width is None:
            return self.strategy
        certification = "certified" if self.certified else "trusted"
        return f"{self.strategy}(k={self.width}, {certification})"

    def explain(self) -> str:
        """A human-readable account of the decision (CLI ``explain``)."""
        strategy = self.strategy_obj
        lines = [
            f"requested method : {self.requested}",
            f"chosen strategy  : {self.strategy} — {strategy.summary}",
        ]
        if strategy.uses_width:
            certification = (
                "certified: computed domination width of the pattern"
                if self.certified
                else "trusted: supplied bound, not verified"
            )
            lines.append(f"width bound      : k = {self.width} ({certification})")
            lines.append(f"pebble game      : existential {self.width + 1}-pebble game")
        else:
            lines.append("width bound      : n/a (width-free strategy)")
        if self.cost is not None:
            lines.append(f"cost estimate    : {self.cost.render()}")
            lines.append(f"cost inputs      : {self.cost.render_inputs()}")
        lines.append(f"rationale        : {self.rationale}")
        return "\n".join(lines)


# --- the planner -----------------------------------------------------------------


#: Resolved-plan memo size guard; the memo is simply cleared when it fills
#: (keys cycle over a handful of methods × widths × graph sizes in practice).
_PLAN_MEMO_LIMIT = 256


class Planner:
    """The single home of ``method=`` resolution (notably ``"auto"``).

    A declared width is never planner state: it arrives as the ``width``
    argument of each :meth:`plan` call, and a width below 1 is refused.

    Parameters
    ----------
    known_width:
        Zero-argument callable returning the domination width **iff it has
        already been computed** (else ``None``).  ``auto`` consults this but
        never triggers a computation.
    width_oracle:
        Zero-argument callable that *computes* the domination width on
        demand; only invoked when ``method="pebble"`` is requested without
        any bound.  ``None`` makes that case an error.
    pattern_stats:
        Zero-argument callable returning the pattern's :class:`PatternStats`
        (engines memoize this per pattern).  Without it the planner cannot
        estimate costs and graph-aware calls fall back to the graph-free
        rules.

    Every planner ranks strategies with the one module-level
    :class:`CostModel`.

    Resolved plans are memoized per ``(method, width, known domination
    width)`` — plus ``(|G|, |dom(G)|)`` for graph-aware plans — so hot loops
    like unbatched :meth:`Engine.contains
    <repro.evaluation.engine.Engine.contains>` re-use one frozen
    :class:`Plan` instead of re-allocating it per call.
    """

    def __init__(
        self,
        known_width: Optional[Callable[[], Optional[int]]] = None,
        width_oracle: Optional[Callable[[], int]] = None,
        pattern_stats: Optional[Callable[[], PatternStats]] = None,
    ) -> None:
        self._known_width = known_width if known_width is not None else lambda: None
        self._width_oracle = width_oracle
        self._pattern_stats = pattern_stats
        self._memo: Dict[Tuple, Plan] = {}

    # --- plan memoization ------------------------------------------------------
    def _memoized(self, key: Tuple, resolve: Callable[[], Plan]) -> Plan:
        plan = self._memo.get(key)
        if plan is None:
            plan = resolve()
            if len(self._memo) >= _PLAN_MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = plan
        return plan

    def _cell_estimate(
        self, graph: Optional[RDFGraph], width: Optional[int]
    ) -> Optional[CostEstimate]:
        """The cost estimate for this cell, or ``None`` without graph/stats."""
        if graph is None or self._pattern_stats is None:
            return None
        return _COST_MODEL.estimate(
            self._pattern_stats(), len(graph), len(graph.sorted_domain()), width
        )

    # --- bound resolution ------------------------------------------------------
    def _free_bound(self, width: Optional[int]) -> Tuple[Optional[int], bool, str]:
        """The width bound available *without* computing anything.

        Returns ``(bound, certified, source)``; ``bound`` is ``None`` when no
        bound is available for free.
        """
        if width is not None:
            return width, False, f"the per-call width argument declares dw(P) <= {width}"
        known = self._known_width()
        if known is not None:
            return known, True, f"the domination width dw(P) = {known} was already computed"
        return None, False, "no width bound is available for free"

    # --- membership planning -----------------------------------------------------
    def plan(
        self,
        method: str = "auto",
        width: Optional[int] = None,
        graph: Optional[RDFGraph] = None,
    ) -> Plan:
        """Resolve ``(method, width)`` into an executable :class:`Plan`.

        This is exactly the decision :meth:`Engine.contains` executes —
        there is no other copy of it.  With a *graph* (and pattern
        statistics) the plan carries a :class:`CostEstimate` and ``auto``
        picks the cheapest admissible strategy for this specific cell;
        without one the graph-free rules apply.  Plans are memoized (see the
        class docs).
        """
        known = self._known_width()
        cost_aware = graph is not None and self._pattern_stats is not None
        if cost_aware:
            key = (method, width, known, len(graph), len(graph.sorted_domain()))
        else:
            key = (method, width, known)
        return self._memoized(key, lambda: self._plan_fresh(method, width, graph))

    def _plan_fresh(
        self, method: str, width: Optional[int], graph: Optional[RDFGraph]
    ) -> Plan:
        if width is not None and width < 1:
            raise EvaluationError(f"the width must be at least 1, got {width}")
        if method == "auto":
            return self._plan_auto(width, graph)
        strategy = strategy_for(method)
        if not strategy.uses_width:
            return Plan(
                requested=method,
                strategy=strategy.name,
                width=None,
                certified=False,
                rationale=f"the {strategy.name} strategy was requested explicitly",
                cost=self._cell_estimate(graph, self._free_bound(width)[0]),
            )
        bound, certified, source = self._free_bound(width)
        if bound is None:
            if self._width_oracle is None:
                raise EvaluationError(
                    "the pebble strategy needs a width bound and no width oracle is available"
                )
            bound = self._width_oracle()
            certified = True
            source = f"computed the domination width dw(P) = {bound} on demand"
        exactness = (
            "the algorithm is exact (Theorem 1)"
            if certified
            else f"sound always, complete if dw(P) <= {bound}"
        )
        return Plan(
            requested=method,
            strategy=strategy.name,
            width=bound,
            certified=certified,
            rationale=f"the pebble strategy was requested explicitly; {source}; {exactness}",
            cost=self._cell_estimate(graph, bound),
        )

    def _plan_auto(self, width: Optional[int], graph: Optional[RDFGraph]) -> Plan:
        bound, certified, source = self._free_bound(width)
        estimate = self._cell_estimate(graph, bound)
        if estimate is not None:
            chosen = estimate.cheapest()
            if chosen != PEBBLE.name:
                # The cost model out-voted (or never admitted) the pebble
                # strategy; both alternatives are exact, so this is safe.
                return Plan(
                    requested="auto",
                    strategy=chosen,
                    width=None,
                    certified=False,
                    rationale=f"the cost model compared {estimate.render()} for this "
                    f"graph and the {chosen} strategy is the cheapest admissible "
                    "choice (it is exact for every input)",
                    cost=estimate,
                )
            exactness = (
                "the algorithm is exact (Theorem 1)"
                if certified
                else f"it is exact if the bound holds (dw(P) <= {bound}), "
                "and sound for every input"
            )
            return Plan(
                requested="auto",
                strategy=PEBBLE.name,
                width=bound,
                certified=certified,
                rationale=f"the cost model compared {estimate.render()} for this "
                f"graph and the pebble relaxation with k = {bound} is the cheapest "
                f"({source}); {exactness}",
                cost=estimate,
            )
        if bound is not None:
            exactness = (
                "the algorithm is exact (Theorem 1)"
                if certified
                else f"it is exact if the bound holds (dw(P) <= {bound}), "
                "and sound for every input"
            )
            return Plan(
                requested="auto",
                strategy=PEBBLE.name,
                width=bound,
                certified=certified,
                rationale=f"{source}, so the polynomial pebble relaxation runs "
                f"with k = {bound}; {exactness}",
            )
        return Plan(
            requested="auto",
            strategy=NATURAL.name,
            width=None,
            certified=False,
            rationale="no width bound was supplied and the domination width has not "
            "been computed; resolving to the exact natural algorithm instead of "
            "paying for a width computation",
        )

    # --- enumeration planning -------------------------------------------------------
    def plan_enumeration(self, method: str = "auto") -> Plan:
        """Resolve a ``method=`` for full answer-set enumeration.

        ``auto`` resolves to the natural strategy; ``naive`` and ``natural``
        run as requested.  The pebble relaxation decides membership only and
        is refused.
        """
        return self._memoized(("enum", method), lambda: self._plan_enumeration_fresh(method))

    def _plan_enumeration_fresh(self, method: str) -> Plan:
        if method == "auto":
            return Plan(
                requested="auto",
                strategy=NATURAL.name,
                width=None,
                certified=False,
                rationale="auto resolves enumeration to the natural strategy: it "
                "enumerates ⟦P⟧G exactly for every pattern, while the pebble "
                "relaxation decides membership only",
            )
        strategy = strategy_for(method)
        if not strategy.supports_enumeration:
            enumerable = ("auto",) + tuple(
                sorted(name for name, s in _STRATEGIES.items() if s.supports_enumeration)
            )
            raise EvaluationError(
                f"the {strategy.name!r} strategy decides membership only; "
                f"solutions() supports the methods {enumerable}"
            )
        return Plan(
            requested=method,
            strategy=strategy.name,
            width=None,
            certified=False,
            rationale=f"the {strategy.name} strategy was requested explicitly for enumeration",
        )
