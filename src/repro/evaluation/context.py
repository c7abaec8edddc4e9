"""The evaluation context: one bundle for cache, statistics and pool size.

Before this module existed, every function in the evaluation layer threaded
``(statistics, cache)`` as optional positional arguments — and each of them
re-implemented the same "use the cache when there is one, fall back to the
direct computation otherwise" branching.  :class:`EvalContext` reifies that
environment:

* ``cache`` — an optional :class:`~repro.evaluation.cache.EvaluationCache`;
* ``statistics`` — an optional
  :class:`~repro.evaluation.wdeval.EvaluationStatistics` accumulator;
* ``processes`` — the default worker-pool size of the batched membership
  entry points (:class:`~repro.evaluation.session.Session`);
* ``budget`` — an optional :class:`~repro.evaluation.budget.Budget`.

The context also owns the cache-or-direct helpers (`mu_subtree`,
`children_of`, `extension_exists`, `pebble_winner`, `homomorphisms`,
`tree_solutions_list`, ...), so the algorithms in
:mod:`~repro.evaluation.wdeval` / :mod:`~repro.evaluation.pebble_eval`
contain the algorithm and nothing else, and the two code paths can never
drift apart.  A context is immutable; derive variants with
:meth:`with_statistics` / :meth:`with_cache`.

The old ``(statistics, cache)`` signatures survive as thin shims
(:meth:`EvalContext.of` builds the equivalent context), so existing callers
and the tier-1 tests keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from .budget import Budget
from .cache import EvaluationCache
from ..hom.homomorphism import TargetIndex, all_homomorphisms, extends_into
from ..hom.tgraph import GeneralizedTGraph, TGraph
from ..patterns.tree import Subtree, WDPatternTree
from ..pebble.game import pebble_game_winner
from ..rdf.graph import RDFGraph
from ..sparql.mappings import Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .wdeval import EvaluationStatistics

__all__ = ["EvalContext"]


@dataclass(frozen=True)
class EvalContext:
    """Everything a wdEVAL algorithm needs besides the instance itself.

    Parameters
    ----------
    cache:
        Optional shared :class:`~repro.evaluation.cache.EvaluationCache`;
        when present the helpers below memoize through it, when absent they
        compute directly.  Answers are identical either way.
    statistics:
        Optional per-run counter accumulator; the ``note_*`` helpers are
        no-ops when it is ``None``.
    processes:
        Default worker-pool size of the batched membership entry points
        (``None`` or ``1`` = serial).
    budget:
        Optional :class:`~repro.evaluation.budget.Budget` bounding the
        evaluation; the hot loops tick it through the cache-or-direct
        helpers below and raise
        :class:`~repro.exceptions.DeadlineExceeded` when it expires.
    """

    cache: Optional[EvaluationCache] = None
    statistics: Optional["EvaluationStatistics"] = None
    processes: Optional[int] = None
    budget: Optional[Budget] = None

    # --- construction --------------------------------------------------------
    @classmethod
    def of(
        cls,
        statistics: Optional["EvaluationStatistics"] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> "EvalContext":
        """The context equivalent to the legacy ``(statistics, cache)`` pair."""
        return cls(cache=cache, statistics=statistics)

    def with_statistics(self, statistics: Optional["EvaluationStatistics"]) -> "EvalContext":
        """This context with *statistics* swapped in (no-op when unchanged)."""
        if statistics is self.statistics:
            return self
        return replace(self, statistics=statistics)

    def with_cache(self, cache: Optional[EvaluationCache]) -> "EvalContext":
        """This context with *cache* swapped in (no-op when unchanged)."""
        if cache is self.cache:
            return self
        return replace(self, cache=cache)

    def with_budget(self, budget: Optional[Budget]) -> "EvalContext":
        """This context with *budget* swapped in (no-op when unchanged)."""
        if budget is self.budget:
            return self
        return replace(self, budget=budget)

    # --- budget helpers --------------------------------------------------------
    def tick(self, n: int = 1) -> None:
        """Amortized budget check (no-op without a budget); raises
        :class:`~repro.exceptions.DeadlineExceeded` when the budget expires."""
        if self.budget is not None:
            self.budget.tick(n)

    def check_budget(self) -> None:
        """Immediate budget check (no-op without a budget)."""
        if self.budget is not None:
            self.budget.check()

    # --- statistics helpers ---------------------------------------------------
    def note_tree_visited(self) -> None:
        if self.statistics is not None:
            self.statistics.trees_visited += 1

    def note_subtree_found(self) -> None:
        if self.statistics is not None:
            self.statistics.subtree_found += 1

    def note_child_check(self) -> None:
        if self.statistics is not None:
            self.statistics.child_checks += 1

    # --- cache-or-direct primitives --------------------------------------------
    def mu_subtree(self, tree: WDPatternTree, graph: RDFGraph, mu: Mapping) -> Optional[Subtree]:
        """The witness subtree ``T^µ`` (memoized through the cache if any)."""
        if self.cache is not None:
            return self.cache.mu_subtree(tree, graph, mu)
        from .wdeval import find_mu_subtree  # deferred: wdeval imports this module

        return find_mu_subtree(tree, graph, mu)

    def children_of(self, tree: WDPatternTree, subtree: Subtree) -> Tuple[int, ...]:
        """The children of *subtree* (shared per-tree table when cached)."""
        if self.cache is not None:
            return self.cache.subtree_children(tree, subtree.nodes)
        return subtree.children()

    def extension_exists(self, triples: TGraph, graph: RDFGraph, mu: Mapping) -> bool:
        """Lemma 1's child test: does *triples* extend into *graph* under µ?"""
        if self.cache is not None:
            return self.cache.extension_exists(triples, graph, mu, self.budget)
        return extends_into(triples, graph, mu, budget=self.budget) is not None

    def child_instances(
        self, tree: WDPatternTree, subtree: Subtree
    ) -> Iterator[Tuple[int, GeneralizedTGraph]]:
        """The per-child pebble instances ``(pat(T') ∪ pat(n), vars(T'))``.

        Yields ``(child, extended)`` pairs; with a cache both the child list
        and the extended instances come from the shared per-tree tables.
        """
        if self.cache is not None:
            for child in self.cache.subtree_children(tree, subtree.nodes):
                yield child, self.cache.extended_child_graph(tree, subtree.nodes, child)
            return
        base = subtree.pat()
        distinguished = subtree.variables()
        for child in subtree.children():
            yield child, GeneralizedTGraph(base.union(tree.pat(child)), distinguished)

    def pebble_winner(
        self, extended: GeneralizedTGraph, graph: RDFGraph, mu: Mapping, pebbles: int
    ) -> bool:
        """The existential *pebbles*-pebble game verdict (kernel-shared when
        cached)."""
        if self.cache is not None:
            return self.cache.pebble_winner(extended, graph, mu, pebbles, self.budget)
        return pebble_game_winner(extended, graph, mu, pebbles, budget=self.budget)

    def target_index(self, graph: RDFGraph) -> Optional[TargetIndex]:
        """The shared triple index of *graph*, or ``None`` without a cache."""
        if self.cache is not None:
            return self.cache.target_index(graph)
        return None

    def tree_solutions_list(
        self, tree: WDPatternTree, graph: RDFGraph
    ) -> Optional[Tuple[Mapping, ...]]:
        """The recorded complete answer list ``⟦T⟧G``, or ``None`` when no
        cache is attached or no completed enumeration was recorded yet."""
        if self.cache is None:
            return None
        return self.cache.tree_solution_list(tree, graph)

    def record_tree_solutions(
        self, tree: WDPatternTree, graph: RDFGraph, solutions: Iterable[Mapping]
    ) -> None:
        """Record a **complete** enumeration of ``⟦T⟧G`` (no-op uncached)."""
        if self.cache is not None:
            self.cache.store_tree_solution_list(tree, graph, solutions)

    def homomorphisms(self, source: TGraph, graph: RDFGraph) -> Iterator[dict]:
        """All homomorphisms from *source* into *graph* (always lazy).

        With a cache the indexed search records its complete answer list per
        graph version on exhaustion
        (:meth:`EvaluationCache.homomorphisms_stream
        <repro.evaluation.cache.EvaluationCache.homomorphisms_stream>`) —
        the search runs at most once and later enumerations replay it from
        memory, while the first results of a fresh search arrive as cheaply
        as the direct generator.
        """
        if self.cache is not None:
            return self.cache.homomorphisms_stream(source, graph, self.budget)
        return all_homomorphisms(source, graph, budget=self.budget)
