"""The evaluation context: one bundle for cache and budget.

:class:`EvalContext` is the environment every wdEVAL algorithm runs in:

* ``cache`` — an optional :class:`~repro.evaluation.cache.EvaluationCache`;
* ``budget`` — an optional :class:`~repro.evaluation.budget.Budget`.

The context also owns the cache-or-direct helpers (`mu_subtree`,
`extension_exists`, `pebble_winner`, `homomorphisms`,
`tree_solutions_list`, ...), so the algorithms in
:mod:`~repro.evaluation.wdeval` / :mod:`~repro.evaluation.pebble_eval`
contain the algorithm and nothing else, and the two code paths can never
drift apart.  The graph-independent subtree facts (interned subtrees,
children, ``pat(T')``, ``vars(T')``, the per-child instances) need no
helper: every path reads them from the tree, which memoizes them.  A
context is immutable; derive a bounded variant with :meth:`with_budget`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

from .budget import Budget
from ..hom.homomorphism import all_homomorphisms, extends_into
from ..hom.tgraph import GeneralizedTGraph, TGraph
from ..patterns.tree import Subtree, WDPatternTree
from ..pebble.game import pebble_game_winner
from ..rdf.graph import RDFGraph
from ..sparql.mappings import Mapping

if TYPE_CHECKING:  # the cache imports wdeval, which imports this module
    from .cache import EvaluationCache

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
    budget:
        Optional :class:`~repro.evaluation.budget.Budget` bounding the
        evaluation; the hot loops tick it through the cache-or-direct
        helpers below and raise
        :class:`~repro.exceptions.DeadlineExceeded` when it expires.
    """

    cache: Optional[EvaluationCache] = None
    budget: Optional[Budget] = None

    # --- construction --------------------------------------------------------
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

    # --- cache-or-direct primitives --------------------------------------------
    def mu_subtree(self, tree: WDPatternTree, graph: RDFGraph, mu: Mapping) -> Optional[Subtree]:
        """The witness subtree ``T^µ`` (through the cache if any, which
        stores nothing for it)."""
        if self.cache is not None:
            return self.cache.mu_subtree(tree, graph, mu)
        from .wdeval import find_mu_subtree  # deferred: wdeval imports this module

        return find_mu_subtree(tree, graph, mu)

    def extension_exists(self, triples: TGraph, graph: RDFGraph, mu: Mapping) -> bool:
        """Lemma 1's child test: does *triples* extend into *graph* under µ?"""
        if self.cache is not None:
            return self.cache.extension_exists(triples, graph, mu, self.budget)
        return extends_into(triples, graph, mu, budget=self.budget) is not None

    def pebble_winner(
        self, extended: GeneralizedTGraph, graph: RDFGraph, mu: Mapping, pebbles: int
    ) -> bool:
        """The existential *pebbles*-pebble game verdict (kernel-shared when
        cached)."""
        if self.cache is not None:
            return self.cache.pebble_winner(extended, graph, mu, pebbles, self.budget)
        return pebble_game_winner(extended, graph, mu, pebbles, budget=self.budget)

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
