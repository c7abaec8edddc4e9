"""The natural evaluation algorithm for well-designed pattern forests.

This is the classical algorithm of Letelier et al. / Pichler–Skritek that the
paper takes as the starting point (beginning of Section 3.1): to decide
``µ ∈ ⟦F⟧G`` for ``F = {T1, ..., Tm}``,

1. for each tree ``Ti`` find the unique subtree ``T^µ_i`` whose variables are
   exactly ``dom(µ)`` and whose pattern ``µ`` maps homomorphically into
   ``G`` (if none exists, ``µ ∉ ⟦Ti⟧G``);
2. ``µ ∈ ⟦Ti⟧G`` iff additionally *no* child ``n`` of ``T^µ_i`` admits a
   homomorphism from ``pat(n)`` to ``G`` compatible with ``µ``
   (equivalently ``(pat(T^µ_i) ∪ pat(n), vars(T^µ_i)) →µ G`` fails).

The child test is a full homomorphism test, so this engine runs in
exponential time in the query size in the worst case — it is the coNP
baseline that the Theorem 1 algorithm relaxes.

The canonical implementations (the ``*_ctx`` functions) take an
:class:`~repro.evaluation.context.EvalContext` bundling the cache and the
statistics accumulator; the historical ``(statistics, cache)`` signatures
are kept as thin shims.  The module also provides solution *enumeration*
through Lemma 1 — both as sets and as deduplicated generators
(:func:`tree_solutions_stream` / :func:`forest_solutions_stream`), which is
what :meth:`~repro.evaluation.session.Session.solutions_stream` exposes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Set

from .context import EvalContext
from ..patterns.forest import WDPatternForest
from ..patterns.tree import Subtree, WDPatternTree
from ..rdf.graph import RDFGraph
from ..sparql.mappings import Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .cache import EvaluationCache

__all__ = [
    "find_mu_subtree",
    "tree_contains",
    "tree_contains_ctx",
    "forest_contains",
    "forest_contains_ctx",
    "tree_solutions",
    "tree_solutions_stream",
    "forest_solutions",
    "forest_solutions_stream",
    "EvaluationStatistics",
]

#: Shared empty context for the shim signatures with neither cache nor stats.
_PLAIN_CONTEXT = EvalContext()


class EvaluationStatistics:
    """Counters describing one evaluation run (used by the benchmarks).

    Besides the algorithmic counters (trees visited, witness subtrees found,
    child extension tests), the resilience layer accounts here too:

    * ``worker_crashes`` — pool workers observed dead (SIGKILL, OOM, ...);
    * ``cells_degraded_serial`` — membership chunks re-run serially in the
      parent after the pool lost them twice;
    * ``deadline_trips`` — budget violations surfaced by this run.
    """

    __slots__ = (
        "trees_visited",
        "subtree_found",
        "child_checks",
        "worker_crashes",
        "cells_degraded_serial",
        "deadline_trips",
    )

    def __init__(self) -> None:
        self.trees_visited = 0
        self.subtree_found = 0
        self.child_checks = 0
        self.worker_crashes = 0
        self.cells_degraded_serial = 0
        self.deadline_trips = 0

    def merge(self, other: "EvaluationStatistics") -> None:
        """Accumulate *other*'s counters into this instance."""
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))

    def resilience_summary(self) -> str:
        """One line for ``batch --stats`` and the session accumulator."""
        return (
            f"{self.worker_crashes} worker crash(es), "
            f"{self.cells_degraded_serial} cell(s) degraded serial, "
            f"{self.deadline_trips} deadline trip(s)"
        )

    def __repr__(self) -> str:
        extra = ""
        if self.worker_crashes or self.cells_degraded_serial or self.deadline_trips:
            extra = (
                f", crashes={self.worker_crashes}, "
                f"degraded={self.cells_degraded_serial}, "
                f"deadline_trips={self.deadline_trips}"
            )
        return (
            f"EvaluationStatistics(trees={self.trees_visited}, "
            f"subtrees={self.subtree_found}, child_checks={self.child_checks}{extra})"
        )


def find_mu_subtree(tree: WDPatternTree, graph: RDFGraph, mu: Mapping) -> Optional[Subtree]:
    """The subtree ``T^µ`` of *tree*: variables exactly ``dom(µ)`` and ``µ`` a
    homomorphism from its pattern into the graph; ``None`` if there is none.

    Computed greedily from the root: a node can join as soon as its variables
    are covered by ``dom(µ)`` and ``µ`` satisfies its label; by NR normal form
    and variable connectivity the maximal such node set is the unique witness
    whenever a witness exists.
    """
    domain = mu.domain()

    def node_satisfied(node: int) -> bool:
        if not tree.vars(node) <= domain:
            return False
        for t in tree.pat(node):
            if mu.apply(t) not in graph:
                return False
        return True

    if not node_satisfied(tree.root):
        return None
    selected = {tree.root}
    frontier = list(tree.children_of(tree.root))
    while frontier:
        node = frontier.pop()
        if node_satisfied(node):
            selected.add(node)
            frontier.extend(tree.children_of(node))
    subtree = tree.subtree(selected)
    if subtree.variables() != domain:
        return None
    return subtree


# --- membership (canonical, context-based) --------------------------------------


def tree_contains_ctx(
    tree: WDPatternTree, graph: RDFGraph, mu: Mapping, context: EvalContext
) -> bool:
    """``µ ∈ ⟦T⟧G`` via Lemma 1 (the natural algorithm, exact but with
    NP-hard child tests).

    The *context* supplies the cache (witness-subtree lookups and child
    extension tests are then memoized per graph version — identical answers,
    see :mod:`repro.evaluation.cache`) and the statistics accumulator.
    """
    subtree = context.mu_subtree(tree, graph, mu)
    if subtree is None:
        return False
    context.note_subtree_found()
    for child in context.children_of(tree, subtree):
        context.note_child_check()
        if context.extension_exists(tree.pat(child), graph, mu):
            return False
    return True


def forest_contains_ctx(
    forest: WDPatternForest, graph: RDFGraph, mu: Mapping, context: EvalContext
) -> bool:
    """``µ ∈ ⟦F⟧G = ⟦T1⟧G ∪ ... ∪ ⟦Tm⟧G`` via the natural algorithm."""
    for tree in forest:
        context.note_tree_visited()
        if tree_contains_ctx(tree, graph, mu, context):
            return True
    return False


# --- membership (legacy signatures, thin shims) ------------------------------------


def tree_contains(
    tree: WDPatternTree,
    graph: RDFGraph,
    mu: Mapping,
    statistics: Optional[EvaluationStatistics] = None,
    cache: Optional["EvaluationCache"] = None,
) -> bool:
    """Shim for :func:`tree_contains_ctx` with the historical signature."""
    return tree_contains_ctx(tree, graph, mu, EvalContext.of(statistics, cache))


def forest_contains(
    forest: WDPatternForest,
    graph: RDFGraph,
    mu: Mapping,
    statistics: Optional[EvaluationStatistics] = None,
    cache: Optional["EvaluationCache"] = None,
) -> bool:
    """Shim for :func:`forest_contains_ctx` with the historical signature."""
    return forest_contains_ctx(forest, graph, mu, EvalContext.of(statistics, cache))


# --- enumeration ---------------------------------------------------------------------


def tree_solutions_stream(
    tree: WDPatternTree, graph: RDFGraph, context: Optional[EvalContext] = None
) -> Iterator[Mapping]:
    """Stream ``⟦T⟧G`` through Lemma 1, deduplicated, in discovery order.

    For every subtree ``T'`` and every homomorphism ``µ`` from ``pat(T')``
    into the graph, ``µ`` is a solution iff no child of ``T'`` admits a
    compatible extension.  With a caching *context* the homomorphism lists
    and the child extension tests are memoized, and a run that completes
    records the whole answer list per graph version — later enumerations of
    the same tree (including warm-forked enumeration workers that inherit
    the cache) replay it straight from memory.  Enumerating many
    structurally overlapping patterns through one
    :class:`~repro.evaluation.session.Session` therefore shares work at
    every level: index, searches, child tests, and completed answer sets.
    """
    context = context if context is not None else _PLAIN_CONTEXT
    replay = context.tree_solutions_list(tree, graph)
    if replay is not None:
        yield from replay
        return
    version = graph.version
    recorded: Optional[list] = [] if context.cache is not None else None
    seen: Set[Mapping] = set()
    for subtree in tree.subtrees():
        child_pats = [tree.pat(child) for child in context.children_of(tree, subtree)]
        for hom in context.homomorphisms(subtree.pat(), graph):
            context.tick()
            mu = Mapping(hom)
            if mu in seen:
                continue
            if all(not context.extension_exists(pat, graph, mu) for pat in child_pats):
                seen.add(mu)
                if recorded is not None:
                    recorded.append(mu)
                yield mu
    # Record only complete, mutation-free enumerations: an abandoned
    # generator never reaches this line, and a mid-stream graph mutation
    # would make the recorded list stale for the new version.
    if recorded is not None and graph.version == version:
        context.record_tree_solutions(tree, graph, recorded)


def forest_solutions_stream(
    forest: WDPatternForest, graph: RDFGraph, context: Optional[EvalContext] = None
) -> Iterator[Mapping]:
    """Stream ``⟦F⟧G`` (union over the member trees, deduplicated)."""
    context = context if context is not None else _PLAIN_CONTEXT
    seen: Set[Mapping] = set()
    for tree in forest:
        context.tick()
        for mu in tree_solutions_stream(tree, graph, context):
            if mu not in seen:
                seen.add(mu)
                yield mu


def tree_solutions(
    tree: WDPatternTree, graph: RDFGraph, context: Optional[EvalContext] = None
) -> Set[Mapping]:
    """Enumerate ``⟦T⟧G`` as a set (see :func:`tree_solutions_stream`)."""
    return set(tree_solutions_stream(tree, graph, context))


def forest_solutions(
    forest: WDPatternForest, graph: RDFGraph, context: Optional[EvalContext] = None
) -> Set[Mapping]:
    """Enumerate ``⟦F⟧G`` as a set (union over the member trees)."""
    return set(forest_solutions_stream(forest, graph, context))
