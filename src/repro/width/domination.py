"""Domination width (Definition 2 of the paper).

For a wdPF ``F``, ``dw(F)`` is the least ``k ≥ 1`` such that for every
subtree ``T`` of ``F`` the set ``GtG(T)`` is *k-dominated*: the generalised
t-graphs of core treewidth at most ``k`` form a dominating set with respect
to the homomorphism relation ``→`` (every member of ``GtG(T)`` is the
homomorphic image of a member of core treewidth ≤ k).

For a well-designed graph pattern ``P``, ``dw(P) = dw(wdpf(P))``.

Computing the measure is inherently expensive (the recognition problem is
NP-hard already in the UNION-free case), so the functions here enumerate
subtrees and valid children assignments explicitly; they are meant for
query-sized inputs, which is all the paper's theory needs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..hom.homomorphism import maps_to
from ..hom.tgraph import GeneralizedTGraph
from ..hom.treewidth import ctw
from ..patterns.build import wdpf
from ..patterns.forest import WDPatternForest
from ..patterns.gtg import gtg
from ..sparql.algebra import GraphPattern
from ..exceptions import WidthComputationError

__all__ = [
    "is_dominating_set",
    "is_k_dominated",
    "minimum_domination_level",
    "domination_width",
    "domination_width_of_pattern",
    "has_domination_width_at_most",
]


def is_dominating_set(
    candidates: Iterable[GeneralizedTGraph], collection: Iterable[GeneralizedTGraph]
) -> bool:
    """``True`` when every member of *collection* is dominated (receives a
    homomorphism) by some member of *candidates*."""
    candidates = list(candidates)
    for member in collection:
        if member in candidates:
            continue
        if not any(maps_to(candidate, member) for candidate in candidates):
            return False
    return True


def is_k_dominated(collection: Iterable[GeneralizedTGraph], k: int) -> bool:
    """Definition 1: the members of core treewidth ≤ k dominate the collection."""
    collection = list(collection)
    low_width = [member for member in collection if ctw(member) <= k]
    return is_dominating_set(low_width, collection)


def minimum_domination_level(collection: Iterable[GeneralizedTGraph]) -> int:
    """The least ``k ≥ 1`` such that the collection is k-dominated.

    The empty collection is trivially 1-dominated.
    """
    collection = list(collection)
    if not collection:
        return 1
    widths = sorted({max(1, ctw(member)) for member in collection})
    for k in widths:
        if is_k_dominated(collection, k):
            return max(1, k)
    # The collection is always dominated by itself at the maximal width.
    return max(1, widths[-1])


def domination_width(
    forest: WDPatternForest, per_subtree: Optional[Dict[Tuple[int, FrozenSet[int]], int]] = None
) -> int:
    """``dw(F)`` — the domination width of a pattern forest.

    When *per_subtree* is supplied it is filled with the minimum domination
    level of every subtree (keyed by ``(tree_index, node_set)``), which the
    experiment harness uses for reporting.
    """
    if not forest.is_nr_normal_form():
        raise WidthComputationError(
            "domination width is defined for forests in NR normal form; "
            "call to_nr_normal_form() first"
        )
    width = 1
    for tree_index, subtree in forest.subtrees():
        level = minimum_domination_level(gtg(forest, subtree))
        if per_subtree is not None:
            per_subtree[(tree_index, subtree.nodes)] = level
        width = max(width, level)
    return width


def domination_width_of_pattern(pattern: GraphPattern) -> int:
    """``dw(P) = dw(wdpf(P))`` for a well-designed graph pattern."""
    return domination_width(wdpf(pattern))


def has_domination_width_at_most(forest: WDPatternForest, k: int) -> bool:
    """Decide ``dw(F) ≤ k`` without computing the exact width (stops early)."""
    if k < 1:
        return False
    for _, subtree in forest.subtrees():
        if not is_k_dominated(gtg(forest, subtree), k):
            return False
    return True
