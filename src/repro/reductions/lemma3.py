"""Lemma 3: extracting a wide, homomorphism-minimal witness from a wdPF.

For a wdPF ``F`` with ``dw(F) ≥ k``, Lemma 3 produces a subtree ``T`` and a
generalised t-graph ``(S, vars(T)) ∈ GtG(T)`` such that

1. ``ctw(S, vars(T)) ≥ k``, and
2. ``(S', vars(T)) → (S, vars(T))`` implies ``(S, vars(T)) → (S', vars(T))``
   for every ``(S', vars(T)) ∈ GtG(T)`` (minimality under homomorphism).

The witness is the generalised t-graph the Lemma 2 construction is applied
to inside the fpt-reduction of Theorem 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hom.homomorphism import maps_to
from ..hom.tgraph import GeneralizedTGraph
from ..hom.treewidth import ctw
from ..patterns.forest import WDPatternForest
from ..patterns.gtg import gtg
from ..patterns.tree import Subtree
from ..exceptions import ReductionError

__all__ = ["Lemma3Witness", "lemma3_witness"]


@dataclass(frozen=True)
class Lemma3Witness:
    """The witness produced by Lemma 3."""

    tree_index: int
    subtree: Subtree
    gtgraph: GeneralizedTGraph
    width: int

    def describe(self) -> str:
        """One-line summary used by the experiment harness."""
        return (
            f"tree {self.tree_index}, subtree nodes {sorted(self.subtree.nodes)}, "
            f"ctw = {self.width}"
        )


def lemma3_witness(forest: WDPatternForest, k: int) -> Lemma3Witness:
    """Find a subtree and a generalised t-graph satisfying Lemma 3 for the
    given width threshold ``k`` (requires ``dw(F) ≥ k``).

    Follows the proof: pick a subtree whose ``GtG`` is not ``(k−1)``-dominated,
    collect the members of ``GtG`` of core treewidth ≥ k that are not
    dominated by any low-width member, and return an element of a minimal
    strongly connected component of the homomorphism digraph on that set.
    """
    import networkx as nx

    if k < 1:
        raise ReductionError("the width threshold k must be at least 1")
    for tree_index, subtree in forest.subtrees():
        collection = list(gtg(forest, subtree))
        if not collection:
            continue
        widths = {member: ctw(member) for member in collection}
        low = [member for member in collection if widths[member] <= k - 1]
        candidates: List[GeneralizedTGraph] = []
        for member in collection:
            if widths[member] < k:
                continue
            if any(maps_to(low_member, member) for low_member in low):
                continue
            candidates.append(member)
        if not candidates:
            continue
        # Build the homomorphism digraph on the candidate set and pick an
        # element of a minimal (source-free w.r.t. condensation) SCC.
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(len(candidates)))
        for i, source in enumerate(candidates):
            for j, target in enumerate(candidates):
                if i != j and maps_to(source, target):
                    digraph.add_edge(i, j)
        condensation = nx.condensation(digraph)
        # A minimal SCC is one with no incoming edges in the condensation:
        # anything that maps into it already lies inside it, which is exactly
        # the minimality property Lemma 3 needs.
        for scc_node in condensation.nodes():
            if condensation.in_degree(scc_node) == 0:
                member_index = sorted(condensation.nodes[scc_node]["members"])[0]
                witness = candidates[member_index]
                return Lemma3Witness(
                    tree_index=tree_index,
                    subtree=subtree,
                    gtgraph=witness,
                    width=widths[witness],
                )
    raise ReductionError(
        f"no Lemma 3 witness of core treewidth >= {k} found; is dw(F) >= {k}?"
    )
