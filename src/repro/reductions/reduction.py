"""The fpt-reduction from p-CLIQUE to p-co-wdEVAL (Theorem 2).

Given a CLIQUE instance ``(H, k)`` and a wdPF ``F`` of sufficiently large
domination width, the reduction

1. extracts a Lemma 3 witness ``(S, vars(T)) ∈ GtG(T)`` of large core
   treewidth;
2. applies the Lemma 2 construction to obtain ``(B, vars(T))``;
3. freezes ``B`` into an RDF graph ``G`` and takes ``µ`` to be the freezing
   of the distinguished variables;

and guarantees that ``H`` contains a k-clique **iff** ``µ ∉ ⟦F⟧G``.

:func:`solve_clique_via_wdeval` packages the reduction into an actual CLIQUE
decision procedure (using a query from the unbounded-width family
``Q_m`` of :mod:`repro.workloads.families` as the class member), which the
tests validate against brute force and the benchmarks time as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Callable, Optional

from .lemma2 import Lemma2Result, lemma2_construction
from .lemma3 import Lemma3Witness, lemma3_witness
from ..evaluation.wdeval import forest_contains
from ..hom.tgraph import freeze_tgraph
from ..patterns.forest import WDPatternForest
from ..rdf.graph import RDFGraph
from ..sparql.mappings import Mapping
from ..workloads.families import hard_clique_tree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ReductionInstance", "clique_reduction", "minimum_family_index", "solve_clique_via_wdeval"]


@dataclass(frozen=True)
class ReductionInstance:
    """The co-wdEVAL instance ``(F, G, µ)`` produced by the reduction,
    together with the intermediate artefacts (for inspection and testing)."""

    forest: WDPatternForest
    graph: RDFGraph
    mapping: Mapping
    witness: Lemma3Witness
    lemma2: Lemma2Result

    def co_wdeval_answer(self, contains: Optional[Callable[..., bool]] = None) -> bool:
        """Evaluate the instance: ``True`` iff ``µ ∉ ⟦F⟧G`` (which, by the
        correctness of the reduction, holds iff ``H`` has a k-clique)."""
        contains = contains or forest_contains
        return not contains(self.forest, self.graph, self.mapping)


def clique_reduction(
    forest: WDPatternForest,
    host_graph: nx.Graph,
    k: int,
    witness: Optional[Lemma3Witness] = None,
) -> ReductionInstance:
    """Build the co-wdEVAL instance for the CLIQUE instance ``(H, k)``.

    The forest plays the role of the class member ``P ∈ C`` found by
    enumerating the class; its Lemma 3 witness must have core treewidth large
    enough to host a ``(k × C(k,2))``-grid minor (on the benchmark families
    the witness's Gaifman core is a clique, so this means at least
    ``k·C(k,2)`` clique vertices).
    """
    if witness is None:
        # The (k x C(k,2))-grid has treewidth min(k, C(k,2)); ask Lemma 3 for a
        # witness at least that wide so that the grid has a chance to embed.
        grid_treewidth = max(1, min(k, comb(k, 2)))
        witness = lemma3_witness(forest, k=grid_treewidth)
    lemma2 = lemma2_construction(witness.gtgraph, host_graph, k)
    graph, freezing = freeze_tgraph(lemma2.b.tgraph)
    mu = Mapping({var: freezing[var] for var in witness.gtgraph.distinguished})
    return ReductionInstance(
        forest=forest, graph=graph, mapping=mu, witness=witness, lemma2=lemma2
    )


def minimum_family_index(k: int) -> int:
    """The smallest index ``m`` such that ``Q_m`` (whose witness core Gaifman
    graph is the clique ``K_m``) can host the ``(k × C(k,2))``-grid needed to
    reduce k-CLIQUE: ``m = max(2, k · C(k, 2))``."""
    return max(2, k * comb(k, 2))


def solve_clique_via_wdeval(
    host_graph: nx.Graph,
    k: int,
    family: Callable[[int], "object"] = hard_clique_tree,
    family_index: Optional[int] = None,
    contains: Optional[Callable[..., bool]] = None,
) -> bool:
    """Decide whether ``host_graph`` has a k-clique by running the Theorem 2
    reduction and evaluating the resulting co-wdEVAL instance.

    ``family`` maps an index to a wdPT of the unbounded-width class (the
    default is the ``Q_m`` family); ``family_index`` defaults to
    :func:`minimum_family_index`.
    """
    if k < 2:
        return host_graph.number_of_nodes() >= k
    if host_graph.number_of_edges() == 0:
        # No edges, no clique of size >= 2 — and the Lemma 2 construction
        # needs at least one edge to populate its replacement variables.
        return False
    index = family_index if family_index is not None else minimum_family_index(k)
    tree = family(index)
    forest = WDPatternForest([tree])
    instance = clique_reduction(forest, host_graph, k)
    return instance.co_wdeval_answer(contains)
