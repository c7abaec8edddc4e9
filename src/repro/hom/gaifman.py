"""Gaifman graphs of generalised t-graphs.

The Gaifman graph ``G(S, X)`` has as vertices the non-distinguished variables
``vars(S) \\ X`` and an edge between two distinct variables whenever they
co-occur in a triple pattern of ``S`` (Section 3 of the paper).  Treewidth of
a generalised t-graph is defined as the treewidth of its Gaifman graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from .tgraph import GeneralizedTGraph, TGraph
from ..rdf.terms import Variable

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["gaifman_graph", "gaifman_graph_of_tgraph"]


def gaifman_graph(gtgraph: GeneralizedTGraph) -> nx.Graph:
    """The Gaifman graph of ``(S, X)`` as a networkx graph.

    Vertices are the non-distinguished variables; distinguished variables and
    constants do not appear (they behave like constants for treewidth
    purposes, exactly as in the paper).
    """
    import networkx as nx

    graph = nx.Graph()
    existential = gtgraph.existential_variables()
    graph.add_nodes_from(existential)
    for triple in gtgraph.triples():
        triple_vars = [v for v in triple.variables() if v in existential]
        for u, v in combinations(sorted(set(triple_vars), key=lambda x: x.name), 2):
            graph.add_edge(u, v)
    return graph


def gaifman_graph_of_tgraph(tgraph: TGraph, distinguished: Iterable[Variable] = ()) -> nx.Graph:
    """Convenience wrapper building the Gaifman graph directly from a t-graph."""
    return gaifman_graph(GeneralizedTGraph(tgraph, frozenset(distinguished) & tgraph.variables()))
