"""Instances of the CLIQUE problem for the hardness experiments.

Theorem 2 reduces p-CLIQUE to ``p-co-wdEVAL``; these helpers generate the
CLIQUE side of that reduction: random graphs with and without planted
cliques, both as networkx graphs (the reduction machinery's native format)
and as RDF graphs (for the direct ``Q_k`` experiments).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "random_host_graph",
    "plant_clique",
    "clique_instance",
    "has_clique_bruteforce",
]


def random_host_graph(num_nodes: int, edge_probability: float, seed: Optional[int] = None) -> nx.Graph:
    """An Erdős–Rényi random graph ``G(n, p)``."""
    import networkx as nx

    return nx.gnp_random_graph(num_nodes, edge_probability, seed=seed)


def plant_clique(graph: nx.Graph, size: int, seed: Optional[int] = None) -> Tuple[nx.Graph, Tuple[int, ...]]:
    """Plant a clique of the given size into a copy of *graph*.

    Returns the new graph and the members of the planted clique.
    """
    if size > graph.number_of_nodes():
        raise ValueError("cannot plant a clique larger than the graph")
    rng = random.Random(seed)
    members = tuple(sorted(rng.sample(sorted(graph.nodes()), size)))
    planted = graph.copy()
    for u, v in combinations(members, 2):
        planted.add_edge(u, v)
    return planted, members


def clique_instance(
    num_nodes: int,
    clique_size: int,
    edge_probability: float = 0.3,
    planted: bool = True,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, int]:
    """A CLIQUE instance ``(H, k)``; with ``planted=True`` the answer is
    guaranteed to be "yes" (a k-clique is planted), otherwise the instance is
    a plain random graph (usually a "no" instance for sparse probabilities)."""
    host = random_host_graph(num_nodes, edge_probability, seed=seed)
    if planted:
        host, _ = plant_clique(host, clique_size, seed=seed)
    return host, clique_size


def has_clique_bruteforce(graph: nx.Graph, size: int) -> bool:
    """Reference decision procedure for CLIQUE (used to validate the reduction).

    Uses networkx's clique enumeration on small graphs.
    """
    import networkx as nx

    if size <= 1:
        return graph.number_of_nodes() >= size
    if size == 2:
        return graph.number_of_edges() > 0
    for clique in nx.find_cliques(graph):
        if len(clique) >= size:
            return True
    return False
