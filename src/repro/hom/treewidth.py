"""Treewidth: exact computation for small graphs, heuristics otherwise.

The paper's width measures are defined through the treewidth of Gaifman
graphs, with the convention that a graph with no vertices or no edges has
treewidth 1.  This module provides:

* :func:`treewidth_exact` — exact treewidth via the dynamic program over
  vertex subsets (minimum over elimination orderings of the maximum
  elimination degree), feasible up to roughly 16 vertices;
* :func:`treewidth_upper_bound` — min-fill-in / min-degree heuristics (via
  networkx), valid upper bounds for large graphs;
* :func:`treewidth_lower_bound` — the minor-min-width (MMD+) lower bound;
* :func:`treewidth` — exact when small, otherwise the heuristic bracket;
* :func:`tw` and :func:`ctw` — the paper's measures on generalised t-graphs
  (treewidth of the Gaifman graph, resp. of the Gaifman graph of the core),
  including the "no vertices or no edges ⇒ 1" convention;
* :func:`tree_decomposition` — an explicit decomposition witnessing the
  heuristic width (useful for inspection and testing).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, FrozenSet, Hashable, Tuple

from .core import core_of
from .gaifman import gaifman_graph
from .tgraph import GeneralizedTGraph

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "treewidth_exact",
    "treewidth_upper_bound",
    "treewidth_lower_bound",
    "treewidth",
    "tree_decomposition",
    "tw",
    "ctw",
    "DEFAULT_EXACT_THRESHOLD",
]

#: Largest number of vertices for which the exact subset dynamic program is used.
DEFAULT_EXACT_THRESHOLD = 16


def _connected_through(graph: nx.Graph, vertex: Hashable, through: FrozenSet[Hashable]) -> int:
    """The elimination degree of *vertex* once the set *through* has been
    eliminated: the number of vertices outside ``through ∪ {vertex}``
    reachable from *vertex* by a path whose internal vertices all lie in
    *through*.  Order-independent, which is what makes the subset DP sound."""
    seen = {vertex}
    stack = [vertex]
    external = set()
    while stack:
        current = stack.pop()
        for neighbour in graph.neighbors(current):
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in through:
                stack.append(neighbour)
            else:
                external.add(neighbour)
    return len(external)


def treewidth_exact(graph: nx.Graph) -> int:
    """Exact treewidth of an undirected graph (empty graph has treewidth 0).

    Uses the classical O(2^n · poly) dynamic program over subsets of vertices:
    ``f(S) = min_{v ∈ S} max(f(S \\ {v}), d(v, S \\ {v}))`` where ``d`` is the
    order-independent elimination degree; the treewidth is ``f(V)``.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return 0
    if graph.number_of_edges() == 0:
        return 0
    # Treewidth is the maximum over connected components.
    components = list(nx.connected_components(graph))
    if len(components) > 1:
        return max(treewidth_exact(graph.subgraph(component).copy()) for component in components)

    vertices = tuple(sorted(graph.nodes(), key=str))
    index_of = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    if n > 26:
        raise ValueError(
            f"treewidth_exact() is limited to 26 vertices, got {n}; "
            "use treewidth_upper_bound()/treewidth_lower_bound() instead"
        )

    @lru_cache(maxsize=None)
    def best_width(mask: int) -> int:
        if mask == 0:
            return 0
        best = n  # upper bound: eliminating into a clique of everything
        members = [vertices[i] for i in range(n) if mask & (1 << i)]
        through_all = frozenset(members)
        for v in members:
            rest_mask = mask & ~(1 << index_of[v])
            degree = _connected_through(graph, v, frozenset(through_all - {v}))
            if degree >= best:
                continue
            candidate = max(best_width(rest_mask), degree)
            if candidate < best:
                best = candidate
        return best

    full_mask = (1 << n) - 1
    return best_width(full_mask)


def treewidth_upper_bound(graph: nx.Graph) -> int:
    """A heuristic upper bound (best of min-degree and min-fill-in)."""
    from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

    if graph.number_of_nodes() == 0 or graph.number_of_edges() == 0:
        return 0
    width_degree, _ = treewidth_min_degree(graph)
    width_fill, _ = treewidth_min_fill_in(graph)
    return min(width_degree, width_fill)


def treewidth_lower_bound(graph: nx.Graph) -> int:
    """The minor-min-width (MMD+) lower bound on treewidth."""
    import networkx as nx

    if graph.number_of_nodes() == 0 or graph.number_of_edges() == 0:
        return 0
    work = graph.copy()
    best = 0
    while work.number_of_nodes() > 1:
        degrees = dict(work.degree())
        v = min(degrees, key=lambda u: (degrees[u], str(u)))
        best = max(best, degrees[v])
        neighbours = list(work.neighbors(v))
        if not neighbours:
            work.remove_node(v)
            continue
        # Contract v into its minimum-degree neighbour.
        u = min(neighbours, key=lambda w: (degrees[w], str(w)))
        work = nx.contracted_nodes(work, u, v, self_loops=False)
    return best


def treewidth(graph: nx.Graph, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> int:
    """Treewidth of a graph: exact when the graph is small, otherwise the
    heuristic upper bound (which equals the exact value on the structured
    graphs used by the paper's families — cliques, trees and grids are all
    handled exactly by min-fill-in)."""
    if graph.number_of_nodes() <= exact_threshold:
        return treewidth_exact(graph)
    lower = treewidth_lower_bound(graph)
    upper = treewidth_upper_bound(graph)
    if lower == upper:
        return upper
    return upper


def tree_decomposition(graph: nx.Graph) -> Tuple[int, nx.Graph]:
    """A tree decomposition (width, decomposition) via the min-fill-in heuristic.

    The decomposition is a networkx tree whose nodes are frozensets (bags).
    For an empty or edgeless graph a single-bag decomposition is returned.
    """
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    if graph.number_of_nodes() == 0:
        tree = nx.Graph()
        tree.add_node(frozenset())
        return 0, tree
    if graph.number_of_edges() == 0:
        tree = nx.Graph()
        nodes = list(graph.nodes())
        previous = None
        for node in nodes:
            bag = frozenset({node})
            tree.add_node(bag)
            if previous is not None:
                tree.add_edge(previous, bag)
            previous = bag
        return 0, tree
    width, decomposition = treewidth_min_fill_in(graph)
    return width, decomposition


def _paper_convention(width: int, graph: nx.Graph) -> int:
    """Apply the paper's convention: no vertices or no edges ⇒ treewidth 1."""
    if graph.number_of_nodes() == 0 or graph.number_of_edges() == 0:
        return 1
    return max(width, 1)


def tw(gtgraph: GeneralizedTGraph, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> int:
    """``tw(S, X)``: treewidth of the Gaifman graph, with the paper's convention
    that an edgeless (or empty) Gaifman graph has treewidth 1."""
    graph = gaifman_graph(gtgraph)
    return _paper_convention(treewidth(graph, exact_threshold), graph)


def ctw(gtgraph: GeneralizedTGraph, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> int:
    """``ctw(S, X) = tw(core(S, X))`` — the core treewidth used throughout the paper."""
    return tw(core_of(gtgraph), exact_threshold)
