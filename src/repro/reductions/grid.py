"""Grids and minor maps.

The hardness proof (Theorem 2) relies on the Excluded Grid Theorem to obtain
a ``(k × K)``-grid minor inside the Gaifman graph of a wide core.  The
theorem itself is non-constructive (and the bound ``w(k)`` astronomically
large), so this module provides the piece the construction actually
consumes: a *minor map* ``γ`` from the grid onto a connected component of the
host graph.  On the benchmark families the host component is a clique, so a
minor map with singleton branch sets (i.e. a subgraph embedding) always
exists and is found by a direct construction or by subgraph monomorphism
search; :func:`extend_minor_map_onto` then absorbs the remaining vertices so
that the map is onto the component, as required by the proof of Lemma 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..exceptions import ReductionError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "grid_graph",
    "is_minor_map",
    "minor_map_into_clique",
    "minor_map_by_monomorphism",
    "extend_minor_map_onto",
    "find_grid_minor_map",
]

#: A minor map: grid vertex -> non-empty set of host vertices (branch set).
MinorMap = Dict[Tuple[int, int], FrozenSet[Hashable]]


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """The ``(rows × cols)``-grid with vertex set ``{1..rows} × {1..cols}``."""
    import networkx as nx

    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    graph = nx.Graph()
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            graph.add_node((i, j))
            if i > 1:
                graph.add_edge((i - 1, j), (i, j))
            if j > 1:
                graph.add_edge((i, j - 1), (i, j))
    return graph


def is_minor_map(minor: nx.Graph, host: nx.Graph, gamma: Dict) -> bool:
    """Check the three conditions of a minor map: branch sets are non-empty
    and connected, pairwise disjoint, and every minor edge has a host edge
    between the corresponding branch sets."""
    import networkx as nx

    seen: set = set()
    for vertex in minor.nodes():
        branch = gamma.get(vertex)
        if not branch:
            return False
        if not nx.is_connected(host.subgraph(branch)):
            return False
        if seen & set(branch):
            return False
        seen.update(branch)
    for u, v in minor.edges():
        if not any(host.has_edge(a, b) for a in gamma[u] for b in gamma[v]):
            return False
    return True


def minor_map_into_clique(rows: int, cols: int, clique_vertices: List[Hashable]) -> MinorMap:
    """A minor map of the ``(rows × cols)``-grid into a clique on the given
    vertices (singleton branch sets; requires ``rows * cols`` vertices)."""
    needed = rows * cols
    if len(clique_vertices) < needed:
        raise ReductionError(
            f"clique has {len(clique_vertices)} vertices but the grid needs {needed}"
        )
    ordered = list(clique_vertices)[:needed]
    gamma: MinorMap = {}
    index = 0
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            gamma[(i, j)] = frozenset({ordered[index]})
            index += 1
    return gamma


def minor_map_by_monomorphism(minor: nx.Graph, host: nx.Graph) -> Optional[MinorMap]:
    """A minor map with singleton branch sets obtained from a subgraph
    monomorphism of *minor* into *host* (None when no monomorphism exists)."""
    from networkx.algorithms import isomorphism

    matcher = isomorphism.GraphMatcher(host, minor)
    for mapping in matcher.subgraph_monomorphisms_iter():
        inverse = {minor_vertex: host_vertex for host_vertex, minor_vertex in mapping.items()}
        return {vertex: frozenset({inverse[vertex]}) for vertex in minor.nodes()}
    return None


def extend_minor_map_onto(gamma: MinorMap, host: nx.Graph) -> MinorMap:
    """Extend a minor map so that the branch sets cover the whole connected
    component they live in (the "onto" requirement of Lemma 2's proof).

    Unassigned vertices of the component are absorbed, breadth-first, into an
    adjacent branch set; this keeps every branch set connected.
    """
    import networkx as nx

    assigned: Dict[Hashable, Tuple[int, int]] = {}
    for grid_vertex, branch in gamma.items():
        for host_vertex in branch:
            assigned[host_vertex] = grid_vertex
    component: set = set()
    for host_vertex in assigned:
        component.update(nx.node_connected_component(host, host_vertex))
    result = {vertex: set(branch) for vertex, branch in gamma.items()}
    remaining = set(component) - set(assigned)
    progress = True
    while remaining and progress:
        progress = False
        for host_vertex in sorted(remaining, key=str):
            for neighbour in host.neighbors(host_vertex):
                if neighbour in assigned:
                    owner = assigned[neighbour]
                    result[owner].add(host_vertex)
                    assigned[host_vertex] = owner
                    remaining.discard(host_vertex)
                    progress = True
                    break
    if remaining:
        raise ReductionError("could not extend the minor map onto its component")
    return {vertex: frozenset(branch) for vertex, branch in result.items()}


def find_grid_minor_map(rows: int, cols: int, host: nx.Graph) -> MinorMap:
    """Find a minor map of the ``(rows × cols)``-grid onto a connected
    component of *host*.

    Strategy: try each connected component (largest first); inside a
    component, if it is a clique use the direct construction, otherwise
    search for a subgraph monomorphism of the grid.  Raises
    :class:`ReductionError` when no map is found — in the paper's setting the
    Excluded Grid Theorem guarantees existence once the treewidth is large
    enough, but this implementation only searches for embeddings it can find
    efficiently.
    """
    import networkx as nx

    grid = grid_graph(rows, cols)
    components = sorted(nx.connected_components(host), key=len, reverse=True)
    for component in components:
        subgraph = host.subgraph(component)
        n = subgraph.number_of_nodes()
        if n < rows * cols:
            continue
        is_clique = subgraph.number_of_edges() == n * (n - 1) // 2
        if is_clique:
            gamma = minor_map_into_clique(rows, cols, sorted(component, key=str))
        else:
            gamma = minor_map_by_monomorphism(grid, subgraph)
            if gamma is None:
                continue
        return extend_minor_map_onto(gamma, host.subgraph(component))
    raise ReductionError(
        f"no ({rows}x{cols})-grid minor map found in any connected component of the host graph"
    )
