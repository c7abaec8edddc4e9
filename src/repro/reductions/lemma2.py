"""The construction of Lemma 2: from a wide generalised t-graph and a CLIQUE
instance to a generalised t-graph ``(B, X)``.

Given ``k ≥ 2``, an undirected graph ``H`` and a generalised t-graph
``(S, X)`` whose core's Gaifman graph admits a ``(k × K)``-grid minor map
(``K = C(k, 2)``), the construction produces ``(B, X)`` with:

1. every triple of ``S`` over ``X`` only is kept in ``B``;
2. ``(B, X) → (S, X)``;
3. ``H`` contains a k-clique iff ``(S, X) → (B, X)``;
4. the construction runs in fpt time.

This is the engine of the Theorem 2 hardness proof; it is Grohe's
construction adapted to distinguished variables exactly as in the paper's
appendix.  The Excluded Grid Theorem only guarantees *existence* of the grid
minor; here the caller supplies (or :mod:`repro.reductions.grid` finds) the
actual minor map, which exists by construction on the benchmark families.

Implementation note: the paper's ``Tr'`` refines triples *per occurrence* of
a variable; this implementation refines *per variable* (both occurrences of
the same core variable in one triple receive the same new variable).  The
resulting ``B`` is a subset of the paper's and still satisfies conditions
(1)-(4): the forward direction of condition (3) uses exactly a per-variable
refinement, and the backward direction only shrinks when ``B`` does.  The
tests verify all conditions explicitly on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from .grid import MinorMap, find_grid_minor_map
from ..hom.core import core_of
from ..hom.gaifman import gaifman_graph
from ..hom.tgraph import GeneralizedTGraph, TGraph
from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from ..exceptions import ReductionError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Lemma2Result", "lemma2_construction", "clique_number_pairs"]


def clique_number_pairs(k: int) -> List[Tuple[int, int]]:
    """The fixed bijection ``ρ`` between ``{1, ..., K}`` and the unordered
    pairs of ``{1, ..., k}`` (as a list indexed by ``p - 1``)."""
    return list(combinations(range(1, k + 1), 2))


def _encode(value: object) -> str:
    """Encode an arbitrary hashable (graph vertex, variable name, ...) into an
    identifier-safe fragment."""
    text = str(value)
    return "".join(ch if ch.isalnum() else "_" for ch in text)


@dataclass(frozen=True)
class Lemma2Result:
    """The output of the Lemma 2 construction.

    Attributes
    ----------
    b:
        The generalised t-graph ``(B, X)``.
    core:
        The core ``(C, X)`` of the input.
    minor_map:
        The grid minor map ``γ`` that was used.
    projection:
        The mapping ``Π`` from the new variables to the core variables they
        refine (used in tests to check ``(B, X) → (S, X)`` constructively).
    """

    b: GeneralizedTGraph
    core: GeneralizedTGraph
    minor_map: MinorMap
    projection: Dict[Variable, Variable]


def lemma2_construction(
    gtgraph: GeneralizedTGraph,
    host_graph: nx.Graph,
    k: int,
    minor_map: Optional[MinorMap] = None,
) -> Lemma2Result:
    """Build ``(B, X)`` from ``(S, X)``, the CLIQUE instance ``(H, k)`` and a
    ``(k × K)``-grid minor map of the core's Gaifman graph.

    When *minor_map* is ``None`` one is searched with
    :func:`repro.reductions.grid.find_grid_minor_map`.
    """
    if k < 2:
        raise ReductionError("the reduction requires clique size k >= 2")
    if host_graph.number_of_nodes() == 0:
        raise ReductionError("the host graph must be non-empty")

    pairs = clique_number_pairs(k)
    K = len(pairs)

    core = core_of(gtgraph)
    X = core.distinguished
    gaifman = gaifman_graph(core)
    if minor_map is None:
        minor_map = find_grid_minor_map(k, K, gaifman)

    # Vertices of the component F1 covered by the (onto) minor map.
    f1_vertices: set[Variable] = set()
    cell_of: Dict[Variable, Tuple[int, int]] = {}
    for (i, p), branch in minor_map.items():
        for vertex in branch:
            if not isinstance(vertex, Variable):
                raise ReductionError("the minor map must live on the Gaifman graph's variables")
            f1_vertices.add(vertex)
            cell_of[vertex] = (i, p)

    edges = [tuple(sorted(edge, key=str)) for edge in host_graph.edges()]
    vertices = sorted(host_graph.nodes(), key=str)
    if not edges:
        # Without edges H cannot contain a clique of size k >= 2; the
        # construction would produce an empty replacement set for some cells.
        raise ReductionError("the host graph must contain at least one edge")

    # The new variable set V: ?(v, e, i, p, ?a) with (v ∈ e <=> i ∈ ρ(p)).
    def new_variable(v: Hashable, e: Tuple[Hashable, Hashable], i: int, p: int, a: Variable) -> Variable:
        return Variable(
            f"b_{_encode(v)}__{_encode(e[0])}_{_encode(e[1])}__{i}_{p}__{a.name}"
        )

    replacements: Dict[Variable, List[Tuple[Variable, Hashable, Tuple[Hashable, Hashable], int, int]]] = {}
    projection: Dict[Variable, Variable] = {}
    for a in sorted(f1_vertices, key=lambda v: v.name):
        i, p = cell_of[a]
        members = set(pairs[p - 1])
        options: List[Tuple[Variable, Hashable, Tuple[Hashable, Hashable], int, int]] = []
        for e in edges:
            for v in vertices:
                belongs = v in e
                if belongs != (i in members):
                    continue
                var = new_variable(v, e, i, p, a)
                options.append((var, v, e, i, p))
                projection[var] = a
        if not options:
            raise ReductionError(
                f"no admissible (vertex, edge) pair for grid cell ({i}, {p}); "
                "the host graph is too small for the construction"
            )
        replacements[a] = options

    # Metadata for the consistency conditions (†).
    vertex_of: Dict[Variable, Hashable] = {}
    edge_of: Dict[Variable, Tuple[Hashable, Hashable]] = {}
    row_of: Dict[Variable, int] = {}
    col_of: Dict[Variable, int] = {}
    for options in replacements.values():
        for var, v, e, i, p in options:
            vertex_of[var] = v
            edge_of[var] = e
            row_of[var] = i
            col_of[var] = p

    def consistent(selected: List[Variable]) -> bool:
        for left, right in combinations(selected, 2):
            if row_of[left] == row_of[right] and vertex_of[left] != vertex_of[right]:
                return False
            if col_of[left] == col_of[right] and edge_of[left] != edge_of[right]:
                return False
        return True

    # Build Tr' and Tr0.
    b_triples: set[TriplePattern] = set()
    for triple in core.triples():
        non_distinguished = [v for v in triple.variables() if v not in X]
        if not set(non_distinguished) <= f1_vertices:
            # Tr0: the triple is kept verbatim.
            b_triples.add(triple)
            continue
        if not non_distinguished:
            # vars(t) ⊆ X: kept verbatim (this realises condition (1)).
            b_triples.add(triple)
            continue
        distinct = sorted(set(non_distinguished), key=lambda v: v.name)
        # Every way of refining each variable occurrence, subject to (†).
        def expand(index: int, substitution: Dict[Variable, Variable]) -> None:
            if index == len(distinct):
                selected = list(substitution.values())
                if consistent(selected):
                    b_triples.add(triple.substitute(substitution))
                return
            a = distinct[index]
            for var, _v, _e, _i, _p in replacements[a]:
                substitution[a] = var
                expand(index + 1, substitution)
            del substitution[a]

        expand(0, {})

    b = GeneralizedTGraph(TGraph(b_triples), X & TGraph(b_triples).variables())
    if X - b.distinguished:
        raise ReductionError(
            "some distinguished variables disappeared from B; the construction "
            "requires every X variable of the core to survive"
        )
    return Lemma2Result(b=b, core=core, minor_map=minor_map, projection=projection)
