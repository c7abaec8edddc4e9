"""The query families used in the paper, as generators.

Every worked example of the paper is reproduced here programmatically:

* :func:`example1_patterns` — the patterns ``P1`` (well-designed) and ``P2``
  (not well-designed) of Example 1;
* :func:`example2_pattern` — the UNION pattern ``P`` of Example 2 whose
  ``wdpf`` is ``{T1, T2}``;
* :func:`kk_tgraph` — the clique t-graph ``K_k(?o1, ..., ?ok)``;
* :func:`example3_gtgraphs` — the generalised t-graphs ``(S, X)`` and
  ``(S', X)`` of Figure 1 / Example 3;
* :func:`fk_forest` / :func:`fk_pattern` — the forest ``F_k = {T1, T2, T3}``
  of Figure 2 and Examples 4–5 (domination width 1, local width ``k − 1``);
* :func:`tprime_tree` / :func:`tprime_pattern` — the UNION-free family
  ``T'_k`` of Section 3.2 (branch treewidth 1, not locally tractable);
* :func:`hard_clique_tree` / :func:`hard_clique_pattern` — a family of
  *unbounded* branch treewidth (hence unbounded domination width), the
  workload of the hardness experiments;
* :func:`chain_tree` / :func:`chain_pattern` — a plain OPT chain (bounded
  everything), used as a control;
* data-graph generators tailored to those families.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..hom.tgraph import GeneralizedTGraph
from ..patterns.forest import WDPatternForest
from ..patterns.tree import WDPatternTree
from ..rdf.generators import random_graph
from ..rdf.graph import RDFGraph
from ..rdf.namespace import EX
from ..rdf.triples import Triple
from ..sparql.algebra import GraphPattern, conj, opt_chain, tp, union_of
from ..sparql.parser import parse_pattern

__all__ = [
    "example1_patterns",
    "example2_pattern",
    "kk_tgraph",
    "example3_gtgraphs",
    "fk_forest",
    "fk_pattern",
    "tprime_tree",
    "tprime_pattern",
    "hard_clique_tree",
    "hard_clique_pattern",
    "chain_tree",
    "chain_pattern",
    "fk_data_graph",
    "tprime_data_graph",
    "clique_query_data_graph",
]


#: Predicate IRIs shared by the family queries and their data generators so
#: that generated data actually matches the queries.
P_PRED = EX.term("p").value
Q_PRED = EX.term("q").value
R_PRED = EX.term("r").value


# ---------------------------------------------------------------------------
# Examples 1-3
# ---------------------------------------------------------------------------


def example1_patterns() -> Tuple[GraphPattern, GraphPattern]:
    """The patterns ``P1`` (well-designed) and ``P2`` (not) of Example 1."""
    p1 = parse_pattern(
        "(((?x p ?y) OPT (?z q ?x)) OPT ((?y r ?o1) AND (?o1 r ?o2)))"
    )
    p2 = parse_pattern(
        "(((?x p ?y) OPT (?z q ?x)) OPT ((?y r ?z) AND (?z r ?o2)))"
    )
    return p1, p2


def example2_pattern(k: int = 2) -> GraphPattern:
    """The pattern ``P`` of Example 2: ``P1 UNION ((?x,p,?y) OPT ((?z,q,?x) AND (?w,q,?z)))``.

    For ``k = 2`` its ``wdpf`` is exactly ``{T1, T2}`` of Figure 2.
    """
    p1 = opt_chain(
        tp("?x", P_PRED, "?y").opt(tp("?z", Q_PRED, "?x")),
        conj([tp("?y", R_PRED, "?o1")] + [tp(s, p, o) for s, p, o in kk_tgraph(k)]),
    )
    p2 = tp("?x", P_PRED, "?y").opt(tp("?z", Q_PRED, "?x").and_(tp("?w", Q_PRED, "?z")))
    return p1.union(p2)


def kk_tgraph(k: int, prefix: str = "o", predicate: str | None = None) -> List[Tuple[str, str, str]]:
    """The clique t-graph ``K_k(?o1, ..., ?ok)`` of Example 3 as triple tuples.

    ``K_k := {(?oi, r, ?oj) | 1 ≤ i < j ≤ k}``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if predicate is None:
        predicate = R_PRED
    return [
        (f"?{prefix}{i}", predicate, f"?{prefix}{j}")
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
    ]


def example3_gtgraphs(k: int) -> Tuple[GeneralizedTGraph, GeneralizedTGraph]:
    """The generalised t-graphs ``(S, X)`` and ``(S', X)`` of Figure 1.

    ``X = {?x, ?y, ?z}``;
    ``S = {(?z,q,?x), (?x,p,?y), (?y,r,?o1)} ∪ K_k``;
    ``S' = S ∪ {(?y,r,?o), (?o,r,?o)}``.

    The paper shows ``ctw(S, X) = k − 1`` (S is a core whose Gaifman graph is
    the k-clique) while ``ctw(S', X) = 1`` and ``tw(S', X) = k − 1``.
    """
    if k < 2:
        raise ValueError("Example 3 requires k >= 2")
    base = [("?z", Q_PRED, "?x"), ("?x", P_PRED, "?y"), ("?y", R_PRED, "?o1")] + kk_tgraph(k)
    s = GeneralizedTGraph.of(base, ["x", "y", "z"])
    s_prime = GeneralizedTGraph.of(
        base + [("?y", R_PRED, "?o"), ("?o", R_PRED, "?o")], ["x", "y", "z"]
    )
    return s, s_prime


# ---------------------------------------------------------------------------
# Figure 2: the forest F_k of Examples 4-5
# ---------------------------------------------------------------------------


def fk_forest(k: int) -> WDPatternForest:
    """The wdPF ``F_k = {T1, T2, T3}`` of Figure 2.

    * ``T1``: root ``r1 = {(?x,p,?y)}`` with children
      ``n11 = {(?z,q,?x)}`` and ``n12 = {(?y,r,?o1)} ∪ K_k``;
    * ``T2``: root ``r2 = {(?x,p,?y)}`` with child
      ``n2 = {(?z,q,?x), (?w,q,?z)}``;
    * ``T3``: root ``r3 = {(?x,p,?y), (?z,q,?x)}`` with child
      ``n3 = {(?y,r,?o), (?o,r,?o)}``.

    Example 5 shows ``dw(F_k) = 1`` for every ``k ≥ 2`` even though the class
    is not locally tractable (node ``n12`` has local width ``k − 1``).
    """
    if k < 2:
        raise ValueError("the F_k family requires k >= 2")
    t1 = WDPatternTree.from_node_specs(
        [
            (None, [("?x", P_PRED, "?y")]),
            (0, [("?z", Q_PRED, "?x")]),
            (0, [("?y", R_PRED, "?o1")] + kk_tgraph(k)),
        ]
    )
    t2 = WDPatternTree.from_node_specs(
        [
            (None, [("?x", P_PRED, "?y")]),
            (0, [("?z", Q_PRED, "?x"), ("?w", Q_PRED, "?z")]),
        ]
    )
    t3 = WDPatternTree.from_node_specs(
        [
            (None, [("?x", P_PRED, "?y"), ("?z", Q_PRED, "?x")]),
            (0, [("?y", R_PRED, "?o"), ("?o", R_PRED, "?o")]),
        ]
    )
    return WDPatternForest([t1, t2, t3])


def fk_pattern(k: int) -> GraphPattern:
    """A well-designed graph pattern whose ``wdpf`` is (isomorphic to) ``F_k``."""
    if k < 2:
        raise ValueError("the F_k family requires k >= 2")
    p1 = opt_chain(
        tp("?x", P_PRED, "?y").opt(tp("?z", Q_PRED, "?x")),
        conj([tp("?y", R_PRED, "?o1")] + [tp(*t) for t in kk_tgraph(k)]),
    )
    p2 = tp("?x", P_PRED, "?y").opt(tp("?z", Q_PRED, "?x").and_(tp("?w", Q_PRED, "?z")))
    p3 = (tp("?x", P_PRED, "?y").and_(tp("?z", Q_PRED, "?x"))).opt(
        tp("?y", R_PRED, "?o").and_(tp("?o", R_PRED, "?o"))
    )
    return union_of([p1, p2, p3])


# ---------------------------------------------------------------------------
# Section 3.2: the UNION-free family T'_k
# ---------------------------------------------------------------------------


def tprime_tree(k: int) -> WDPatternTree:
    """The wdPT ``T'_k`` of Section 3.2.

    Root ``{(?y, r, ?y)}`` with a single child
    ``{(?y, r, ?o1)} ∪ K_k(?o1, ..., ?ok)``.  Branch treewidth 1 (the branch
    t-graph's core collapses onto the self-loop) but local width ``k − 1``,
    so the family is tractable by Theorem 1 yet not locally tractable.
    """
    if k < 2:
        raise ValueError("the T'_k family requires k >= 2")
    return WDPatternTree.from_node_specs(
        [
            (None, [("?y", R_PRED, "?y")]),
            (0, [("?y", R_PRED, "?o1")] + kk_tgraph(k)),
        ]
    )


def tprime_pattern(k: int) -> GraphPattern:
    """The graph pattern ``(?y,r,?y) OPT ({(?y,r,?o1)} ∪ K_k)`` of Section 3.2."""
    if k < 2:
        raise ValueError("the T'_k family requires k >= 2")
    return tp("?y", R_PRED, "?y").opt(
        conj([tp("?y", R_PRED, "?o1")] + [tp(*t) for t in kk_tgraph(k)])
    )


# ---------------------------------------------------------------------------
# A family of unbounded domination width (the hardness workload)
# ---------------------------------------------------------------------------


def hard_clique_tree(k: int) -> WDPatternTree:
    """The tree ``Q_k``: root ``{(?x, p, ?y)}``, child ``{(?y,r,?o1)} ∪ K_k``.

    Unlike ``T'_k`` the root carries no self-loop, so the branch t-graph's
    clique cannot collapse: ``bw(Q_k) = dw(Q_k) = k − 1``.  The class
    ``{Q_k | k ≥ 2}`` therefore has unbounded domination width and is the
    workload of the Theorem 2 experiments: refuting ``µ ∈ ⟦Q_k⟧G`` amounts to
    finding a k-clique in the ``r``-edges of ``G``.
    """
    if k < 2:
        raise ValueError("the Q_k family requires k >= 2")
    return WDPatternTree.from_node_specs(
        [
            (None, [("?x", P_PRED, "?y")]),
            (0, [("?y", R_PRED, "?o1")] + kk_tgraph(k)),
        ]
    )


def hard_clique_pattern(k: int) -> GraphPattern:
    """The graph pattern of ``Q_k``."""
    if k < 2:
        raise ValueError("the Q_k family requires k >= 2")
    return tp("?x", P_PRED, "?y").opt(
        conj([tp("?y", R_PRED, "?o1")] + [tp(*t) for t in kk_tgraph(k)])
    )


# ---------------------------------------------------------------------------
# Control family: an OPT chain (bounded local width)
# ---------------------------------------------------------------------------


def chain_tree(depth: int) -> WDPatternTree:
    """An OPT chain of the given depth: node ``i`` holds ``(?x_i, p, ?x_{i+1})``.

    Locally tractable (local width 1), hence also of domination width 1; used
    as a control workload.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    specs: List[Tuple[Optional[int], List[Tuple[str, str, str]]]] = [
        (None, [("?x0", P_PRED, "?x1")])
    ]
    for i in range(1, depth):
        specs.append((i - 1, [(f"?x{i}", P_PRED, f"?x{i + 1}")]))
    return WDPatternTree.from_node_specs(specs)


def chain_pattern(depth: int) -> GraphPattern:
    """The OPT-chain graph pattern of :func:`chain_tree`.

    The OPT operators nest to the *right* (``t0 OPT (t1 OPT (t2 ...))``):
    left-nesting would re-use the fresh variable of one optional part outside
    its OPT subpattern and break well-designedness.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    result: GraphPattern = tp(f"?x{depth - 1}", P_PRED, f"?x{depth}")
    for i in range(depth - 2, -1, -1):
        result = tp(f"?x{i}", P_PRED, f"?x{i + 1}").opt(result)
    return result


# ---------------------------------------------------------------------------
# Data graphs tailored to the families
# ---------------------------------------------------------------------------


def fk_data_graph(
    num_nodes: int,
    num_triples: int,
    clique_size: int = 0,
    seed: Optional[int] = None,
) -> RDFGraph:
    """A random data graph over predicates ``p``, ``q``, ``r`` for the ``F_k``
    and ``T'_k`` families, optionally containing an ``r``-clique of the given
    size (which makes the OPT extensions of the clique-shaped children
    succeed)."""
    rng = random.Random(seed)
    graph = random_graph(num_nodes, num_triples, predicates=("p", "q", "r"), seed=seed)
    if clique_size > 1:
        members = [EX.term(f"clique{i}") for i in range(clique_size)]
        r = EX.term("r")
        for i, u in enumerate(members):
            for j, v in enumerate(members):
                if i != j:
                    graph.add(Triple(u, r, v))
        # Attach the clique to a random existing node with an r-edge so that
        # the (?y, r, ?o1) connector triple can be satisfied.
        anchor = EX.term(f"node{rng.randrange(num_nodes)}")
        graph.add(Triple(anchor, r, members[0]))
    return graph


def tprime_data_graph(
    num_nodes: int,
    num_triples: int,
    with_self_loop: bool = True,
    seed: Optional[int] = None,
) -> RDFGraph:
    """A data graph for the ``T'_k`` family: random ``r``-edges plus an
    optional self-loop (the root pattern ``(?y, r, ?y)`` needs one)."""
    graph = random_graph(num_nodes, num_triples, predicates=("r",), seed=seed)
    if with_self_loop:
        loop_node = EX.term("loop")
        graph.add(Triple(loop_node, EX.term("r"), loop_node))
    return graph


def clique_query_data_graph(
    host_graph: "object",
    anchor_edges: int = 1,
    seed: Optional[int] = None,
) -> RDFGraph:
    """Encode a networkx graph as the ``r``-edges of an RDF graph and add a
    ``p``-edge anchor so that the root of ``Q_k`` matches.

    Returns a graph in which ``µ = {?x → a, ?y → b}`` (the anchor edge) is a
    solution of ``Q_k`` iff the host graph has no k-clique reachable from the
    anchor — the membership question the hardness experiments ask.
    """
    import networkx as nx

    from ..rdf.generators import from_networkx

    if not isinstance(host_graph, nx.Graph):
        raise TypeError("clique_query_data_graph expects a networkx Graph")
    graph = from_networkx(host_graph, predicate="r")
    nodes = sorted(host_graph.nodes())
    anchor_subject = EX.term("anchor")
    p = EX.term("p")
    for index in range(anchor_edges):
        target_node = nodes[index % len(nodes)] if nodes else 0
        target = EX.term(f"v{target_node}")
        graph.add(Triple(anchor_subject, p, target))
        # The connector (?y, r, ?o1) needs an r-edge out of the anchor target;
        # it already has one whenever the host node has a neighbour.
    return graph
