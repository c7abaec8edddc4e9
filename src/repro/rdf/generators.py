"""Synthetic RDF graph generators.

The paper's algorithms are evaluated on RDF graphs; since PODS papers ship no
data sets, these generators produce structured and random graphs used by the
tests, the examples and the benchmark harness:

* :func:`random_graph` — Erdős–Rényi style random triples over a fixed
  vocabulary;
* :func:`power_law_graph` — Zipf-weighted endpoints, so node degrees follow
  a power law with a few heavy hubs; the large-graph tier of the benchmark
  harness draws 10⁵–10⁶ triples from it;
* :func:`path_graph`, :func:`cycle_graph`, :func:`grid_graph`,
  :func:`clique_graph`, :func:`star_graph`, :func:`tree_graph` — structured
  graphs whose homomorphism behaviour is well understood;
* :func:`social_network_graph` — a small-world style FOAF-ish graph used by
  the social-network example and the evaluation benchmarks;
* :func:`from_networkx` — import any (di)graph from networkx, labelling
  edges with a single predicate.

The generators that scale (:func:`random_graph`, :func:`power_law_graph`,
:func:`social_network_graph`, :func:`from_networkx`) materialise their triples
first and bulk-load them through :meth:`RDFGraph.from_triples
<repro.rdf.graph.RDFGraph.from_triples>`, which sorts each permutation column
once instead of maintaining the indexes per insert.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import TYPE_CHECKING, List, Optional, Sequence

from .graph import RDFGraph
from .namespace import EX, FOAF
from .terms import IRI
from .triples import Triple

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "random_graph",
    "power_law_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "clique_graph",
    "star_graph",
    "tree_graph",
    "social_network_graph",
    "from_networkx",
]


def _node_iri(index: int, prefix: str = "node") -> IRI:
    return EX.term(f"{prefix}{index}")


def random_graph(
    num_nodes: int,
    num_triples: int,
    predicates: Sequence[str] = ("p", "q", "r"),
    seed: Optional[int] = None,
) -> RDFGraph:
    """A uniformly random RDF graph over ``num_nodes`` IRIs.

    Each triple picks a uniformly random subject, predicate (from
    *predicates*) and object.  Duplicate draws are allowed, so the result may
    contain fewer than ``num_triples`` distinct triples.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    rng = random.Random(seed)
    nodes = [_node_iri(i) for i in range(num_nodes)]
    preds = [EX.term(p) for p in predicates]
    triples = [
        Triple(rng.choice(nodes), rng.choice(preds), rng.choice(nodes))
        for _ in range(num_triples)
    ]
    return RDFGraph.from_triples(triples)


def power_law_graph(
    num_nodes: int,
    num_triples: int,
    predicates: Sequence[str] = ("p", "q", "r"),
    exponent: float = 2.0,
    seed: Optional[int] = None,
) -> RDFGraph:
    """A random graph whose node degrees follow a power law.

    Subjects and objects are drawn from a Zipf distribution over the nodes
    (node ``i`` with weight ``(i + 1) ** -exponent``), so low-index nodes
    become heavy hubs while the tail stays sparse — the degree profile of
    real-world RDF data sets, and the stress profile for the columnar
    store's range scans (hub predicates/subjects produce long runs).
    Duplicate draws are allowed, so the result may contain fewer than
    ``num_triples`` distinct triples.

    The draws use :meth:`random.Random.choices` with precomputed cumulative
    weights (binary search at C speed per draw) and the triples are bulk
    loaded, so generating a million-triple graph takes seconds.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_triples < 0:
        raise ValueError("num_triples must be non-negative")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    rng = random.Random(seed)
    nodes = [_node_iri(i) for i in range(num_nodes)]
    preds = [EX.term(p) for p in predicates]
    cum_weights = list(accumulate((i + 1) ** -exponent for i in range(num_nodes)))
    subjects = rng.choices(nodes, cum_weights=cum_weights, k=num_triples)
    objects = rng.choices(nodes, cum_weights=cum_weights, k=num_triples)
    chosen_preds = rng.choices(preds, k=num_triples)
    return RDFGraph.from_triples(
        Triple(s, p, o) for s, p, o in zip(subjects, chosen_preds, objects)
    )


def path_graph(length: int, predicate: str = "edge") -> RDFGraph:
    """A directed path ``n0 -edge-> n1 -edge-> ... -edge-> n_length``."""
    if length < 0:
        raise ValueError("length must be non-negative")
    pred = EX.term(predicate)
    graph = RDFGraph()
    for i in range(length):
        graph.add(Triple(_node_iri(i), pred, _node_iri(i + 1)))
    return graph


def cycle_graph(length: int, predicate: str = "edge") -> RDFGraph:
    """A directed cycle of the given length (length >= 1)."""
    if length < 1:
        raise ValueError("cycle length must be at least 1")
    pred = EX.term(predicate)
    graph = RDFGraph()
    for i in range(length):
        graph.add(Triple(_node_iri(i), pred, _node_iri((i + 1) % length)))
    return graph


def grid_graph(rows: int, cols: int, predicate: str = "edge") -> RDFGraph:
    """The (rows × cols) grid with edges in both directions (so that
    undirected-grid homomorphisms are available)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    pred = EX.term(predicate)
    graph = RDFGraph()

    def node(i: int, j: int) -> IRI:
        return EX.term(f"cell_{i}_{j}")

    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                graph.add(Triple(node(i, j), pred, node(i + 1, j)))
                graph.add(Triple(node(i + 1, j), pred, node(i, j)))
            if j + 1 < cols:
                graph.add(Triple(node(i, j), pred, node(i, j + 1)))
                graph.add(Triple(node(i, j + 1), pred, node(i, j)))
    return graph


def clique_graph(size: int, predicate: str = "edge", symmetric: bool = True) -> RDFGraph:
    """The complete graph on ``size`` nodes as an RDF graph (no self loops)."""
    if size < 1:
        raise ValueError("clique size must be positive")
    pred = EX.term(predicate)
    graph = RDFGraph()
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if not symmetric and i > j:
                continue
            graph.add(Triple(_node_iri(i), pred, _node_iri(j)))
    return graph


def star_graph(leaves: int, predicate: str = "edge") -> RDFGraph:
    """A star: a centre node connected to ``leaves`` leaf nodes."""
    if leaves < 0:
        raise ValueError("number of leaves must be non-negative")
    pred = EX.term(predicate)
    centre = EX.term("centre")
    graph = RDFGraph()
    for i in range(leaves):
        graph.add(Triple(centre, pred, _node_iri(i, prefix="leaf")))
    return graph


def tree_graph(depth: int, branching: int, predicate: str = "edge") -> RDFGraph:
    """A complete rooted tree of the given depth and branching factor."""
    if depth < 0 or branching < 1:
        raise ValueError("depth must be >= 0 and branching >= 1")
    pred = EX.term(predicate)
    graph = RDFGraph()
    frontier = [EX.term("root")]
    counter = 0
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(branching):
                child = _node_iri(counter, prefix="t")
                counter += 1
                graph.add(Triple(parent, pred, child))
                next_frontier.append(child)
        frontier = next_frontier
    return graph


def social_network_graph(
    num_people: int,
    avg_friends: int = 4,
    email_probability: float = 0.6,
    phone_probability: float = 0.3,
    city_count: int = 5,
    seed: Optional[int] = None,
) -> RDFGraph:
    """A synthetic FOAF-style social network.

    People ``know`` each other (Watts–Strogatz small world), most have an
    ``mbox``, some have a ``phone`` and everyone ``basedNear`` one of a small
    number of cities.  Optional attributes are exactly the kind of data the
    OPTIONAL operator is designed for, which makes this the motivating
    workload for the evaluation examples.
    """
    import networkx as nx

    if num_people < 3:
        raise ValueError("need at least 3 people")
    rng = random.Random(seed)
    k = max(2, min(avg_friends, num_people - 1))
    if k % 2 == 1:
        k += 1
    social = nx.watts_strogatz_graph(num_people, k, 0.2, seed=seed)
    triples: List[Triple] = []
    people = [EX.term(f"person{i}") for i in range(num_people)]
    cities = [EX.term(f"city{i}") for i in range(city_count)]
    for i, person in enumerate(people):
        triples.append(Triple(person, FOAF.name, EX.term(f"name{i}")))
        triples.append(Triple(person, FOAF.basedNear, rng.choice(cities)))
        if rng.random() < email_probability:
            triples.append(Triple(person, FOAF.mbox, EX.term(f"mailto_person{i}")))
        if rng.random() < phone_probability:
            triples.append(Triple(person, FOAF.phone, EX.term(f"tel_person{i}")))
    for u, v in social.edges():
        triples.append(Triple(people[u], FOAF.knows, people[v]))
        triples.append(Triple(people[v], FOAF.knows, people[u]))
    return RDFGraph.from_triples(triples)


def from_networkx(
    nx_graph: "nx.Graph | nx.DiGraph",
    predicate: str = "edge",
    symmetric: Optional[bool] = None,
) -> RDFGraph:
    """Convert a networkx (di)graph to an RDF graph with one predicate.

    For undirected graphs each edge is emitted in both directions unless
    *symmetric* is explicitly ``False``.
    """
    pred = EX.term(predicate)
    directed = nx_graph.is_directed()
    if symmetric is None:
        symmetric = not directed
    triples: List[Triple] = []
    node_iris = {node: EX.term(f"v{node}") for node in nx_graph.nodes()}
    for u, v in nx_graph.edges():
        triples.append(Triple(node_iris[u], pred, node_iris[v]))
        if symmetric:
            triples.append(Triple(node_iris[v], pred, node_iris[u]))
    return RDFGraph.from_triples(triples)
