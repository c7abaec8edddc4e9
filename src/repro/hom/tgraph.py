"""Triple-pattern graphs (t-graphs) and generalised t-graphs.

A *t-graph* is a finite set of triple patterns; an RDF graph is exactly a
t-graph without variables.  A *generalised t-graph* is a pair ``(S, X)``
where ``S`` is a t-graph and ``X ⊆ vars(S)`` is a set of distinguished
variables that every homomorphism must fix pointwise (Section 3 of the
paper).  These are the structures on which homomorphisms, cores, treewidth
and the pebble game operate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set

from ..rdf.graph import RDFGraph
from ..rdf.terms import GroundTerm, IRI, Term, Variable
from ..rdf.triples import TriplePattern
from ..exceptions import ReproError

__all__ = ["TGraph", "GeneralizedTGraph", "freeze_tgraph", "fresh_variable_renaming"]


class TGraph:
    """An immutable finite set of triple patterns.

    >>> s = TGraph.of(("?x", "p", "?y"), ("?y", "p", "?z"))
    >>> len(s)
    2
    >>> sorted(str(v) for v in s.variables())
    ['?x', '?y', '?z']
    """

    __slots__ = ("_triples", "_hash")

    def __init__(self, triples: Iterable[TriplePattern] = ()) -> None:
        frozen = frozenset(triples)
        for t in frozen:
            if not isinstance(t, TriplePattern):
                raise TypeError(f"t-graphs contain triple patterns, got {type(t).__name__}")
        object.__setattr__(self, "_triples", frozen)
        object.__setattr__(self, "_hash", hash(frozen))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TGraph instances are immutable")

    def __reduce__(self):
        return (TGraph, (tuple(self._triples),))

    # --- constructors ---------------------------------------------------------
    @classmethod
    def of(cls, *patterns: tuple) -> "TGraph":
        """Build a t-graph from ``(s, p, o)`` tuples of terms or strings."""
        return cls(TriplePattern.of(*p) for p in patterns)

    @classmethod
    def from_rdf_graph(cls, graph: RDFGraph) -> "TGraph":
        """View an RDF graph as a (variable-free) t-graph."""
        return cls(graph.triples())

    # --- set protocol ----------------------------------------------------------
    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, item: object) -> bool:
        return item in self._triples

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TGraph) and self._triples == other._triples

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(t) for t in sorted(self._triples))
        return f"TGraph({{{inner}}})"

    def triples(self) -> FrozenSet[TriplePattern]:
        """The underlying frozen set of triple patterns."""
        return self._triples

    # --- algebra ------------------------------------------------------------------
    def union(self, other: "TGraph | Iterable[TriplePattern]") -> "TGraph":
        """The union of two t-graphs."""
        other_triples = other.triples() if isinstance(other, TGraph) else frozenset(other)
        return TGraph(self._triples | other_triples)

    def difference(self, other: "TGraph | Iterable[TriplePattern]") -> "TGraph":
        """The triples of ``self`` not in ``other``."""
        other_triples = other.triples() if isinstance(other, TGraph) else frozenset(other)
        return TGraph(self._triples - other_triples)

    def issubset(self, other: "TGraph") -> bool:
        """``self ⊆ other``."""
        return self._triples <= other.triples()

    def is_proper_subset(self, other: "TGraph") -> bool:
        """``self ⊊ other``."""
        return self._triples < other.triples()

    # --- queries ---------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        """``vars(S)``."""
        result: Set[Variable] = set()
        for t in self._triples:
            result.update(t.variables())
        return frozenset(result)

    def constants(self) -> FrozenSet[GroundTerm]:
        """The IRIs and literals occurring in the t-graph."""
        result: Set[GroundTerm] = set()
        for t in self._triples:
            result.update(t.constants())
        return frozenset(result)

    def terms(self) -> FrozenSet[Term]:
        """All terms (variables and constants) occurring in the t-graph."""
        return frozenset(self.variables()) | frozenset(self.constants())

    def is_ground(self) -> bool:
        """``True`` when the t-graph contains no variables (i.e. is an RDF graph)."""
        return not self.variables()

    def to_rdf_graph(self) -> RDFGraph:
        """Convert to an :class:`RDFGraph`; requires the t-graph to be ground."""
        if not self.is_ground():
            raise ReproError("only ground t-graphs can be converted to RDF graphs")
        return RDFGraph(self._triples)

    # --- substitution -------------------------------------------------------------------
    def substitute(self, assignment: Mapping[Variable, Term]) -> "TGraph":
        """Apply a partial substitution to every triple pattern."""
        return TGraph(t.substitute(assignment) for t in self._triples)

    def rename(self, renaming: Mapping[Variable, Variable]) -> "TGraph":
        """Rename variables."""
        return self.substitute(renaming)


class GeneralizedTGraph:
    """A pair ``(S, X)`` of a t-graph and a set of distinguished variables.

    Homomorphisms between generalised t-graphs with the same ``X`` must map
    every variable of ``X`` to itself; homomorphisms into an RDF graph under a
    mapping ``µ`` with ``dom(µ) = X`` must map every ``?x ∈ X`` to ``µ(?x)``.
    """

    __slots__ = ("tgraph", "distinguished")

    def __init__(self, tgraph: TGraph | Iterable[TriplePattern], distinguished: Iterable[Variable] = ()) -> None:
        if not isinstance(tgraph, TGraph):
            tgraph = TGraph(tgraph)
        distinguished_set = frozenset(distinguished)
        for var in distinguished_set:
            if not isinstance(var, Variable):
                raise TypeError("distinguished elements must be variables")
        if not distinguished_set <= tgraph.variables():
            extra = sorted(str(v) for v in distinguished_set - tgraph.variables())
            raise ReproError(
                f"distinguished variables must occur in the t-graph; missing: {', '.join(extra)}"
            )
        object.__setattr__(self, "tgraph", tgraph)
        object.__setattr__(self, "distinguished", distinguished_set)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GeneralizedTGraph instances are immutable")

    def __reduce__(self):
        return (GeneralizedTGraph, (self.tgraph, self.distinguished))

    # --- constructors ----------------------------------------------------------------
    @classmethod
    def of(cls, patterns: Iterable[tuple], distinguished: Iterable[str] = ()) -> "GeneralizedTGraph":
        """Build from ``(s, p, o)`` tuples and distinguished variable names."""
        tgraph = TGraph(TriplePattern.of(*p) for p in patterns)
        return cls(tgraph, frozenset(Variable(name) for name in distinguished))

    # --- protocol -----------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GeneralizedTGraph)
            and self.tgraph == other.tgraph
            and self.distinguished == other.distinguished
        )

    def __hash__(self) -> int:
        return hash((self.tgraph, self.distinguished))

    def __repr__(self) -> str:
        dist = ", ".join(str(v) for v in sorted(self.distinguished))
        return f"GeneralizedTGraph({self.tgraph!r}, X={{{dist}}})"

    # --- queries ----------------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        """``vars(S)``."""
        return self.tgraph.variables()

    def existential_variables(self) -> FrozenSet[Variable]:
        """``vars(S) \\ X`` — the non-distinguished (quantified) variables."""
        return self.tgraph.variables() - self.distinguished

    def triples(self) -> FrozenSet[TriplePattern]:
        """The triple patterns of ``S``."""
        return self.tgraph.triples()

    def is_subgraph_of(self, other: "GeneralizedTGraph") -> bool:
        """``(S', X)`` is a subgraph of ``(S, X)`` when ``S' ⊆ S`` and the
        distinguished sets coincide."""
        return self.distinguished == other.distinguished and self.tgraph.issubset(other.tgraph)

    def subgraph(self, triples: Iterable[TriplePattern]) -> "GeneralizedTGraph":
        """The generalised t-graph induced by a subset of the triples."""
        sub = TGraph(triples)
        if not sub.issubset(self.tgraph):
            raise ReproError("subgraph() requires a subset of the original triples")
        return GeneralizedTGraph(sub, self.distinguished & sub.variables())

    def with_distinguished(self, distinguished: Iterable[Variable]) -> "GeneralizedTGraph":
        """The same t-graph with a different distinguished set."""
        return GeneralizedTGraph(self.tgraph, distinguished)


def fresh_variable_renaming(
    variables: Iterable[Variable],
    avoid: Iterable[Variable],
    prefix: str = "fresh",
) -> Dict[Variable, Variable]:
    """A renaming of *variables* to fresh variables not occurring in *avoid*.

    Used when building the renamed t-graph assignments ``ρ_Δ`` of the paper,
    which require the non-shared variables of distinct children to be renamed
    apart.
    """
    avoid_names = {v.name for v in avoid} | {v.name for v in variables}
    renaming: Dict[Variable, Variable] = {}
    counter = 0
    for var in sorted(variables, key=lambda v: v.name):
        while True:
            candidate = f"{prefix}_{var.name}_{counter}"
            counter += 1
            if candidate not in avoid_names:
                avoid_names.add(candidate)
                renaming[var] = Variable(candidate)
                break
    return renaming


def freeze_tgraph(tgraph: TGraph, prefix: str = "urn:frozen:") -> tuple[RDFGraph, Dict[Variable, IRI]]:
    """Freeze the variables of a t-graph into IRIs, producing an RDF graph.

    This is the operation used in the proof of Theorem 2: the t-graph ``B``
    is reinterpreted as an RDF graph ``G = {Ψ(t) | t ∈ B}`` where ``Ψ`` maps
    each variable ``?x`` to a fresh IRI ``a_?x``.  Returns the graph together
    with the freezing map ``Ψ`` restricted to variables.
    """
    freezing: Dict[Variable, IRI] = {
        var: IRI(f"{prefix}{var.name}") for var in tgraph.variables()
    }
    graph = RDFGraph()
    for t in tgraph:
        graph.add(t.apply({**freezing}))
    return graph, freezing
