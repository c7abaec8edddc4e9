"""The existential k-pebble game (Kolaitis–Vardi).

The game is played by the Spoiler and the Duplicator on a generalised
t-graph ``(S, X)``, an RDF graph ``G`` and a mapping ``µ`` with
``dom(µ) = X``.  The Duplicator wins when he can forever keep the pebbled
configuration a partial homomorphism extending ``µ``; we write
``(S, X) →µ_k G`` in that case.

Deciding the winner is the polynomial-time *k-consistency* computation
(Proposition 2 of the paper): compute the largest family ``H`` of partial
homomorphisms over at most ``k`` non-distinguished variables that is closed
under restrictions and has the forth (extension) property; the Duplicator
wins iff the empty partial homomorphism survives.

Two implementations are provided behind a single entry point:

* ``k = 2`` — the dominant case in practice (classes of domination width 1
  are evaluated with the existential 2-pebble game): an AC-3 style
  propagation over singleton domains and binary relations, equivalent to the
  generic fixpoint but far cheaper;
* ``k ≥ 3`` — the generic level-wise fixpoint over partial homomorphisms of
  size ≤ k.

:func:`pebble_game_winner` delegates to the indexed
:class:`~repro.pebble.kernel.ConsistencyKernel`, which precomputes the
µ-independent part of the game (constraint grouping, base domains, binary
supports) per ``(structure, graph version, k)`` and answers each mapping by
restriction; :func:`reference_pebble_game_winner` is the direct per-call
implementation the kernel is tested against (identical verdicts).

The two key facts used by the paper are exposed here and exercised by the
test suite:

* ``(S, X) →µ G`` implies ``(S, X) →µ_k G`` (the game is a relaxation);
* when ``ctw(S, X) ≤ k − 1`` the relaxation is exact (Proposition 3,
  following Dalmau–Kolaitis–Vardi).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from ..hom.tgraph import GeneralizedTGraph
from ..rdf.graph import RDFGraph
from ..rdf.terms import GroundTerm, Variable
from ..rdf.triples import TriplePattern
from ..sparql.mappings import Mapping
from ..exceptions import EvaluationError

__all__ = [
    "pebble_game_winner",
    "reference_pebble_game_winner",
]

#: A partial assignment of non-distinguished variables, as a sorted tuple of
#: (variable, value) pairs so that it can live in sets.
_PartialHom = Tuple[Tuple[Variable, GroundTerm], ...]


def _as_tuple(assignment: Dict[Variable, GroundTerm]) -> _PartialHom:
    return tuple(sorted(assignment.items(), key=lambda kv: kv[0].name))


def _satisfies(
    triples: Iterable[TriplePattern],
    combined: Dict[Variable, GroundTerm],
    graph: RDFGraph,
) -> bool:
    """Check that every fully-covered triple is mapped into the graph."""
    covered = set(combined)
    for t in triples:
        if t.variables() <= covered and t.substitute(combined) not in graph:
            return False
    return True


def pebble_game_winner(
    gtgraph: GeneralizedTGraph,
    graph: RDFGraph,
    mu: Mapping,
    k: int,
    budget=None,
) -> bool:
    """Decide whether the Duplicator wins the existential k-pebble game.

    Returns ``True`` iff ``(S, X) →µ_k G``.  Requires ``k ≥ 2`` and
    ``dom(µ) = X``.

    Delegates to a fresh :class:`~repro.pebble.kernel.ConsistencyKernel`;
    callers answering many mappings on one ``(S, X)`` and graph should build
    the kernel once (or go through the evaluation cache, which does).
    """
    from .kernel import ConsistencyKernel  # deferred: kernel imports this module

    return ConsistencyKernel(gtgraph, graph, k).winner(mu, budget)


def reference_pebble_game_winner(
    gtgraph: GeneralizedTGraph,
    graph: RDFGraph,
    mu: Mapping,
    k: int,
) -> bool:
    """The per-call k-consistency computation (no precomputation, no sharing).

    Rebuilds the constraint grouping, domains and support relations from
    scratch on every invocation — the behaviour :func:`pebble_game_winner`
    had before the indexed kernel existed.  Kept as the executable
    specification the kernel is benchmarked and property-tested against.
    """
    if k < 2:
        raise ValueError("the existential pebble game requires k >= 2")
    if mu.domain() != gtgraph.distinguished:
        raise EvaluationError(
            "pebble_game_winner() requires dom(µ) to equal the distinguished set X"
        )

    triples = list(gtgraph.triples())
    fixed: Dict[Variable, GroundTerm] = {var: mu[var] for var in gtgraph.distinguished}
    existential = sorted(gtgraph.existential_variables(), key=lambda v: v.name)

    # Fully distinguished triples must already be satisfied by µ, otherwise
    # even the empty configuration is not a partial homomorphism.
    if not _satisfies(triples, dict(fixed), graph):
        return False
    if not existential:
        # Property (1) of the paper: with no existential variables the game
        # degenerates to the homomorphism test, which µ already passed.
        return True

    domain_values = sorted(graph.domain(), key=str)
    if not domain_values:
        # There are existential variables but the Duplicator has no element
        # to answer with: he loses immediately.
        return False

    if k == 2:
        return _winner_two_pebbles(triples, fixed, existential, domain_values, graph)
    return _winner_generic(triples, fixed, existential, domain_values, graph, k)


# ---------------------------------------------------------------------------
# k = 2: arc-consistency formulation
# ---------------------------------------------------------------------------


def _winner_two_pebbles(
    triples: List[TriplePattern],
    fixed: Dict[Variable, GroundTerm],
    existential: List[Variable],
    domain_values: List[GroundTerm],
    graph: RDFGraph,
) -> bool:
    """Existential 2-pebble game via pairwise consistency.

    With two pebbles the only constraints that can ever become fully covered
    involve at most two existential variables, so the family of partial
    homomorphisms factors into per-variable domains and per-pair relations;
    the fixpoint is then ordinary arc consistency and the Duplicator wins iff
    no domain empties out.
    """
    existential_set = set(existential)

    # Group constraints by the existential variables they involve.
    unary: Dict[Variable, List[TriplePattern]] = defaultdict(list)
    binary: Dict[Tuple[Variable, Variable], List[TriplePattern]] = defaultdict(list)
    for t in triples:
        t_existential = tuple(sorted(t.variables() & existential_set, key=lambda v: v.name))
        if len(t_existential) == 1:
            unary[t_existential[0]].append(t)
        elif len(t_existential) == 2:
            binary[t_existential].append(t)
        # Triples with three existential variables are never fully covered by
        # two pebbles and impose no constraint; fully-distinguished triples
        # were checked by the caller.

    # Singleton domains.
    domains: Dict[Variable, Set[GroundTerm]] = {}
    for var in existential:
        values: Set[GroundTerm] = set()
        for value in domain_values:
            combined = dict(fixed)
            combined[var] = value
            if _satisfies(unary.get(var, ()), combined, graph):
                values.add(value)
        domains[var] = values
        if not values:
            return False

    # Binary relations restricted to current domains.
    supports: Dict[Tuple[Variable, Variable], Dict[GroundTerm, Set[GroundTerm]]] = {}
    neighbours: Dict[Variable, Set[Variable]] = defaultdict(set)
    for (u, v), constraint_triples in binary.items():
        relation: Dict[GroundTerm, Set[GroundTerm]] = defaultdict(set)
        for a in domains[u]:
            for b in domains[v]:
                combined = dict(fixed)
                combined[u] = a
                combined[v] = b
                if _satisfies(constraint_triples, combined, graph):
                    relation[a].add(b)
        supports[(u, v)] = dict(relation)
        neighbours[u].add(v)
        neighbours[v].add(u)

    def supported(u: Variable, a: GroundTerm, v: Variable) -> bool:
        """Does value a of u have a surviving partner in v's domain?"""
        if (u, v) in supports:
            partners = supports[(u, v)].get(a, ())
            return any(b in domains[v] for b in partners)
        relation = supports[(v, u)]
        return any(a in relation.get(b, ()) for b in domains[v])

    # AC-3 style propagation.
    queue: List[Variable] = list(existential)
    while queue:
        var = queue.pop()
        for value in list(domains[var]):
            if any(not supported(var, value, other) for other in neighbours[var]):
                domains[var].discard(value)
                if not domains[var]:
                    return False
                for other in neighbours[var]:
                    if other not in queue:
                        queue.append(other)
    return all(domains[var] for var in existential)


# ---------------------------------------------------------------------------
# general k: fixpoint over partial homomorphisms of size <= k
# ---------------------------------------------------------------------------


def _winner_generic(
    triples: List[TriplePattern],
    fixed: Dict[Variable, GroundTerm],
    existential: List[Variable],
    domain_values: List[GroundTerm],
    graph: RDFGraph,
    k: int,
) -> bool:
    """Generic k-consistency fixpoint (used for k >= 3)."""
    triples_of_var: Dict[Variable, List[TriplePattern]] = defaultdict(list)
    for t in triples:
        for var in t.variables():
            if var not in fixed:
                triples_of_var[var].append(t)

    # Level-wise generation of all partial homomorphisms of size <= k.  When
    # extending an assignment by one variable only the triples mentioning the
    # new variable need re-checking.
    levels: List[Set[_PartialHom]] = [set() for _ in range(k + 1)]
    levels[0].add(())
    for size in range(1, k + 1):
        for smaller in levels[size - 1]:
            assignment: Dict[Variable, GroundTerm] = dict(smaller)
            combined = dict(fixed)
            combined.update(assignment)
            for var in existential:
                if var in assignment:
                    continue
                for value in domain_values:
                    combined[var] = value
                    if _satisfies(triples_of_var[var], combined, graph):
                        assignment[var] = value
                        levels[size].add(_as_tuple(assignment))
                        del assignment[var]
                del combined[var]

    family: Set[_PartialHom] = set()
    for level in levels:
        family.update(level)

    changed = True
    while changed:
        changed = False
        for item in list(family):
            if item not in family:
                continue
            assignment = dict(item)
            size = len(assignment)
            remove = False
            # Downward closure: all one-step restrictions must be alive.
            for var in assignment:
                restricted = {v: t for v, t in assignment.items() if v != var}
                if _as_tuple(restricted) not in family:
                    remove = True
                    break
            # Forth property: every missing variable must have a live extension.
            if not remove and size < k:
                for var in existential:
                    if var in assignment:
                        continue
                    has_extension = False
                    for value in domain_values:
                        assignment[var] = value
                        if _as_tuple(assignment) in family:
                            has_extension = True
                            break
                    del assignment[var]
                    if not has_extension:
                        remove = True
                        break
            if remove:
                family.discard(item)
                changed = True

    return () in family
