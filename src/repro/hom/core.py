"""Cores of generalised t-graphs.

``(S', X)`` is a *core of* ``(S, X)`` when it is a subgraph of ``(S, X)``
that is itself a core (no homomorphism to a proper subgraph), with
``(S, X) → (S', X)`` and ``(S', X) → (S, X)``.  Every generalised t-graph
has a unique core up to variable renaming (Proposition 1 of the paper), so
``core(S, X)`` is well defined.

The computation uses the classical greedy folding argument: as long as some
single triple ``t`` can be dropped while ``(S, X) → (S \\ {t}, X)`` still
holds, drop it; the fixpoint is a core.  (If a homomorphism to *some* proper
subgraph existed, composing with the inclusion would give one to a subgraph
missing a single triple, so the fixpoint indeed has no homomorphism to any
proper subgraph.)
"""

from __future__ import annotations

from typing import Optional

from .homomorphism import has_homomorphism
from .tgraph import GeneralizedTGraph, TGraph

__all__ = ["core_of", "is_core", "is_core_of", "hom_equivalent"]


def _retractable_triple(gtgraph: GeneralizedTGraph) -> Optional[TGraph]:
    """Return ``S \\ {t}`` for some triple ``t`` such that ``(S,X) → (S\\{t},X)``,
    or ``None`` when no single triple can be dropped."""
    fixed = {var: var for var in gtgraph.distinguished}
    triples = gtgraph.tgraph.triples()
    for t in sorted(triples):
        candidate = TGraph(triples - {t})
        if has_homomorphism(gtgraph.tgraph, candidate, fixed):
            return candidate
    return None


def core_of(gtgraph: GeneralizedTGraph) -> GeneralizedTGraph:
    """The core of a generalised t-graph (a subgraph of the input).

    >>> g = GeneralizedTGraph.of([("?x", "p", "?y"), ("?x", "p", "?z")], ["x"])
    >>> len(core_of(g).triples())
    1
    """
    current = gtgraph
    while True:
        smaller = _retractable_triple(current)
        if smaller is None:
            return current
        current = GeneralizedTGraph(smaller, gtgraph.distinguished & smaller.variables())


def is_core(gtgraph: GeneralizedTGraph) -> bool:
    """``True`` iff the generalised t-graph has no homomorphism to a proper subgraph."""
    return _retractable_triple(gtgraph) is None


def is_core_of(candidate: GeneralizedTGraph, gtgraph: GeneralizedTGraph) -> bool:
    """Check the defining conditions of "``candidate`` is a core of ``gtgraph``"."""
    if not candidate.tgraph.issubset(gtgraph.tgraph):
        return False
    if not is_core(candidate):
        return False
    fixed = {var: var for var in gtgraph.distinguished}
    forward = has_homomorphism(gtgraph.tgraph, candidate.tgraph, fixed)
    backward = has_homomorphism(candidate.tgraph, gtgraph.tgraph, fixed)
    return forward and backward


def hom_equivalent(left: GeneralizedTGraph, right: GeneralizedTGraph) -> bool:
    """Homomorphic equivalence ``(S, X) ⇄ (S', X)`` (both directions)."""
    if left.distinguished != right.distinguished:
        return False
    fixed = {var: var for var in left.distinguished}
    return has_homomorphism(left.tgraph, right.tgraph, fixed) and has_homomorphism(
        right.tgraph, left.tgraph, fixed
    )
