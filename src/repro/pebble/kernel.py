"""An indexed k-consistency kernel for the existential pebble game.

:func:`~repro.pebble.game.pebble_game_winner` historically rebuilt the whole
k-consistency instance — constraint grouping, singleton domains, binary
support relations, even ``dom(G)`` — from scratch on every ``(µ, child)``
invocation.  In the Theorem 1 evaluation algorithm the generalised t-graph
``(pat(T^µ) ∪ pat(n), vars(T^µ))`` and the data graph are *fixed* across
every candidate mapping; only the distinguished bindings change.  The kernel
makes that split explicit:

* **setup** (once per ``(structure, graph version, k)``): classify the
  triples by their existential-variable signature, and build the
  µ-independent per-variable base domains and the forward/backward support
  adjacency of every purely existential binary relation through index
  joins — :meth:`~repro.hom.homomorphism.TargetIndex.pattern_solutions`
  over a shared target index when one is supplied, the graph's own
  pattern-matching indexes otherwise — in time proportional to the number
  of *matching* triples instead of the ``O(|dom(G)|² · |triples|)`` nested
  generate-and-test (with a fresh dict copy per candidate) of the per-call
  implementation.  Pairs of variables stating the same relation (the six
  ``r``-edges of a ``K_4``, say) share one adjacency.  The graph-dependent
  state is built lazily on the first solve that needs it, so instances that
  short-circuit (no existential variables, µ violating a distinguished
  triple) stay as cheap as before; :meth:`ConsistencyKernel.prepare` forces
  it up front, which the cache does before charging a kernel's size;
* **solve** (once per mapping ``µ``): restrict the precomputed domains
  under the distinguished bindings and narrow the adjacency of only those
  pairs whose constraints mention a distinguished variable — the
  restriction of each constraint depends only on ``µ`` projected to the
  distinguished variables it mentions, so restrictions are memoized and
  shared across mappings — then run a worklist AC-3 (set-backed queue, no
  ``O(n)`` membership scans) that reads the shared adjacency as is and
  tests a support with one ``set.isdisjoint`` for ``k = 2``, or the generic
  fixpoint seeded from the precomputed level-0 family for ``k ≥ 3``.  No
  support structure that does not depend on ``µ`` is rebuilt per solve.

Verdicts are identical to the per-call implementation
(:func:`~repro.pebble.game.reference_pebble_game_winner`) on every input.

A kernel notices graph mutations through :attr:`RDFGraph.version` and
transparently rebuilds its graph-dependent state, so a long-lived kernel
never serves stale verdicts.  It references its graph **weakly**: a kernel
outliving its graph (only possible in caches) raises on use instead of
keeping the graph alive, so the evaluation cache's collect-on-GC store
eviction keeps working.  :class:`~repro.evaluation.cache.EvaluationCache`
keeps one kernel per ``(instance structure, pebbles)`` per graph version,
shared by every mapping that reaches the same child instance, which is
where the per-mapping reuse pays off.
"""

from __future__ import annotations

import weakref
from typing import Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .game import _as_tuple, _satisfies
from ..hom.homomorphism import TargetIndex
from ..hom.tgraph import GeneralizedTGraph
from ..rdf.graph import RDFGraph
from ..rdf.terms import GroundTerm, Variable
from ..rdf.triples import TriplePattern
from ..sparql.mappings import Mapping
from ..exceptions import EvaluationError

__all__ = ["ConsistencyKernel"]

#: A (value, value) support pair of a binary constraint group.
_Pair = Tuple[GroundTerm, GroundTerm]

#: One direction of a binary relation: the partners of each value.
_Partners = Dict[GroundTerm, FrozenSet[GroundTerm]]

#: The placeholders a pair's purely existential triples are renamed to, so
#: that pairs stating the same relation get one key and share one adjacency.
_FIRST = Variable("_first")
_SECOND = Variable("_second")

_NO_PARTNERS: FrozenSet[GroundTerm] = frozenset()

#: Upper bound on the per-µ restriction memos of one kernel.  Kernels live in
#: the evaluation cache, whose size accounting charges them once at insertion;
#: without a bound a stream of mappings with ever-new distinguished
#: projections would grow the memos past anything the cache accounted for.
_RESTRICTION_MEMO_LIMIT = 4096


class ConsistencyKernel:
    """Precomputed existential *k*-pebble game for one ``(S, X)`` and graph.

    Parameters
    ----------
    gtgraph:
        The generalised t-graph ``(S, X)`` the game is played on.
    graph:
        The RDF graph.  The kernel snapshots its :attr:`~RDFGraph.version`
        and refreshes itself when the graph is mutated; the reference is
        weak — callers must keep the graph alive while they use the kernel.
    k:
        The number of pebbles (``k ≥ 2``).
    index:
        An optional prebuilt :class:`TargetIndex` over *graph* (for example
        the evaluation cache's shared index).  Must describe exactly the
        graph's triples at its current version; when omitted the kernel
        joins against the graph's own pattern-matching indexes.

    >>> from repro.hom.tgraph import GeneralizedTGraph
    >>> from repro.rdf import RDFGraph, Triple
    >>> from repro.sparql.mappings import Mapping
    >>> g = RDFGraph([Triple.of("a", "p", "b")])
    >>> kernel = ConsistencyKernel(GeneralizedTGraph.of([("?x", "p", "?y")], ["x"]), g, 2)
    >>> kernel.winner(Mapping.of(x="a"))
    True
    """

    __slots__ = (
        "_gtgraph",
        "_graph_ref",
        "_k",
        "_distinguished",
        "_existential",
        "_existential_set",
        "_triples",
        "_checked",
        "_pure_unary",
        "_mixed_unary",
        "_binary_pairs",
        "_relation_of",
        "_mixed_binary",
        "_neighbours",
        "_triples_of_var",
        "_version",
        "_index",
        "_domain_values",
        "_base_domains",
        "_adjacency",
        "_unary_memo",
        "_binary_memo",
    )

    def __init__(
        self,
        gtgraph: GeneralizedTGraph,
        graph: RDFGraph,
        k: int,
        index: Optional[TargetIndex] = None,
    ) -> None:
        if k < 2:
            raise ValueError("the existential pebble game requires k >= 2")
        self._gtgraph = gtgraph
        self._graph_ref = weakref.ref(graph)
        self._k = k
        self._classify_structure()
        self._reset_graph_state(graph, index)

    # --- introspection -----------------------------------------------------
    @property
    def gtgraph(self) -> GeneralizedTGraph:
        """The generalised t-graph ``(S, X)`` this kernel answers for."""
        return self._gtgraph

    @property
    def graph(self) -> RDFGraph:
        """The RDF graph this kernel answers against (weakly referenced)."""
        graph = self._graph_ref()
        if graph is None:
            raise EvaluationError(
                "the graph of this ConsistencyKernel has been garbage collected"
            )
        return graph

    @property
    def k(self) -> int:
        """The number of pebbles."""
        return self._k

    @property
    def version(self) -> int:
        """The graph version the precomputed state is valid for."""
        return self._version

    def cost(self) -> int:
        """A rough size measure of the precomputed state (for cache budgets).

        A support adjacency shared by several pairs counts once.
        """
        pairs = sum(
            len(partners)
            for forward, _backward in self._adjacency.values()
            for partners in forward.values()
        )
        values = sum(len(d) for d in self._base_domains.values() if d is not None)
        domain = len(self._domain_values) if self._domain_values is not None else 0
        return 1 + domain + values + pairs

    def __repr__(self) -> str:
        return (
            f"ConsistencyKernel(<{len(self._triples)} triples, "
            f"{len(self._existential)} existential, k={self._k}>)"
        )

    # --- µ-independent structure setup ------------------------------------
    def _classify_structure(self) -> None:
        """Group the triples by their existential-variable signature."""
        self._distinguished = self._gtgraph.distinguished
        existential = sorted(self._gtgraph.existential_variables(), key=lambda v: v.name)
        self._existential: Tuple[Variable, ...] = tuple(existential)
        self._existential_set: FrozenSet[Variable] = frozenset(existential)
        self._triples: List[TriplePattern] = list(self._gtgraph.triples())

        # Fully distinguished triples: µ must satisfy them outright.
        self._checked: List[TriplePattern] = []
        # Unary/binary constraint groups, split into the µ-independent (pure:
        # no distinguished variables) and µ-dependent (mixed) parts.
        self._pure_unary: Dict[Variable, List[TriplePattern]] = {}
        self._mixed_unary: Dict[Variable, List[TriplePattern]] = {}
        pure_binary: Dict[Tuple[Variable, Variable], List[TriplePattern]] = {}
        self._mixed_binary: Dict[Tuple[Variable, Variable], List[TriplePattern]] = {}
        neighbours: Dict[Variable, Set[Variable]] = {}
        # For the generic fixpoint: the triples mentioning each existential
        # variable (the ones to re-check when that variable is assigned).
        self._triples_of_var: Dict[Variable, List[TriplePattern]] = {
            var: [] for var in existential
        }

        for t in self._triples:
            t_existential = tuple(
                sorted(t.variables() & self._existential_set, key=lambda v: v.name)
            )
            mixed = bool(t.variables() - self._existential_set)
            for var in t_existential:
                self._triples_of_var[var].append(t)
            if not t_existential:
                self._checked.append(t)
            elif len(t_existential) == 1:
                group = self._mixed_unary if mixed else self._pure_unary
                group.setdefault(t_existential[0], []).append(t)
            elif len(t_existential) == 2 and self._k == 2:
                u, v = t_existential
                group = self._mixed_binary if mixed else pure_binary
                group.setdefault((u, v), []).append(t)
                neighbours.setdefault(u, set()).add(v)
                neighbours.setdefault(v, set()).add(u)
            # Triples with three or more existential variables are never
            # fully covered by two pebbles and impose no constraint on the
            # k = 2 factorisation; the generic fixpoint sees them through
            # ``_triples_of_var``.
        self._neighbours: Dict[Variable, Tuple[Variable, ...]] = {
            var: tuple(sorted(neighbours.get(var, ()), key=lambda v: v.name))
            for var in existential
        }
        # Every binary constraint pair (pure, mixed or both), in name order;
        # a pure binary triple mentions only its pair, so renaming the pair
        # onto the placeholders leaves a key that names just the relation.
        self._binary_pairs: Tuple[Tuple[Variable, Variable], ...] = tuple(
            sorted(
                set(pure_binary) | set(self._mixed_binary),
                key=lambda pair: (pair[0].name, pair[1].name),
            )
        )
        self._relation_of: Dict[Tuple[Variable, Variable], FrozenSet[TriplePattern]] = {
            (u, v): frozenset(t.rename({u: _FIRST, v: _SECOND}) for t in group)
            for (u, v), group in pure_binary.items()
        }

    # --- per-graph-version setup ------------------------------------------
    def _reset_graph_state(self, graph: RDFGraph, index: Optional[TargetIndex]) -> None:
        """Bind to the graph's current version; defer the solver build.

        The expensive part (domain scan, base domains, support adjacency) is
        built lazily by :meth:`prepare` / the first solve that needs it, so
        instances that short-circuit — no existential variables, or µ
        violating a fully distinguished triple — cost no more than the
        per-call implementation did.
        """
        self._version = graph.version
        self._index = index
        self._domain_values: Optional[Tuple[GroundTerm, ...]] = None
        self._base_domains: Dict[Variable, Optional[FrozenSet[GroundTerm]]] = {}
        self._adjacency: Dict[FrozenSet[TriplePattern], Tuple[_Partners, _Partners]] = {}
        self._unary_memo: Dict[Tuple, FrozenSet[GroundTerm]] = {}
        self._binary_memo: Dict[Tuple, FrozenSet[_Pair]] = {}

    def _ensure_current(self, graph: RDFGraph) -> None:
        if self._version != graph.version:
            # A supplied shared index describes the old version; drop it and
            # fall back to the graph's own (always current) indexes.
            self._reset_graph_state(graph, None)

    def prepare(self) -> "ConsistencyKernel":
        """Force the graph-dependent setup now, rather than on the first solve.

        Builds the sorted domain, the µ-independent base domains and the
        support adjacency for the current graph version; a no-op when already
        built or when the instance has no existential variables.  Returns
        ``self``.
        """
        graph = self.graph
        self._ensure_current(graph)
        if self._existential and self._domain_values is None:
            self._build_solver(graph)
        return self

    def _build_solver(self, graph: RDFGraph) -> None:
        """The µ-independent graph-side precomputation (see module docs)."""
        self._domain_values = graph.sorted_domain()

        # Base domains: the values allowed by the purely-existential unary
        # constraints (``None`` = unconstrained, i.e. the full dom(G)).
        for var in self._existential:
            base: Optional[Set[GroundTerm]] = None
            for t in self._pure_unary.get(var, ()):
                values = {binding[var] for binding in self._solutions(graph, t, {})}
                base = values if base is None else (base & values)
            self._base_domains[var] = frozenset(base) if base is not None else None

        # Support adjacency of the purely-existential binary constraints, one
        # per distinct relation.
        for relation in set(self._relation_of.values()):
            pairs: Optional[Set[_Pair]] = None
            for t in relation:
                allowed = {
                    (binding[_FIRST], binding[_SECOND])
                    for binding in self._solutions(graph, t, {})
                }
                pairs = allowed if pairs is None else (pairs & allowed)
            assert pairs is not None  # every relation has at least one triple
            self._adjacency[relation] = _adjacency_of(pairs)

    def _solutions(
        self, graph: RDFGraph, t: TriplePattern, fixed: Dict[Variable, GroundTerm]
    ) -> Iterator[Dict[Variable, GroundTerm]]:
        """Index-join bindings of one triple pattern under fixed bindings.

        Goes through the shared :class:`TargetIndex` when one was supplied,
        and through the graph's own pattern-matching indexes otherwise (so a
        standalone kernel never builds a second index over the graph).
        """
        if self._index is not None:
            return self._index.pattern_solutions(t, fixed)
        return graph.solutions(t.substitute(fixed) if fixed else t)

    # --- memoized per-µ restrictions --------------------------------------
    def _distinguished_projection(
        self, t: TriplePattern, fixed: Dict[Variable, GroundTerm]
    ) -> Tuple[Tuple[Variable, GroundTerm], ...]:
        return tuple(
            (var, fixed[var])
            for var in sorted(t.variables() - self._existential_set, key=lambda v: v.name)
        )

    @staticmethod
    def _memo_insert(memo: Dict[Tuple, FrozenSet], key: Tuple, value: FrozenSet) -> None:
        """Insert into a restriction memo, evicting the oldest entry at the cap."""
        if len(memo) >= _RESTRICTION_MEMO_LIMIT:
            del memo[next(iter(memo))]
        memo[key] = value

    def _unary_restriction(
        self,
        graph: RDFGraph,
        t: TriplePattern,
        var: Variable,
        fixed: Dict[Variable, GroundTerm],
    ) -> FrozenSet[GroundTerm]:
        """Values of *var* satisfying the mixed unary constraint *t* under µ."""
        projection = self._distinguished_projection(t, fixed)
        key = (t, projection)
        cached = self._unary_memo.get(key)
        if cached is None:
            cached = frozenset(
                binding[var] for binding in self._solutions(graph, t, dict(projection))
            )
            self._memo_insert(self._unary_memo, key, cached)
        return cached

    def _binary_restriction(
        self,
        graph: RDFGraph,
        t: TriplePattern,
        pair: Tuple[Variable, Variable],
        fixed: Dict[Variable, GroundTerm],
    ) -> FrozenSet[_Pair]:
        """Support pairs of the mixed binary constraint *t* under µ."""
        projection = self._distinguished_projection(t, fixed)
        key = (t, projection)
        cached = self._binary_memo.get(key)
        if cached is None:
            u, v = pair
            cached = frozenset(
                (binding[u], binding[v])
                for binding in self._solutions(graph, t, dict(projection))
            )
            self._memo_insert(self._binary_memo, key, cached)
        return cached

    def _restricted_domains(
        self, graph: RDFGraph, fixed: Dict[Variable, GroundTerm]
    ) -> Dict[Variable, Set[GroundTerm]]:
        """The per-variable domains under µ: base ∩ mixed-unary restrictions.

        Domains may come out empty; the callers decide what that means (the
        AC-3 path fails fast, the generic fixpoint lets the forth property
        kill the empty homomorphism, like the per-call implementation).
        """
        domains: Dict[Variable, Set[GroundTerm]] = {}
        for var in self._existential:
            base = self._base_domains[var]
            values: Set[GroundTerm] = set(base if base is not None else self._domain_values)
            for t in self._mixed_unary.get(var, ()):
                if not values:
                    break
                values &= self._unary_restriction(graph, t, var, fixed)
            domains[var] = values
        return domains

    # --- solving ------------------------------------------------------------
    def winner(self, mu: Mapping, budget=None) -> bool:
        """Decide ``(S, X) →µ_k G`` — the Duplicator-wins relation.

        Requires ``dom(µ) = X``; identical verdicts to
        :func:`~repro.pebble.game.reference_pebble_game_winner`.  *budget*
        is any object with an amortized ``tick()`` method; it is ticked
        along the worklist / fixpoint, bounding the solve.
        """
        if mu.domain() != self._distinguished:
            raise EvaluationError(
                "pebble_game_winner() requires dom(µ) to equal the distinguished set X"
            )
        graph = self.graph
        self._ensure_current(graph)
        fixed: Dict[Variable, GroundTerm] = {var: mu[var] for var in self._distinguished}

        # Fully distinguished triples must already be satisfied by µ,
        # otherwise even the empty configuration is not a partial
        # homomorphism.
        for t in self._checked:
            if t.substitute(fixed) not in graph:
                return False
        if not self._existential:
            # Property (1) of the paper: with no existential variables the
            # game degenerates to the homomorphism test, which µ passed.
            return True
        if self._domain_values is None:
            self._build_solver(graph)
        if not self._domain_values:
            # Existential variables but no element to answer with: the
            # Duplicator loses immediately.
            return False
        if self._k == 2:
            return self._solve_two_pebbles(graph, fixed, budget)
        return self._solve_generic(graph, fixed, budget)

    # --- k = 2: worklist arc consistency ----------------------------------
    def _solve_two_pebbles(
        self,
        graph: RDFGraph,
        fixed: Dict[Variable, GroundTerm],
        budget=None,
    ) -> bool:
        domains = self._restricted_domains(graph, fixed)
        if any(not domains[var] for var in self._existential):
            return False

        # Each variable's arcs: a neighbour's live domain and, for each of the
        # variable's values, its partners there.  A purely existential pair
        # reads its shared adjacency as is; only a pair with triples on
        # distinguished variables builds a (small) adjacency under µ.  The
        # pairs come in name order, so each variable meets its neighbours in
        # name order.
        arcs: Dict[Variable, List[Tuple[Set[GroundTerm], _Partners]]] = {
            var: [] for var in self._existential
        }
        for pair in self._binary_pairs:
            u, v = pair
            relation = self._relation_of.get(pair)
            base = self._adjacency[relation] if relation is not None else None
            mixed = self._mixed_binary.get(pair)
            if mixed is None:
                assert base is not None  # a pair without mixed triples has pure ones
                if budget is not None:
                    budget.tick()
                forward, backward = base
            else:
                allowed: Optional[FrozenSet[_Pair]] = None
                for t in mixed:
                    restriction = self._binary_restriction(graph, t, pair, fixed)
                    allowed = restriction if allowed is None else (allowed & restriction)
                assert allowed is not None
                if budget is not None:
                    budget.tick(1 + len(allowed))
                pairs: Iterable[_Pair] = allowed
                if base is not None:
                    base_forward = base[0]
                    pairs = [
                        (a, b) for a, b in allowed if b in base_forward.get(a, _NO_PARTNERS)
                    ]
                forward, backward = _adjacency_of(pairs)
            arcs[u].append((domains[v], forward))
            arcs[v].append((domains[u], backward))

        # Worklist AC-3: a set mirrors the queue so re-enqueueing a variable
        # is O(1) instead of a linear membership scan.  A value of *var* is
        # supported when each neighbour's domain meets its partners there.
        queue: List[Variable] = list(self._existential)
        queued: Set[Variable] = set(queue)
        while queue:
            var = queue.pop()
            queued.discard(var)
            domain = domains[var]
            if budget is not None:
                budget.tick(max(1, len(domain)))
            # Revising *var* reads only its neighbours' domains, so each arc
            # can filter the values the previous arcs left standing.
            alive: Collection[GroundTerm] = domain
            for other_domain, partners in arcs[var]:
                alive = [
                    value
                    for value in alive
                    if not other_domain.isdisjoint(partners.get(value, _NO_PARTNERS))
                ]
            if len(alive) < len(domain):
                if not alive:
                    return False
                domain.intersection_update(alive)
                for other in self._neighbours[var]:
                    if other not in queued:
                        queued.add(other)
                        queue.append(other)
        return all(domains[var] for var in self._existential)

    # --- k >= 3: generic fixpoint over the precomputed level-0 family ------
    def _solve_generic(
        self,
        graph: RDFGraph,
        fixed: Dict[Variable, GroundTerm],
        budget=None,
    ) -> bool:
        # No partial homomorphism assigns more than |existential| variables,
        # so every level past that is empty; capping k keeps an absurd width
        # from allocating and walking millions of empty levels unticked.  A
        # full-size assignment has no missing variable for the forth check,
        # so the verdict is the uncapped one.
        k = min(self._k, len(self._existential))
        # The precomputed level-0 family: per-variable domains already pruned
        # by every unary constraint, so the level-wise generation only has to
        # re-check the triples linking the new variable to the rest.
        domains = self._restricted_domains(graph, fixed)

        levels: List[Set[Tuple]] = [set() for _ in range(k + 1)]
        levels[0].add(())
        for size in range(1, k + 1):
            for smaller in levels[size - 1]:
                if budget is not None:
                    budget.tick()
                assignment: Dict[Variable, GroundTerm] = dict(smaller)
                combined = dict(fixed)
                combined.update(assignment)
                for var in self._existential:
                    if var in assignment:
                        continue
                    for value in domains[var]:
                        combined[var] = value
                        if _satisfies(self._triples_of_var[var], combined, graph):
                            assignment[var] = value
                            levels[size].add(_as_tuple(assignment))
                            del assignment[var]
                    # The pruned domain may be empty, in which case the loop
                    # never (re)assigned the variable.
                    combined.pop(var, None)

        family: Set[Tuple] = set().union(*levels)

        changed = True
        while changed:
            changed = False
            for item in list(family):
                if budget is not None:
                    budget.tick()
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
                # Forth property: every missing variable must have a live
                # extension (values outside the pruned domain can never be in
                # the family, so iterating the domain is exhaustive).
                if not remove and size < k:
                    for var in self._existential:
                        if var in assignment:
                            continue
                        has_extension = False
                        for value in domains[var]:
                            assignment[var] = value
                            if _as_tuple(assignment) in family:
                                has_extension = True
                                break
                        assignment.pop(var, None)
                        if not has_extension:
                            remove = True
                            break
                if remove:
                    family.discard(item)
                    changed = True

        return () in family


def _adjacency_of(pairs: Iterable[_Pair]) -> Tuple[_Partners, _Partners]:
    """The forward (``a ↦ {b}``) and backward (``b ↦ {a}``) partner sets."""
    forward: Dict[GroundTerm, Set[GroundTerm]] = {}
    backward: Dict[GroundTerm, Set[GroundTerm]] = {}
    for a, b in pairs:
        forward.setdefault(a, set()).add(b)
        backward.setdefault(b, set()).add(a)
    return (
        {a: frozenset(partners) for a, partners in forward.items()},
        {b: frozenset(partners) for b, partners in backward.items()},
    )
