"""Shared memoization for the wdEVAL engines.

Answering many wdEVAL instances against one RDF graph repeats a lot of work:
every extension test of the natural algorithm rebuilds a triple index over
the whole graph, distinct mappings that agree on the variables a child
actually shares with the witness subtree re-run the identical homomorphism
search, and the subtree bookkeeping (children, ``pat(T')``, ``vars(T')``) is
recomputed per call even though it only depends on the (immutable) pattern
tree.  :class:`EvaluationCache` memoizes all of it:

* **homomorphism tests** — keyed on the canonicalized instance
  ``(triples, fixed-bindings)``, where the fixed bindings are ``µ``
  restricted to the variables the triples actually mention, so distinct
  mappings that induce the same sub-instance share one search;
* **homomorphism lists** — the full (µ-independent) answer list of one
  subtree pattern against the graph, which is what solution enumeration
  iterates; repeated enumerations replay from memory;
* **tree solution lists** — the complete enumerated answer list ``⟦T⟧G`` of
  one pattern tree, recorded when an enumeration runs to completion, so
  steady-state sessions replay whole answer sets instead of re-deriving
  them;
* **pebble-game verdicts** — keyed the same way plus the distinguished set
  and the number of pebbles;
* **consistency kernels** — one precomputed
  :class:`~repro.pebble.kernel.ConsistencyKernel` per
  ``(instance structure, pebbles)``, so the µ-independent part of the
  pebble game (constraint grouping, base domains, binary supports) is paid
  once per child instance instead of once per mapping;
* **µ-subtree lookups** — the witness subtree ``T^µ`` per ``(tree, µ)``;
* **target indexes** — one prebuilt
  :class:`~repro.hom.homomorphism.TargetIndex` per graph, shared by every
  memoized search and every kernel;
* **subtree tables** — per-tree maps from a subtree's node set to its
  children / pattern / variables, shared across graphs.

Graph-dependent entries live in per-graph stores keyed on
``RDFGraph.version``; mutating a graph (``add`` / ``discard``) bumps the
version, so the next lookup transparently drops every stale entry for that
graph.  Stores are evicted when their graph is garbage collected, and
``max_entries_per_graph`` bounds each store with an **LRU** policy under
rough size accounting: plain memo entries cost 1, homomorphism lists and
tree solution lists cost ``1 + len(list)`` (one unit per stored answer, so
bounded caches evict large answer lists first), kernels cost roughly the
number of values/support pairs they hold, every hit refreshes the entry's
recency, and the least recently used entries are evicted first — so hot
entries survive eviction pressure.  The same limit also caps the number of
per-tree structure tables (which pin their trees), so a bounded cache stays
bounded even over a stream of distinct patterns.  With the default
``max_entries_per_graph=None`` the cache grows without limit and holds
strong references to every tree it has seen — prefer a bound for long-lived
shared caches.

A cache is shared safely between any number of :class:`Engine` instances
(a :class:`~repro.evaluation.session.Session` wires all of its engines to
one) — entries are keyed on the evaluated sub-instances, not on the owning
engine, so patterns with common structure benefit from each other's work.

**Thread safety.**  One cache may be hit concurrently from multiple
threads (the query service evaluates requests on a thread pool over one
shared session).  An internal re-entrant lock serializes every
*structural* operation — store lookup (an LRU hit reorders the recency
list), insertion, eviction and tree-table management — while the
*computations* (homomorphism searches, kernel construction) deliberately
run outside the lock: two threads
missing on the same key may duplicate a computation, but the values are
deterministic, so whichever insert lands last is identical and no caller
ever observes a torn entry.  The contract is **safe for concurrent
readers of unmutated graphs**; serializing graph *mutations* against
in-flight lookups is the caller's job (the service's
:class:`~repro.service.gate.ReadWriteGate` — the version-stamped stores
make a stale read detectable, not impossible).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from ..hom.homomorphism import TargetIndex, find_homomorphism, target_index
from ..hom.tgraph import GeneralizedTGraph, TGraph
from ..patterns.tree import Subtree, WDPatternTree
from ..pebble.kernel import ConsistencyKernel
from ..rdf.graph import RDFGraph
from ..rdf.terms import Term, Variable
from ..sparql.mappings import Mapping

__all__ = ["CacheStatistics", "EvaluationCache"]

#: Sentinel distinguishing "absent" from memoized ``None``/``False`` values.
_MISSING = object()

class CacheStatistics:
    """Hit/miss counters of one :class:`EvaluationCache` (for diagnostics)."""

    __slots__ = (
        "hom_hits",
        "hom_misses",
        "enum_hits",
        "enum_misses",
        "pebble_hits",
        "pebble_misses",
        "kernel_hits",
        "kernel_misses",
        "subtree_hits",
        "subtree_misses",
        "invalidations",
        "evictions",
    )

    def __init__(self) -> None:
        self.hom_hits = 0
        self.hom_misses = 0
        self.enum_hits = 0
        self.enum_misses = 0
        self.pebble_hits = 0
        self.pebble_misses = 0
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.subtree_hits = 0
        self.subtree_misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        """Total cache hits across all memoized operations."""
        return (
            self.hom_hits
            + self.enum_hits
            + self.pebble_hits
            + self.kernel_hits
            + self.subtree_hits
        )

    @property
    def misses(self) -> int:
        """Total cache misses across all memoized operations."""
        return (
            self.hom_misses
            + self.enum_misses
            + self.pebble_misses
            + self.kernel_misses
            + self.subtree_misses
        )

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for tables and logs)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"CacheStatistics(hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations}, evictions={self.evictions})"
        )


class _GraphStore:
    """Per-graph memo tables, valid for a single graph version.

    All memoized results live in one insertion-ordered mapping keyed by
    ``(kind, key)``; a hit re-inserts the entry at the end, so iteration
    order is recency order and eviction pops from the front (LRU).  Each
    entry carries a rough cost; ``total_cost`` is what the cache bound
    compares against.
    """

    __slots__ = ("version", "index", "entries", "costs", "total_cost")

    def __init__(self, version: int) -> None:
        self.version = version
        self.index: Optional[TargetIndex] = None
        self.entries: Dict[Tuple[str, Tuple], object] = {}
        self.costs: Dict[Tuple[str, Tuple], int] = {}
        self.total_cost = 0

    def reset(self, version: int) -> None:
        self.version = version
        self.index = None
        self.entries.clear()
        self.costs.clear()
        self.total_cost = 0

    def get(self, kind: str, key: Tuple) -> object:
        """The memoized value (recency-refreshed), or ``_MISSING``."""
        full_key = (kind, key)
        value = self.entries.pop(full_key, _MISSING)
        if value is not _MISSING:
            self.entries[full_key] = value  # re-insert at the recent end
        return value

    def put(self, kind: str, key: Tuple, value: object, cost: int = 1) -> None:
        full_key = (kind, key)
        if full_key in self.entries:
            self.entries.pop(full_key)
            self.total_cost -= self.costs.pop(full_key)
        self.entries[full_key] = value
        self.costs[full_key] = cost
        self.total_cost += cost

    def evict_one(self) -> None:
        """Drop the least recently used entry."""
        full_key = next(iter(self.entries))
        del self.entries[full_key]
        self.total_cost -= self.costs.pop(full_key)

    def drop_matching(self, kind: str, predicate) -> None:
        """Drop every *kind* entry whose key satisfies *predicate*."""
        stale = [
            full_key
            for full_key in self.entries
            if full_key[0] == kind and predicate(full_key[1])
        ]
        for full_key in stale:
            del self.entries[full_key]
            self.total_cost -= self.costs.pop(full_key)

    def entry_count(self) -> int:
        return len(self.entries)


class _TreeTable:
    """Graph-independent structure tables of one pattern tree.

    Holds a strong reference to the tree so that the ``id()``-based key
    stays valid for the lifetime of the table.
    """

    __slots__ = ("tree", "children", "pat", "variables", "extended")

    def __init__(self, tree: WDPatternTree) -> None:
        self.tree = tree
        self.children: Dict[FrozenSet[int], Tuple[int, ...]] = {}
        self.pat: Dict[FrozenSet[int], TGraph] = {}
        self.variables: Dict[FrozenSet[int], FrozenSet[Variable]] = {}
        self.extended: Dict[Tuple[FrozenSet[int], int], GeneralizedTGraph] = {}


class EvaluationCache:
    """Memoization shared by the evaluation engines (see the module docs).

    Parameters
    ----------
    max_entries_per_graph:
        Rough cost budget per graph store (plain entries cost 1, consistency
        kernels cost proportionally to their precomputed state); the least
        recently used entries are evicted first.  ``None`` (the default)
        means unbounded.
    """

    def __init__(self, max_entries_per_graph: Optional[int] = None) -> None:
        if max_entries_per_graph is not None and max_entries_per_graph < 1:
            raise ValueError("max_entries_per_graph must be positive")
        self._max_entries = max_entries_per_graph
        self._graphs: Dict[int, _GraphStore] = {}
        self._trees: Dict[int, _TreeTable] = {}
        self._statistics = CacheStatistics()
        # Guards every structural operation (lookups reorder the LRU list,
        # inserts evict) so the cache is safe under the service's thread
        # pool; re-entrant because primitives call each other (for instance
        # pebble_winner -> pebble_kernel).  See the module docs.
        self._lock = threading.RLock()

    # --- introspection -----------------------------------------------------
    @property
    def statistics(self) -> CacheStatistics:
        """The live hit/miss counters of this cache."""
        return self._statistics

    def __repr__(self) -> str:
        with self._lock:
            entries = sum(store.entry_count() for store in self._graphs.values())
            return f"EvaluationCache(<{len(self._graphs)} graphs, {entries} entries>)"

    # --- lifecycle ---------------------------------------------------------
    def clear(self) -> None:
        """Drop every memoized entry (graph stores and tree tables)."""
        with self._lock:
            self._graphs.clear()
            self._trees.clear()

    def invalidate(self, graph: Optional[RDFGraph] = None) -> None:
        """Explicitly drop the entries of *graph* (or of every graph).

        Mutating a graph through :meth:`RDFGraph.add` / ``discard`` already
        invalidates transparently via the version counter; this exists for
        callers that replace a graph's contents through other means.
        """
        with self._lock:
            if graph is None:
                self._graphs.clear()
            else:
                self._graphs.pop(id(graph), None)
            self._statistics.invalidations += 1

    # --- stores ------------------------------------------------------------
    def _store(self, graph: RDFGraph) -> _GraphStore:
        with self._lock:
            key = id(graph)
            store = self._graphs.get(key)
            if store is None:
                store = _GraphStore(graph.version)
                self._graphs[key] = store
                # Evict the store when the graph is collected so that a
                # recycled id() can never alias stale entries.
                graphs = self._graphs
                weakref.finalize(graph, graphs.pop, key, None)
            elif store.version != graph.version:
                store.reset(graph.version)
                self._statistics.invalidations += 1
            return store

    def _tree_table(self, tree: WDPatternTree) -> _TreeTable:
        with self._lock:
            table = self._trees.get(id(tree))
            if table is None:
                if (
                    self._max_entries is not None
                    and len(self._trees) >= self._max_entries
                ):
                    self._evict_tree_table()
                table = _TreeTable(tree)
                self._trees[id(tree)] = table
            return table

    def _evict_tree_table(self) -> None:
        """Drop the oldest tree table (and with it the strong pin on its tree).

        The evicted table's tree may be garbage collected afterwards, so its
        ``id()`` can be recycled; every memoized subtree entry keyed on that
        id must go with it.
        """
        tree_id = next(iter(self._trees))
        del self._trees[tree_id]
        for store in self._graphs.values():
            store.drop_matching("subtree", lambda key: key[0] == tree_id)
            store.drop_matching("treesol", lambda key: key[0] == tree_id)
        self._statistics.evictions += 1

    def _bounded_insert(
        self,
        store: _GraphStore,
        kind: str,
        key: Tuple,
        value: object,
        cost: int = 1,
    ) -> None:
        with self._lock:
            if self._max_entries is not None:
                while store.entries and store.total_cost + cost > self._max_entries:
                    store.evict_one()
                    self._statistics.evictions += 1
            store.put(kind, key, value, cost)

    # --- memoized primitives ----------------------------------------------
    def target_index(self, graph: RDFGraph) -> TargetIndex:
        """The (per-version memoized) triple index of *graph*."""
        with self._lock:
            store = self._store(graph)
            index = store.index
        if index is None:
            # Built outside the lock: two threads may duplicate the build,
            # but the index is deterministic and the last write wins.
            index = target_index(graph)
            with self._lock:
                store = self._store(graph)
                if store.index is None:
                    store.index = index
                index = store.index
        return index

    def extension_exists(
        self, triples: TGraph, graph: RDFGraph, mu: Mapping, budget=None
    ) -> bool:
        """Memoized ``extends_into(triples, graph, µ) is not None``.

        The key restricts ``µ`` to the variables of *triples*, so mappings
        that agree there share a single homomorphism search.
        """
        fixed: Dict[Variable, Term] = {
            var: mu[var] for var in triples.variables() & mu.domain()
        }
        key = (triples.triples(), frozenset(fixed.items()))
        with self._lock:
            store = self._store(graph)
            cached = store.get("hom", key)
            if cached is not _MISSING:
                self._statistics.hom_hits += 1
                return cached  # type: ignore[return-value]
            self._statistics.hom_misses += 1
        result = (
            find_homomorphism(triples, graph, fixed, self.target_index(graph), budget)
            is not None
        )
        self._bounded_insert(self._store(graph), "hom", key, result)
        return result

    def homomorphisms_stream(
        self, source: TGraph, graph: RDFGraph, budget=None
    ) -> Iterator[Dict[Variable, Term]]:
        """All homomorphisms from *source* into *graph*, lazily, memoized.

        This is the µ-independent search of solution enumeration (Lemma 1
        iterates the homomorphisms of every subtree pattern), keyed on the
        source triples per graph version.  A recorded list replays from
        memory; otherwise the indexed search streams **lazily** (first
        results cost no more than the direct search) and the complete list
        is recorded only when the consumer exhausts the generator without
        the graph mutating mid-stream.  Entries are charged roughly one
        cost unit per stored homomorphism, so bounded caches evict large
        answer lists first.
        """
        from ..hom.homomorphism import all_homomorphisms

        key = (source.triples(),)
        with self._lock:
            store = self._store(graph)
            cached = store.get("homlist", key)
            if cached is not _MISSING:
                self._statistics.enum_hits += 1
                return iter(cached)  # type: ignore[arg-type]
            self._statistics.enum_misses += 1
        # Snapshot the version together with the index: both belong to the
        # graph as it is *now*.  If the graph mutates before (or while) the
        # stream is consumed, the completion check below fails and nothing
        # is recorded — a stale list must never be recorded under the new
        # version's store.
        version = graph.version
        index = self.target_index(graph)

        def search_and_record() -> Iterator[Dict[Variable, Term]]:
            # A budget trip aborts the generator mid-stream, so the
            # completion record below never runs — a truncated answer list
            # is never recorded as complete.
            recorded: list = []
            for hom in all_homomorphisms(source, graph, index=index, budget=budget):
                recorded.append(hom)
                yield hom
            if graph.version == version:
                self._bounded_insert(
                    self._store(graph), "homlist", key, tuple(recorded),
                    cost=1 + len(recorded),
                )

        return search_and_record()

    def homomorphism_list(
        self, source: TGraph, graph: RDFGraph
    ) -> Tuple[Dict[Variable, Term], ...]:
        """The complete (memoized) homomorphism list — the eager face of
        :meth:`homomorphisms_stream`."""
        return tuple(self.homomorphisms_stream(source, graph))

    def pebble_kernel(
        self, extended: GeneralizedTGraph, graph: RDFGraph, pebbles: int
    ) -> ConsistencyKernel:
        """The memoized consistency kernel for one pebble instance structure.

        Keyed on ``(triples, distinguished, pebbles)`` per graph version, so
        every mapping evaluated against the same child instance shares one
        µ-independent precomputation (and the cache's shared target index).
        """
        key = (extended.triples(), extended.distinguished, pebbles)
        with self._lock:
            store = self._store(graph)
            kernel = store.get("kernel", key)
            if kernel is not _MISSING:
                self._statistics.kernel_hits += 1
                return kernel  # type: ignore[return-value]
            self._statistics.kernel_misses += 1
        # prepare() forces the µ-independent setup now so the size accounting
        # charges the built state (and warmed kernels are actually warm).
        kernel = ConsistencyKernel(
            extended, graph, pebbles, index=self.target_index(graph)
        ).prepare()
        self._bounded_insert(
            self._store(graph), "kernel", key, kernel, cost=kernel.cost()
        )
        return kernel

    def pebble_winner(
        self,
        extended: GeneralizedTGraph,
        graph: RDFGraph,
        mu: Mapping,
        pebbles: int,
        budget=None,
    ) -> bool:
        """Memoized existential *pebbles*-pebble game verdict
        ``(S, X) →µ_pebbles G``, answered through the shared kernel."""
        fixed = frozenset(
            (var, mu[var]) for var in extended.distinguished if var in mu
        )
        key = (extended.triples(), extended.distinguished, fixed, pebbles)
        with self._lock:
            store = self._store(graph)
            cached = store.get("pebble", key)
            if cached is not _MISSING:
                self._statistics.pebble_hits += 1
                return cached  # type: ignore[return-value]
            self._statistics.pebble_misses += 1
        result = self.pebble_kernel(extended, graph, pebbles).winner(mu, budget=budget)
        # Re-fetch the store: building the kernel may have reset it if the
        # graph was mutated concurrently (defensive; same-version re-fetch is
        # a dict lookup).
        self._bounded_insert(self._store(graph), "pebble", key, result)
        return result

    def mu_subtree(
        self, tree: WDPatternTree, graph: RDFGraph, mu: Mapping
    ) -> Optional[Subtree]:
        """Memoized witness subtree ``T^µ`` (``None`` when none exists)."""
        from .wdeval import find_mu_subtree  # deferred: wdeval imports this module

        key = (id(tree), frozenset(mu.items()))
        with self._lock:
            store = self._store(graph)
            self._tree_table(tree)  # pin the tree so the id() key stays valid
            cached = store.get("subtree", key)
        if cached is not _MISSING:
            self._statistics.subtree_hits += 1
            nodes = cached
        else:
            self._statistics.subtree_misses += 1
            subtree = find_mu_subtree(tree, graph, mu)
            nodes = subtree.nodes if subtree is not None else None
            self._bounded_insert(self._store(graph), "subtree", key, nodes)
        if nodes is None:
            return None
        return Subtree(tree, nodes)

    def tree_solution_list(
        self, tree: WDPatternTree, graph: RDFGraph
    ) -> Optional[Tuple[Mapping, ...]]:
        """The recorded complete answer list ``⟦T⟧G`` (``None`` if absent).

        Recorded by :func:`~repro.evaluation.wdeval.tree_solutions_stream`
        when an enumeration runs to completion; keyed per tree and graph
        version, so mutation invalidates transparently.
        """
        with self._lock:
            store = self._store(graph)
            self._tree_table(tree)  # pin the tree so the id() key stays valid
            cached = store.get("treesol", (id(tree),))
            if cached is _MISSING:
                self._statistics.enum_misses += 1
                return None
            self._statistics.enum_hits += 1
            return cached  # type: ignore[return-value]

    def store_tree_solution_list(
        self, tree: WDPatternTree, graph: RDFGraph, solutions: Iterable[Mapping]
    ) -> None:
        """Record the complete answer list of *tree* over *graph* (charged
        roughly one cost unit per solution, like homomorphism lists)."""
        solutions = tuple(solutions)
        with self._lock:
            store = self._store(graph)
            self._tree_table(tree)
            self._bounded_insert(
                store, "treesol", (id(tree),), solutions,
                cost=1 + len(solutions),
            )

    # --- warm-up ------------------------------------------------------------
    def warm_pebble(
        self,
        forest: Iterable[WDPatternTree],
        graph: RDFGraph,
        pebbles: int,
        mappings: Optional[Iterable[Mapping]] = None,
    ) -> int:
        """Precompute the µ-independent pebble state for *forest* over *graph*.

        Builds the shared target index, the sorted graph domain, and one
        consistency kernel per ``(witness subtree, child)`` instance the
        given *mappings* reach (per root subtree when no mappings are given —
        the witness of every root-shaped mapping).  Returns the number of
        kernel instances ensured.  Purely a performance feature: warming
        changes no verdicts, it only front-loads work so that subsequent
        lookups (or forked worker processes) find hot state.
        """
        self.target_index(graph)
        graph.sorted_domain()
        # Materialise up front: the mappings are re-walked once per tree, and
        # a one-shot iterable would otherwise only warm the first tree.
        if mappings is not None:
            mappings = list(mappings)
        count = 0
        for tree in forest:
            node_sets = set()
            if mappings is None:
                node_sets.add(frozenset({tree.root}))
            else:
                for mu in mappings:
                    subtree = self.mu_subtree(tree, graph, mu)
                    if subtree is not None:
                        node_sets.add(subtree.nodes)
            for nodes in node_sets:
                for child in self.subtree_children(tree, nodes):
                    extended = self.extended_child_graph(tree, nodes, child)
                    self.pebble_kernel(extended, graph, pebbles)
                    count += 1
        return count

    # --- per-tree structure tables ------------------------------------------
    # The table dicts are filled with deterministic, tree-only values through
    # GIL-atomic get/set, so concurrent fillers can at worst duplicate a
    # computation — no lock needed beyond _tree_table() itself.
    def subtree_children(self, tree: WDPatternTree, nodes: FrozenSet[int]) -> Tuple[int, ...]:
        """Memoized ``Subtree.children()`` for the subtree on *nodes*."""
        table = self._tree_table(tree)
        children = table.children.get(nodes)
        if children is None:
            children = Subtree(tree, nodes).children()
            table.children[nodes] = children
        return children

    def subtree_pat(self, tree: WDPatternTree, nodes: FrozenSet[int]) -> TGraph:
        """Memoized ``pat(T')`` for the subtree on *nodes*."""
        table = self._tree_table(tree)
        pat = table.pat.get(nodes)
        if pat is None:
            pat = tree.pat_of_nodes(nodes)
            table.pat[nodes] = pat
        return pat

    def subtree_variables(self, tree: WDPatternTree, nodes: FrozenSet[int]) -> FrozenSet[Variable]:
        """Memoized ``vars(T')`` for the subtree on *nodes*."""
        table = self._tree_table(tree)
        variables = table.variables.get(nodes)
        if variables is None:
            variables = self.subtree_pat(tree, nodes).variables()
            table.variables[nodes] = variables
        return variables

    def extended_child_graph(
        self, tree: WDPatternTree, nodes: FrozenSet[int], child: int
    ) -> GeneralizedTGraph:
        """Memoized ``(pat(T') ∪ pat(n), vars(T'))`` for a child *n* of the
        subtree on *nodes* — the instance the Theorem 1 pebble test runs on."""
        table = self._tree_table(tree)
        key = (nodes, child)
        extended = table.extended.get(key)
        if extended is None:
            base = self.subtree_pat(tree, nodes)
            extended = GeneralizedTGraph(
                base.union(tree.pat(child)), self.subtree_variables(tree, nodes)
            )
            table.extended[key] = extended
        return extended
