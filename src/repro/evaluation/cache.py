"""Shared memoization for the wdEVAL engines.

Answering many wdEVAL instances against one RDF graph repeats a lot of work:
every extension test of the natural algorithm rebuilds a triple index over
the whole graph, and distinct mappings that agree on the variables a child
actually shares with the witness subtree re-run the identical homomorphism
search.  :class:`EvaluationCache` memoizes the graph-dependent part of it
(the graph-independent subtree facts — children, ``pat(T')``, ``vars(T')``
and the per-child instances — are memoized on the pattern tree itself, see
:class:`~repro.patterns.tree.Subtree`):

* **homomorphism tests** — the child tests of natural membership, keyed on
  the canonicalized instance ``(triples, fixed-bindings)``, where the fixed
  bindings are ``µ`` restricted to the variables the triples actually
  mention, so distinct mappings that induce the same sub-instance share one
  search;
* **homomorphism lists** — the full (µ-independent) answer list of one
  tree's root pattern against the graph, which solution enumeration extends
  top-down; repeated enumerations replay from memory;
* **tree solution lists** — the complete enumerated answer list ``⟦T⟧G`` of
  one pattern tree, recorded when an enumeration runs to completion, so
  steady-state sessions replay whole answer sets instead of re-deriving
  them;
* **consistency kernels** — one precomputed
  :class:`~repro.pebble.kernel.ConsistencyKernel` per
  ``(instance structure, pebbles)``, so the µ-independent part of the
  pebble game (constraint grouping, base domains, binary supports) is paid
  once per child instance instead of once per mapping;
* **target indexes** — one prebuilt
  :class:`~repro.hom.homomorphism.TargetIndex` per graph, shared by every
  memoized search and every kernel.

Nothing is keyed on a whole mapping.  The witness subtree ``T^µ`` and the
pebble-game verdict are computed on every call
(:meth:`EvaluationCache.mu_subtree` only probes the graph for the triples of
the candidate nodes; :meth:`EvaluationCache.pebble_winner` solves through
the shared kernel): a stream of distinct mappings never hits a per-mapping
entry, and storing one would make a long-lived cache grow with every
request it answers.

Graph-dependent entries live in per-graph stores keyed on
``RDFGraph.version``; mutating a graph (``add`` / ``discard``) bumps the
version, so the next lookup transparently drops every stale entry for that
graph.  Stores are evicted when their graph is garbage collected, and
``max_entries_per_graph`` bounds each store with an **LRU** policy under
rough size accounting: plain memo entries cost 1, homomorphism lists and
tree solution lists cost ``1 + len(list)`` (one unit per stored answer, so
bounded caches evict large answer lists first), kernels cost roughly the
number of values/support pairs they hold (an adjacency that several pairs
share counts once), every hit refreshes the entry's
recency, and the least recently used entries are evicted first — so hot
entries survive eviction pressure.  Tree solution lists key on the tree
object itself (trees hash by identity), so an entry keeps its tree alive
and evicting the entry releases it.  With the default
``max_entries_per_graph=None`` the cache grows without limit and holds
strong references to every tree it has enumerated — prefer a bound for
long-lived shared caches.

A cache is shared safely between any number of :class:`Engine` instances
(a :class:`~repro.evaluation.session.Session` wires all of its engines to
one) — entries are keyed on the evaluated sub-instances, not on the owning
engine, so patterns with common structure benefit from each other's work.

**Thread safety.**  One cache may be hit concurrently from multiple
threads (the query service evaluates requests on a thread pool over one
shared session).  An internal re-entrant lock serializes every
*structural* operation — store lookup (an LRU hit reorders the recency
list), insertion, eviction and every hit/miss counter bump — while the
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
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .wdeval import find_mu_subtree
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
        "kernel_hits",
        "kernel_misses",
        "invalidations",
        "evictions",
    )

    def __init__(self) -> None:
        self.hom_hits = 0
        self.hom_misses = 0
        self.enum_hits = 0
        self.enum_misses = 0
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        """Total cache hits across all memoized operations."""
        return self.hom_hits + self.enum_hits + self.kernel_hits

    @property
    def misses(self) -> int:
        """Total cache misses across all memoized operations."""
        return self.hom_misses + self.enum_misses + self.kernel_misses

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

    def entry_count(self) -> int:
        return len(self.entries)


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
        self._graphs: Dict[int, _GraphStore] = {}  # guarded-by: _lock
        self._statistics = CacheStatistics()  # guarded-by: _lock
        # Guards every structural operation (lookups reorder the LRU list,
        # inserts evict) so the cache is safe under the service's thread
        # pool; re-entrant because primitives call each other (for instance
        # pebble_kernel -> target_index).  See the module docs.
        self._lock = threading.RLock()

    # --- introspection -----------------------------------------------------
    @property
    def statistics(self) -> CacheStatistics:
        """The live hit/miss counters of this cache."""
        # Documented live-counter publication: the object reference is fixed
        # for the cache's lifetime (only the counters inside mutate, under
        # _lock), so handing it out unlocked is safe.
        return self._statistics  # repro: ignore[RP-GUARD]

    def __repr__(self) -> str:
        with self._lock:
            entries = sum(store.entry_count() for store in self._graphs.values())
            return f"EvaluationCache(<{len(self._graphs)} graphs, {entries} entries>)"

    # --- lifecycle ---------------------------------------------------------
    def clear(self) -> None:
        """Drop every memoized entry."""
        with self._lock:
            self._graphs.clear()

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

        This is the µ-independent search of solution enumeration (each
        answer extends a homomorphism of a tree's root pattern), keyed on
        the source triples per graph version.  A recorded list replays from
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
        # charges the built state.
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
        """The existential *pebbles*-pebble game verdict
        ``(S, X) →µ_pebbles G``, solved through the shared kernel (the
        verdict itself is not stored)."""
        return self.pebble_kernel(extended, graph, pebbles).winner(mu, budget=budget)

    def mu_subtree(
        self, tree: WDPatternTree, graph: RDFGraph, mu: Mapping
    ) -> Optional[Subtree]:
        """The witness subtree ``T^µ`` (``None`` when none exists), found by
        probing the graph; nothing is stored."""
        return find_mu_subtree(tree, graph, mu)

    def tree_solution_list(
        self, tree: WDPatternTree, graph: RDFGraph
    ) -> Optional[Tuple[Mapping, ...]]:
        """The recorded complete answer list ``⟦T⟧G`` (``None`` if absent).

        Recorded by :func:`~repro.evaluation.wdeval.tree_solutions_stream`
        when an enumeration runs to completion; keyed per tree and graph
        version, so mutation invalidates transparently.
        """
        with self._lock:
            cached = self._store(graph).get("treesol", (tree,))
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
        self._bounded_insert(
            self._store(graph), "treesol", (tree,), solutions, cost=1 + len(solutions)
        )
