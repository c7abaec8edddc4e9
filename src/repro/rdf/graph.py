"""An in-memory, interned, columnar RDF graph.

:class:`RDFGraph` is a finite set of ground triples.  Internally every term
is interned to a dense integer id through a per-graph
:class:`~repro.rdf.dictionary.TermDictionary`, and the id-encoded triples are
kept in three sorted permutation columns (SPO, POS, OSP — see
:mod:`repro.rdf.columns`), so that

* matching a triple pattern is a binary-search **range scan** over the
  permutation whose sort order leads with the bound positions — every one of
  the seven bound-position masks is a prefix of one of the three
  permutations;
* mutations are **incremental**: single inserts go to a small sorted buffer
  that merges into the main runs, bulk loads
  (:meth:`RDFGraph.from_triples` / :meth:`add_all`) sort the batch once and
  merge once, and deletions splice one key out of each run — the indexes are
  patched in place, never rebuilt from scratch;
* ``dom(G)`` reads the term dictionary directly (terms with a live
  occurrence count), instead of re-scanning every triple.

The public API — :class:`Triple` objects in and out, the pattern-matching
:meth:`matches`/:meth:`solutions`, and the :attr:`version` counter that the
evaluation caches key on — is unchanged from the hash-indexed store this
replaces (retained as :class:`repro.rdf.reference.ReferenceRDFGraph` for the
differential parity suite).  One deliberate refinement: a *bulk* mutation
(:meth:`add_all`, :meth:`from_triples`, the constructor) bumps
:attr:`version` **once**, not once per triple, so a single bulk load no
longer invalidates warm caches N times over.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .columns import ARRAY_BITS_LIMIT, SortedKeyRun, scan_mask
from .dictionary import TermDictionary
from .terms import GroundTerm, Variable, is_ground_term
from .triples import Triple, TriplePattern
from ..exceptions import RDFError

__all__ = ["RDFGraph"]

#: Initial per-field bit width of the packed keys; the graph widens (doubling
#: the width, switching the runs from ``array('q')`` to plain int lists past
#: :data:`~repro.rdf.columns.ARRAY_BITS_LIMIT`) when the dictionary outgrows
#: it.  Module-level so the parity tests can force the widening path on
#: small graphs.
_INITIAL_BITS = ARRAY_BITS_LIMIT


class RDFGraph:
    """A finite set of ground RDF triples with columnar pattern indexes.

    >>> g = RDFGraph()
    >>> _ = g.add(Triple.of("a", "p", "b"))
    >>> len(g)
    1
    >>> list(g.matches(TriplePattern.of("?x", "p", "?y")))[0].is_ground()
    True
    """

    __slots__ = (
        "_dict",
        "_bits",
        "_spo",
        "_pos",
        "_osp",
        "_counts",
        "_decoded",
        "_version",
        "_domain_cache",
        "_sorted_domain_cache",
        "_triples_cache",
        "__weakref__",
    )

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._dict = TermDictionary()
        self._bits = _INITIAL_BITS
        self._spo = SortedKeyRun(self._bits)
        self._pos = SortedKeyRun(self._bits)
        self._osp = SortedKeyRun(self._bits)
        self._counts: List[int] = []
        # Packed-SPO-key -> decoded Triple memo, shared (by reference) with
        # the columnar target indexes snapshotted off this graph.  Replaced
        # wholesale on widening: old snapshots keep the old-width dict.
        self._decoded: Dict[int, Triple] = {}
        self._version = 0
        self._domain_cache: Optional[Tuple[int, frozenset]] = None
        self._sorted_domain_cache: Optional[Tuple[int, Tuple[GroundTerm, ...]]] = None
        self._triples_cache: Optional[Tuple[int, FrozenSet[Triple]]] = None
        if triples:
            self.add_all(triples)

    # --- construction -----------------------------------------------------
    @classmethod
    def from_tuples(cls, tuples: Iterable[Tuple[object, object, object]]) -> "RDFGraph":
        """Build a graph from ``(s, p, o)`` tuples of terms or plain strings."""
        return cls(Triple.of(s, p, o) for s, p, o in tuples)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "RDFGraph":
        """Bulk-load a graph: intern every term, sort each permutation once.

        This is the loader for large graphs — identical result to adding the
        triples one by one, but the columns are sorted once instead of
        maintained per insert, and :attr:`version` is bumped once.
        """
        return cls(triples)

    def _validate(self, triple: Triple) -> None:
        if not isinstance(triple, TriplePattern):
            raise TypeError(f"expected a Triple, got {type(triple).__name__}")
        if not triple.is_ground():
            raise RDFError(f"cannot add non-ground triple {triple} to an RDF graph")

    def _intern_triple(self, triple: Triple) -> Tuple[int, int, int]:
        intern = self._dict.intern
        return (intern(triple.subject), intern(triple.predicate), intern(triple.object))

    def _ensure_capacity(self) -> None:
        """Widen the packed representation when the dictionary outgrew it."""
        while len(self._dict) > (1 << self._bits):
            new_bits = self._bits * 2
            for run in (self._spo, self._pos, self._osp):
                run.widen(self._bits, new_bits)
            self._bits = new_bits
            self._decoded = {}

    def _pack(self, a: int, b: int, c: int) -> int:
        bits = self._bits
        return (a << (2 * bits)) | (b << bits) | c

    def add(self, triple: Triple) -> "RDFGraph":
        """Add a ground triple.  Returns ``self`` for chaining."""
        self._validate(triple)
        s, p, o = self._intern_triple(triple)
        self._ensure_capacity()
        key = self._pack(s, p, o)
        if key in self._spo:
            return self
        self._version += 1
        self._insert_ids(key, s, p, o)
        return self

    def _insert_ids(self, spo_key: int, s: int, p: int, o: int) -> None:
        self._spo.add(spo_key)
        self._pos.add(self._pack(p, o, s))
        self._osp.add(self._pack(o, s, p))
        counts = self._counts
        grow = max(s, p, o) + 1 - len(counts)
        if grow > 0:
            counts.extend([0] * grow)
        counts[s] += 1
        counts[p] += 1
        counts[o] += 1

    def add_all(self, triples: Iterable[Triple]) -> "RDFGraph":
        """Add every triple of *triples* as **one bulk mutation**.

        Every term is interned, the batch is deduplicated against the graph
        and itself, each permutation column is sorted once and merged into
        its run once — and :attr:`version` is bumped **once** (when at least
        one triple was actually new), so a bulk load invalidates warm caches
        a single time instead of once per triple.
        """
        interned: List[Tuple[int, int, int]] = []
        for t in triples:
            self._validate(t)
            interned.append(self._intern_triple(t))
        if not interned:
            return self
        self._ensure_capacity()
        pack = self._pack
        spo = self._spo
        new_keys: List[int] = []
        new_ids: List[Tuple[int, int, int]] = []
        seen: set = set()
        for s, p, o in interned:
            key = pack(s, p, o)
            if key in seen or key in spo:
                continue
            seen.add(key)
            new_keys.append(key)
            new_ids.append((s, p, o))
        if not new_keys:
            return self
        self._version += 1
        new_keys.sort()
        spo.extend_sorted(new_keys)
        self._pos.extend_sorted(sorted(pack(p, o, s) for s, p, o in new_ids))
        self._osp.extend_sorted(sorted(pack(o, s, p) for s, p, o in new_ids))
        counts = self._counts
        top = max(max(ids) for ids in new_ids) + 1
        if top > len(counts):
            counts.extend([0] * (top - len(counts)))
        for s, p, o in new_ids:
            counts[s] += 1
            counts[p] += 1
            counts[o] += 1
        return self

    def discard(self, triple: Triple) -> "RDFGraph":
        """Remove a triple if present (splices one key out of each column)."""
        if not isinstance(triple, TriplePattern) or not triple.is_ground():
            return self
        id_of = self._dict.id_of
        s = id_of(triple.subject)
        p = id_of(triple.predicate)
        o = id_of(triple.object)
        if s is None or p is None or o is None:
            return self
        key = self._pack(s, p, o)
        if key not in self._spo:
            return self
        self._version += 1
        self._spo.remove(key)
        self._pos.remove(self._pack(p, o, s))
        self._osp.remove(self._pack(o, s, p))
        counts = self._counts
        counts[s] -= 1
        counts[p] -= 1
        counts[o] -= 1
        self._decoded.pop(key, None)
        return self

    def copy(self) -> "RDFGraph":
        """An independent copy (column and dictionary state is copied; the
        immutable terms and decoded triples are shared)."""
        result = RDFGraph.__new__(RDFGraph)
        result._dict = self._dict.copy()
        result._bits = self._bits
        result._spo = self._spo.copy()
        result._pos = self._pos.copy()
        result._osp = self._osp.copy()
        result._counts = list(self._counts)
        result._decoded = dict(self._decoded)
        result._version = self._version
        result._domain_cache = None
        result._sorted_domain_cache = None
        result._triples_cache = None
        return result

    @property
    def version(self) -> int:
        """A counter incremented on every *mutation* of the graph.

        ``add`` / ``discard`` of a triple bump it by one; a bulk mutation
        (:meth:`add_all`, :meth:`from_triples`, the constructor) bumps it by
        one for the whole batch.  Mutations that change nothing (duplicate
        adds, discards of absent triples, empty batches) do not bump it.
        Evaluation caches key their per-graph entries on this counter, so
        any mutation transparently invalidates everything cached for the
        graph (see :class:`repro.evaluation.cache.EvaluationCache`).
        """
        return self._version

    def __reduce__(self):
        self._spo.flush()
        self._pos.flush()
        self._osp.flush()
        return (
            RDFGraph._restore,
            (
                tuple(self._dict),
                self._bits,
                self._spo.snapshot(),
                self._pos.snapshot(),
                self._osp.snapshot(),
                tuple(self._counts),
                self._version,
            ),
        )

    @classmethod
    def _restore(
        cls,
        terms: Sequence[GroundTerm],
        bits: int,
        spo: Sequence[int],
        pos: Sequence[int],
        osp: Sequence[int],
        counts: Sequence[int],
        version: int,
    ) -> "RDFGraph":
        """Rebuild from pickled column state (keys are already sorted), so a
        million-triple graph unpickles without re-sorting or re-interning."""
        result = cls.__new__(cls)
        dictionary = TermDictionary()
        for term in terms:
            dictionary.intern(term)
        result._dict = dictionary
        result._bits = bits
        result._spo = SortedKeyRun(bits, spo)
        result._pos = SortedKeyRun(bits, pos)
        result._osp = SortedKeyRun(bits, osp)
        result._counts = list(counts)
        result._decoded = {}
        result._version = version
        result._domain_cache = None
        result._sorted_domain_cache = None
        result._triples_cache = None
        return result

    def union(self, other: "RDFGraph") -> "RDFGraph":
        """A new graph containing the triples of both graphs."""
        result = self.copy()
        result.add_all(other)
        return result

    # --- container protocol -------------------------------------------------
    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, TriplePattern) or not triple.is_ground():
            return False
        id_of = self._dict.id_of
        s = id_of(triple.subject)
        p = id_of(triple.predicate)
        o = id_of(triple.object)
        if s is None or p is None or o is None:
            return False
        return self._pack(s, p, o) in self._spo

    def _decode(self, key: int) -> Triple:
        """The :class:`Triple` for one packed SPO key (memoized; terms are
        the interned instances, so decoded triples share term objects)."""
        triple = self._decoded.get(key)
        if triple is None:
            bits = self._bits
            mask = (1 << bits) - 1
            term_of = self._dict.term_of
            triple = TriplePattern(
                term_of(key >> (2 * bits)),
                term_of((key >> bits) & mask),
                term_of(key & mask),
            )
            self._decoded[key] = triple
        return triple

    def __iter__(self) -> Iterator[Triple]:
        decode = self._decode
        for key in self._spo:
            yield decode(key)

    def __len__(self) -> int:
        return len(self._spo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDFGraph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self.triples() == other.triples()

    def __hash__(self) -> int:
        return hash(self.triples())

    def __repr__(self) -> str:
        return f"RDFGraph(<{len(self)} triples>)"

    # --- queries --------------------------------------------------------------
    def triples(self) -> FrozenSet[Triple]:
        """The triples as a frozen set (memoized per :attr:`version`)."""
        cached = self._triples_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        frozen = frozenset(self)
        self._triples_cache = (self._version, frozen)
        return frozen

    def domain(self) -> frozenset:
        """``dom(G)``: the ground terms appearing in any position of any
        triple — read straight off the term dictionary's occurrence counts
        (memoized per :attr:`version`)."""
        cached = self._domain_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        term_of = self._dict.term_of
        frozen = frozenset(
            term_of(term_id) for term_id, count in enumerate(self._counts) if count > 0
        )
        self._domain_cache = (self._version, frozen)
        return frozen

    def sorted_domain(self) -> Tuple[GroundTerm, ...]:
        """``dom(G)`` as a tuple sorted by string form (memoized per version).

        This is the canonical value order of the pebble game / consistency
        kernel; sharing one sorted tuple avoids one sort per invocation.
        """
        cached = self._sorted_domain_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        ordered = tuple(sorted(self.domain(), key=str))
        self._sorted_domain_cache = (self._version, ordered)
        return ordered

    def _position_ids(self, run: SortedKeyRun) -> Iterator[int]:
        """Distinct leading-field ids of one permutation run."""
        shift = 2 * self._bits
        seen = set()
        for key in run:
            seen.add(key >> shift)
        return iter(seen)

    def subjects(self) -> frozenset:
        """All subjects occurring in the graph."""
        term_of = self._dict.term_of
        return frozenset(term_of(i) for i in self._position_ids(self._spo))

    def predicates(self) -> frozenset:
        """All predicates occurring in the graph."""
        term_of = self._dict.term_of
        return frozenset(term_of(i) for i in self._position_ids(self._pos))

    def objects(self) -> frozenset:
        """All objects occurring in the graph."""
        term_of = self._dict.term_of
        return frozenset(term_of(i) for i in self._position_ids(self._osp))

    def matches(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Iterate over the ground triples matching *pattern*.

        Positions holding variables match anything; repeated variables in the
        pattern must be matched by equal terms.  One range scan over the
        permutation column whose sort order leads with the bound positions.
        """
        id_of = self._dict.id_of
        bound: List[Optional[int]] = []
        for term in pattern:
            if is_ground_term(term):
                term_id = id_of(term)
                if term_id is None:
                    return
                bound.append(term_id)
            else:
                bound.append(None)
        # Positions sharing a repeated variable must decode to equal ids.
        var_groups: Dict[Variable, List[int]] = {}
        for position, term in enumerate(pattern):
            if isinstance(term, Variable):
                var_groups.setdefault(term, []).append(position)
        groups = [positions for positions in var_groups.values() if len(positions) > 1]
        decode = self._decode
        for ids, spo_key in self._scan_ids(bound[0], bound[1], bound[2]):
            if groups and any(
                len({ids[position] for position in group}) != 1 for group in groups
            ):
                continue
            yield decode(spo_key)

    def _scan_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int]
    ) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        """Yield ``((s, p, o), packed_spo_key)`` for the bound-position mask,
        as one range scan over the permutation led by the bound positions."""
        return scan_mask(
            self._bits, self._spo.keys(), self._pos.keys(), self._osp.keys(), s, p, o
        )

    def solutions(self, pattern: TriplePattern) -> Iterator[Dict[Variable, GroundTerm]]:
        """Iterate over variable bindings ``µ`` with ``µ(pattern) ∈ G``.

        This is the base case ``⟦t⟧G`` of the SPARQL semantics, yielded as
        plain dictionaries; :mod:`repro.sparql.mappings` wraps them.
        """
        for t in self.matches(pattern):
            binding: Dict[Variable, GroundTerm] = {}
            for pat_term, data_term in zip(pattern, t):
                if isinstance(pat_term, Variable):
                    binding[pat_term] = data_term
            yield binding

    # --- snapshots for target indexes ----------------------------------------
    def _snapshot(self):
        """Flushed copies of the key runs + the shared dictionary and decode memo.

        Consumed by :class:`~repro.hom.homomorphism.TargetIndex`: the copies
        freeze the triple set at the current version (later graph mutations
        never leak into a built index), while the dictionary is shared
        safely because ids are never reassigned, and the decode memo is
        shared because the graph *replaces* (never mutates in place) that
        dict when the key width changes.
        """
        return (
            self._bits,
            self._spo.snapshot(),
            self._pos.snapshot(),
            self._osp.snapshot(),
            self._dict,
            self._decoded,
        )
