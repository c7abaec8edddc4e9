"""Homomorphisms between t-graphs and into RDF graphs.

This module implements the single NP oracle of the library: a backtracking
search for homomorphisms ``h`` from a t-graph ``S`` into a target t-graph or
RDF graph, subject to *fixed* bindings:

* constants (IRIs / literals) are always mapped to themselves;
* the distinguished variables ``X`` of a generalised t-graph are fixed to
  themselves (``(S, X) → (S', X)``) or to ``µ`` (``(S, X) →µ G``).

Every target is searched through one structure, :class:`TargetIndex`: a term
dictionary that interns each target term to a dense integer id, plus the
id-encoded target triples as three sorted runs of packed keys (SPO, POS,
OSP — see :mod:`repro.rdf.columns`).  An RDF graph's index is a frozen copy
of the graph's own runs and shares its dictionary; a t-graph or a plain
triple iterable gets a private dictionary (its variables are interned like
any other term) and private runs.

The search compiles the source into id-level triples: each variable left to
search becomes a slot, each constant and each fixed image becomes its
dictionary id — an id the target never interned means there is no
homomorphism.  It then backtracks over sets of ints: the slot with the
fewest candidates goes next (ties by variable name), its values are tried in
id order, and forward checking along the triples that mention the slot just
assigned narrows the other slots' candidate sets.  Candidates come straight
from range scans of the runs, memoized per index, and a
:class:`~repro.rdf.terms.Term` is built only for a homomorphism the search
yields.  This keeps the common cases — conjunctive matching, core
computation, the natural wdPF evaluation algorithm and the Theorem 2
reduction instances — well within reach even though the problem is
NP-complete in general.

The public helpers mirror the relations used in the paper:

* :func:`find_homomorphism` / :func:`all_homomorphisms` — raw search;
* :func:`maps_to` — ``(S, X) → (S', X)``;
* :func:`maps_into` — ``(S, X) →µ G``;
* :func:`extends_into` — compatibility-style extension used by the baseline
  wdPF evaluation algorithm.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .tgraph import GeneralizedTGraph, TGraph
from ..rdf.columns import scan_mask
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import RDFGraph
from ..rdf.terms import Term, Variable
from ..rdf.triples import TriplePattern
from ..sparql.mappings import Mapping as SolutionMapping
from ..exceptions import EvaluationError

__all__ = [
    "find_homomorphism",
    "all_homomorphisms",
    "has_homomorphism",
    "maps_to",
    "maps_into",
    "extends_into",
    "homomorphism_count",
    "TargetIndex",
    "ColumnarTargetIndex",
    "target_index",
]

_TargetTriples = FrozenSet[TriplePattern]

#: A compiled source triple: dictionary ids (``>= 0``) and ``~slot`` codes
#: (``< 0``) for the variables the search assigns.
_Row = Tuple[int, int, int]

#: Entries one id-lookup memo of a :class:`TargetIndex` holds before it is
#: cleared, so a long-lived index over a large graph stays bounded.
_MEMO_LIMIT = 4096


class TargetIndex:
    """The id-level index of one search target (see the module docs).

    ``TargetIndex(target)`` accepts an :class:`RDFGraph` — a frozen copy of
    its sorted runs that shares the graph's term dictionary and decoded-
    triple memo, so later mutations of the graph never leak in — or a
    :class:`TGraph` or any iterable of triple patterns, which get a private
    dictionary and private runs.  :meth:`candidates` and
    :meth:`pattern_solutions` are range scans in the id domain; the search
    reads the runs directly.  ``triples`` and ``terms`` are materialised
    lazily, once.
    """

    __slots__ = (
        "_bits",
        "_spo",
        "_pos",
        "_osp",
        "_dict",
        "_decoded",
        "_objects",
        "_subjects",
        "_predicates",
        "_terms_cache",
        "_triples_cache",
    )

    def __init__(self, target: TGraph | RDFGraph | Iterable[TriplePattern]) -> None:
        self._triples_cache: Optional[_TargetTriples] = None
        if isinstance(target, RDFGraph):
            (
                self._bits,
                self._spo,
                self._pos,
                self._osp,
                self._dict,
                self._decoded,
            ) = target._snapshot()
        else:
            triples = target.triples() if isinstance(target, TGraph) else frozenset(target)
            dictionary = TermDictionary()
            intern = dictionary.intern
            ids = [(intern(t.subject), intern(t.predicate), intern(t.object)) for t in triples]
            bits = max(1, (len(dictionary) - 1).bit_length())
            shift2 = 2 * bits
            self._bits = bits
            self._spo = sorted((s << shift2) | (p << bits) | o for s, p, o in ids)
            self._pos = sorted((p << shift2) | (o << bits) | s for s, p, o in ids)
            self._osp = sorted((o << shift2) | (s << bits) | p for s, p, o in ids)
            self._dict = dictionary
            self._decoded: Dict[int, TriplePattern] = {}
            self._triples_cache = triples
        # Memoized id lookups of the search (see _column).
        self._objects: Dict[int, FrozenSet[int]] = {}
        self._subjects: Dict[int, FrozenSet[int]] = {}
        self._predicates: Dict[int, FrozenSet[int]] = {}
        self._terms_cache: Optional[FrozenSet[Term]] = None

    # --- term-level views -------------------------------------------------
    @property
    def triples(self) -> _TargetTriples:
        """The target triples."""
        cached = self._triples_cache
        if cached is None:
            decode = self._decode
            cached = frozenset(decode(key) for key in self._spo)
            self._triples_cache = cached
        return cached

    @property
    def terms(self) -> FrozenSet[Term]:
        """Every term occurring in some target triple."""
        cached = self._terms_cache
        if cached is None:
            shift = 2 * self._bits
            ids = {key >> shift for key in self._spo}
            ids.update(key >> shift for key in self._pos)
            ids.update(key >> shift for key in self._osp)
            term_of = self._dict.term_of
            cached = frozenset(term_of(i) for i in ids)
            self._terms_cache = cached
        return cached

    def _decode(self, key: int) -> TriplePattern:
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

    def _scan(self, s: Optional[int], p: Optional[int], o: Optional[int]) -> Iterator[tuple]:
        return scan_mask(self._bits, self._spo, self._pos, self._osp, s, p, o)

    def candidates(
        self, s: Optional[Term], p: Optional[Term], o: Optional[Term]
    ) -> Iterable[TriplePattern]:
        """Target triples agreeing with the bound positions (None = unbound)."""
        id_of = self._dict.id_of
        ids: List[Optional[int]] = []
        for term in (s, p, o):
            term_id = None if term is None else id_of(term)
            if term is not None and term_id is None:
                return ()
            ids.append(term_id)
        decode = self._decode
        return (decode(key) for _, key in self._scan(ids[0], ids[1], ids[2]))

    def pattern_solutions(
        self,
        pattern: TriplePattern,
        fixed: Optional[Mapping[Variable, Term]] = None,
    ) -> Iterator[Dict[Variable, Term]]:
        """Bindings of the unbound variables of one triple pattern — an index
        join against the target triples.

        Positions bound by *fixed* (or holding constants) select the one
        permutation run whose sort order leads with them; repeated unbound
        variables must receive equal images.  The scan and the
        repeated-variable check run on ids, and terms are built only for
        the yielded bindings, so enumerating them costs time proportional
        to the number of matching triples, not to the size of the target —
        this is what the consistency kernel uses to build per-variable
        domains and binary support relations instead of generate-and-test
        over ``dom(G)`` squared.
        """
        assignment: Mapping[Variable, Term] = fixed if fixed is not None else {}
        id_of = self._dict.id_of
        bound: List[Optional[int]] = []
        unbound_positions: Dict[Variable, List[int]] = {}
        for position, term in enumerate(pattern):
            if isinstance(term, Variable):
                value = assignment.get(term)
                if value is None:
                    unbound_positions.setdefault(term, []).append(position)
                    bound.append(None)
                    continue
                term = value
            term_id = id_of(term)
            if term_id is None:
                # A bound term the target never interned: nothing can match it.
                return
            bound.append(term_id)
        groups = [ps for ps in unbound_positions.values() if len(ps) > 1]
        term_of = self._dict.term_of
        for ids, _ in self._scan(bound[0], bound[1], bound[2]):
            if groups and any(
                len({ids[position] for position in group}) != 1 for group in groups
            ):
                continue
            yield {
                var: term_of(ids[positions[0]])
                for var, positions in unbound_positions.items()
            }

    # --- id lookups of the search -------------------------------------------
    def _holds(self, s: int, p: int, o: int) -> bool:
        """Is the id triple ``(s, p, o)`` a target triple?"""
        bits = self._bits
        key = (s << (2 * bits)) | (p << bits) | o
        spo = self._spo
        i = bisect_left(spo, key)
        return i < len(spo) and spo[i] == key

    def _column(
        self, keys: Sequence[int], memo: Dict[int, FrozenSet[int]], a: int, b: int
    ) -> FrozenSet[int]:
        """The third fields of the keys of one permutation run that start
        with ``(a, b)``, memoized in *memo* under ``(a << bits) | b``.

        The search reads *memo* itself and calls this on a miss: objects
        per ``(s, p)`` from SPO, subjects per ``(p, o)`` from POS and
        predicates per ``(o, s)`` from OSP.
        """
        bits = self._bits
        prefix = (a << bits) | b
        lo = prefix << bits
        start = bisect_left(keys, lo)
        stop = bisect_left(keys, lo + (1 << bits), start)
        mask = (1 << bits) - 1
        found = frozenset([key & mask for key in keys[start:stop]])
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[prefix] = found
        return found

    def _single(self, s: int, p: int, o: int) -> FrozenSet[int]:
        """The ids of the one free position (``-1``) of ``(s, p, o)``."""
        bits = self._bits
        if o < 0:
            found = self._objects.get((s << bits) | p)
            return self._column(self._spo, self._objects, s, p) if found is None else found
        if s < 0:
            found = self._subjects.get((p << bits) | o)
            return self._column(self._pos, self._subjects, p, o) if found is None else found
        found = self._predicates.get((o << bits) | s)
        return self._column(self._osp, self._predicates, o, s) if found is None else found

    def _free_values(self, row: _Row, value: List[int]) -> Dict[int, FrozenSet[int]]:
        """For one compiled row, the ids each of its unassigned slots can take
        given the assigned ones (``value[slot] == -1`` when unassigned).

        Exact when one slot is left — a slot at two or three positions must
        take one id at all of them — and a per-position projection when two
        or three distinct slots are.
        """
        bound = [code if code >= 0 else value[~code] for code in row]
        free = [(position, ~row[position]) for position in range(3) if bound[position] < 0]
        if len(free) == 1:
            return {free[0][1]: self._single(bound[0], bound[1], bound[2])}
        found: Dict[int, Set[int]] = {slot: set() for _, slot in free}
        repeated = len(found) < len(free)
        for triple, _ in self._scan(*(None if i < 0 else i for i in bound)):
            if repeated:
                seen: Dict[int, int] = {}
                if any(
                    seen.setdefault(slot, triple[position]) != triple[position]
                    for position, slot in free
                ):
                    continue
            for position, slot in free:
                found[slot].add(triple[position])
        return {slot: frozenset(ids) for slot, ids in found.items()}


#: The index of an RDF graph — the same class since one index serves every
#: target; the name stays for the callers that spell it.
ColumnarTargetIndex = TargetIndex


def target_index(target: TGraph | RDFGraph | Iterable[TriplePattern]) -> TargetIndex:
    """Build a reusable :class:`TargetIndex` over *target*.

    The search helpers accept a prebuilt index via their ``index=``
    parameter so that callers answering many homomorphism queries against
    one target (notably the evaluation cache) pay the construction cost —
    and warm the index's id-lookup memos — only once.
    """
    return TargetIndex(target)


def _search_ids(
    source: Sequence[TriplePattern],
    index: TargetIndex,
    fixed: Mapping[Variable, Term],
    budget=None,
) -> Iterator[Dict[Variable, Term]]:
    """Backtracking with forward checking over interned ids (module docs).

    *budget* is any object with an amortized ``tick()`` method (duck-typed
    so this layer need not import the evaluation layer); it is ticked once
    per value tried at a backtracking node, bounding the NP oracle."""
    # Compile: the variables left to search become slots in name order,
    # constants and fixed images become the target's ids.
    names = sorted(
        {term for t in source for term in t if isinstance(term, Variable) and term not in fixed},
        key=lambda var: var.name,
    )
    slot_of = {var: slot for slot, var in enumerate(names)}
    template: Dict[Variable, Term] = {}
    id_of = index._dict.id_of
    rows: Set[_Row] = set()
    for t in source:
        row: List[int] = []
        for term in t:
            if isinstance(term, Variable):
                slot = slot_of.get(term)
                if slot is not None:
                    row.append(~slot)
                    continue
                image = fixed[term]
                template[term] = image
                term = image
            term_id = id_of(term)
            if term_id is None:
                return  # the target never interned it: nothing can match
            row.append(term_id)
        rows.add((row[0], row[1], row[2]))

    # Initial domains: for every slot, the intersection over the rows that
    # mention it of the ids the row allows.  Ground rows must hold outright.
    n = len(names)
    value = [-1] * n
    rows_of: List[List[_Row]] = [[] for _ in range(n)]
    start: List[Optional[FrozenSet[int]]] = [None] * n
    for row in rows:
        if min(row) >= 0:
            if not index._holds(*row):
                return
            continue
        for slot, allowed in index._free_values(row, value).items():
            rows_of[slot].append(row)
            current = start[slot]
            narrowed = allowed if current is None else current & allowed
            if not narrowed:
                return
            start[slot] = narrowed

    bits = index._bits
    spo, pos, osp = index._spo, index._pos, index._osp
    objects, subjects, predicates = index._objects, index._subjects, index._predicates
    column, free_values = index._column, index._free_values
    term_of = index._dict.term_of
    tick = budget.tick if budget is not None else None

    def propagate(
        slot: int, domains: List[FrozenSet[int]]
    ) -> Optional[List[FrozenSet[int]]]:
        """Forward checking after assigning *slot*: narrow the domains of the
        unassigned slots sharing a row with it (copy-on-write), or ``None``
        when one empties.  A row left without free slots needs no probe:
        its last free slot was narrowed to exactly the ids that satisfy it."""
        narrowed_domains = domains
        for row in rows_of[slot]:
            cs, cp, co = row
            s = cs if cs >= 0 else value[~cs]
            p = cp if cp >= 0 else value[~cp]
            o = co if co >= 0 else value[~co]
            if s >= 0 and p >= 0:
                if o >= 0:
                    continue
                other = ~co
                allowed = objects.get((s << bits) | p)
                if allowed is None:
                    allowed = column(spo, objects, s, p)
            elif p >= 0 and o >= 0:
                other = ~cs
                allowed = subjects.get((p << bits) | o)
                if allowed is None:
                    allowed = column(pos, subjects, p, o)
            elif o >= 0 and s >= 0:
                other = ~cp
                allowed = predicates.get((o << bits) | s)
                if allowed is None:
                    allowed = column(osp, predicates, o, s)
            else:
                for other, allowed in free_values(row, value).items():
                    narrowed = narrowed_domains[other] & allowed
                    if not narrowed:
                        return None
                    if narrowed_domains is domains:
                        narrowed_domains = list(domains)
                    narrowed_domains[other] = narrowed
                continue
            current = narrowed_domains[other]
            narrowed = current & allowed
            if not narrowed:
                return None
            if len(narrowed) < len(current):
                if narrowed_domains is domains:
                    narrowed_domains = list(domains)
                narrowed_domains[other] = narrowed
        return narrowed_domains

    def emit() -> Dict[Variable, Term]:
        hom = dict(template)
        hom.update(zip(names, map(term_of, value)))
        return hom

    remaining = list(range(n))

    def backtrack(domains: List[FrozenSet[int]]) -> Iterator[Dict[Variable, Term]]:
        slot = min(remaining, key=lambda candidate: len(domains[candidate]))
        at = remaining.index(slot)
        del remaining[at]
        if remaining:
            for candidate in sorted(domains[slot]):
                if tick is not None:
                    tick()
                value[slot] = candidate
                narrowed = propagate(slot, domains)
                if narrowed is not None:
                    yield from backtrack(narrowed)
        else:
            # The last slot's domain holds exactly the ids that complete a
            # homomorphism: every row mentioning it is otherwise bound.
            for candidate in sorted(domains[slot]):
                if tick is not None:
                    tick()
                value[slot] = candidate
                yield emit()
        value[slot] = -1
        remaining.insert(at, slot)

    if n:
        # Every slot occurs in a row that is not ground, so none is None.
        yield from backtrack(start)
    else:
        yield dict(template)


def find_homomorphism(
    source: TGraph | Iterable[TriplePattern],
    target: TGraph | RDFGraph | Iterable[TriplePattern],
    fixed: Optional[Mapping[Variable, Term]] = None,
    index: Optional[TargetIndex] = None,
    budget=None,
) -> Optional[Dict[Variable, Term]]:
    """Find one homomorphism from *source* to *target* respecting *fixed*.

    Returns a dictionary with domain exactly ``vars(source)`` (including the
    fixed variables) or ``None`` when no homomorphism exists.
    """
    for hom in all_homomorphisms(source, target, fixed, index, budget):
        return hom
    return None


def all_homomorphisms(
    source: TGraph | Iterable[TriplePattern],
    target: TGraph | RDFGraph | Iterable[TriplePattern],
    fixed: Optional[Mapping[Variable, Term]] = None,
    index: Optional[TargetIndex] = None,
    budget=None,
) -> Iterator[Dict[Variable, Term]]:
    """Iterate over all homomorphisms from *source* to *target*.

    A prebuilt *index* over the target (from :func:`target_index`) skips the
    per-call index construction; it must describe exactly the triples of
    *target*.  *budget* (any object with ``tick()``) bounds the search.
    Fixed bindings of variables outside the source are ignored.
    """
    source_triples = list(source.triples() if isinstance(source, TGraph) else source)
    if index is None:
        index = target_index(target)
    yield from _search_ids(source_triples, index, fixed or {}, budget)


def has_homomorphism(
    source: TGraph | Iterable[TriplePattern],
    target: TGraph | RDFGraph | Iterable[TriplePattern],
    fixed: Optional[Mapping[Variable, Term]] = None,
    index: Optional[TargetIndex] = None,
) -> bool:
    """``True`` iff some homomorphism exists."""
    return find_homomorphism(source, target, fixed, index) is not None


def homomorphism_count(
    source: TGraph | Iterable[TriplePattern],
    target: TGraph | RDFGraph | Iterable[TriplePattern],
    fixed: Optional[Mapping[Variable, Term]] = None,
) -> int:
    """The number of homomorphisms (useful in tests on small instances)."""
    return sum(1 for _ in all_homomorphisms(source, target, fixed))


def maps_to(source: GeneralizedTGraph, target: GeneralizedTGraph) -> bool:
    """The relation ``(S, X) → (S', X)`` of the paper.

    Requires both generalised t-graphs to carry the same distinguished set;
    distinguished variables are mapped to themselves.
    """
    if source.distinguished != target.distinguished:
        raise EvaluationError(
            "maps_to() requires generalised t-graphs over the same distinguished set"
        )
    fixed = {var: var for var in source.distinguished}
    return has_homomorphism(source.tgraph, target.tgraph, fixed)


def maps_into(
    source: GeneralizedTGraph,
    graph: RDFGraph,
    mu: SolutionMapping,
) -> bool:
    """The relation ``(S, X) →µ G``: a homomorphism into the RDF graph whose
    restriction to ``X`` equals ``µ``.  Requires ``dom(µ) = X``."""
    if mu.domain() != source.distinguished:
        raise EvaluationError(
            f"maps_into() requires dom(µ) = X; got dom(µ) = "
            f"{sorted(str(v) for v in mu.domain())}, X = "
            f"{sorted(str(v) for v in source.distinguished)}"
        )
    fixed: Dict[Variable, Term] = {var: mu[var] for var in source.distinguished}
    return has_homomorphism(source.tgraph, graph, fixed)


def extends_into(
    triples: Iterable[TriplePattern],
    graph: RDFGraph,
    mu: SolutionMapping,
    index: Optional[TargetIndex] = None,
    budget=None,
) -> Optional[Dict[Variable, Term]]:
    """Find a homomorphism ``ν`` from *triples* to *graph* compatible with ``µ``.

    "Compatible" means that ``ν`` agrees with ``µ`` on the shared variables;
    variables of *triples* outside ``dom(µ)`` may be mapped freely.  This is
    the extension test of the natural wdPF evaluation algorithm (Lemma 1,
    condition 2)."""
    triples = list(triples)
    relevant_vars: Set[Variable] = set()
    for t in triples:
        relevant_vars.update(t.variables())
    fixed = {var: mu[var] for var in relevant_vars & mu.domain()}
    return find_homomorphism(triples, graph, fixed, index, budget)
