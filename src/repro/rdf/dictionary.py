"""Term interning for the columnar triple store.

:class:`TermDictionary` maps every ground term (IRI or literal) of a graph to
a dense integer id and back.  Ids are assigned in interning order, never
reused and never removed — a term that no longer occurs in any triple keeps
its id (the graph tracks occurrence counts separately), so id-encoded
snapshots such as :class:`~repro.hom.homomorphism.TargetIndex` remain
decodable after arbitrary mutations of the graph.  The target index of a
t-graph keeps a private dictionary that interns its variables as well.

Interning also deduplicates term objects: every triple decoded from the
columns shares the single interned instance of each of its terms, so a
million-triple graph holds each distinct IRI object once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .terms import GroundTerm

__all__ = ["TermDictionary"]


class TermDictionary:
    """A bijection between ground terms and dense integer ids.

    >>> from repro.rdf.terms import IRI
    >>> d = TermDictionary()
    >>> d.intern(IRI("http://example.org/a"))
    0
    >>> d.intern(IRI("http://example.org/a"))
    0
    >>> d.term_of(0)
    IRI('http://example.org/a')
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: Dict[GroundTerm, int] = {}
        self._terms: List[GroundTerm] = []

    def intern(self, term: GroundTerm) -> int:
        """The id of *term*, assigning the next dense id on first sight."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    def id_of(self, term: GroundTerm) -> Optional[int]:
        """The id of *term*, or ``None`` when it was never interned."""
        return self._ids.get(term)

    def term_of(self, term_id: int) -> GroundTerm:
        """The term with the given id (ids are dense: ``0 .. len - 1``)."""
        return self._terms[term_id]

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[GroundTerm]:
        return iter(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(<{len(self._terms)} terms>)"

    def copy(self) -> "TermDictionary":
        """An independent copy (terms are immutable and shared)."""
        result = TermDictionary.__new__(TermDictionary)
        result._ids = dict(self._ids)
        result._terms = list(self._terms)
        return result
