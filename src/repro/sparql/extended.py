"""The extended fragment: FILTER and SELECT (projection).

The paper's core results concern the AND/OPT/UNION fragment; Section 5
explains that once FILTER or SELECT enter the picture the clean dichotomy of
Theorem 3 fails (there are classes whose co-evaluation problem is NP-hard yet
fixed-parameter tractable).  To make that discussion concrete — and to give
the library the operators real SPARQL workloads use — this module adds:

* :class:`Filter` — ``P FILTER R`` with the condition language of
  :mod:`repro.sparql.filters`;
* :class:`Select` — projection ``SELECT W WHERE P``;
* the *safety* and extended well-designedness checks of Pérez et al.
  (``vars(R) ⊆ vars(P)`` for every FILTER subpattern, OPT condition as
  before, SELECT only at the top);
* an evaluator for the extended fragment (in
  :mod:`repro.evaluation.extended`).

The structural algorithms of the paper (pattern forests, width measures, the
pebble evaluation) intentionally keep operating on the core fragment only;
:func:`core_fragment_of` strips a top-level SELECT and rejects FILTER so the
caller can decide how to handle extended queries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .algebra import And, GraphPattern, Opt, Union
from .filters import FilterCondition
from .well_designed import WellDesignedViolation
from ..rdf.terms import Variable
from ..exceptions import NotWellDesignedError

__all__ = [
    "Filter",
    "Select",
    "is_safe",
    "find_extended_violation",
    "is_well_designed_extended",
    "check_well_designed_extended",
    "core_fragment_of",
]


class Filter(GraphPattern):
    """``P FILTER R`` — keep only the solutions of ``P`` satisfying ``R``."""

    __slots__ = ("pattern", "condition")

    def __init__(self, pattern: GraphPattern, condition: FilterCondition) -> None:
        if not isinstance(pattern, GraphPattern):
            raise TypeError("Filter wraps a GraphPattern")
        if not isinstance(condition, FilterCondition):
            raise TypeError("Filter takes a FilterCondition")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "condition", condition)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("graph patterns are immutable")

    def variables(self) -> frozenset[Variable]:
        return self.pattern.variables() | self.condition.variables()

    def triple_patterns(self):
        return self.pattern.triple_patterns()

    def subpatterns(self) -> Iterator[GraphPattern]:
        yield self
        yield from self.pattern.subpatterns()

    def _key(self) -> tuple:
        return (self.pattern, self.condition)

    def __repr__(self) -> str:
        return f"Filter({self.pattern!r}, {self.condition!r})"

    def __str__(self) -> str:
        return f"({self.pattern} FILTER {self.condition})"


class Select(GraphPattern):
    """``SELECT W WHERE P`` — project the solutions of ``P`` onto ``W``."""

    __slots__ = ("pattern", "projection")

    def __init__(self, pattern: GraphPattern, projection: Iterable[Variable]) -> None:
        if not isinstance(pattern, GraphPattern):
            raise TypeError("Select wraps a GraphPattern")
        projection = tuple(dict.fromkeys(projection))  # stable, deduplicated
        for variable in projection:
            if not isinstance(variable, Variable):
                raise TypeError("projection variables must be Variable instances")
        if not projection:
            raise ValueError("SELECT requires at least one projection variable")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "projection", projection)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("graph patterns are immutable")

    def variables(self) -> frozenset[Variable]:
        return self.pattern.variables() | frozenset(self.projection)

    def triple_patterns(self):
        return self.pattern.triple_patterns()

    def subpatterns(self) -> Iterator[GraphPattern]:
        yield self
        yield from self.pattern.subpatterns()

    def _key(self) -> tuple:
        return (self.pattern, self.projection)

    def __repr__(self) -> str:
        return f"Select({self.pattern!r}, projection={self.projection!r})"

    def __str__(self) -> str:
        names = " ".join(str(v) for v in self.projection)
        return f"(SELECT {names} WHERE {self.pattern})"


def is_safe(pattern: GraphPattern) -> bool:
    """Safety: every FILTER condition only uses variables of its own pattern."""
    for sub in pattern.subpatterns():
        if isinstance(sub, Filter) and not sub.condition.variables() <= sub.pattern.variables():
            return False
    return True


def find_extended_violation(pattern: GraphPattern) -> Optional[WellDesignedViolation]:
    """Well-designedness for the extended fragment.

    Conditions (following Pérez et al.): at most one top-level SELECT; below
    it, a UNION combination of patterns where (i) every FILTER is safe and
    (ii) for every OPT subpattern the usual variable condition holds, with
    FILTER variables counting as occurrences.
    """
    if isinstance(pattern, Select):
        pattern = pattern.pattern
    # No nested SELECT.
    for sub in pattern.subpatterns():
        if isinstance(sub, Select):
            return WellDesignedViolation(path=(), variable=None, kind="nested-select")
    if not is_safe(pattern):
        return WellDesignedViolation(path=(), variable=None, kind="unsafe-filter")
    # Reduce to the core check by replacing FILTER subpatterns with their
    # operand AND'ed with pseudo-occurrences of the condition variables: for
    # the OPT condition it suffices to treat vars(R) as occurring at the
    # FILTER's position, which replacing the node by its operand already does
    # because safety guarantees vars(R) ⊆ vars(P).
    stripped = _strip_filters(pattern)
    from .well_designed import find_violation

    return find_violation(stripped)


def _strip_filters(pattern: GraphPattern) -> GraphPattern:
    if isinstance(pattern, Filter):
        return _strip_filters(pattern.pattern)
    if isinstance(pattern, And):
        return And(_strip_filters(pattern.left), _strip_filters(pattern.right))
    if isinstance(pattern, Opt):
        return Opt(_strip_filters(pattern.left), _strip_filters(pattern.right))
    if isinstance(pattern, Union):
        return Union(_strip_filters(pattern.left), _strip_filters(pattern.right))
    return pattern


def is_well_designed_extended(pattern: GraphPattern) -> bool:
    """``True`` iff the extended pattern is well-designed (and safe)."""
    return find_extended_violation(pattern) is None


def check_well_designed_extended(pattern: GraphPattern) -> None:
    """Raise :class:`NotWellDesignedError` unless the extended pattern is
    well-designed and safe."""
    violation = find_extended_violation(pattern)
    if violation is not None:
        raise NotWellDesignedError(
            f"extended pattern is not well-designed: {violation.kind}", violation=violation
        )


def core_fragment_of(pattern: GraphPattern) -> GraphPattern:
    """Return the AND/OPT/UNION core of an extended pattern.

    A single top-level SELECT is stripped (its projection is ignored by the
    structural machinery); FILTER anywhere raises, because the paper's width
    measures are not defined — and provably cannot give a dichotomy — for the
    FILTER fragment.
    """
    if isinstance(pattern, Select):
        pattern = pattern.pattern
    for sub in pattern.subpatterns():
        if isinstance(sub, Filter):
            raise NotWellDesignedError(
                "the structural algorithms operate on the AND/OPT/UNION fragment; "
                "FILTER is only supported by the naive evaluator"
            )
        if isinstance(sub, Select):
            raise NotWellDesignedError("SELECT may only appear at the top of the pattern")
    return pattern
