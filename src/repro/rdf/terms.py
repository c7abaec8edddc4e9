"""RDF terms and SPARQL variables.

The paper works with a countably infinite set of IRIs ``I`` and a disjoint
countably infinite set of variables ``V``.  This module provides immutable,
hashable value objects for both, plus :class:`Literal` so that realistic RDF
data sets (which contain literals) can be represented as well.  For the
purposes of the algorithms in the paper a literal behaves exactly like an
IRI: it is a ground constant.
"""

from __future__ import annotations

import re
from typing import Union

__all__ = [
    "Term",
    "GroundTerm",
    "IRI",
    "Literal",
    "Variable",
    "is_ground_term",
    "term_sort_key",
]

_VARIABLE_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Term:
    """Abstract base class of all RDF/SPARQL terms."""

    __slots__ = ()

    def is_variable(self) -> bool:
        """Return ``True`` when the term is a SPARQL variable."""
        return isinstance(self, Variable)

    def is_ground(self) -> bool:
        """Return ``True`` when the term is a ground constant (IRI/Literal)."""
        return not self.is_variable()


class IRI(Term):
    """An internationalised resource identifier.

    IRIs compare by value and are usable as dictionary keys.

    >>> IRI("http://example.org/alice") == IRI("http://example.org/alice")
    True
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be a string, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must be a non-empty string")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IRI instances are immutable")

    def __reduce__(self):
        # Immutable slotted classes cannot use the default pickle protocol
        # (restoring state calls the blocked __setattr__); rebuild through the
        # constructor instead, so terms (and the triples, mappings and graphs
        # built from them) pickle.
        return (IRI, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and self.value == other.value

    def __hash__(self) -> int:
        # The string caches its own hash; a fresh tuple per call would not.
        return hash(self.value)

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return f"<{self.value}>"

    def __lt__(self, other: "IRI") -> bool:
        if not isinstance(other, IRI):
            return NotImplemented
        return self.value < other.value


class Literal(Term):
    """An RDF literal with an optional datatype or language tag.

    The paper's formalisation only needs IRIs; literals are provided so that
    real-world style RDF data can be loaded.  Algorithmically a literal is
    just another ground constant.
    """

    __slots__ = ("value", "datatype", "language")

    def __init__(
        self,
        value: str,
        datatype: IRI | None = None,
        language: str | None = None,
    ) -> None:
        if not isinstance(value, str):
            raise TypeError("Literal lexical value must be a string")
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal instances are immutable")

    def __reduce__(self):
        return (Literal, (self.value, self.datatype, self.language))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.value == other.value
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash(("Literal", self.value, self.datatype, self.language))

    def __repr__(self) -> str:
        parts = [repr(self.value)]
        if self.datatype is not None:
            parts.append(f"datatype={self.datatype!r}")
        if self.language is not None:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def __str__(self) -> str:
        if self.language is not None:
            return f'"{self.value}"@{self.language}'
        if self.datatype is not None:
            return f'"{self.value}"^^{self.datatype}'
        return f'"{self.value}"'


class Variable(Term):
    """A SPARQL variable such as ``?x``.

    The leading question mark is not stored; ``Variable("x")`` and
    ``Variable("?x")`` denote the same variable.

    >>> Variable("?x") == Variable("x")
    True
    >>> str(Variable("x"))
    '?x'
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str):
            raise TypeError("variable name must be a string")
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not name:
            raise ValueError("variable name must be non-empty")
        if not _VARIABLE_NAME_RE.match(name):
            raise ValueError(
                f"invalid variable name {name!r}: expected an identifier "
                "(letters, digits, underscores, not starting with a digit)"
            )
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Variable instances are immutable")

    def __reduce__(self):
        return (Variable, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        # Complemented so that ``?x`` and the IRI ``x`` do not collide.
        return ~hash(self.name)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


#: Union of ground constants usable in RDF triples.
GroundTerm = Union[IRI, Literal]


def is_ground_term(term: Term) -> bool:
    """Return ``True`` when *term* is a ground constant (IRI or Literal)."""
    return isinstance(term, (IRI, Literal))


def term_sort_key(term: Term) -> tuple[int, str]:
    """A deterministic sort key so that mixed collections of terms can be
    ordered reproducibly (variables first, then IRIs, then literals)."""
    if isinstance(term, Variable):
        return (0, term.name)
    if isinstance(term, IRI):
        return (1, term.value)
    if isinstance(term, Literal):
        return (2, str(term))
    raise TypeError(f"not a term: {term!r}")
