"""A parser and serialiser for a compact textual graph-pattern syntax.

The syntax mirrors the algebraic formalisation of Pérez et al. used in the
paper rather than the full W3C grammar:

* a triple pattern is written ``(?x <http://example.org/p> ?y)``; bare
  identifiers are shorthand for IRIs, so ``(?x p ?y)`` also works.  An IRI
  in brackets is read as N-Triples reads one, ``\\uXXXX`` escapes included,
  so an IRI holding whitespace or ``>`` is written ``<a\\u0020b>``;
* ``AND``, ``OPT`` (or ``OPTIONAL``) and ``UNION`` combine patterns and are
  left-associative with equal precedence; parentheses group;
* string literals are written ``"value"`` with the escapes of an N-Triples
  literal (``\\"``, ``\\\\``, ``\\n``, ``\\uXXXX``, ...); other characters,
  non-ASCII included, stand for themselves.  A language tag (``"chat"@fr``)
  or a datatype (``"1"^^<http://www.w3.org/2001/XMLSchema#integer>``) may
  follow, as in N-Triples.

Example::

    ((?x p ?y) OPT (?z q ?x)) UNION ((?x p ?y) AND (?y r ?w))
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Tuple

from .algebra import And, GraphPattern, Opt, TriplePatternNode, Union
from ..exceptions import ParseError
from ..rdf.io import IRI_BODY, parse_term, serialize_term
from ..rdf.terms import IRI, Literal, Term, Variable
from ..rdf.triples import TriplePattern

__all__ = ["parse_pattern", "to_text"]


class _Token(NamedTuple):
    kind: str
    value: str
    position: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<iri_ref><{iri}>)
    | (?P<string>"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^<{iri}>)?)
    | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_:/.#-]*)
    """.format(iri=IRI_BODY),
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OPT", "OPTIONAL", "UNION"}

#: How deep the parser nests groups, and how deep the pattern it builds nests
#: operators.  The parser recurses once per group and the evaluators once per
#: operator, so deeper text (600 groups, or a chain of 1,000 ``AND``\ s) would
#: exhaust the interpreter's stack.  The deepest generated text,
#: ``to_text(fk_pattern(12))``, nests 70 groups.
MAX_DEPTH = 200


def _tokenize(text: str) -> Iterator[_Token]:
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position=position)
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        yield _Token(kind, match.group(), match.start())
    yield _Token("eof", "", len(text))


class _Parser:
    """Recursive-descent parser for the pattern grammar."""

    def __init__(self, text: str) -> None:
        self._tokens: List[_Token] = list(_tokenize(text))
        self._index = 0

    # --- token helpers -----------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._advance()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, got {token.value!r}", position=token.position)
        return token

    # --- grammar ------------------------------------------------------------
    def parse(self) -> GraphPattern:
        pattern, _depth = self._parse_expression(0)
        trailing = self._peek()
        if trailing.kind != "eof":
            raise ParseError(f"trailing input {trailing.value!r}", position=trailing.position)
        return pattern

    def _parse_expression(self, groups: int) -> Tuple[GraphPattern, int]:
        """The expression inside *groups* open groups, and its depth."""
        left, depth = self._parse_atom(groups)
        while True:
            token = self._peek()
            if token.kind == "word" and token.value.upper() in _KEYWORDS:
                self._advance()
                right, right_depth = self._parse_atom(groups)
                depth = 1 + max(depth, right_depth)
                if depth > MAX_DEPTH:
                    raise ParseError(
                        f"operators nest deeper than {MAX_DEPTH}", position=token.position
                    )
                operator = token.value.upper()
                if operator == "AND":
                    left = And(left, right)
                elif operator in ("OPT", "OPTIONAL"):
                    left = Opt(left, right)
                else:
                    left = Union(left, right)
            else:
                return left, depth

    def _parse_atom(self, groups: int) -> Tuple[GraphPattern, int]:
        token = self._peek()
        if token.kind != "lparen":
            raise ParseError(f"expected '(', got {token.value!r}", position=token.position)
        # Disambiguate triple pattern vs. grouped expression: a triple pattern
        # starts with a term token right after the parenthesis, a group starts
        # with another parenthesis.
        if self._peek(1).kind in ("var", "iri_ref", "string", "word") and (
            self._peek(1).kind != "word" or self._peek(1).value.upper() not in _KEYWORDS
        ):
            return self._parse_triple(), 0
        if groups == MAX_DEPTH:
            raise ParseError(f"groups nest deeper than {MAX_DEPTH}", position=token.position)
        self._expect("lparen")
        inner = self._parse_expression(groups + 1)
        self._expect("rparen")
        return inner

    def _parse_triple(self) -> TriplePatternNode:
        self._expect("lparen")
        terms = [self._parse_term(), self._parse_term(), self._parse_term()]
        self._expect("rparen")
        return TriplePatternNode(TriplePattern(*terms))

    def _parse_term(self) -> Term:
        token = self._advance()
        if token.kind == "var":
            return Variable(token.value)
        if token.kind in ("iri_ref", "string"):
            try:
                return parse_term(token.value)
            except ParseError as exc:
                raise ParseError(str(exc), position=token.position) from None
        if token.kind == "word":
            if token.value.upper() in _KEYWORDS:
                raise ParseError(
                    f"keyword {token.value!r} cannot be used as a term", position=token.position
                )
            return IRI(token.value)
        raise ParseError(f"expected a term, got {token.value!r}", position=token.position)


def parse_pattern(text: str) -> GraphPattern:
    """Parse the textual syntax into a :class:`GraphPattern`.

    >>> p = parse_pattern("((?x p ?y) OPT (?y q ?z))")
    >>> sorted(str(v) for v in p.variables())
    ['?x', '?y', '?z']
    """
    return _Parser(text).parse()


def _term_to_text(term: Term) -> str:
    if isinstance(term, Variable):
        return str(term)
    if isinstance(term, IRI):
        # Keep the short form when the IRI looks like a bare word that is
        # not a keyword.
        if (
            re.fullmatch(r"[A-Za-z_][A-Za-z0-9_:/.#-]*", term.value)
            and term.value.upper() not in _KEYWORDS
        ):
            return term.value
        return serialize_term(term)
    if isinstance(term, Literal):
        return serialize_term(term)
    raise TypeError(f"not a term: {term!r}")


def to_text(pattern: GraphPattern) -> str:
    """Serialise a pattern back into the textual syntax accepted by
    :func:`parse_pattern` (round-trips modulo whitespace)."""
    if isinstance(pattern, TriplePatternNode):
        t = pattern.triple_pattern
        return f"({_term_to_text(t.subject)} {_term_to_text(t.predicate)} {_term_to_text(t.object)})"
    if isinstance(pattern, And):
        return f"({to_text(pattern.left)} AND {to_text(pattern.right)})"
    if isinstance(pattern, Opt):
        return f"({to_text(pattern.left)} OPT {to_text(pattern.right)})"
    if isinstance(pattern, Union):
        return f"({to_text(pattern.left)} UNION {to_text(pattern.right)})"
    raise TypeError(f"not a graph pattern: {pattern!r}")
