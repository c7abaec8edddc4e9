"""A small N-Triples style reader/writer.

The format accepted here is a pragmatic subset of N-Triples:

* one triple per line, terminated by an optional ``.``;
* IRIs are written ``<iri>``;
* literals are written ``"value"``, optionally followed by ``@lang`` or
  ``^^<datatype>``;
* ``#`` starts a comment; blank lines are ignored.

It exists so that examples and experiments can persist and reload the
synthetic data sets they generate; it is not a validating W3C parser.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from .graph import RDFGraph
from .terms import IRI, Literal, Term
from .triples import Triple
from ..exceptions import ParseError, RDFError

__all__ = [
    "parse_ntriples",
    "serialize_ntriples",
    "parse_term",
    "serialize_term",
    "load_graph",
    "save_graph",
]

_TERM_RE = re.compile(
    r"""
    \s*
    (?:
        <(?P<iri>[^>]+)>
      | "(?P<lit>(?:[^"\\]|\\.)*)"
        (?: @(?P<lang>[A-Za-z][A-Za-z0-9-]*) | \^\^<(?P<dt>[^>]+)> )?
    )
    """,
    re.VERBOSE,
)


#: The single-character escapes of an N-Triples literal (``ECHAR``).
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def _unescape(value: str) -> str:
    """Decode the escapes of a literal's lexical form: ``ECHAR`` and the
    ``\\uXXXX`` / ``\\UXXXXXXXX`` code points; the rest of the text is
    taken as it is, so non-ASCII characters pass through unchanged."""
    if "\\" not in value:
        return value

    def decode(match: "re.Match[str]") -> str:
        short, long, char = match.groups()
        if char is not None:
            if char not in _ECHARS:
                raise ParseError(f"invalid escape sequence \\{char} in a literal")
            return _ECHARS[char]
        code = int(short or long, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ParseError(f"escape sequence {match.group(0)} is not a character")
        return chr(code)

    return _ESCAPE_RE.sub(decode, value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


def _parse_term(line: str, pos: int) -> tuple[Term, int]:
    match = _TERM_RE.match(line, pos)
    if match is None:
        raise ParseError(f"cannot parse term in line {line!r}", position=pos)
    if match.group("iri") is not None:
        return IRI(match.group("iri")), match.end()
    value = _unescape(match.group("lit"))
    lang = match.group("lang")
    dt = match.group("dt")
    if lang is not None:
        return Literal(value, language=lang), match.end()
    if dt is not None:
        return Literal(value, datatype=IRI(dt)), match.end()
    return Literal(value), match.end()


def parse_term(text: str) -> Term:
    """Parse one term written as in N-Triples (``<iri>`` or a literal) that
    spans all of *text*; anything else is a :class:`ParseError`."""
    term, end = _parse_term(text, 0)
    if text[end:].strip():
        raise ParseError(f"trailing content after the term in {text!r}", position=end)
    return term


def parse_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples parsed from a string or text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for line_number, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            subject, pos = _parse_term(line, 0)
            predicate, pos = _parse_term(line, pos)
            obj, pos = _parse_term(line, pos)
        except ParseError as exc:
            raise ParseError(f"line {line_number}: {exc}") from exc
        rest = line[pos:].strip()
        if rest not in ("", "."):
            raise ParseError(f"line {line_number}: trailing content {rest!r}")
        yield Triple(subject, predicate, obj)


def serialize_term(term: Term) -> str:
    """One ground term as N-Triples writes it (the inverse of :func:`parse_term`)."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, Literal):
        base = f'"{_escape(term.value)}"'
        if term.language is not None:
            return f"{base}@{term.language}"
        if term.datatype is not None:
            return f"{base}^^<{term.datatype.value}>"
        return base
    raise RDFError(f"cannot serialise non-ground term {term!r}")


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialise triples to an N-Triples style string (sorted for determinism)."""
    lines = sorted(
        " ".join(serialize_term(t) for t in triple) + " ." for triple in triples
    )
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path: Union[str, Path]) -> RDFGraph:
    """Load an RDF graph from an N-Triples style file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return RDFGraph(parse_ntriples(handle))


def save_graph(graph: RDFGraph, path: Union[str, Path]) -> None:
    """Write an RDF graph to an N-Triples style file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(serialize_ntriples(graph))
