"""A small N-Triples style reader/writer.

The format accepted here is a pragmatic subset of N-Triples:

* one triple per line, terminated by an optional ``.``;
* IRIs are written ``<iri>``; inside the brackets ``\\uXXXX`` and
  ``\\UXXXXXXXX`` stand for one character (the writer escapes ``\\``, ``>``
  and every character up to U+0020 so), and any other backslash is an error;
* literals are written ``"value"``, optionally followed by ``@lang`` or
  ``^^<datatype>``;
* ``#`` outside a term starts a comment that runs to the end of the line,
  on a line of its own or after a triple; blank lines are ignored.

It exists so that examples and experiments can persist and reload the
synthetic data sets they generate; it is not a validating W3C parser.

Both readers match each line once against one line grammar and parse each
distinct term text once; :func:`load_graph` interns the texts straight to
term ids and builds no :class:`~repro.rdf.triples.Triple`.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, TextIO, Tuple, Union

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

#: The text of an IRI between its brackets (escapes still encoded); the
#: query lexer reads ``<…>`` with it too.
IRI_BODY = r"[^>]+"

#: One term: an IRI, or a literal with an optional language tag or datatype.
_TERM = r"""
    (?:
        <(?P<iri>{iri})>
      | "(?P<lit>(?:[^"\\]|\\.)*)"
        (?: @(?P<lang>[A-Za-z][A-Za-z0-9-]*) | \^\^<(?P<dt>{iri})> )?
    )
""".format(iri=IRI_BODY)

_TERM_RE = re.compile(r"\s*" + _TERM, re.VERBOSE)

#: One triple line: three terms, each captured whole, an optional final
#: ``.``, an optional comment, and whitespace around them (the line's newline
#: included).  The whitespace before the dot and before the comment sits
#: inside each optional group: ``\s*\.?\s*`` would try every split of a long
#: blank run before failing, in square time.
_LINE_RE = re.compile(
    r"\s* ({term}) \s* ({term}) \s* ({term}) (?: \s* \. )? (?: \s* \# [^\n]* )? \s*".format(
        term=re.sub(r"\(\?P<\w+>", "(?:", _TERM)
    ),
    re.VERBOSE,
)


#: The single-character escapes of an N-Triples literal (``ECHAR``).
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)

#: The characters an IRI's text form writes as ``\uXXXX``.
_IRI_ESCAPED_RE = re.compile(r"[\\>\x00-\x20]")


def _unescape(value: str, echars: Dict[str, str] = _ECHARS) -> str:
    """Decode the escapes of a literal's lexical form (``ECHAR`` and the
    ``\\uXXXX`` / ``\\UXXXXXXXX`` code points) or, with no *echars*, of an
    IRI (the code points only); the rest of the text is taken as it is, so
    non-ASCII characters pass through unchanged."""
    if "\\" not in value:
        return value

    def decode(match: "re.Match[str]") -> str:
        short, long, char = match.groups()
        if char is not None:
            if char not in echars:
                where = "a literal" if echars else "an IRI"
                raise ParseError(f"invalid escape sequence \\{char} in {where}")
            return echars[char]
        code = int(short or long, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ParseError(f"escape sequence {match.group(0)} is not a character")
        return chr(code)

    return _ESCAPE_RE.sub(decode, value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


def _iri_text(iri: IRI) -> str:
    """*iri* in brackets, with ``\\``, ``>`` and the characters up to U+0020
    written as ``\\uXXXX``."""
    value = _IRI_ESCAPED_RE.sub(lambda match: f"\\u{ord(match.group()):04X}", iri.value)
    return f"<{value}>"


def _parse_term(line: str, pos: int) -> tuple[Term, int]:
    match = _TERM_RE.match(line, pos)
    if match is None:
        raise ParseError(f"cannot parse term in line {line!r}", position=pos)
    if match.group("iri") is not None:
        return IRI(_unescape(match.group("iri"), {})), match.end()
    value = _unescape(match.group("lit"))
    lang = match.group("lang")
    dt = match.group("dt")
    if lang is not None:
        return Literal(value, language=lang), match.end()
    if dt is not None:
        return Literal(value, datatype=IRI(_unescape(dt, {}))), match.end()
    return Literal(value), match.end()


def parse_term(text: str) -> Term:
    """Parse one term written as in N-Triples (``<iri>`` or a literal) that
    spans all of *text*; anything else is a :class:`ParseError`."""
    term, end = _parse_term(text, 0)
    if text[end:].strip():
        raise ParseError(f"trailing content after the term in {text!r}", position=end)
    return term


def _line_error(line: str) -> str:
    """Why a stripped, non-blank, non-comment *line* does not match
    :data:`_LINE_RE`: its first term, left to right, that does not parse,
    or what follows the third."""
    pos = 0
    try:
        for _ in range(3):
            pos = _parse_term(line, pos)[1]
    except ParseError as exc:
        return str(exc)
    return f"trailing content {line[pos:].strip()!r}"


def _triple_lines(source: Iterable[str]) -> Iterator[Tuple[int, Tuple[str, str, str]]]:
    """The line number and the three term texts of every triple line of
    *source*; blank and ``#`` comment lines are skipped, any other line that
    does not match :data:`_LINE_RE` raises a :class:`ParseError` naming it."""
    fullmatch = _LINE_RE.fullmatch
    for line_number, line in enumerate(source, start=1):
        match = fullmatch(line)
        if match is not None:
            yield line_number, match.groups()
            continue
        line = line.strip()
        if line and not line.startswith("#"):
            raise ParseError(f"line {line_number}: {_line_error(line)}")


def _text_term(text: str, line_number: int) -> Term:
    """The term one matched term text of line *line_number* denotes."""
    try:
        return _parse_term(text, 0)[0]
    except ParseError as exc:
        raise ParseError(f"line {line_number}: {exc}") from exc


def parse_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples parsed from a string or text stream.

    A string's lines end as a file's do when :func:`load_graph` reads it:
    at ``\n``, ``\r\n`` or a lone ``\r``."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    terms: Dict[str, Term] = {}
    for line_number, texts in _triple_lines(source):
        for text in texts:
            if text not in terms:
                terms[text] = _text_term(text, line_number)
        subject, predicate, obj = texts
        yield Triple(terms[subject], terms[predicate], terms[obj])


def serialize_term(term: Term) -> str:
    """One ground term as N-Triples writes it (the inverse of :func:`parse_term`)."""
    if isinstance(term, IRI):
        return _iri_text(term)
    if isinstance(term, Literal):
        base = f'"{_escape(term.value)}"'
        if term.language is not None:
            return f"{base}@{term.language}"
        if term.datatype is not None:
            return f"{base}^^{_iri_text(term.datatype)}"
        return base
    raise RDFError(f"cannot serialise non-ground term {term!r}")


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialise triples to an N-Triples style string (sorted for determinism)."""
    lines = sorted(
        " ".join(serialize_term(t) for t in triple) + " ." for triple in triples
    )
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path: Union[str, Path]) -> RDFGraph:
    """Load an RDF graph from an N-Triples style file.

    Builds the graph ``RDFGraph(parse_ntriples(...))`` builds, term ids and
    :attr:`~RDFGraph.version` included, with no triple or term object per
    occurrence: each distinct term text is parsed and interned once, in the
    triple-by-triple order, and the id rows go in as one bulk add.
    """
    graph = RDFGraph()
    intern = graph._dict.intern
    ids: Dict[str, int] = {}
    rows: List[Tuple[int, int, int]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, texts in _triple_lines(handle):
            for text in texts:
                if text not in ids:
                    ids[text] = intern(_text_term(text, line_number))
            subject, predicate, obj = texts
            rows.append((ids[subject], ids[predicate], ids[obj]))
    return graph._add_id_rows(rows)


def save_graph(graph: RDFGraph, path: Union[str, Path]) -> None:
    """Write an RDF graph to an N-Triples style file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(serialize_ntriples(graph))
