"""Unit tests for the N-Triples style reader/writer."""

import random
import time

import pytest

from repro.exceptions import ParseError
from repro.rdf import RDFGraph, Triple, load_graph, parse_ntriples, save_graph, serialize_ntriples
from repro.rdf.terms import IRI, Literal
from repro.rdf.triples import TriplePattern
from repro.sparql import parse_pattern


SAMPLE = """
# a comment
<http://example.org/a> <http://example.org/p> <http://example.org/b> .
<http://example.org/a> <http://example.org/name> "Alice" .
<http://example.org/a> <http://example.org/label> "Bonjour"@fr .
<http://example.org/a> <http://example.org/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
"""


class TestParsing:
    def test_parses_iris_and_literals(self):
        triples = list(parse_ntriples(SAMPLE))
        assert len(triples) == 4
        objects = {t.object for t in triples}
        assert IRI("http://example.org/b") in objects
        assert Literal("Alice") in objects
        assert Literal("Bonjour", language="fr") in objects

    def test_datatyped_literal(self):
        triples = list(parse_ntriples(SAMPLE))
        typed = [t for t in triples if isinstance(t.object, Literal) and t.object.datatype]
        assert len(typed) == 1
        assert typed[0].object.datatype == IRI("http://www.w3.org/2001/XMLSchema#integer")

    def test_blank_lines_and_comments_skipped(self):
        assert list(parse_ntriples("\n# nothing here\n\n")) == []

    def test_malformed_line_raises(self):
        with pytest.raises(ParseError):
            list(parse_ntriples("<a> <b> ."))

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            list(parse_ntriples("<a> <b> <c> garbage"))


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        graph = RDFGraph(parse_ntriples(SAMPLE))
        text = serialize_ntriples(graph)
        reparsed = RDFGraph(parse_ntriples(text))
        assert reparsed == graph

    def test_serialisation_is_sorted_and_deterministic(self):
        graph = RDFGraph(
            [Triple.of("http://e.org/b", "http://e.org/p", "http://e.org/c"),
             Triple.of("http://e.org/a", "http://e.org/p", "http://e.org/c")]
        )
        assert serialize_ntriples(graph) == serialize_ntriples(graph.copy())
        first_line = serialize_ntriples(graph).splitlines()[0]
        assert "<http://e.org/a>" in first_line

    def test_file_round_trip(self, tmp_path):
        graph = RDFGraph(parse_ntriples(SAMPLE))
        path = tmp_path / "data.nt"
        save_graph(graph, path)
        assert load_graph(path) == graph

    def test_escaping_quotes_and_newlines(self):
        graph = RDFGraph([Triple(IRI("s"), IRI("p"), Literal('say "hi"\nplease'))])
        text = serialize_ntriples(graph)
        assert RDFGraph(parse_ntriples(text)) == graph

    def test_non_ascii_literal_round_trips(self):
        graph = RDFGraph([Triple(IRI("s"), IRI("p"), Literal("café"))])
        assert RDFGraph(parse_ntriples(serialize_ntriples(graph))) == graph

    def test_carriage_return_literal_survives_a_file_round_trip(self, tmp_path):
        graph = RDFGraph([Triple(IRI("a"), IRI("r"), Literal("line\r\nbreak"))])
        path = tmp_path / "data.nt"
        save_graph(graph, path)
        assert load_graph(path) == graph


class TestEscapes:
    def test_decodes_the_ntriples_escapes(self):
        [triple] = parse_ntriples('<s> <p> "caf\\u00e9 \\U0001F600\\t\\\'q\\\' \\\\ \\"" .')
        assert triple.object == Literal("café \U0001F600\t'q' \\ \"")

    @pytest.mark.parametrize("body", ["\\x41", "\\uD800", "\\U00110000", "\\u12"])
    def test_other_escapes_raise_parse_errors(self, body):
        with pytest.raises(ParseError):
            list(parse_ntriples(f'<s> <p> "{body}" .'))

    def test_an_iri_decodes_code_point_escapes_in_both_readers(self):
        [triple] = parse_ntriples("<a\\u0020b> <p> <c\\U0000003Ed> .")
        assert (triple.subject, triple.object) == (IRI("a b"), IRI("c>d"))
        pattern = parse_pattern("(<a\\u0020b> p <c\\U0000003Ed>)")
        assert pattern.triple_pattern == TriplePattern(IRI("a b"), IRI("p"), IRI("c>d"))

    @pytest.mark.parametrize("iri", ["<a\\b>", "<a\\>", "<\\uD800>", "<\\u12>", "<a\\n>"])
    def test_an_iri_takes_no_other_escape(self, iri):
        with pytest.raises(ParseError):
            list(parse_ntriples(f"{iri} <p> <o> ."))
        with pytest.raises(ParseError):
            parse_pattern(f"(?x {iri} ?y)")


# --- load_graph against the triple-by-triple path --------------------------------

_SUBJECTS = [f"<http://example.org/n{i}>" for i in range(6)]
_PREDICATES = ["<http://example.org/p>", "<http://example.org/name>", "<http://example.org/label>"]
_LITERALS = [
    '"Alice"',
    '"Bonjour"@fr',
    '"Bonjour"@en-GB',
    '"42"^^<http://www.w3.org/2001/XMLSchema#integer>',
    '"say \\"hi\\"\\tthere"',
]
#: One literal, written plainly and with a ``\uXXXX`` escape.
_CAFE = ('"café"', '"caf\\u00e9"')


def random_lines(seed, count=80):
    """Seeded N-Triples lines that repeat terms and mix IRIs, plain,
    language-tagged and datatyped literals, ``"café"`` written plainly and
    escaped, duplicate lines, comments, blank lines, and lines with and
    without the final ``.`` and with and without a trailing comment."""
    rng = random.Random(seed)
    triples, lines = [], []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(["", "   ", "# a comment", "  # <a> <b> <c> ."]))
        elif roll < 0.2 and triples:
            lines.append(rng.choice(triples))
        else:
            obj = rng.choice(_SUBJECTS + _LITERALS + list(_CAFE))
            end = rng.choice([" .", ".", ""]) + rng.choice(["", "", " # note", '#<a> "b" # c'])
            triples.append(f"{rng.choice(_SUBJECTS)} {rng.choice(_PREDICATES)} {obj}{end}")
            lines.append(triples[-1])
    for cafe in _CAFE:
        lines.insert(rng.randrange(len(lines) + 1), f"{rng.choice(_SUBJECTS)} {_PREDICATES[1]} {cafe} .")
    return lines


def random_ntriples(seed):
    """:func:`random_lines` ending in LF, CRLF or a lone CR at random."""
    rng = random.Random(seed)
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in random_lines(seed))


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))  # keeps CR and CRLF line endings as written
    return path


class TestLoadGraphMatchesParse:
    """``load_graph`` interns term texts straight to ids; it must build the
    store ``RDFGraph(parse_ntriples(text))`` builds, ids and version included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_store(self, tmp_path, seed):
        text = random_ntriples(seed)
        loaded = load_graph(write_text(tmp_path / "data.nt", text))
        parsed = RDFGraph(parse_ntriples(text))
        assert loaded.triples() == parsed.triples()
        assert len(loaded) == len(parsed) > 0
        assert loaded.version == parsed.version == 1
        assert list(loaded._dict) == list(parsed._dict)
        assert loaded.domain() == parsed.domain()
        assert Literal("café") in loaded.domain()

    def test_empty_file(self, tmp_path):
        loaded = load_graph(write_text(tmp_path / "data.nt", "# nothing\n\n"))
        assert len(loaded) == 0 and loaded.version == 0

    @pytest.mark.parametrize(
        "bad", ["<a> <b> .", "<a> <b> <c> garbage", '<s> <p> "\\x41" .'], ids=["short", "garbage", "escape"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_malformed_line_is_named_by_both_readers(self, tmp_path, bad, seed):
        lines = random_lines(seed, count=20)
        k = random.Random(seed).randrange(len(lines)) + 1
        lines.insert(k - 1, bad)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ParseError, match=rf"^line {k}: "):
            list(parse_ntriples(text))
        with pytest.raises(ParseError, match=rf"^line {k}: "):
            load_graph(write_text(tmp_path / "data.nt", text))

    def test_long_blank_run_before_garbage_fails_fast(self, tmp_path):
        # A grammar that splits a blank run between two optional parts tries
        # every split before failing: seconds on this line instead of about
        # a millisecond.
        text = "<a> <b> <c>" + " " * 50_000 + "x\n"
        started = time.perf_counter()
        with pytest.raises(ParseError, match="^line 1: trailing content 'x'"):
            list(parse_ntriples(text))
        with pytest.raises(ParseError, match="^line 1: trailing content 'x'"):
            load_graph(write_text(tmp_path / "data.nt", text))
        assert time.perf_counter() - started < 5.0
