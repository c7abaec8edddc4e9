"""Unit tests for the N-Triples style reader/writer."""

import pytest

from repro.exceptions import ParseError
from repro.rdf import RDFGraph, Triple, load_graph, parse_ntriples, save_graph, serialize_ntriples
from repro.rdf.terms import IRI, Literal


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
