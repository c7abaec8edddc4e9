"""Unit tests for the textual pattern syntax (parser and serialiser)."""

import pytest

from repro.exceptions import ParseError
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.algebra import And, Opt, TriplePatternNode, Union
from repro.sparql.parser import parse_pattern, to_text
from repro.workloads.families import fk_pattern


class TestParsing:
    def test_single_triple(self):
        p = parse_pattern("(?x p ?y)")
        assert isinstance(p, TriplePatternNode)
        assert p.triple_pattern.predicate == IRI("p")

    def test_full_iri(self):
        p = parse_pattern("(?x <http://example.org/p> ?y)")
        assert p.triple_pattern.predicate == IRI("http://example.org/p")

    def test_literal_object(self):
        p = parse_pattern('(?x name "Alice")')
        assert p.triple_pattern.object == Literal("Alice")

    def test_and_opt_union(self):
        p = parse_pattern("((?x p ?y) AND (?y q ?z)) UNION ((?x p ?y) OPT (?y r ?w))")
        assert isinstance(p, Union)
        assert isinstance(p.left, And)
        assert isinstance(p.right, Opt)

    def test_optional_keyword_alias(self):
        p = parse_pattern("(?x p ?y) OPTIONAL (?y q ?z)")
        assert isinstance(p, Opt)

    def test_left_associativity(self):
        p = parse_pattern("(?a p ?b) AND (?b p ?c) AND (?c p ?d)")
        assert isinstance(p, And) and isinstance(p.left, And)

    def test_grouping_overrides_associativity(self):
        p = parse_pattern("(?a p ?b) AND ((?b p ?c) AND (?c p ?d))")
        assert isinstance(p.right, And)

    def test_case_insensitive_keywords(self):
        assert isinstance(parse_pattern("(?a p ?b) and (?b q ?c)"), And)

    def test_dollar_variables(self):
        p = parse_pattern("($x p $y)")
        assert p.variables() == {Variable("x"), Variable("y")}

    def test_error_on_trailing_input(self):
        with pytest.raises(ParseError):
            parse_pattern("(?x p ?y) (?y q ?z)")

    def test_error_on_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_pattern("((?x p ?y) AND (?y q ?z)")

    def test_error_on_keyword_as_term(self):
        with pytest.raises(ParseError):
            parse_pattern("(?x AND ?y)")

    def test_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_pattern("(?x p ?y) AND @@@")

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_pattern("(?x p ?y) %")
        assert info.value.position is not None

    def test_hostile_nesting_is_a_parse_error(self):
        # Either would exhaust the interpreter's stack: the groups in the
        # parser, the operators in every evaluator.
        with pytest.raises(ParseError, match="groups nest deeper"):
            parse_pattern("(" * 600 + "?x p ?y" + ")" * 600)
        with pytest.raises(ParseError, match="operators nest deeper"):
            parse_pattern(" AND ".join(["(?x p ?y)"] * 1000))


class TestRoundTrip:
    CASES = [
        "(?x p ?y)",
        "((?x p ?y) AND (?y q ?z))",
        "((?x p ?y) OPT (?z q ?x))",
        "(((?x p ?y) OPT (?z q ?x)) UNION ((?x p ?y) AND (?y r ?w)))",
        '(?x name "Alice")',
        '(?x name "Alice"@en)',
        '(?x age "5"^^<http://www.w3.org/2001/XMLSchema#integer>)',
        "(?x <http://example.org/very/long#iri> ?y)",
        # the deepest generated text: 70 nested groups, inside MAX_DEPTH
        pytest.param(to_text(fk_pattern(12)), id="fk_pattern(12)"),
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_to_text_round_trip(self, text):
        pattern = parse_pattern(text)
        assert parse_pattern(to_text(pattern)) == pattern


class TestLiterals:
    """String literals use the N-Triples term codec in both directions."""

    @pytest.mark.parametrize(
        "value", ["café", 'say "hi"', "back\\slash", "two\nlines", "carriage\rreturn"]
    )
    def test_literal_round_trip(self, value):
        pattern = TriplePatternNode(TriplePattern(Variable("x"), IRI("name"), Literal(value)))
        assert parse_pattern(to_text(pattern)) == pattern

    @pytest.mark.parametrize(
        "term",
        [
            Literal("Alice", language="en"),
            Literal("chat", language="fr-CA"),
            Literal('say "hi"', language="en"),
            Literal("5", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
            IRI("p"),
            IRI("http://example.org/a#b"),
            IRI("AND"),
            IRI("union"),
        ],
        ids=repr,
    )
    def test_term_round_trip(self, term):
        pattern = TriplePatternNode(TriplePattern(Variable("x"), IRI("name"), term))
        assert parse_pattern(to_text(pattern)) == pattern

    def test_tag_and_datatype_are_part_of_the_term(self):
        plain = parse_pattern('(?x name "Alice")').triple_pattern.object
        tagged = parse_pattern('(?x name "Alice"@en)').triple_pattern.object
        typed = parse_pattern('(?x name "Alice"^^<http://example.org/dt>)').triple_pattern.object
        assert tagged == Literal("Alice", language="en")
        assert typed == Literal("Alice", datatype=IRI("http://example.org/dt"))
        assert len({plain, tagged, typed}) == 3

    def test_non_ascii_text_is_taken_as_written(self):
        assert parse_pattern('(?x name "café")').triple_pattern.object == Literal("café")

    def test_escapes_decode(self):
        p = parse_pattern(r'(?x name "a\"b\\cé")')
        assert p.triple_pattern.object == Literal('a"b\\cé')

    def test_invalid_escape_is_a_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_pattern(r'(?x name "a\x")')
        assert info.value.position == 9
