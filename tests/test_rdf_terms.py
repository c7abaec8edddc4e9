"""Unit tests for repro.rdf.terms."""

import pytest

from repro.rdf.terms import IRI, Literal, Variable, is_ground_term, term_sort_key


class TestIRI:
    def test_equality_by_value(self):
        assert IRI("http://example.org/a") == IRI("http://example.org/a")
        assert IRI("http://example.org/a") != IRI("http://example.org/b")

    def test_hashable(self):
        assert len({IRI("x"), IRI("x"), IRI("y")}) == 2

    def test_rejects_empty_value(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            IRI(42)

    def test_immutable(self):
        iri = IRI("http://example.org/a")
        with pytest.raises(AttributeError):
            iri.value = "other"

    def test_str_uses_angle_brackets(self):
        assert str(IRI("http://example.org/a")) == "<http://example.org/a>"

    def test_is_ground(self):
        assert IRI("a").is_ground()
        assert not IRI("a").is_variable()

    def test_ordering(self):
        assert IRI("a") < IRI("b")


class TestLiteral:
    def test_plain_literal_equality(self):
        assert Literal("hello") == Literal("hello")
        assert Literal("hello") != Literal("world")

    def test_language_and_datatype_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=IRI("http://www.w3.org/2001/XMLSchema#string"), language="en")

    @pytest.mark.parametrize("tag", ["en us", "1x", "-en", "en_US", ""])
    def test_rejects_a_tag_no_reader_accepts(self, tag):
        # Such a tag would be written as `"x"@en us`, a term neither the
        # N-Triples nor the query-text reader can read back.
        with pytest.raises(ValueError):
            Literal("x", language=tag)

    def test_language_tag_distinguishes(self):
        assert Literal("chat", language="en") != Literal("chat", language="fr")

    def test_datatype_distinguishes(self):
        integer = IRI("http://www.w3.org/2001/XMLSchema#integer")
        assert Literal("1", datatype=integer) != Literal("1")

    def test_str_forms(self):
        assert str(Literal("x")) == '"x"'
        assert str(Literal("x", language="en")) == '"x"@en'
        assert "^^" in str(Literal("1", datatype=IRI("http://example.org/int")))

    def test_is_ground(self):
        assert Literal("x").is_ground()


class TestVariable:
    def test_question_mark_is_stripped(self):
        assert Variable("?x") == Variable("x")
        assert Variable("$x") == Variable("x")

    def test_str_adds_question_mark(self):
        assert str(Variable("x")) == "?x"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Variable("?")
        with pytest.raises(ValueError):
            Variable("1abc")
        with pytest.raises(ValueError):
            Variable("a b")

    def test_is_variable(self):
        assert Variable("x").is_variable()
        assert not Variable("x").is_ground()

    def test_disjoint_from_iri(self):
        assert Variable("x") != IRI("x")
        assert hash(Variable("x")) != hash(IRI("x"))

    def test_ordering(self):
        assert Variable("a") < Variable("b")


class TestHelpers:
    def test_is_ground_term(self):
        assert is_ground_term(IRI("a"))
        assert is_ground_term(Literal("a"))
        assert not is_ground_term(Variable("a"))

    def test_sort_key_orders_variables_first(self):
        terms = [IRI("z"), Variable("a"), Literal("m")]
        ordered = sorted(terms, key=term_sort_key)
        assert isinstance(ordered[0], Variable)
        assert isinstance(ordered[1], IRI)
        assert isinstance(ordered[2], Literal)

    def test_sort_key_rejects_non_terms(self):
        with pytest.raises(TypeError):
            term_sort_key("not a term")
