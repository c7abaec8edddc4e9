"""Fuzzing the three readers of untrusted input: wire lines, SPARQL text and
N-Triples, and the round trip of any IRI through the last two.

Each reader may refuse its input only with a typed
:class:`~repro.exceptions.ReproError`; anything else that escapes (a
``TypeError``, a ``RecursionError``, ...) is a bug in the reader.  The
examples are derandomized, so every run checks the same inputs.  The server
side of the wire reader is fuzzed over a real socket in
``tests/test_service.py``.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import ReproError
from repro.rdf import (
    IRI,
    Literal,
    RDFGraph,
    Triple,
    TriplePattern,
    Variable,
    load_graph,
    parse_ntriples,
    serialize_ntriples,
)
from repro.service.core import OPERATIONS
from repro.service.protocol import decode_line, request_from_wire
from repro.sparql import parse_pattern, to_text
from repro.sparql.algebra import TriplePatternNode

FUZZ = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def typed_errors_only(function, *args):
    """``function(*args)``, or ``None`` when it raises a :class:`ReproError`."""
    try:
        return function(*args)
    except ReproError:
        return None


# --- wire lines -----------------------------------------------------------------

#: JSON scalars, NaN and the infinities included (``json`` reads them), and
#: arrays and objects of them.
_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20)
json_values = (
    _json_scalars
    | st.lists(_json_scalars, max_size=3)
    | st.dictionaries(st.text(max_size=5), _json_scalars, max_size=3)
)

#: Strings a request field may hold (terms, variables, broken literals), or
#: any other JSON value.
_wire_strings = st.sampled_from(
    ["", "?", "?x", "p0", "knows", '"', '"a"@en', '"a"^^<dt>', '"\\uD800"', '"\\q"', "<p0>"]
) | st.text(max_size=20)
field_values = _wire_strings | json_values

wire_triples = st.lists(st.lists(field_values, max_size=4), max_size=3) | field_values

wire_messages = st.fixed_dictionaries(
    {"op": st.sampled_from(OPERATIONS) | json_values},
    optional={
        "id": json_values,
        "query": st.sampled_from(["(?x knows ?y)", "(?x knows"]) | field_values,
        "graph": field_values,
        "method": st.sampled_from(["auto", "naive", "natural", "pebble"]) | field_values,
        "width": field_values,
        "deadline": field_values,
        "chunk_size": field_values,
        "bindings": st.lists(st.dictionaries(_wire_strings, field_values, max_size=3), max_size=3)
        | field_values,
        "add": wire_triples,
        "remove": wire_triples,
    },
)


@FUZZ
@given(st.binary(max_size=200))
def test_wire_reader_on_arbitrary_bytes(raw):
    typed_errors_only(lambda: request_from_wire(decode_line(raw)))


@FUZZ
@given(wire_messages, st.booleans())
def test_wire_reader_on_hostile_fields(message, ascii_only):
    raw = json.dumps(message, ensure_ascii=ascii_only).encode("utf-8")
    typed_errors_only(lambda: request_from_wire(decode_line(raw)))


# --- SPARQL text ----------------------------------------------------------------

_PATTERN_TERMS = [
    "?x", "?y", "$z", "?", "p", "ex:q", "a.b", "1", "é",
    "<http://ex.org/a>", "<AND>", "<opt>", "<1>", "<a b>", "<", ">",
    '"lit"', '"a\\"b"', '"\\u00e9"', '"\\uD800"', '"\\q"', '"', "\\",
]
_PATTERN_TOKENS = _PATTERN_TERMS + ["(", ")", "AND", "OPT", "OPTIONAL", "UNION", "union", "{", ".", "#"]

#: Token soup: mostly malformed text over the grammar's own tokens.
pattern_soup = st.lists(st.sampled_from(_PATTERN_TOKENS), max_size=30).map(" ".join)

#: Text shaped by the grammar, over hostile terms: mostly well-formed.
_triple_texts = st.lists(st.sampled_from(_PATTERN_TERMS), min_size=3, max_size=3).map(
    lambda terms: "({} {} {})".format(*terms)
)
grammar_patterns = st.recursive(
    _triple_texts,
    lambda inner: st.tuples(
        inner, st.sampled_from(["AND", "OPT", "OPTIONAL", "UNION", "and", "Opt"]), inner
    ).map(lambda parts: "({} {} {})".format(*parts)),
    max_leaves=6,
)


@FUZZ
@given(st.text(max_size=200) | pattern_soup | grammar_patterns)
def test_pattern_parser_raises_only_typed_errors(text):
    pattern = typed_errors_only(parse_pattern, text)
    if pattern is not None:
        assert parse_pattern(to_text(pattern)) == pattern


# --- N-Triples ------------------------------------------------------------------

_NT_TOKENS = [
    "<a>", "<http://ex.org/b>", "<>", "<a b>", "<", ">", '"lit"', '"lit"@en', '"lit"@',
    '"x"^^<dt>', '"x"^^', '"\\n"', '"\\uD800"', '"\\U00110000"', '"\\q"', '"', "\\",
    ".", "#", "# note", "_:b0", "\t", "\r", "é",
]

#: Lines of token soup, with a triple in the right shape now and then.
ntriples_soup = st.lists(
    st.lists(st.sampled_from(_NT_TOKENS), max_size=6).map(" ".join), max_size=5
).map("\n".join)


@FUZZ
@given(st.text(max_size=200) | ntriples_soup)
def test_ntriples_readers_agree_and_raise_only_typed_errors(tmp_path_factory, text):
    parsed = typed_errors_only(lambda: RDFGraph(parse_ntriples(text)))
    path = tmp_path_factory.getbasetemp() / "fuzz.nt"
    path.write_text(text, encoding="utf-8")
    assert typed_errors_only(load_graph, path) == parsed


# --- IRI text -------------------------------------------------------------------


@FUZZ
@given(st.text(min_size=1, max_size=30) | st.sampled_from(["c>d", "a b", "x\ny", "a\\b", "\\u0041"]))
def test_any_iri_round_trips_through_ntriples_and_query_text(value):
    iri = IRI(value)
    graph = RDFGraph([Triple(iri, iri, Literal("v", datatype=iri))])
    assert RDFGraph(parse_ntriples(serialize_ntriples(graph))) == graph
    pattern = TriplePatternNode(TriplePattern(Variable("x"), iri, iri))
    assert parse_pattern(to_text(pattern)) == pattern
