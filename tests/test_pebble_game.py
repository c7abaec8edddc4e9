"""Unit tests for the existential k-pebble game.

The tests exercise the two facts the paper relies on (the game relaxes the
homomorphism relation, and is exact when ``ctw ≤ k − 1``) plus the basic
properties of Proposition 4.
"""

import pytest

from repro.exceptions import EvaluationError
from repro.hom import GeneralizedTGraph, ctw, maps_into
from repro.pebble import pebble_game_winner
from repro.rdf import RDFGraph, Triple
from repro.rdf.generators import clique_graph, path_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Variable
from repro.sparql.mappings import Mapping

EDGE = EX.term("edge").value


def edges(*pairs):
    return [(f"?{a}", EDGE, f"?{b}") for a, b in pairs]


class TestValidation:
    def test_requires_k_at_least_two(self):
        g = GeneralizedTGraph.of(edges(("a", "b")), [])
        with pytest.raises(ValueError):
            pebble_game_winner(g, path_graph(2), Mapping.EMPTY, 1)

    def test_requires_matching_domain(self):
        g = GeneralizedTGraph.of(edges(("a", "b")), ["a"])
        with pytest.raises(EvaluationError):
            pebble_game_winner(g, path_graph(2), Mapping.EMPTY, 2)


class TestRelaxation:
    """(S,X) →µ G implies (S,X) →µ_k G for every k >= 2 (property (2))."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_homomorphism_implies_pebble_win(self, k):
        source = GeneralizedTGraph.of(edges(("a", "b"), ("b", "c"), ("c", "a")), [])
        graph = clique_graph(4)
        assert maps_into(source, graph, Mapping.EMPTY)
        assert pebble_game_winner(source, graph, Mapping.EMPTY, k)

    def test_two_pebbles_cannot_detect_triangle(self):
        """The classic false positive: a triangle 'maps' into a long odd cycle
        for the 2-pebble game although no homomorphism exists."""
        source = GeneralizedTGraph.of(edges(("a", "b"), ("b", "c"), ("c", "a")), [])
        # A symmetric 5-cycle: locally every edge extends, but there is no triangle.
        triples = []
        for i in range(5):
            triples.append(Triple.of(EX.term(f"c{i}"), EDGE, EX.term(f"c{(i + 1) % 5}")))
            triples.append(Triple.of(EX.term(f"c{(i + 1) % 5}"), EDGE, EX.term(f"c{i}")))
        graph = RDFGraph(triples)
        assert not maps_into(source, graph, Mapping.EMPTY)
        assert pebble_game_winner(source, graph, Mapping.EMPTY, 2)

    def test_three_pebbles_detect_triangle(self):
        source = GeneralizedTGraph.of(edges(("a", "b"), ("b", "c"), ("c", "a")), [])
        triples = []
        for i in range(5):
            triples.append(Triple.of(EX.term(f"c{i}"), EDGE, EX.term(f"c{(i + 1) % 5}")))
            triples.append(Triple.of(EX.term(f"c{(i + 1) % 5}"), EDGE, EX.term(f"c{i}")))
        graph = RDFGraph(triples)
        # ctw of the triangle (no distinguished variables) is 2, so by
        # Proposition 3 the 3-pebble game is exact.
        assert ctw(source) == 2
        assert not pebble_game_winner(source, graph, Mapping.EMPTY, 3)


class TestExactnessOnLowWidth:
    """Proposition 3: for ctw(S,X) <= k-1 the game coincides with →µ."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_queries_two_pebbles_exact(self, seed):
        from repro.rdf.generators import random_graph

        source = GeneralizedTGraph.of(edges(("a", "b"), ("b", "c"), ("c", "d")), ["a"])
        assert ctw(source) == 1
        graph = random_graph(4, 10, predicates=("edge",), seed=seed)
        for start in sorted(graph.subjects(), key=str)[:3]:
            mu = Mapping({Variable("a"): start})
            assert pebble_game_winner(source, graph, mu, 2) == maps_into(source, graph, mu)

    def test_distinguished_triangle_exact_with_two_pebbles(self):
        # All but one variable distinguished: the Gaifman graph is a single
        # vertex, ctw = 1, so 2 pebbles are exact even though the shape is a triangle.
        source = GeneralizedTGraph.of(edges(("a", "b"), ("b", "c"), ("c", "a")), ["a", "b"])
        graph = clique_graph(3)
        nodes = sorted(graph.domain(), key=str)
        mu_good = Mapping({Variable("a"): nodes[0], Variable("b"): nodes[1]})
        assert pebble_game_winner(source, graph, mu_good, 2) == maps_into(source, graph, mu_good)
        mu_bad = Mapping({Variable("a"): nodes[0], Variable("b"): nodes[0]})
        assert pebble_game_winner(source, graph, mu_bad, 2) == maps_into(source, graph, mu_bad)


class TestEdgeCases:
    def test_no_existential_variables_reduces_to_mu_check(self):
        source = GeneralizedTGraph.of(edges(("a", "b")), ["a", "b"])
        graph = path_graph(1)
        good = Mapping({Variable("a"): EX.term("node0"), Variable("b"): EX.term("node1")})
        bad = Mapping({Variable("a"): EX.term("node1"), Variable("b"): EX.term("node0")})
        for k in (2, 3):
            assert pebble_game_winner(source, graph, good, k)
            assert not pebble_game_winner(source, graph, bad, k)

    def test_empty_graph_loses_when_existential_variables_exist(self):
        source = GeneralizedTGraph.of(edges(("a", "b")), [])
        assert not pebble_game_winner(source, RDFGraph(), Mapping.EMPTY, 2)

    def test_unsatisfiable_unary_constraint(self):
        source = GeneralizedTGraph.of([("?a", EDGE, "?a")], [])
        assert not pebble_game_winner(source, path_graph(3), Mapping.EMPTY, 2)

    def test_generic_and_fast_path_agree(self):
        """The k=2 arc-consistency fast path and the generic fixpoint must agree."""
        from repro.pebble.game import _winner_generic, _winner_two_pebbles
        from repro.rdf.generators import random_graph

        source = GeneralizedTGraph.of(
            edges(("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")), ["d"]
        )
        for seed in range(4):
            graph = random_graph(4, 12, predicates=("edge",), seed=seed)
            domain_values = sorted(graph.domain(), key=str)
            for value in domain_values[:2]:
                fixed = {Variable("d"): value}
                triples = list(source.triples())
                existential = sorted(source.existential_variables(), key=lambda v: v.name)
                fast = _winner_two_pebbles(triples, fixed, existential, domain_values, graph)
                generic = _winner_generic(triples, fixed, existential, domain_values, graph, 2)
                assert fast == generic

    def test_alias(self):
        source = GeneralizedTGraph.of(edges(("a", "b")), [])
        assert pebble_game_winner(source, clique_graph(2), Mapping.EMPTY, 2)
