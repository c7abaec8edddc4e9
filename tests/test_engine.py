"""Unit tests for the unified evaluation Engine facade."""

import pytest

from repro.evaluation import Engine, EvaluationCache
from repro.exceptions import EvaluationError
from repro.patterns import WDPatternForest
from repro.rdf import RDFGraph, Triple
from repro.rdf.namespace import EX
from repro.rdf.terms import Variable
from repro.sparql import Mapping, parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest, tprime_tree, tprime_data_graph


class TestConstruction:
    def test_requires_pattern_or_forest(self):
        with pytest.raises(EvaluationError):
            Engine()

    def test_from_pattern(self):
        engine = Engine(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        assert len(engine.forest) == 1
        assert engine.pattern is not None

    def test_from_forest(self):
        engine = Engine(forest=fk_forest(2))
        assert engine.pattern is not None
        assert len(engine.forest) == 3

    def test_invalid_width_bound(self):
        with pytest.raises(EvaluationError):
            Engine(parse_pattern("(?x p ?y)"), width_bound=0)

    def test_domination_width_cached(self):
        engine = Engine(forest=fk_forest(2))
        assert engine.domination_width() == 1
        assert engine.domination_width() == 1  # cached path

    def test_width_bound_property(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        assert engine.width_bound == 1


class TestMembershipMethods:
    @pytest.fixture
    def setting(self):
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=1)
        engine = Engine(forest=forest, width_bound=1)
        solutions = engine.solutions(graph, method="natural")
        return engine, graph, solutions

    def test_methods_agree_on_solutions(self, setting):
        engine, graph, solutions = setting
        for mu in sorted(solutions, key=repr)[:4]:
            answers = engine.contains_all_methods(graph, mu)
            assert answers == {"naive": True, "natural": True, "pebble": True}

    def test_auto_uses_pebble_with_bound(self, setting):
        engine, graph, solutions = setting
        for mu in sorted(solutions, key=repr)[:2]:
            assert engine.contains(graph, mu, method="auto")

    def test_auto_without_bound_falls_back_to_natural(self):
        engine = Engine(forest=fk_forest(2))
        graph = fk_data_graph(5, 20, seed=2)
        solutions = engine.solutions(graph, method="natural")
        for mu in sorted(solutions, key=repr)[:2]:
            assert engine.contains(graph, mu, method="auto")

    def test_unknown_method_rejected(self, setting):
        engine, graph, _ = setting
        with pytest.raises(EvaluationError):
            engine.contains(graph, Mapping.EMPTY, method="quantum")

    def test_explicit_width_override(self, setting):
        engine, graph, solutions = setting
        for mu in sorted(solutions, key=repr)[:2]:
            assert engine.contains(graph, mu, method="pebble", width=2)

    def test_non_solution_rejected_by_all_methods(self, setting):
        engine, graph, _ = setting
        mu = Mapping({Variable("x"): EX.term("nowhere"), Variable("y"): EX.term("nowhere2")})
        assert engine.contains_all_methods(graph, mu) == {
            "naive": False,
            "natural": False,
            "pebble": False,
        }

    def test_engine_with_cache_matches_plain(self, setting):
        engine, graph, solutions = setting
        cached = Engine(forest=engine.forest, width_bound=1, cache=EvaluationCache())
        for mu in sorted(solutions, key=repr)[:4]:
            assert cached.contains_all_methods(graph, mu) == engine.contains_all_methods(graph, mu)
        assert cached.cache.statistics.hits + cached.cache.statistics.misses > 0


class TestSolutionEnumeration:
    def test_naive_and_natural_agree(self):
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]))
        graph = tprime_data_graph(6, 20, seed=4)
        assert engine.solutions(graph, method="naive") == engine.solutions(graph, method="natural")

    def test_unknown_enumeration_method(self):
        engine = Engine(parse_pattern("(?x p ?y)"))
        with pytest.raises(EvaluationError):
            engine.solutions(RDFGraph(), method="pebble")

    def test_quickstart_example_from_docstring(self):
        graph = RDFGraph([Triple.of("alice", "knows", "bob")])
        engine = Engine(parse_pattern("((?x knows ?y) OPT (?y email ?e))"))
        solutions = engine.solutions(graph)
        assert len(solutions) == 1
        only = next(iter(solutions))
        assert only.domain() == {Variable("x"), Variable("y")}
