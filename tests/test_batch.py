"""Batched membership through :class:`Session`: ``check_many`` answers equal
a loop of single-shot :meth:`Engine.contains` calls, plus the planning and
pickling the batch path relies on."""

import pickle

import pytest

from repro.evaluation import (
    Engine,
    EvaluationCache,
    EvaluationStatistics,
    Session,
)
from repro.exceptions import EvaluationError
from repro.rdf import RDFGraph, Triple
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI, Variable
from repro.sparql import Mapping, parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest, tprime_data_graph, tprime_tree
from repro.patterns import WDPatternForest


@pytest.fixture
def setting():
    forest = fk_forest(2)
    graph = fk_data_graph(6, 30, clique_size=2, seed=2)
    engine = Engine(forest=forest, width_bound=1)
    solutions = sorted(engine.solutions(graph, method="natural"), key=repr)[:6]
    queries = list(solutions)
    for mu in solutions[:3]:
        bindings = mu.as_dict()
        first = sorted(bindings, key=lambda v: v.name)[0]
        bindings[first] = IRI("http://example.org/__nowhere__")
        queries.append(Mapping(bindings))
    return forest, graph, engine, queries


def check_many(forest, graph, queries, **kwargs):
    """``Session.check_many`` over a fresh session engine with ``width_bound=1``."""
    session = Session()
    return session.check_many(session.engine(forest, width_bound=1), graph, queries, **kwargs)


class TestContainsMany:
    @pytest.mark.parametrize("method", ["naive", "natural", "pebble", "auto"])
    def test_identical_to_single_shot(self, setting, method):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method=method) for mu in queries]
        assert check_many(forest, graph, queries, method=method) == expected

    def test_preserves_order_and_duplicates(self, setting):
        forest, graph, engine, queries = setting
        doubled = queries + list(reversed(queries))
        answers = check_many(forest, graph, doubled)
        assert answers == [engine.contains(graph, mu) for mu in doubled]
        assert answers[: len(queries)] == list(reversed(answers[len(queries) :]))

    def test_empty_input(self, setting):
        forest, graph, _, _ = setting
        assert Session().check_many(forest, graph, []) == []

    def test_parallel_identical(self, setting):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method="pebble") for mu in queries]
        session = Session(processes=2)
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, queries, method="pebble") == expected
        # per-call override too
        assert check_many(forest, graph, queries, method="pebble", processes=2) == expected

    def test_statistics_accumulated_serially(self, setting):
        forest, graph, _, queries = setting
        statistics = EvaluationStatistics()
        check_many(forest, graph, queries, method="natural", statistics=statistics)
        assert statistics.trees_visited > 0

    def test_auto_resolved_once(self, setting):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method="auto") for mu in queries]
        assert check_many(forest, graph, queries, method="auto") == expected

    def test_naive_batched_materialises_once(self, setting):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method="naive") for mu in queries]
        assert check_many(forest, graph, queries, method="naive") == expected


class TestConstruction:
    def test_requires_pattern_or_forest(self):
        with pytest.raises(EvaluationError):
            Engine()

    def test_invalid_processes(self):
        with pytest.raises(EvaluationError):
            Session(processes=0)

    def test_creates_cache_by_default(self):
        session = Session()
        assert isinstance(session.cache, EvaluationCache)
        assert session.engine(parse_pattern("(?x p ?y)")).cache is session.cache

    def test_from_engine_shares_cache(self):
        cache = EvaluationCache()
        engine = Engine(parse_pattern("(?x p ?y)"), cache=cache)
        assert Session(cache=cache).engine(engine) is engine

    def test_passthroughs(self):
        graph = RDFGraph([Triple.of("a", "knows", "b")])
        session = Session()
        pattern = parse_pattern("((?x knows ?y) OPT (?y email ?e))")
        mu = Mapping.of(x="a", y="b")
        assert session.check(pattern, graph, mu) is True
        assert len(session.solutions(pattern, graph)) == 1
        assert len(session.engine(pattern).forest) == 1
        assert "Session" in repr(session)


class TestResolveMethod:
    @staticmethod
    def resolved(engine, method, width=None):
        plan = engine.plan(method, width)
        return plan.strategy, plan.width

    def test_resolution_matches_contains(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        assert self.resolved(engine, "natural") == ("natural", None)
        assert self.resolved(engine, "naive") == ("naive", None)
        assert self.resolved(engine, "pebble") == ("pebble", 1)
        assert self.resolved(engine, "auto") == ("pebble", 1)
        assert self.resolved(engine, "auto", width=2) == ("pebble", 2)

    def test_auto_without_bound_is_natural(self):
        engine = Engine(forest=fk_forest(2))
        assert self.resolved(engine, "auto") == ("natural", None)
        # Once the domination width has been computed, auto upgrades to pebble.
        engine.domination_width()
        assert self.resolved(engine, "auto") == ("pebble", 1)

    def test_unknown_method(self):
        with pytest.raises(EvaluationError):
            Engine(forest=fk_forest(2)).plan("quantum")


class TestManyPatterns:
    def test_contains_many_patterns(self):
        graph = tprime_data_graph(8, 30, seed=6)
        patterns = [
            WDPatternForest([tprime_tree(2)]),
            WDPatternForest([tprime_tree(3)]),
            parse_pattern("(?x p ?y)"),
        ]
        solutions = sorted(
            Engine(forest=patterns[0]).solutions(graph, method="natural"), key=repr
        )
        assert solutions, "workload generated no membership queries"
        mu = solutions[0]
        session = Session()
        answers = [session.check(pattern, graph, mu, method="natural") for pattern in patterns]
        expected = [
            Engine(forest=patterns[0]).contains(graph, mu, method="natural"),
            Engine(forest=patterns[1]).contains(graph, mu, method="natural"),
            Engine(parse_pattern("(?x p ?y)")).contains(graph, mu, method="natural"),
        ]
        assert answers == expected

    def test_contains_matrix_shape_and_answers(self):
        """One row of ``check_many`` answers per pattern over one graph through
        one session: each row equals per-pattern :meth:`Engine.contains`, each
        cell equals ``check``, and the session cache records hits."""
        forest2, forest3 = WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])
        text = parse_pattern("(?x p ?y)")
        graph = tprime_data_graph(8, 30, seed=4)
        mus = sorted(Engine(forest=forest2).solutions(graph, method="natural"), key=repr)[:3]
        assert mus, "workload generated no membership queries"
        mus.append(Mapping({Variable("y"): EX.term("nowhere")}))
        session = Session()
        patterns = (forest2, forest3, text)
        matrix = [session.check_many(pattern, graph, mus, method="natural") for pattern in patterns]
        assert len(matrix) == 3 and all(len(row) == len(mus) for row in matrix)
        for row, pattern, engine in zip(
            matrix, patterns, (Engine(forest=forest2), Engine(forest=forest3), Engine(text))
        ):
            assert row == [engine.contains(graph, mu, method="natural") for mu in mus]
            assert row == [session.check(pattern, graph, mu, method="natural") for mu in mus]
        assert session.cache.statistics.hits > 0

    def test_shared_cache_is_used(self):
        cache = EvaluationCache()
        graph = tprime_data_graph(6, 20, seed=1)
        forest = WDPatternForest([tprime_tree(2)])
        mu = Mapping({Variable("y"): EX.term("nowhere")})
        session = Session(cache=cache)
        for pattern in (forest, forest):
            session.check(pattern, graph, mu, method="natural")
        assert cache.statistics.hits + cache.statistics.misses > 0

    def test_rejects_non_pattern(self):
        with pytest.raises(EvaluationError):
            Session().check(42, RDFGraph(), Mapping.EMPTY)


class TestPicklability:
    def test_engine_building_blocks_round_trip(self):
        forest = fk_forest(2)
        graph = fk_data_graph(4, 12, clique_size=2, seed=1)
        mu = Mapping.of(x="http://example.org/a")
        for obj in (forest, forest[0], graph, mu):
            clone = pickle.loads(pickle.dumps(obj))
            assert type(clone) is type(obj)
        graph_clone = pickle.loads(pickle.dumps(graph))
        assert graph_clone == graph
        assert pickle.loads(pickle.dumps(mu)) == mu
