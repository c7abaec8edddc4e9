"""Batched membership through :class:`Session`: ``check_many`` answers equal
a loop of single-shot :meth:`Engine.contains` calls, plus the pickling of the
value types an engine is built from."""

import pickle

import pytest

import repro.evaluation.naive as naive_module
import repro.evaluation.plan as plan_module

from repro.evaluation import Engine, Session
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


class TestContainsMany:
    def test_naive_batched_materialises_once(self, setting, monkeypatch):
        """One top-level ⟦P⟧G materialisation per batch, through both
        ``check_many`` and ``check_iter``."""
        forest, graph, engine, queries = setting
        distinct = queries[-6:]
        assert len(set(distinct)) == 6
        batch = distinct + distinct
        expected = [engine.contains(graph, mu, method="naive") for mu in batch]
        materialise = naive_module.evaluate_pattern
        calls = []

        def counting(pattern, graph, budget=None):
            calls.append(pattern)
            return materialise(pattern, graph, budget)

        # The recursion runs through the naive module's global, so only calls
        # on the whole pattern are top-level materialisations.
        monkeypatch.setattr(naive_module, "evaluate_pattern", counting)
        monkeypatch.setattr(plan_module, "evaluate_pattern", counting)
        session = Session()
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, batch, method="naive") == expected
        assert calls.count(handle.pattern) == 1
        calls.clear()
        assert list(session.check_iter(handle, graph, batch, method="naive")) == expected
        assert calls.count(handle.pattern) == 1


class TestManyPatterns:
    def test_one_session_checks_several_patterns(self):
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

    def test_check_many_row_per_pattern_matches_engine(self):
        """One row of ``check_many`` answers per pattern over one graph through
        one session: each row equals per-pattern :meth:`Engine.contains`, each
        cell equals ``check``, and the session cache records hits."""
        forest2, forest3 = WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])
        text = parse_pattern("(?x p ?y)")
        graph = tprime_data_graph(8, 30, seed=4)
        mus = sorted(Engine(forest=forest2).solutions(graph, method="natural"), key=repr)[:3]
        assert mus, "workload generated no membership queries"
        # The ?y-only restrictions have the root as witness, so their child
        # tests go through the session cache's hom entries.
        mus += [mu.restrict([Variable("y")]) for mu in mus]
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
        assert session.cache.statistics.hom_hits > 0


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
