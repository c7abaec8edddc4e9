"""Unit tests for the Session workspace (multi-pattern, multi-graph)."""

import pytest

from repro.evaluation import Engine, EvaluationCache, Session
from repro.exceptions import EvaluationError
from repro.patterns import WDPatternForest
from repro.rdf import Triple
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI
from repro.sparql import Mapping, parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest, tprime_data_graph, tprime_tree
from repro.workloads.random_patterns import random_wd_tree


@pytest.fixture
def setting():
    forest = fk_forest(2)
    graph = fk_data_graph(6, 30, clique_size=2, seed=2)
    engine = Engine(forest=forest)
    solutions = sorted(engine.solutions(graph, method="natural"), key=repr)[:5]
    queries = list(solutions)
    for mu in solutions[:2]:
        bindings = mu.as_dict()
        first = sorted(bindings, key=lambda v: v.name)[0]
        bindings[first] = IRI("http://example.org/__nowhere__")
        queries.append(Mapping(bindings))
    return forest, graph, engine, queries


class TestEngines:
    def test_engines_memoized_structurally_for_patterns(self):
        session = Session()
        p1 = parse_pattern("((?x p ?y) OPT (?y q ?z))")
        p2 = parse_pattern("((?x p ?y) OPT (?y q ?z))")
        assert p1 is not p2
        assert session.engine(p1) is session.engine(p2)

    def test_engines_memoized_by_identity_for_forests(self):
        session = Session()
        forest = fk_forest(2)
        assert session.engine(forest) is session.engine(forest)
        assert session.engine(forest) is not session.engine(fk_forest(2))

    def test_engines_share_session_cache(self):
        session = Session()
        assert isinstance(session.cache, EvaluationCache)
        engine = session.engine(parse_pattern("(?x p ?y)"))
        assert engine.cache is session.cache

    def test_foreign_engine_rewired_onto_session_cache(self):
        session = Session()
        foreign = Engine(parse_pattern("(?x p ?y)"))
        adopted = session.engine(foreign)
        assert adopted is not foreign
        assert adopted.cache is session.cache
        assert adopted.pattern is foreign.pattern and adopted.forest is foreign.forest
        assert session.engine(foreign) is adopted

    def test_supplied_cache_is_shared(self):
        cache = EvaluationCache()
        session = Session(cache=cache)
        assert session.cache is cache
        assert session.engine(parse_pattern("(?x p ?y)")).cache is cache

    def test_rejects_non_pattern(self):
        with pytest.raises(EvaluationError):
            Session().engine(42)

    def test_invalid_max_engines(self):
        with pytest.raises(EvaluationError):
            Session(max_engines=0)

    def test_session_wired_engine_is_not_rememoized(self):
        session = Session(max_engines=2)
        p1 = parse_pattern("(?x p ?y)")
        p2 = parse_pattern("(?x q ?y)")
        e1, e2 = session.engine(p1), session.engine(p2)
        # Routing the handles back in (as check_many / solutions do)
        # must neither rebuild them nor burn LRU slots on duplicate keys.
        assert session.engine(e1) is e1
        assert session.engine(e2) is e2
        assert session.engine_count == 2
        assert session.engine(p1) is e1
        assert session.engine(p2) is e2

    def test_max_engines_evicts_least_recently_used(self):
        session = Session(max_engines=2)
        p1 = parse_pattern("(?x p ?y)")
        p2 = parse_pattern("(?x q ?y)")
        p3 = parse_pattern("(?x r ?y)")
        e1 = session.engine(p1)
        e2 = session.engine(p2)
        session.engine(p1)  # refresh p1's recency
        session.engine(p3)  # evicts p2, the least recently used
        assert session.engine_count == 2
        assert session.engine(p1) is e1  # p1 survived the eviction
        assert session.engine(p2) is not e2  # p2 was rebuilt


class TestCheckMany:
    @pytest.mark.parametrize("method", ["naive", "natural", "pebble", "auto"])
    def test_identical_to_single_shot(self, setting, method):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method=method, width=1) for mu in queries]
        session = Session()
        handle = session.engine(forest)
        assert session.check_many(handle, graph, queries, method=method, width=1) == expected

    def test_order_duplicates_and_empty(self, setting):
        forest, graph, engine, queries = setting
        session = Session()
        handle = session.engine(forest)
        doubled = queries + list(reversed(queries))
        answers = session.check_many(handle, graph, doubled, width=1)
        assert answers == [engine.contains(graph, mu, width=1) for mu in doubled]
        assert session.check_many(handle, graph, []) == []

    def test_check_single(self, setting):
        """One mapping at a time through the session engine, whose cache is
        the session's, answers like a plain engine."""
        forest, graph, engine, queries = setting
        handle = Session().engine(forest)
        for mu in queries:
            assert handle.contains(graph, mu, width=1) == engine.contains(graph, mu, width=1)

    def test_plan_and_explain(self, setting):
        forest, _graph, _engine, _queries = setting
        plan = Session().engine(forest).plan(width=1)
        assert (plan.strategy, plan.width) == ("pebble", 1)
        assert "chosen strategy" in plan.explain()


class TestStreaming:
    def test_stream_matches_solutions(self):
        session = Session()
        forest = WDPatternForest([tprime_tree(2)])
        graph = tprime_data_graph(6, 20, seed=4)
        stream = session.engine(forest).solutions_stream(graph, "auto")
        first = next(stream, None)  # the stream is lazy and resumable
        rest = set(stream)
        expected = Engine(forest=forest).solutions(graph, method="natural")
        assert ({first} | rest if first is not None else rest) == expected

    def test_stream_deduplicates(self):
        session = Session()
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=1)
        streamed = list(session.engine(forest).solutions_stream(graph, "auto"))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == Engine(forest=forest).solutions(graph, method="natural")

    def test_auto_enumeration_resolves_to_natural(self):
        session = Session()
        pattern = parse_pattern(
            "((?x <http://example.org/p> ?y) OPT (?y <http://example.org/q> ?z))"
        )
        graph = random_graph(5, 20, seed=9)
        auto = session.solutions(pattern, graph, method="auto")
        assert auto  # the workload has real solutions
        assert auto == session.solutions(pattern, graph, method="natural")

    def test_pebble_enumeration_rejected(self):
        session = Session()
        with pytest.raises(EvaluationError):
            session.solutions(parse_pattern("(?x p ?y)"), random_graph(3, 5, seed=0), "pebble")


class TestSolutions:
    def test_randomized_parity_with_naive_enumeration(self):
        """One Session.solutions per (pattern, graph) cell must be identical
        to per-pattern naive enumeration on randomized patterns × graphs."""
        for seed in range(6):
            patterns = [
                WDPatternForest([random_wd_tree(num_nodes=3, seed=seed * 7 + i)])
                for i in range(3)
            ]
            graphs = [random_graph(5, 22, seed=seed * 11 + j) for j in range(2)]
            session = Session()
            matrix = [[session.solutions(forest, graph) for graph in graphs] for forest in patterns]
            expected = [
                [Engine(forest=forest).solutions(graph, method="naive") for graph in graphs]
                for forest in patterns
            ]
            assert matrix == expected, f"parity failure for seed {seed}"

    def test_duplicate_cells_share_one_engine_but_stay_independent(self):
        """Session.solutions: structurally equal patterns share one engine,
        and each call returns its own answer set."""
        session = Session()
        graph = random_graph(6, 30, seed=5)
        text = "((?x <http://example.org/p> ?y) OPT (?y <http://example.org/q> ?z))"
        pattern = parse_pattern(text)
        duplicate = parse_pattern(text)
        assert session.engine(pattern) is session.engine(duplicate)
        first = session.solutions(pattern, graph)
        second = session.solutions(duplicate, graph)
        assert first and first == second
        # The returned sets are independent, like the sets of a loop of
        # per-pattern Engine.solutions calls.
        first.clear()
        assert second == session.solutions(pattern, graph)

    def test_shared_cache_is_exercised(self):
        """The second Session.solutions of a forest replays the cache."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=1)
        forest = WDPatternForest([tprime_tree(2)])
        session.solutions(forest, graph)
        before = session.cache.statistics.enum_hits
        session.solutions(forest, graph)
        assert session.cache.statistics.enum_hits > before

    def test_replayed_enumeration_matches_first_run(self):
        """A second enumeration replays the recorded answer lists (cache
        hits) and must return equal but independent sets."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=4)
        forest = WDPatternForest([tprime_tree(2)])
        first = session.solutions(forest, graph)
        before = session.cache.statistics.enum_hits
        second = session.solutions(forest, graph)
        assert second == first and second is not first
        assert session.cache.statistics.enum_hits > before


class TestSolutionsStream:
    def test_serial_first_occurrence_streams_lazily(self):
        """A session engine's solutions_stream yields its first solution
        before the enumeration is complete (nothing is recorded in the cache
        yet)."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=11)
        forest = WDPatternForest([tprime_tree(2)])
        (tree,) = list(forest)
        stream = session.engine(forest).solutions_stream(graph, method="natural")
        mu = next(stream)
        assert mu in Engine(forest=forest).solutions(graph, method="naive")
        assert session.cache.tree_solution_list(tree, graph) is None
        rest = set(stream)
        assert session.cache.tree_solution_list(tree, graph) is not None
        assert rest | {mu} == Engine(forest=forest).solutions(graph, method="naive")


class TestSolutionsAutoBugfix:
    """`Engine.solutions(method="auto")` used to raise; it must resolve to
    the natural strategy everywhere the method argument is accepted."""

    def test_engine_solutions_auto(self):
        graph = tprime_data_graph(6, 20, seed=2)
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]))
        assert engine.solutions(graph, method="auto") == engine.solutions(
            graph, method="natural"
        )

    def test_session_solutions_auto(self):
        graph = tprime_data_graph(6, 20, seed=2)
        session = Session()
        handle = session.engine(WDPatternForest([tprime_tree(2)]))
        assert session.solutions(handle, graph, method="auto") == session.solutions(
            handle, graph, method="natural"
        )


class TestPicklability:
    def test_graph_pattern_round_trips(self):
        import pickle

        pattern = parse_pattern("(((?x p ?y) AND (?y q ?z)) OPT ((?z r ?w) UNION (?z p ?w)))")
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern


class TestCheckIter:
    def test_serial_parity_with_check_many(self, setting):
        forest, graph, engine, queries = setting
        queries = queries + queries[:2]  # repeated mappings replay
        session = Session()
        expected = session.check_many(forest, graph, queries)
        assert list(Session().check_iter(forest, graph, queries)) == expected

    def test_empty_batch(self, setting):
        forest, graph, _engine, _queries = setting
        assert list(Session().check_iter(forest, graph, [])) == []

    def test_verdicts_stream_before_exhaustion(self, setting):
        forest, graph, engine, queries = setting
        iterator = Session().check_iter(forest, graph, queries)
        assert next(iterator) == engine.contains(graph, queries[0])

class TestMutationSafety:
    """Version-snapshot regressions: a graph mutated mid-iteration must
    never leave stale entries in the session cache."""

    def _mutate(self, graph):
        graph.add(Triple.of(str(EX["fresh"]), str(EX["fresh"]), str(EX["fresh"])))

    def _fresh_answers(self, forest, graph):
        return Engine(forest=forest).solutions(graph, method="natural")

    def test_serial_solutions_stream_mutation_between_cells(self):
        """A mutation between two patterns' streamed enumerations."""
        graph = tprime_data_graph(6, 20, seed=25)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        session = Session()
        assert set(session.engine(patterns[0]).solutions_stream(graph, "auto"))
        second = session.engine(patterns[1]).solutions_stream(graph, "auto")
        next(second)
        # First solution of the second pattern: mutate before draining.
        self._mutate(graph)
        for _ in second:
            pass
        # The cache must answer for the graph as it is *now*: fresh
        # enumerations replay nothing stale.
        for forest in patterns:
            assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def test_serial_solutions_stream_mutation_mid_cell_does_not_poison(self):
        """An add mid-way through a streamed enumeration."""
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        stream = session.engine(forest).solutions_stream(graph, "auto")
        next(stream)
        self._mutate(graph)  # mid-stream: the stream's recording must be aborted
        for _ in stream:
            pass
        (tree,) = list(forest)
        assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def _mutate_bulk(self, graph):
        """One add_all batch: a single version bump for several new triples."""
        graph.add_all(
            Triple.of(str(EX[f"bulk{i}"]), str(EX["bulk"]), str(EX[f"bulk{i + 1}"]))
            for i in range(3)
        )

    def test_serial_solutions_stream_bulk_mutation_mid_cell_does_not_poison(self):
        """An add_all mid-way through a streamed enumeration: incremental
        index maintenance must not weaken the version fence — the batch
        aborts the stream's recording exactly like a chain of single adds
        used to."""
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        stream = session.engine(forest).solutions_stream(graph, "auto")
        next(stream)
        version = graph.version
        self._mutate_bulk(graph)
        assert graph.version == version + 1  # the batch bumps exactly once
        for _ in stream:
            pass
        (tree,) = list(forest)
        assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)
