"""Unit tests for the Session workspace (multi-pattern, multi-graph)."""

import pytest

from repro.evaluation import BatchEngine, Engine, EvaluationCache, Session
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
    engine = Engine(forest=forest, width_bound=1)
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
        engine = session.engine(parse_pattern("(?x p ?y)"))
        assert engine.cache is session.cache

    def test_foreign_engine_rewired_onto_session_cache(self):
        session = Session()
        foreign = Engine(parse_pattern("(?x p ?y)"), width_bound=1)
        adopted = session.engine(foreign)
        assert adopted is not foreign
        assert adopted.cache is session.cache
        assert adopted.width_bound == 1
        assert session.engine(foreign) is adopted

    def test_rejects_non_pattern(self):
        with pytest.raises(EvaluationError):
            Session().engine(42)

    def test_invalid_processes(self):
        with pytest.raises(EvaluationError):
            Session(processes=0)

    def test_invalid_max_engines(self):
        with pytest.raises(EvaluationError):
            Session(max_engines=0)

    def test_session_wired_engine_is_not_rememoized(self):
        session = Session(max_engines=2)
        p1 = parse_pattern("(?x p ?y)")
        p2 = parse_pattern("(?x q ?y)")
        e1, e2 = session.engine(p1), session.engine(p2)
        # Routing the handles back in (as check_many / solutions_many do)
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
        expected = [engine.contains(graph, mu, method=method) for mu in queries]
        session = Session()
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, queries, method=method) == expected

    def test_order_duplicates_and_empty(self, setting):
        forest, graph, engine, queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        doubled = queries + list(reversed(queries))
        answers = session.check_many(handle, graph, doubled)
        assert answers == [engine.contains(graph, mu) for mu in doubled]
        assert session.check_many(handle, graph, []) == []

    def test_parallel_identical(self, setting):
        forest, graph, engine, queries = setting
        expected = [engine.contains(graph, mu, method="pebble") for mu in queries]
        session = Session(processes=2)
        handle = session.engine(forest, width_bound=1)
        assert session.check_many(handle, graph, queries, method="pebble") == expected

    def test_check_single(self, setting):
        forest, graph, engine, queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        for mu in queries:
            assert session.check(handle, graph, mu) == engine.contains(graph, mu)

    def test_plan_and_explain(self, setting):
        forest, _graph, _engine, _queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        plan = session.plan(handle)
        assert (plan.strategy, plan.width) == ("pebble", 1)
        assert "chosen strategy" in session.explain(handle)


class TestStreaming:
    def test_stream_matches_solutions(self):
        session = Session()
        forest = WDPatternForest([tprime_tree(2)])
        graph = tprime_data_graph(6, 20, seed=4)
        stream = session.solutions_stream(forest, graph)
        first = next(stream, None)  # the stream is lazy and resumable
        rest = set(stream)
        expected = Engine(forest=forest).solutions(graph, method="natural")
        assert ({first} | rest if first is not None else rest) == expected

    def test_stream_deduplicates(self):
        session = Session()
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=1)
        streamed = list(session.solutions_stream(forest, graph))
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


class TestSolutionsMany:
    def test_randomized_parity_with_naive_enumeration(self):
        """Session.solutions_many must be identical to per-pattern naive
        enumeration on randomized patterns × graphs."""
        for seed in range(6):
            patterns = [
                WDPatternForest([random_wd_tree(num_nodes=3, seed=seed * 7 + i)])
                for i in range(3)
            ]
            graphs = [random_graph(5, 22, seed=seed * 11 + j) for j in range(2)]
            session = Session()
            matrix = session.solutions_many(patterns, graphs)
            expected = [
                [Engine(forest=forest).solutions(graph, method="naive") for graph in graphs]
                for forest in patterns
            ]
            assert matrix == expected, f"parity failure for seed {seed}"

    def test_single_graph_returns_flat_list(self):
        session = Session()
        graph = tprime_data_graph(6, 20, seed=3)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        answers = session.solutions_many(patterns, graph)
        assert len(answers) == 2
        for forest, answer in zip(patterns, answers):
            assert answer == Engine(forest=forest).solutions(graph, method="naive")

    def test_duplicate_cells_share_one_engine_but_stay_independent(self):
        session = Session()
        graph = random_graph(6, 30, seed=5)
        text = "((?x <http://example.org/p> ?y) OPT (?y <http://example.org/q> ?z))"
        pattern = parse_pattern(text)
        duplicate = parse_pattern(text)
        answers = session.solutions_many([pattern, duplicate, pattern], graph)
        assert answers[0] and answers[0] == answers[1] == answers[2]
        # Structurally equal patterns share one engine (one enumeration)...
        assert session.engine(pattern) is session.engine(duplicate)
        # ...but the returned sets are independent copies, like a loop of
        # per-pattern Engine.solutions calls would produce.
        assert answers[0] is not answers[1]
        answers[0].clear()
        assert answers[1] == answers[2]

    def test_shared_cache_is_exercised(self):
        session = Session()
        graph = tprime_data_graph(6, 20, seed=1)
        forest = WDPatternForest([tprime_tree(2)])
        session.solutions_many([forest, forest], graph)
        stats = session.cache.statistics
        assert stats.hits + stats.misses > 0

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


class TestSolutionsIter:
    def _workload(self):
        graphs = [tprime_data_graph(6, 20, seed=11), tprime_data_graph(5, 15, seed=12)]
        repeated = WDPatternForest([tprime_tree(2)])
        patterns = [
            repeated,
            WDPatternForest([tprime_tree(3)]),
            WDPatternForest([tprime_tree(2)]),  # structurally equal, distinct object
            repeated,  # duplicate cell: same forest object twice
        ]
        return patterns, graphs

    def _collect(self, iterator):
        got = {}
        for cell, mu in iterator:
            got.setdefault(cell, set()).add(mu)
        return got

    @pytest.mark.parametrize("order", ["submitted", "completed"])
    def test_parity_with_solutions_many(self, order):
        patterns, graphs = self._workload()
        session = Session()
        matrix = session.solutions_many(patterns, graphs)
        got = self._collect(Session().solutions_iter(patterns, graphs, order=order))
        for i in range(len(patterns)):
            for j in range(len(graphs)):
                assert got.get((i, j), set()) == matrix[i][j], (order, i, j)

    def test_single_graph_cells_use_graph_index_zero(self):
        patterns, graphs = self._workload()
        session = Session()
        flat = session.solutions_many(patterns, graphs[0])
        got = self._collect(session.solutions_iter(patterns, graphs[0]))
        assert all(cell[1] == 0 for cell in got)
        for i in range(len(patterns)):
            assert got.get((i, 0), set()) == flat[i]

    def test_submitted_order_is_submission_order(self):
        patterns, graphs = self._workload()
        cells_seen = []
        for cell, _mu in Session().solutions_iter(patterns, graphs, order="submitted"):
            if not cells_seen or cells_seen[-1] != cell:
                cells_seen.append(cell)
        assert cells_seen == sorted(cells_seen)

    def test_serial_first_occurrence_streams_lazily(self):
        """The first solutions arrive before later cells are evaluated."""
        session = Session()
        graph = tprime_data_graph(6, 20, seed=11)
        full = WDPatternForest([tprime_tree(2)])
        iterator = session.solutions_iter([full, WDPatternForest([tprime_tree(3)])], graph)
        cell, mu = next(iterator)
        assert cell == (0, 0)
        assert mu in Engine(forest=full).solutions(graph, method="naive")

    def test_invalid_order_rejected(self):
        session = Session()
        with pytest.raises(EvaluationError):
            next(session.solutions_iter([WDPatternForest([tprime_tree(2)])],
                                        tprime_data_graph(5, 15, seed=1), order="random"))


class TestSolutionsAutoBugfix:
    """`Engine.solutions(method="auto")` used to raise; it must resolve to
    the natural strategy everywhere the method argument is accepted."""

    def test_engine_solutions_auto(self):
        graph = tprime_data_graph(6, 20, seed=2)
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]), width_bound=1)
        assert engine.solutions(graph, method="auto") == engine.solutions(
            graph, method="natural"
        )

    def test_batch_engine_solutions_auto(self):
        graph = tprime_data_graph(6, 20, seed=2)
        batch = BatchEngine(forest=WDPatternForest([tprime_tree(2)]), width_bound=1)
        assert batch.solutions(graph, method="auto") == batch.solutions(graph, method="natural")


class TestBatchEngineAdapter:
    def test_from_session_shares_cache(self):
        session = Session()
        batch = BatchEngine.from_session(session, parse_pattern("(?x p ?y)"))
        assert batch.cache is session.cache
        assert batch.session is session

    def test_warm_returns_kernel_count(self, setting):
        forest, graph, _engine, _queries = setting
        session = Session()
        handle = session.engine(forest, width_bound=1)
        # No mappings: warming covers the root-subtree child instances.
        count = session.warm(handle, graph, method="pebble", width=1)
        assert count > 0
        assert session.cache.statistics.kernel_misses > 0

    def test_session_cache_reused_by_adapter(self):
        cache = EvaluationCache()
        batch = BatchEngine(parse_pattern("(?x p ?y)"), cache=cache)
        assert batch.cache is cache
        assert batch.session.cache is cache


class TestPicklability:
    def test_graph_pattern_round_trips(self):
        import pickle

        pattern = parse_pattern("(((?x p ?y) AND (?y q ?z)) OPT ((?z r ?w) UNION (?z p ?w)))")
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern

    def test_engine_round_trips(self):
        import pickle

        graph = tprime_data_graph(6, 20, seed=4)
        engine = Engine(forest=WDPatternForest([tprime_tree(2)]), width_bound=1)
        engine.domination_width()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.width_bound == engine.width_bound
        assert clone.resolve_method("auto") == engine.resolve_method("auto")
        assert clone.solutions(graph, method="natural") == engine.solutions(
            graph, method="natural"
        )

    def test_warmed_session_engine_still_pickles(self):
        import pickle

        graph = tprime_data_graph(6, 20, seed=4)
        session = Session()
        engine = session.engine(WDPatternForest([tprime_tree(2)]), width_bound=1)
        mu = sorted(session.solutions(engine, graph), key=repr)[0]
        # A pebble check caches a ConsistencyKernel (which holds a graph
        # weakref); pickling must still work — the cache is process-local
        # state and is dropped from the pickle.
        session.check(engine, graph, mu, method="pebble", width=1)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.cache is None
        assert clone.contains(graph, mu, method="pebble", width=1) == engine.contains(
            graph, mu, method="pebble", width=1
        )


class TestWorkerMode:
    """The effective mode of the membership pool is introspectable: warm
    under fork, cold (named by the start method) otherwise."""

    def test_serial_when_no_pool_would_run(self):
        assert Session().worker_mode() == "serial"
        assert Session(processes=2).worker_mode(processes=1) == "serial"
        assert Session().worker_mode(processes=1) == "serial"

    def test_fork_modes(self):
        import multiprocessing

        if multiprocessing.get_context().get_start_method() != "fork":
            pytest.skip("needs the fork start method")
        assert Session(processes=2).worker_mode() == "fork-warm"
        assert Session().worker_mode(processes=4) == "fork-warm"

    def test_non_fork_reports_start_method(self, monkeypatch):
        from repro.evaluation import session as session_module

        monkeypatch.setattr(session_module, "_start_method", lambda: "spawn")
        assert Session(processes=2).worker_mode() == "spawn"
        assert Session().worker_mode() == "serial"  # still no pool

    def test_repr_shows_worker_mode(self):
        assert "workers=serial" in repr(Session())


class TestCheckIter:
    def test_serial_parity_with_check_many(self, setting):
        forest, graph, engine, queries = setting
        queries = queries + queries[:2]  # repeated mappings replay
        session = Session()
        expected = session.check_many(forest, graph, queries)
        assert list(Session().check_iter(forest, graph, queries)) == expected

    def test_parallel_parity_with_check_many(self, setting):
        forest, graph, engine, queries = setting
        expected = Session().check_many(forest, graph, queries)
        assert list(Session().check_iter(forest, graph, queries, processes=2)) == expected

    def test_parallel_duplicates_follow_input_order(self, setting):
        forest, graph, engine, queries = setting
        doubled = queries + list(reversed(queries))
        iterator = Session().check_iter(forest, graph, doubled, processes=2)
        assert next(iterator) == engine.contains(graph, doubled[0])
        assert list(iterator) == [engine.contains(graph, mu) for mu in doubled[1:]]

    def test_abandoned_parallel_stream_stops_its_workers(self, setting):
        import multiprocessing

        forest, graph, _engine, queries = setting
        iterator = Session().check_iter(forest, graph, queries, processes=2)
        next(iterator)
        iterator.close()
        assert multiprocessing.active_children() == []

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

    def test_serial_solutions_iter_mutation_between_cells(self):
        graph = tprime_data_graph(6, 20, seed=25)
        patterns = [WDPatternForest([tprime_tree(2)]), WDPatternForest([tprime_tree(3)])]
        session = Session()
        iterator = session.solutions_iter(patterns, graph)
        seen = {}
        mutated = False
        for cell, mu in iterator:
            if cell[0] == 1 and not mutated:
                # First solution of the second cell: mutate before draining.
                self._mutate(graph)
                mutated = True
            seen.setdefault(cell, set()).add(mu)
        # The cache must answer for the graph as it is *now*: fresh
        # enumerations replay nothing stale.
        for i, forest in enumerate(patterns):
            assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)

    def test_serial_solutions_iter_mutation_mid_cell_does_not_poison(self):
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        iterator = session.solutions_iter([forest], graph)
        next(iterator)
        self._mutate(graph)  # mid-cell: the stream's recording must be aborted
        for _ in iterator:
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

    def test_serial_solutions_iter_bulk_mutation_mid_cell_does_not_poison(self):
        """Incremental index maintenance must not weaken the version fence:
        an add_all mid-cell aborts the stream's recording exactly like a
        chain of single adds used to."""
        graph = tprime_data_graph(6, 20, seed=25)
        forest = WDPatternForest([tprime_tree(2)])
        session = Session()
        iterator = session.solutions_iter([forest], graph)
        next(iterator)
        version = graph.version
        self._mutate_bulk(graph)
        assert graph.version == version + 1  # the batch bumps exactly once
        for _ in iterator:
            pass
        (tree,) = list(forest)
        assert session.cache.tree_solution_list(tree, graph) is None
        assert session.solutions(forest, graph) == self._fresh_answers(forest, graph)
