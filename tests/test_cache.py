"""Cache correctness: memoized evaluation must be indistinguishable from
fresh single-shot evaluation, across engines, methods and graph mutation."""

import random

import pytest

from repro.evaluation import Engine, EvaluationCache, Session
from repro.evaluation.cache import CacheStatistics
from repro.hom import TargetIndex, all_homomorphisms, target_index
from repro.hom.tgraph import TGraph
from repro.rdf import RDFGraph, Triple
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI, Variable
from repro.sparql import Mapping
from repro.workloads.families import fk_data_graph, fk_forest
from repro.workloads.random_patterns import random_wd_forest


def _membership_workload(forest, graph, rng, limit=12):
    """Solutions, perturbed near-solutions and random junk mappings."""
    engine = Engine(forest=forest)
    solutions = sorted(engine.solutions(graph, method="natural"), key=repr)[:limit]
    queries = list(solutions)
    for mu in solutions:
        bindings = mu.as_dict()
        if not bindings:
            continue
        var = sorted(bindings, key=lambda v: v.name)[rng.randrange(len(bindings))]
        bindings[var] = IRI("http://example.org/__nowhere__")
        queries.append(Mapping(bindings))
        queries.append(mu.restrict(list(mu.domain())[:1]))
    queries.append(Mapping.EMPTY)
    return queries


def _edge_mappings(graph, limit=None):
    """``{?x → a, ?y → b}``, one per ``p``-edge ``(a, b)``: the root of each
    ``F_k`` tree with that root shape is their witness, so their child
    tests reach the cache's ``hom`` or ``kernel`` entries."""
    x, y, p = Variable("x"), Variable("y"), EX.term("p")
    edges = sorted({Mapping({x: t.subject, y: t.object}) for t in graph if t.predicate == p}, key=repr)
    return edges[:limit]


class TestCachedAnswersIdentical:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_workloads_all_methods(self, seed):
        rng = random.Random(seed)
        forest = random_wd_forest(num_trees=2, num_nodes=3, seed=seed)
        graph = random_graph(8, 40, seed=seed)
        queries = _membership_workload(forest, graph, rng)
        plain = Engine(forest=forest)
        cached = Engine(forest=forest, cache=EvaluationCache())
        session = Session()
        handle = session.engine(forest)
        for method in ("naive", "natural", "pebble"):
            expected = [plain.contains(graph, mu, method=method, width=2) for mu in queries]
            # cached single calls, twice (cold and warm cache)
            for _ in range(2):
                got = [cached.contains(graph, mu, method=method, width=2) for mu in queries]
                assert got == expected, method
            # batched, twice
            for _ in range(2):
                assert session.check_many(handle, graph, queries, method=method, width=2) == expected

    def test_shared_cache_across_engines(self):
        forest = fk_forest(2)
        graph = fk_data_graph(6, 30, clique_size=2, seed=5)
        cache = EvaluationCache()
        first = Engine(forest=forest, cache=cache)
        second = Engine(forest=forest, cache=cache)
        plain = Engine(forest=forest)
        queries = _membership_workload(fk_forest(2), graph, random.Random(5))
        queries += _edge_mappings(graph, limit=8)
        for mu in queries:
            expected = plain.contains(graph, mu, method="natural")
            assert first.contains(graph, mu, method="natural") == expected
            assert second.contains(graph, mu, method="natural") == expected
        # The second engine replays the first one's child tests.
        assert cache.statistics.hom_hits > 0

    def test_warm_cache_hits(self):
        forest = fk_forest(2)
        graph = fk_data_graph(6, 36, clique_size=2, seed=9)
        session = Session()
        handle = session.engine(forest)
        queries = _membership_workload(forest, graph, random.Random(9))
        session.check_many(handle, graph, queries, method="pebble", width=1)
        misses_after_cold = session.cache.statistics.misses
        session.check_many(handle, graph, queries, method="pebble", width=1)
        # The warm run must answer entirely from the cache.
        assert session.cache.statistics.misses == misses_after_cold
        assert session.cache.statistics.hits > 0


class TestInvalidationOnMutation:
    @pytest.mark.parametrize("method", ["natural", "pebble"])
    def test_mutation_invalidates(self, method):
        forest = fk_forest(2)
        graph = fk_data_graph(6, 36, clique_size=2, seed=3)
        session = Session()
        handle = session.engine(forest)
        queries = _membership_workload(forest, graph, random.Random(3))
        queries += _edge_mappings(graph, limit=8)
        before = session.check_many(handle, graph, queries, method=method, width=1)

        removed = sorted(graph, key=repr)[: len(graph) // 2]
        for t in removed:
            graph.discard(t)
        fresh = [Engine(forest=forest).contains(graph, mu, method=method, width=1) for mu in queries]
        assert session.check_many(handle, graph, queries, method=method, width=1) == fresh

        for t in removed:
            graph.add(t)
        assert session.check_many(handle, graph, queries, method=method, width=1) == before
        assert session.cache.statistics.invalidations >= 2

    def test_added_triple_changes_answer(self):
        # ((?x p ?y) OPT (?y q ?z)): once bob gets a q-edge, the y-only
        # mapping stops being maximal.  The cache must notice the mutation.
        from repro.sparql import parse_pattern

        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        engine = Engine(parse_pattern(f"((?x <{EX.p.value}> ?y) OPT (?y <{EX.q.value}> ?z))"),
                        cache=EvaluationCache())
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b})
        assert engine.contains(graph, mu, method="natural") is True
        graph.add(Triple.of(EX.b, EX.q, EX.c))
        assert engine.contains(graph, mu, method="natural") is False
        graph.discard(Triple.of(EX.b, EX.q, EX.c))
        assert engine.contains(graph, mu, method="natural") is True

    def test_explicit_invalidate_and_clear(self):
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=1)
        cache = EvaluationCache()
        engine = Engine(forest=forest, cache=cache)
        mu = Mapping({Variable("x"): EX.term("nowhere"), Variable("y"): EX.term("nowhere")})
        engine.contains(graph, mu, method="natural")
        cache.invalidate(graph)
        engine.contains(graph, mu, method="natural")
        cache.invalidate()
        cache.clear()
        assert engine.contains(graph, mu, method="natural") is False


class TestNoPerMappingEntries:
    def test_fresh_mappings_leave_the_store_unchanged(self):
        """After a warm-up, fresh mappings add no entry to the graph store:
        what is stored is µ-independent (kernels) or keyed on µ restricted
        to a child's variables (``hom``), and witness subtrees are interned
        on the tree."""
        forest = fk_forest(4)
        graph = fk_data_graph(60, 900, clique_size=4, seed=7)
        edges = _edge_mappings(graph)
        assert len(edges) >= 200
        # Every hub mapping binds ?x to the same node, whose q-edge chain
        # makes T1's first child and T2's child extend, so each natural
        # check reads the two hom entries the warm-up stored.
        hub, p, q = EX.term("hub"), EX.term("p"), EX.term("q")
        graph.add(Triple(EX.term("node0"), q, hub))
        graph.add(Triple(EX.term("node1"), q, EX.term("node0")))
        x, y = Variable("x"), Variable("y")
        hubs = []
        for index in range(201):
            leaf = EX.term(f"leaf{index}")
            graph.add(Triple(hub, p, leaf))
            hubs.append(Mapping({x: hub, y: leaf}))
        session = Session()
        handle = session.engine(forest)
        # Warm up through first checks: every other edge mapping (members and
        # non-members, so every root child's kernel gets built) and one hub.
        session.check_many(handle, graph, edges[::2], method="pebble", width=1)
        session.check_many(handle, graph, hubs[:1], method="natural")
        store = session.cache._graphs[id(graph)]
        before = store.entry_count()
        fresh = edges[1::2]
        pebble = session.check_many(handle, graph, fresh, method="pebble", width=1)
        natural = session.check_many(handle, graph, hubs[1:], method="natural")
        assert store.entry_count() == before
        # dw(F_4) = 1, so the 2-pebble verdicts are exact.
        plain = Engine(forest=forest)
        assert pebble == [plain.contains(graph, mu, method="natural") for mu in fresh]
        assert any(pebble) and not all(pebble)
        assert natural == [plain.contains(graph, mu, method="natural") for mu in hubs[1:]]
        tree = forest[0]
        root = tree.subtree([tree.root])
        assert tree.subtree({tree.root}) is root
        assert session.cache.mu_subtree(tree, graph, hubs[1]) is root


class TestEnumerationMemos:
    def test_homomorphism_stream_matches_direct_search(self):
        cache = EvaluationCache()
        graph = random_graph(6, 25, seed=3)
        source = TGraph(list(fk_forest(2))[0].pat(list(fk_forest(2))[0].root))
        cached = tuple(cache.homomorphisms_stream(source, graph))
        direct = list(all_homomorphisms(source, graph))
        assert sorted(map(repr, cached)) == sorted(map(repr, direct))
        before = cache.statistics.enum_hits
        assert tuple(cache.homomorphisms_stream(source, graph)) == cached
        assert cache.statistics.enum_hits == before + 1

    def test_homomorphism_stream_lazy_records_only_on_completion(self):
        """An abandoned stream must not record a (partial) answer list, and
        a fresh stream stays lazy — only exhaustion creates the memo."""
        cache = EvaluationCache()
        graph = random_graph(6, 25, seed=3)
        source = TGraph(list(fk_forest(2))[0].pat(list(fk_forest(2))[0].root))
        abandoned = cache.homomorphisms_stream(source, graph)
        next(abandoned)  # consume one result, drop the generator
        del abandoned
        full = list(cache.homomorphisms_stream(source, graph))  # still a miss
        assert cache.statistics.enum_hits == 0
        assert cache.statistics.enum_misses == 2
        replayed = list(cache.homomorphisms_stream(source, graph))  # now a hit
        assert cache.statistics.enum_hits == 1
        assert replayed == full

    def test_homomorphism_stream_invalidated_by_mutation(self):
        from repro.sparql import parse_pattern
        from repro.patterns.build import wdpf

        cache = EvaluationCache()
        graph = RDFGraph(
            [Triple.of("http://example.org/a", "http://example.org/p", "http://example.org/b")]
        )
        tree = list(wdpf(parse_pattern("(?x <http://example.org/p> ?y)")))[0]
        source = tree.pat(tree.root)
        first = tuple(cache.homomorphisms_stream(source, graph))
        assert len(first) == 1
        graph.add(Triple.of("http://example.org/c", "http://example.org/p", "http://example.org/d"))
        second = tuple(cache.homomorphisms_stream(source, graph))
        assert len(second) == 2

    def test_homomorphism_stream_mutation_after_creation_never_poisons(self):
        """A graph mutation between stream creation and consumption must not
        record a stale list under the new version (regression)."""
        from repro.sparql import parse_pattern
        from repro.patterns.build import wdpf

        cache = EvaluationCache()
        graph = RDFGraph(
            [Triple.of("http://example.org/a", "http://example.org/p", "http://example.org/b")]
        )
        tree = list(wdpf(parse_pattern("(?x <http://example.org/p> ?y)")))[0]
        source = tree.pat(tree.root)
        stream = cache.homomorphisms_stream(source, graph)
        graph.add(Triple.of("http://example.org/c", "http://example.org/p", "http://example.org/d"))
        list(stream)  # consumed after the mutation: must not be recorded
        fresh = tuple(cache.homomorphisms_stream(source, graph))
        assert len(fresh) == 2  # the post-mutation truth, not a stale replay

    def test_tree_solution_list_roundtrip_and_eviction(self):
        cache = EvaluationCache()
        graph = random_graph(6, 25, seed=5)
        forest = fk_forest(2)
        tree = list(forest)[0]
        assert cache.tree_solution_list(tree, graph) is None  # miss
        engine = Engine(forest=forest, cache=cache)
        answers = engine.solutions(graph, method="natural")
        recorded = cache.tree_solution_list(tree, graph)
        assert recorded is not None and set(recorded) <= answers
        # Mutation invalidates transparently.
        graph.add(Triple.of(str(EX["zzz"]), str(EX["zzz"]), str(EX["zzz"])))
        assert cache.tree_solution_list(tree, graph) is None


class TestCacheInternals:
    def test_statistics_counters(self):
        stats = CacheStatistics()
        assert stats.hits == 0 and stats.misses == 0
        assert stats.hit_rate() == 0.0
        stats.hom_hits += 3
        stats.hom_misses += 1
        assert stats.hits == 3 and stats.misses == 1
        assert stats.hit_rate() == pytest.approx(0.75)
        assert "hom_hits" in stats.as_dict()
        assert "hits=3" in repr(stats)

    def test_max_entries_evicts(self):
        cache = EvaluationCache(max_entries_per_graph=2)
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        tg = lambda name: TGraph.of(("?" + name, EX.p.value, "?y"))
        for name in ("u", "v", "w", "x"):
            cache.extension_exists(tg(name), graph, Mapping.EMPTY)
        assert cache.statistics.evictions >= 2

    def test_max_entries_bounds_tree_tables(self):
        # Tree-solution entries key on (and so pin) their trees; a bounded
        # cache must bound how many trees it holds, with correct answers
        # after eviction.
        cache = EvaluationCache(max_entries_per_graph=2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=4)
        queries = None
        for seed in range(5):
            forest = random_wd_forest(num_trees=1, num_nodes=2, seed=seed)
            engine = Engine(forest=forest, cache=cache)
            plain = Engine(forest=forest)
            queries = _membership_workload(forest, graph, random.Random(seed), limit=3)
            for mu in queries:
                assert engine.contains(graph, mu, method="natural") == plain.contains(
                    graph, mu, method="natural"
                )
            assert engine.solutions(graph, method="natural") == plain.solutions(
                graph, method="natural"
            )
        store = cache._graphs[id(graph)]
        trees = {key[0] for kind, key in store.entries if kind == "treesol"}
        assert 1 <= len(trees) <= 2

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries_per_graph=0)

    def test_lru_hot_entries_survive_eviction_pressure(self):
        # Recency-based eviction: an entry touched between insertions of cold
        # entries must never be evicted, however many cold entries stream by.
        cache = EvaluationCache(max_entries_per_graph=3)
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        hot = TGraph.of(("?hot", EX.p.value, "?y"))
        cache.extension_exists(hot, graph, Mapping.EMPTY)
        assert cache.statistics.hom_misses == 1
        for index in range(20):
            cold = TGraph.of((f"?cold{index}", EX.p.value, "?y"))
            cache.extension_exists(cold, graph, Mapping.EMPTY)
            cache.extension_exists(hot, graph, Mapping.EMPTY)  # keep it recent
        # The hot instance was computed exactly once; every later lookup hit.
        assert cache.statistics.hom_misses == 1 + 20
        assert cache.statistics.hom_hits == 20
        assert cache.statistics.evictions > 0

    def test_fifo_would_evict_hot_entry_without_recency(self):
        # Sanity check of the pressure in the test above: entries *not*
        # refreshed under the same stream do get evicted and recomputed.
        cache = EvaluationCache(max_entries_per_graph=3)
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        stale = TGraph.of(("?stale", EX.p.value, "?y"))
        cache.extension_exists(stale, graph, Mapping.EMPTY)
        for index in range(20):
            cold = TGraph.of((f"?cold{index}", EX.p.value, "?y"))
            cache.extension_exists(cold, graph, Mapping.EMPTY)
        cache.extension_exists(stale, graph, Mapping.EMPTY)
        assert cache.statistics.hom_hits == 0  # it was evicted and recomputed

    def test_kernel_entries_use_size_accounting(self):
        from repro.workloads.families import fk_data_graph, fk_forest

        forest = fk_forest(2)
        graph = fk_data_graph(6, 36, clique_size=2, seed=9)
        unbounded = EvaluationCache()
        first = _edge_mappings(graph, limit=1)[0]
        Engine(forest=forest, cache=unbounded).contains(graph, first, method="pebble", width=1)
        assert unbounded.statistics.kernel_misses >= 1
        # A tiny budget cannot hold a kernel's precomputed state plus a
        # stream of other entries: eviction must kick in, answers stay right.
        bounded = EvaluationCache(max_entries_per_graph=5)
        engine = Engine(forest=forest, cache=bounded)
        plain = Engine(forest=forest)
        queries = _membership_workload(forest, graph, random.Random(9), limit=5)
        queries += _edge_mappings(graph, limit=5)
        for mu in queries:
            assert engine.contains(graph, mu, method="pebble", width=1) == plain.contains(
                graph, mu, method="pebble", width=1
            )
        assert bounded.statistics.evictions > 0

    def test_repr_counts_entries(self):
        cache = EvaluationCache()
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        cache.extension_exists(TGraph.of(("?x", EX.p.value, "?y")), graph, Mapping.EMPTY)
        assert "1 graphs" in repr(cache)

    def test_store_evicted_when_graph_collected(self):
        cache = EvaluationCache()
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        cache.extension_exists(TGraph.of(("?x", EX.p.value, "?y")), graph, Mapping.EMPTY)
        assert len(cache._graphs) == 1
        del graph
        import gc

        gc.collect()
        assert len(cache._graphs) == 0


class TestTargetIndexReuse:
    def test_prebuilt_index_matches_fresh_search(self):
        graph = random_graph(6, 25, seed=7)
        index = target_index(graph)
        assert isinstance(index, TargetIndex)
        source = TGraph.of(("?x", EX.p.value, "?y"), ("?y", EX.q.value, "?z"))
        fresh = sorted(all_homomorphisms(source, graph), key=repr)
        reused = sorted(all_homomorphisms(source, graph, index=index), key=repr)
        assert fresh == reused


class TestSizeAccounting:
    """Pin the LRU charges so the docs (1 + len(list) per answer list, 1 per
    plain memo entry) cannot drift from the implementation again."""

    def _store(self, cache, graph):
        return cache._graphs[id(graph)]

    def test_homomorphism_stream_charged_one_plus_length(self):
        cache = EvaluationCache()
        graph = random_graph(6, 25, seed=3)
        source = TGraph(list(fk_forest(2))[0].pat(list(fk_forest(2))[0].root))
        homs = tuple(cache.homomorphisms_stream(source, graph))
        assert len(homs) > 1  # the charge must actually exceed a plain entry
        key = ("homlist", (source.triples(),))
        assert self._store(cache, graph).costs[key] == 1 + len(homs)

    def test_tree_solution_list_charged_one_plus_length(self):
        cache = EvaluationCache()
        graph = random_graph(6, 25, seed=5)
        forest = fk_forest(2)
        tree = list(forest)[0]
        Engine(forest=forest, cache=cache).solutions(graph, method="natural")
        recorded = cache.tree_solution_list(tree, graph)
        assert recorded is not None
        key = ("treesol", (tree,))
        assert self._store(cache, graph).costs[key] == 1 + len(recorded)

    def test_plain_memo_entries_charged_one(self):
        cache = EvaluationCache()
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        source = TGraph.of(("?x", EX.p.value, "?y"))
        cache.extension_exists(source, graph, Mapping.EMPTY)
        store = self._store(cache, graph)
        (key,) = [k for k in store.costs if k[0] == "hom"]
        assert store.costs[key] == 1
