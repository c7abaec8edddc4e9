"""The indexed consistency kernel must be indistinguishable from the per-call
pebble game: property-style agreement on randomized instances, edge cases,
mutation refresh, and the cache/batch integration built on top of it."""

import random

import pytest

from repro.evaluation import Engine, EvaluationCache
from repro.exceptions import EvaluationError
from repro.hom import all_homomorphisms, target_index
from repro.hom.tgraph import GeneralizedTGraph
from repro.pebble import ConsistencyKernel
from repro.pebble.game import pebble_game_winner, reference_pebble_game_winner
from repro.rdf import RDFGraph, Triple
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql.mappings import Mapping
from repro.workloads.families import fk_data_graph, fk_forest

NOWHERE = IRI("http://example.org/__nowhere__")
#: The predicates ``random_graph(..., predicates=("p", "q"))`` writes.
PREDICATES = [EX.p.value, EX.q.value]


def random_instance(seed):
    """A random (generalised t-graph, RDF graph, candidate mappings) triple."""
    rng = random.Random(seed)
    names = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
    constants = [EX.term("k0").value, EX.term("k1").value]
    triples = []
    for _ in range(rng.randint(2, 6)):
        s = "?" + rng.choice(names)
        o = rng.choice(constants) if rng.random() < 0.15 else "?" + rng.choice(names)
        triples.append((s, rng.choice(PREDICATES), o))
    used = sorted({v.name for t in triples for v in TriplePattern.of(*t).variables()})
    distinguished = rng.sample(used, rng.randint(0, len(used)))
    gtgraph = GeneralizedTGraph.of(triples, distinguished)
    graph = random_graph(rng.randint(2, 5), rng.randint(3, 14), predicates=("p", "q"), seed=seed)
    values = sorted(graph.domain(), key=str) + [NOWHERE]
    mappings = []
    for _ in range(6):
        if distinguished and values:
            mappings.append(
                Mapping({Variable(name): rng.choice(values) for name in distinguished})
            )
        else:
            mappings.append(Mapping.EMPTY)
    return gtgraph, graph, mappings


def mixed_instance(seed):
    """A random instance with a mixed binary group: ``(?a ?d ?b)`` joins the
    existential ``?a``, ``?b`` through the distinguished ``?d`` in predicate
    position, beside random triples that may state ``p``/``q`` on the same
    pair, in either direction.  ``?d`` mostly maps to a predicate."""
    rng = random.Random(seed)
    ends = ["?a", "?b", "?c", "?x"][: rng.randint(2, 4)]
    triples = [("?a", "?d", "?b")]
    for _ in range(rng.randint(1, 5)):
        predicate = "?d" if rng.random() < 0.3 else rng.choice(PREDICATES)
        triples.append((rng.choice(ends), predicate, rng.choice(ends)))
    distinguished = ["d"] + (["x"] if any("?x" in t for t in triples) else [])
    gtgraph = GeneralizedTGraph.of(triples, distinguished)
    graph = random_graph(rng.randint(3, 5), rng.randint(6, 16), predicates=("p", "q"), seed=seed)
    nodes = sorted(graph.subjects() | graph.objects(), key=str)
    mappings = []
    for _ in range(6):
        bindings = {Variable("d"): rng.choice([EX.p, EX.q, EX.p, EX.q, nodes[0], NOWHERE])}
        if "x" in distinguished:
            bindings[Variable("x")] = rng.choice(nodes)
        mappings.append(Mapping(bindings))
    return gtgraph, graph, mappings


def binary_groups(gtgraph):
    """The pairs of existential variables some triple joins with and without
    a distinguished variable: (mixed pairs, pure pairs)."""
    existential = gtgraph.existential_variables()
    mixed, pure = set(), set()
    for t in gtgraph.triples():
        pair = frozenset(t.variables() & existential)
        if len(pair) == 2:
            (mixed if t.variables() - existential else pure).add(pair)
    return mixed, pure


class TestAgreementWithReference:
    """Kernel verdicts == per-call verdicts on randomized (S, X), G, µ, k."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [2, 3, 4, 12])
    def test_randomized_agreement(self, seed, k):
        gtgraph, graph, mappings = random_instance(seed)
        kernel = ConsistencyKernel(gtgraph, graph, k)
        for mu in mappings:
            expected = reference_pebble_game_winner(gtgraph, graph, mu, k)
            # one shared kernel across all mappings ...
            assert kernel.winner(mu) == expected
            # ... and the kernel-backed public entry point
            assert pebble_game_winner(gtgraph, graph, mu, k) == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_agreement_with_mixed_binary_groups(self, k):
        # Mixed binary groups (two existential variables and a distinguished
        # one in a triple) need a variable in predicate position; random
        # wdPTs and the F_k family never have one.
        both = 0
        verdicts = set()
        for seed in range(30):
            gtgraph, graph, mappings = mixed_instance(seed)
            mixed, pure = binary_groups(gtgraph)
            assert mixed
            both += len(mixed & pure)
            kernel = ConsistencyKernel(gtgraph, graph, k)
            for mu in mappings:
                expected = reference_pebble_game_winner(gtgraph, graph, mu, k)
                assert kernel.winner(mu) == expected
                verdicts.add(expected)
        # Some pair also has pure triples (its shared adjacency narrows the
        # µ-dependent pairs), and the game goes both ways.
        assert both and verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_agreement_on_fk_child_instances(self, k):
        # The K_k child states one relation on every pair of its variables,
        # which the kernel shares between the pairs.
        graph = fk_data_graph(8, 40, clique_size=k, seed=k)
        verdicts = set()
        for tree in fk_forest(k):
            subtree = tree.root_subtree()
            mappings = [Mapping(h) for h in all_homomorphisms(subtree.pat(), graph)]
            assert mappings
            for child in subtree.children():
                instance = subtree.child_instance(child)
                for pebbles in (2, 3):
                    kernel = ConsistencyKernel(instance, graph, pebbles)
                    for mu in mappings:
                        expected = reference_pebble_game_winner(instance, graph, mu, pebbles)
                        assert kernel.winner(mu) == expected
                        verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3])
    def test_no_existential_variables(self, k):
        source = GeneralizedTGraph.of([("?a", EX.p.value, "?b")], ["a", "b"])
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        kernel = ConsistencyKernel(source, graph, k)
        good = Mapping({Variable("a"): EX.a, Variable("b"): EX.b})
        bad = Mapping({Variable("a"): EX.b, Variable("b"): EX.a})
        assert kernel.winner(good) is True
        assert kernel.winner(bad) is False

    @pytest.mark.parametrize("k", [2, 3])
    def test_empty_domain_loses(self, k):
        source = GeneralizedTGraph.of([("?a", EX.p.value, "?b")], [])
        empty = RDFGraph()  # callers must keep the (weakly referenced) graph alive
        kernel = ConsistencyKernel(source, empty, k)
        assert kernel.winner(Mapping.EMPTY) is False
        assert reference_pebble_game_winner(source, empty, Mapping.EMPTY, k) is False

    def test_prebuilt_index_same_verdicts(self):
        gtgraph, graph, mappings = random_instance(7)
        shared = target_index(graph)
        with_index = ConsistencyKernel(gtgraph, graph, 2, index=shared)
        without = ConsistencyKernel(gtgraph, graph, 2)
        for mu in mappings:
            assert with_index.winner(mu) == without.winner(mu)


class TestValidation:
    def test_requires_k_at_least_two(self):
        source = GeneralizedTGraph.of([("?a", EX.p.value, "?b")], [])
        with pytest.raises(ValueError):
            ConsistencyKernel(source, RDFGraph(), 1)

    def test_requires_matching_domain(self):
        source = GeneralizedTGraph.of([("?a", EX.p.value, "?b")], ["a"])
        kernel = ConsistencyKernel(source, RDFGraph(), 2)
        with pytest.raises(EvaluationError):
            kernel.winner(Mapping.EMPTY)


class TestRefreshOnMutation:
    def test_kernel_tracks_graph_version(self):
        source = GeneralizedTGraph.of([("?x", EX.p.value, "?o")], ["x"])
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        kernel = ConsistencyKernel(source, graph, 2)
        mu = Mapping({Variable("x"): EX.a})
        assert kernel.winner(mu) is True
        graph.discard(Triple.of(EX.a, EX.p, EX.b))
        assert kernel.winner(mu) is False  # refreshed, not stale
        graph.add(Triple.of(EX.a, EX.p, EX.b))
        assert kernel.winner(mu) is True
        assert kernel.version == graph.version

    def test_cost_and_repr(self):
        gtgraph, graph, _ = random_instance(3)
        kernel = ConsistencyKernel(gtgraph, graph, 2).prepare()
        assert kernel.cost() >= 1
        assert "ConsistencyKernel" in repr(kernel)
        assert kernel.k == 2 and kernel.graph is graph and kernel.gtgraph is gtgraph

    def test_lazy_setup_short_circuits(self):
        # A fully distinguished instance must answer without ever scanning
        # dom(G) or building base domains — the per-call implementation's
        # short-circuit, preserved by the lazy solver build.
        source = GeneralizedTGraph.of([("?a", EX.p.value, "?b")], ["a", "b"])
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        kernel = ConsistencyKernel(source, graph, 2)
        assert kernel.winner(Mapping({Variable("a"): EX.a, Variable("b"): EX.b})) is True
        assert kernel._domain_values is None  # solver never built
        # prepare() is a no-op for such instances, too.
        assert kernel.prepare()._domain_values is None

    def test_kernel_does_not_pin_its_graph(self):
        # The kernel references the graph weakly, so a cache holding kernels
        # still lets the graph (and its store) be collected.
        import gc

        source = GeneralizedTGraph.of([("?x", EX.p.value, "?o")], ["x"])
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        kernel = ConsistencyKernel(source, graph, 2)
        assert kernel.winner(Mapping({Variable("x"): EX.a})) is True
        del graph
        gc.collect()
        with pytest.raises(EvaluationError):
            kernel.graph

    def test_cached_pebble_graph_is_collectable(self):
        import gc

        forest = fk_forest(2)
        cache = EvaluationCache()
        engine = Engine(forest=forest, cache=cache)
        graph = fk_data_graph(5, 20, clique_size=2, seed=1)
        edge = min((t for t in graph if t.predicate == EX.term("p")), key=repr)
        mu = Mapping({Variable("x"): edge.subject, Variable("y"): edge.object})
        engine.contains(graph, mu, method="pebble", width=1)
        assert len(cache._graphs) == 1
        assert any(kind == "kernel" for kind, _ in cache._graphs[id(graph)].entries)
        del graph, edge
        gc.collect()
        assert len(cache._graphs) == 0  # kernels must not keep the graph alive


class TestCacheIntegration:
    def test_kernel_shared_across_mappings(self):
        forest = fk_forest(2)
        graph = fk_data_graph(6, 36, clique_size=2, seed=9)
        cache = EvaluationCache()
        engine = Engine(forest=forest, cache=cache)
        plain = Engine(forest=forest)
        x, y = Variable("x"), Variable("y")
        p = EX.term("p")
        mappings = sorted(
            {Mapping({x: t.subject, y: t.object}) for t in graph if t.predicate == p},
            key=repr,
        )
        assert len(mappings) > 2
        for mu in mappings:
            assert engine.contains(graph, mu, method="pebble", width=1) == plain.contains(
                graph, mu, method="pebble", width=1
            )
        stats = cache.statistics
        # Distinct mappings share the per-structure kernels: far fewer kernel
        # builds than pebble-verdict computations.
        assert stats.kernel_misses >= 1
        assert stats.kernel_hits > stats.kernel_misses


class TestDomainMemoization:
    def test_domain_memoized_per_version(self):
        graph = RDFGraph([Triple.of(EX.a, EX.p, EX.b)])
        first = graph.domain()
        assert graph.domain() is first  # memo hit returns the same object
        assert graph.sorted_domain() == tuple(sorted(first, key=str))
        assert graph.sorted_domain() is graph.sorted_domain()
        graph.add(Triple.of(EX.b, EX.p, EX.c))
        assert graph.domain() is not first
        assert EX.c in graph.domain()
        assert EX.c in graph.sorted_domain()

    def test_pattern_solutions_index_join(self):
        graph = RDFGraph(
            [Triple.of(EX.a, EX.p, EX.b), Triple.of(EX.b, EX.p, EX.c)]
        )
        index = target_index(graph)
        pattern = TriplePattern.of("?x", EX.p.value, "?y")
        bindings = sorted(index.pattern_solutions(pattern), key=repr)
        assert len(bindings) == 2
        fixed = {Variable("x"): EX.a}
        restricted = list(index.pattern_solutions(pattern, fixed))
        assert restricted == [{Variable("y"): EX.b}]
        # Repeated variables must receive equal images.
        loop = TriplePattern.of("?x", EX.p.value, "?x")
        assert list(index.pattern_solutions(loop)) == []
