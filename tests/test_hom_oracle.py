"""An independent oracle for the homomorphism search and the natural engine.

The store parity suite compares two stores that run the same search, so a
bug in the search would show on both sides.  This suite checks the search
against definitions instead, on small seeded random instances:

* ``all_homomorphisms`` / ``find_homomorphism`` against brute-force
  enumeration of every assignment ``vars(S) \\ dom(fixed) → dom(target)``,
  for RDF-graph targets and for t-graph targets that hold variables, with
  repeated variables, empty sources, and constants or fixed images the
  target never interned (a :class:`Variable` image among them);
* ``Session`` enumeration — cold, warm and after a mutation — against the
  reference semantics of :func:`repro.evaluation.naive.evaluate_pattern` on
  random wdPTs, with two runs yielding the same order;
* ``Session`` membership — ``check_many``, ``check_iter`` and ``check``
  under every method, cold, warm and after a mutation — against membership
  in that reference answer set: exact for ``naive``, ``natural``, ``auto``
  and ``pebble`` at the pattern's domination width, and never accepting a
  non-member with one pebble fewer than needed;
* ``Session`` membership where the pebble game is incomplete: ``Q_k``
  (domination width ``k − 1``) over clique-encoding graphs, exact at the
  domination width and never accepting a non-member below it, on instances
  where the smaller widths do reject a member;
* the ``QueryService`` — in process, cold, warm and after two ``update``
  requests, and over the socket — against the same reference answers.
"""

import itertools
import random
import sys
import threading

import networkx as nx
import pytest

import repro.hom.homomorphism as homomorphism_module

from repro.evaluation import Engine, Session
from repro.evaluation.naive import evaluate_pattern
from repro.hom import TGraph, all_homomorphisms, find_homomorphism, target_index
from repro.patterns import WDPatternForest
from repro.rdf import RDFGraph, Triple, TriplePattern
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import IRI, Variable, term_sort_key
from repro.service import QueryService, Request, ServiceClient, ServiceServer
from repro.service.protocol import mapping_to_wire
from repro.sparql import Mapping, parse_pattern, to_text
from repro.workloads.clique_instances import random_host_graph
from repro.workloads.families import (
    clique_query_data_graph,
    hard_clique_pattern,
    hard_clique_tree,
)
from repro.workloads.random_patterns import random_wd_pattern

NODES = [EX.term(f"n{i}") for i in range(4)]
PREDS = [EX.term("p"), EX.term("q")]
VARS = [Variable(name) for name in ("a", "b", "c")]
#: Sources use this one in predicate position only, where nodes never occur.
PRED_VAR = Variable("r")
#: Variables that t-graph targets hold; ``?a`` is shared with the sources,
#: as in ``(S, X) → (S', X)`` where distinguished variables map to themselves.
TARGET_VARS = [Variable("u"), Variable("w"), VARS[0]]
ABSENT = EX.term("never-interned")


def brute_force(source, target_triples, fixed):
    """Every homomorphism, by trying each assignment of the free variables."""
    variables = sorted({v for t in source for v in t.variables()}, key=lambda v: v.name)
    pinned = {v: fixed[v] for v in variables if v in fixed}
    free = [v for v in variables if v not in fixed]
    domain = sorted({term for t in target_triples for term in t}, key=term_sort_key)
    found = set()
    for values in itertools.product(domain, repeat=len(free)):
        hom = {**pinned, **dict(zip(free, values))}
        if all(t.substitute(hom) in target_triples for t in source):
            found.add(frozenset(hom.items()))
    return found


def random_instance(rng, tgraph_target):
    """A (source, target, target triples, fixed) instance."""
    ground = NODES + ([] if not tgraph_target else TARGET_VARS)
    triples = {
        TriplePattern(rng.choice(ground), rng.choice(PREDS), rng.choice(ground))
        for _ in range(rng.randint(8, 20))
    }
    target = TGraph(triples) if tgraph_target else RDFGraph(triples)
    source = []
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4))):
        subject = rng.choice(VARS * 2 + NODES[:2])
        predicate = rng.choice(PREDS * 2 + [PRED_VAR] + ([ABSENT] if rng.random() < 0.1 else []))
        obj = rng.choice(VARS * 2 + NODES[:2])
        source.append(TriplePattern(subject, predicate, obj))
    images = sorted({term for t in triples for term in t}, key=term_sort_key)
    images += [ABSENT, Variable("zz")]
    fixed = {
        var: rng.choice(images)
        for var in VARS + [PRED_VAR, Variable("outside")]
        if rng.random() < 0.25
    }
    return source, target, frozenset(triples), fixed


def as_set(homomorphisms):
    return {frozenset(hom.items()) for hom in homomorphisms}


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize("tgraph_target", [False, True], ids=["rdf-graph", "t-graph"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed, tgraph_target):
        rng = random.Random(seed * 2 + tgraph_target)
        for _ in range(40):
            source, target, target_triples, fixed = random_instance(rng, tgraph_target)
            expected = brute_force(source, target_triples, fixed)
            found = list(all_homomorphisms(source, target, fixed))
            assert len(found) == len(as_set(found)), "a homomorphism was yielded twice"
            assert as_set(found) == expected, (source, sorted(target_triples), fixed)
            indexed = all_homomorphisms(source, target, fixed, index=target_index(target))
            assert as_set(indexed) == expected
            one = find_homomorphism(source, target, fixed)
            if expected:
                assert one is not None and frozenset(one.items()) in expected
            else:
                assert one is None

    def test_empty_source_has_exactly_the_empty_homomorphism(self):
        graph = RDFGraph([Triple(NODES[0], PREDS[0], NODES[1])])
        fixed = {Variable("outside"): ABSENT}
        assert list(all_homomorphisms([], graph, fixed)) == [{}]
        assert list(all_homomorphisms(TGraph(), TGraph(), fixed)) == [{}]

    @pytest.mark.parametrize(
        "image", [ABSENT, Variable("zz"), Variable("u")], ids=["iri", "variable", "target-variable"]
    )
    def test_fixed_images_the_target_never_interned(self, image):
        source = [TriplePattern(VARS[0], PREDS[0], VARS[1])]
        graph = RDFGraph([Triple(NODES[0], PREDS[0], NODES[1])])
        assert list(all_homomorphisms(source, graph, {VARS[0]: image})) == []
        tgraph = TGraph([TriplePattern(Variable("u"), PREDS[0], NODES[1])])
        expected = brute_force(source, tgraph.triples(), {VARS[0]: image})
        assert as_set(all_homomorphisms(source, tgraph, {VARS[0]: image})) == expected
        assert bool(expected) == (image == Variable("u"))

    def test_repeated_variables_need_equal_images(self):
        loop = [TriplePattern(VARS[0], PREDS[0], VARS[0])]
        graph = RDFGraph(
            [Triple(NODES[0], PREDS[0], NODES[1]), Triple(NODES[2], PREDS[0], NODES[2])]
        )
        assert list(all_homomorphisms(loop, graph)) == [{VARS[0]: NODES[2]}]
        triangle = [
            TriplePattern(VARS[0], VARS[1], VARS[0]),
            TriplePattern(VARS[0], PREDS[0], VARS[2]),
        ]
        assert as_set(all_homomorphisms(triangle, graph)) == brute_force(
            triangle, graph.triples(), {}
        )


class TestSharedIndex:
    def test_threads_searching_one_index_agree_with_a_serial_search(self, monkeypatch):
        """The service shares one index between worker threads; its id-lookup
        memos fill, and here clear, while other threads read them."""
        monkeypatch.setattr(homomorphism_module, "_MEMO_LIMIT", 8)
        graph = random_graph(12, 90, predicates=("p", "q"), seed=5)
        x, y, z = (Variable(name) for name in "xyz")
        p, q = PREDS
        sources = [
            [TriplePattern(x, p, y), TriplePattern(y, q, z)],
            [TriplePattern(x, p, y), TriplePattern(y, p, z), TriplePattern(z, p, x)],
            [TriplePattern(x, p, y), TriplePattern(x, q, z), TriplePattern(z, q, z)],
        ]
        expected = [as_set(all_homomorphisms(source, graph)) for source in sources]
        index = target_index(graph)
        mismatches = []

        def worker(offset):
            for round_ in range(30):
                k = (offset + round_) % len(sources)
                if as_set(all_homomorphisms(sources[k], graph, index=index)) != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


def mutate(graph, rng):
    graph.add_all(
        Triple(rng.choice(NODES + [EX.term("n9")]), rng.choice(PREDS), rng.choice(NODES))
        for _ in range(4)
    )
    for triple in rng.sample(sorted(graph.triples()), 3):
        graph.discard(triple)


def membership_candidates(answers, rng):
    """Up to 6 members of *answers*, each with one binding replaced by an IRI
    the graph lacks and with one binding dropped, the empty mapping, and 3
    repeats."""
    members = sorted(answers, key=repr)[:6]
    mappings = list(members)
    for mu in members:
        bindings = mu.as_dict()
        if not bindings:
            continue
        variable = rng.choice(sorted(bindings, key=lambda v: v.name))
        mappings.append(Mapping({**bindings, variable: ABSENT}))
        mappings.append(Mapping({v: t for v, t in bindings.items() if v != variable}))
    mappings.append(Mapping.EMPTY)
    return mappings + mappings[:3]


def seeded_case(seed):
    """The seeded (rng, graph, pattern) instance of the oracle classes below."""
    rng = random.Random(seed)
    graph = random_graph(6, 24, predicates=("p", "q"), seed=seed)
    pattern = random_wd_pattern(
        num_nodes=rng.randint(1, 4), seed=seed, predicates=tuple(p.value for p in PREDS)
    )
    return rng, graph, pattern


class TestSessionAgainstNaive:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_warm_and_mutated_enumeration(self, seed):
        rng, graph, pattern = seeded_case(seed)
        session = Session()
        cold = list(session.solutions_stream(pattern, graph))
        assert len(cold) == len(set(cold))
        assert set(cold) == evaluate_pattern(pattern, graph)
        assert list(session.solutions_stream(pattern, graph)) == cold
        assert list(Session().solutions_stream(pattern, graph)) == cold
        assert session.solutions(pattern, graph) == set(cold)

        mutate(graph, rng)
        after = list(session.solutions_stream(pattern, graph))
        assert set(after) == evaluate_pattern(pattern, graph)
        assert list(Session().solutions_stream(pattern, graph)) == after
        assert session.solutions(pattern, graph) == set(after)

    @pytest.mark.parametrize("seed", range(10))
    def test_membership_batches_match_naive(self, seed):
        rng, graph, pattern = seeded_case(seed)
        width = max(1, Engine(pattern).domination_width())
        session = Session()

        def check_every_path(mappings):
            answers = evaluate_pattern(pattern, graph)
            expected = [mu in answers for mu in mappings]
            for method, bound in [("naive", None), ("natural", None), ("auto", None), ("pebble", width)]:
                kwargs = {"method": method, "width": bound}
                assert session.check_many(pattern, graph, mappings, **kwargs) == expected
                assert list(session.check_iter(pattern, graph, mappings, **kwargs)) == expected
                assert [session.check(pattern, graph, mu, **kwargs) for mu in mappings] == expected
            relaxed = session.check_many(pattern, graph, mappings, method="pebble", width=1)
            assert not any(accepted and not member for accepted, member in zip(relaxed, expected))

        mappings = membership_candidates(evaluate_pattern(pattern, graph), rng)
        check_every_path(mappings)  # cold
        check_every_path(mappings)  # warm
        mutate(graph, rng)
        check_every_path(mappings + membership_candidates(evaluate_pattern(pattern, graph), rng))


#: The root match of ``Q_k`` in ``clique_query_data_graph``: the anchor's
#: ``p``-edge into host node 0.
ANCHOR_MAPPING = Mapping({Variable("x"): EX.term("anchor"), Variable("y"): EX.term("v0")})


class TestWidthGap:
    """Pebble where it is incomplete.  ``Q_k`` has domination width
    ``dw = k − 1``, and the anchor mapping is a member iff no k-clique of the
    host extends it.  At ``dw`` the game must equal natural; below ``dw`` it
    may reject a member but must never accept a non-member."""

    @staticmethod
    def verdicts(k, host):
        """(membership, pebble verdicts at widths 1..dw) of the anchor mapping."""
        forest = WDPatternForest([hard_clique_tree(k)])
        graph = clique_query_data_graph(host)
        dw = Engine(forest=forest).domination_width()
        assert dw == k - 1
        session = Session()
        member = ANCHOR_MAPPING in evaluate_pattern(hard_clique_pattern(k), graph)
        assert session.check(forest, graph, ANCHOR_MAPPING, method="natural") == member
        pebble = [
            session.check(forest, graph, ANCHOR_MAPPING, method="pebble", width=width)
            for width in range(1, dw + 1)
        ]
        assert pebble[-1] == member
        assert member or not any(pebble)
        return member, pebble

    @pytest.mark.parametrize(
        "k, host, expected",
        [
            (3, nx.cycle_graph(5), (True, [False, True])),
            (4, nx.turan_graph(6, 3), (True, [False, True, True])),
            (3, nx.complete_graph(3), (False, [False, False])),
            (4, nx.complete_graph(4), (False, [False, False, False])),
        ],
        ids=["Q3-C5", "Q4-T(6,3)", "Q3-K3", "Q4-K4"],
    )
    def test_measured_gaps(self, k, host, expected):
        """Members that the smaller widths reject, so the soundness check
        below ``dw`` cannot pass vacuously, and non-members at every width."""
        assert self.verdicts(k, host) == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [3, 4])
    def test_random_hosts(self, seed, k):
        self.verdicts(k, random_host_graph(7, 0.6, seed=seed))


class TestServiceAgainstNaive:
    @pytest.mark.parametrize("seed", range(10))
    def test_service_matches_naive(self, seed):
        rng, graph, pattern = seeded_case(seed)
        query = to_text(pattern)
        width = max(1, Engine(pattern).domination_width())
        with QueryService(graph) as service:

            def check_every_path(mappings):
                response = service.request(Request(op="solutions", query=query))
                answers = evaluate_pattern(pattern, graph)
                assert response.raise_for_error().result == answers
                expected = [mu in answers for mu in mappings]
                for method, bound in [("naive", None), ("natural", None), ("auto", None), ("pebble", width)]:
                    assert service.check(query, mappings, method=method, width=bound) == expected
                return response.graph_version

            mappings = membership_candidates(evaluate_pattern(pattern, graph), rng)
            check_every_path(mappings)  # cold
            before = check_every_path(mappings)  # warm
            mutated = graph.copy()
            mutate(mutated, rng)
            service.update(add=sorted(set(mutated.triples()) - set(graph.triples())))
            service.update(remove=sorted(set(graph.triples()) - set(mutated.triples())))
            assert set(graph.triples()) == set(mutated.triples())
            after = check_every_path(
                mappings + membership_candidates(evaluate_pattern(pattern, graph), rng)
            )
            assert after != before

    def test_socket_matches_naive(self):
        rng, graph, pattern = seeded_case(0)
        query = to_text(pattern)
        width = max(1, Engine(pattern).domination_width())
        answers = evaluate_pattern(pattern, graph)
        mappings = membership_candidates(answers, rng)
        expected = [mu in answers for mu in mappings]
        with QueryService(graph) as service:
            server = ServiceServer(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with ServiceClient(*server.address) as client:
                    wire = client.solutions(query)
                    assert len(wire) == len(answers)
                    assert {frozenset(row.items()) for row in wire} == {
                        frozenset(mapping_to_wire(mu).items()) for mu in answers
                    }
                    bindings = [mapping_to_wire(mu) for mu in mappings]
                    for method, bound in [
                        ("naive", None), ("natural", None), ("auto", None), ("pebble", width)
                    ]:
                        verdicts = client.check(query, bindings, method=method, width=bound)
                        assert verdicts == expected
            finally:
                server.shutdown()
                thread.join(timeout=5.0)

    def test_socket_reads_updated_iris_that_need_escapes(self):
        """IRIs holding a space or ``>`` arrive through ``update`` as bare
        wire values, and the query names them as ``<a\\u0020b>``."""
        spaced, angled = IRI("a b"), IRI("c>d")
        added = [Triple.of("s", "p", spaced.value), Triple.of(spaced.value, "q", angled.value)]
        graph = RDFGraph([Triple.of("s", "p", "o")])
        x, z = Variable("x"), Variable("z")
        pattern = parse_pattern("((?x p <a\\u0020b>) OPT (<a\\u0020b> q ?z))")
        assert to_text(pattern) == "((?x p <a\\u0020b>) OPT (<a\\u0020b> q ?z))"
        mappings = [
            Mapping({x: IRI("s"), z: angled}),
            Mapping({x: IRI("s")}),
            Mapping({x: IRI("o"), z: angled}),
            Mapping({x: IRI("s"), z: spaced}),
        ]
        expected_graph = RDFGraph(graph.triples() | set(added))
        answers = evaluate_pattern(pattern, expected_graph)
        expected = [mu in answers for mu in mappings]
        assert expected == [True, False, False, False]
        with QueryService(graph) as service:
            server = ServiceServer(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with ServiceClient(*server.address) as client:
                    client.update(add=[[term.value for term in t] for t in added])
                    bindings = [mapping_to_wire(mu) for mu in mappings]
                    for method in ("naive", "natural", "auto"):
                        verdicts = client.check(to_text(pattern), bindings, method=method)
                        assert verdicts == expected
            finally:
                server.shutdown()
                thread.join(timeout=5.0)
