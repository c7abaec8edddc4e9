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
  random wdPTs, with two runs yielding the same order.
"""

import itertools
import random
import sys
import threading

import pytest

import repro.hom.homomorphism as homomorphism_module

from repro.evaluation import Session
from repro.evaluation.naive import evaluate_pattern
from repro.hom import TGraph, all_homomorphisms, find_homomorphism, target_index
from repro.rdf import RDFGraph, Triple, TriplePattern
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.rdf.terms import Variable, term_sort_key
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


class TestSessionAgainstNaive:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_warm_and_mutated_enumeration(self, seed):
        rng = random.Random(seed)
        graph = random_graph(6, 24, predicates=("p", "q"), seed=seed)
        pattern = random_wd_pattern(
            num_nodes=rng.randint(1, 4), seed=seed, predicates=tuple(p.value for p in PREDS)
        )
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
