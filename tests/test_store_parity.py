"""Differential parity: the columnar ``RDFGraph`` vs the retained oracle.

The columnar store (:mod:`repro.rdf.graph`) replaced the hash-indexed graph
wholesale; the old implementation is retained verbatim as
:class:`~repro.rdf.reference.ReferenceRDFGraph`.  This suite drives both
stores through the same seeded-random graphs and mutation sequences and
asserts they agree on *everything* observable: triple sets, ``version``
trajectories, ``domain()`` / ``sorted_domain()``, pattern matching,
:class:`~repro.hom.homomorphism.TargetIndex` answers, and homomorphism
answer sets — including under forced key-width widening.
"""

import pickle
import random

import pytest

import repro.rdf.columns as columns_mod
import repro.rdf.graph as graph_mod
from repro.hom.homomorphism import (
    ColumnarTargetIndex,
    TargetIndex,
    all_homomorphisms,
    target_index,
)
from repro.rdf import RDFGraph, ReferenceRDFGraph, Triple, TriplePattern
from repro.rdf.namespace import EX
from repro.rdf.terms import Variable


NODES = [EX.term(f"n{i}") for i in range(14)]
PREDS = [EX.term(p) for p in ("p", "q", "r")]
VARS = [Variable(name) for name in ("x", "y", "z")]


def random_triple(rng):
    return Triple(rng.choice(NODES), rng.choice(PREDS), rng.choice(NODES))


def random_pattern(rng):
    """A pattern mixing ground positions and (often repeated) variables."""
    terms = []
    for pool in (NODES, PREDS, NODES):
        if rng.random() < 0.5:
            terms.append(rng.choice(pool))
        else:
            terms.append(rng.choice(VARS))
    return TriplePattern(*terms)


def canon(bindings):
    """Order-insensitive canonical form of an iterable of binding dicts."""
    return sorted(sorted((str(k), str(v)) for k, v in b.items()) for b in bindings)


def assert_stores_agree(columnar, reference):
    assert len(columnar) == len(reference)
    assert columnar.version == reference.version
    assert columnar.triples() == reference.triples()
    assert frozenset(columnar) == reference.triples()
    assert columnar.domain() == reference.domain()
    assert columnar.sorted_domain() == reference.sorted_domain()
    assert columnar.subjects() == reference.subjects()
    assert columnar.predicates() == reference.predicates()
    assert columnar.objects() == reference.objects()


def run_mutation_sequence(rng, columnar, reference, steps):
    """Apply the same random mutations to both stores, checking as we go."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40:
            t = random_triple(rng)
            columnar.add(t)
            reference.add(t)
        elif roll < 0.60:
            batch = [random_triple(rng) for _ in range(rng.randint(0, 12))]
            columnar.add_all(batch)
            reference.add_all(batch)
        elif roll < 0.80:
            if len(columnar) and rng.random() < 0.7:
                t = rng.choice(sorted(columnar.triples(), key=str))
            else:
                t = random_triple(rng)  # often absent: discard must no-op
            columnar.discard(t)
            reference.discard(t)
        else:
            pat = random_pattern(rng)
            assert frozenset(columnar.matches(pat)) == frozenset(reference.matches(pat))
            assert canon(columnar.solutions(pat)) == canon(reference.solutions(pat))
        assert columnar.version == reference.version
        assert len(columnar) == len(reference)
    assert_stores_agree(columnar, reference)


class TestMutationSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_stores_stay_in_parity(self, seed):
        rng = random.Random(seed)
        run_mutation_sequence(rng, RDFGraph(), ReferenceRDFGraph(), steps=60)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_bulk_loaded_stores_stay_in_parity(self, seed):
        rng = random.Random(seed)
        triples = [random_triple(rng) for _ in range(150)]
        columnar = RDFGraph.from_triples(triples)
        reference = ReferenceRDFGraph.from_triples(triples)
        assert_stores_agree(columnar, reference)
        run_mutation_sequence(rng, columnar, reference, steps=40)

    def test_copies_are_independent_and_in_parity(self):
        rng = random.Random(42)
        columnar = RDFGraph([random_triple(rng) for _ in range(40)])
        snapshot = columnar.copy()
        before = columnar.triples()
        columnar.add_all([random_triple(rng) for _ in range(20)])
        assert snapshot.triples() == before

    def test_pickle_roundtrip_preserves_triples_and_version(self):
        rng = random.Random(5)
        columnar = RDFGraph([random_triple(rng) for _ in range(60)])
        columnar.add(Triple(EX.term("extra"), PREDS[0], EX.term("extra")))
        clone = pickle.loads(pickle.dumps(columnar))
        assert clone == columnar
        assert clone.version == columnar.version
        assert clone.sorted_domain() == columnar.sorted_domain()


class TestWidening:
    """The same sequences with the packed key width forced tiny, so the
    store widens (and crosses the array -> int-list promotion) mid-run."""

    @pytest.mark.parametrize("seed", range(4))
    def test_widening_preserves_parity(self, seed, monkeypatch):
        monkeypatch.setattr(graph_mod, "_INITIAL_BITS", 2)
        monkeypatch.setattr(columns_mod, "ARRAY_BITS_LIMIT", 2)
        rng = random.Random(seed)
        columnar = RDFGraph()
        run_mutation_sequence(rng, columnar, ReferenceRDFGraph(), steps=60)
        assert columnar._bits > 2, "the sequence never widened the store"

    def test_bulk_load_widens_once_up_front(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "_INITIAL_BITS", 2)
        rng = random.Random(9)
        triples = [random_triple(rng) for _ in range(100)]
        columnar = RDFGraph.from_triples(triples)
        reference = ReferenceRDFGraph.from_triples(triples)
        assert_stores_agree(columnar, reference)
        assert columnar.version == 1

    def test_index_snapshot_survives_widening(self, monkeypatch):
        """An index built pre-widening keeps answering with old-width keys."""
        monkeypatch.setattr(graph_mod, "_INITIAL_BITS", 4)
        rng = random.Random(11)
        columnar = RDFGraph([random_triple(rng) for _ in range(30)])
        index = target_index(columnar)
        frozen = columnar.triples()
        # Force a widening: intern more distinct terms than 2**4.
        columnar.add_all(
            [Triple(EX.term(f"wide{i}"), PREDS[0], EX.term(f"wide{i}")) for i in range(40)]
        )
        assert index.triples == frozen
        for s in (NODES[0], NODES[1]):
            assert frozenset(index.candidates(s, None, None)) == frozenset(
                t for t in frozen if t.subject == s
            )


class TestTargetIndexParity:
    """An index over a graph (a copy of its runs, its shared dictionary)
    against one built from the reference store's triple set (a private
    dictionary and freshly sorted runs)."""

    def _indexes(self, seed, triples=120):
        rng = random.Random(seed)
        ts = [random_triple(rng) for _ in range(triples)]
        columnar = RDFGraph.from_triples(ts)
        reference = ReferenceRDFGraph.from_triples(ts)
        columnar_index = target_index(columnar)
        assert isinstance(columnar_index, ColumnarTargetIndex)
        set_index = TargetIndex(reference.triples())
        return rng, columnar, columnar_index, set_index

    @pytest.mark.parametrize("seed", range(4))
    def test_candidates_agree_on_every_mask(self, seed):
        rng, _, columnar_index, set_index = self._indexes(seed)
        assert columnar_index.triples == set_index.triples
        assert columnar_index.terms == set_index.terms
        s, p, o = NODES[0], PREDS[0], NODES[1]
        absent = EX.term("never-interned")
        masks = [
            (None, None, None),
            (s, None, None),
            (None, p, None),
            (None, None, o),
            (s, p, None),
            (s, None, o),
            (None, p, o),
            (s, p, o),
            (absent, None, None),
            (None, absent, None),
            (s, p, absent),
        ]
        for mask in masks:
            assert frozenset(columnar_index.candidates(*mask)) == frozenset(
                set_index.candidates(*mask)
            ), mask

    @pytest.mark.parametrize("seed", range(4))
    def test_pattern_solutions_agree(self, seed):
        rng, _, columnar_index, set_index = self._indexes(seed)
        x, y = VARS[0], VARS[1]
        fixed_variants = [
            None,
            {},
            {x: NODES[0]},
            {x: NODES[0], y: NODES[1]},
            {x: EX.term("never-interned")},
            {x: Variable("unresolved")},  # non-ground fixed image: no matches
        ]
        for _ in range(12):
            pat = random_pattern(rng)
            for fixed in fixed_variants:
                assert canon(columnar_index.pattern_solutions(pat, fixed)) == canon(
                    set_index.pattern_solutions(pat, fixed)
                ), (pat, fixed)

    @pytest.mark.parametrize("seed", range(3))
    def test_index_is_a_frozen_snapshot(self, seed):
        rng, columnar, columnar_index, _ = self._indexes(seed)
        frozen = columnar_index.triples
        columnar.add(Triple(EX.term("post"), PREDS[0], EX.term("post")))
        columnar.discard(next(iter(frozen)))
        assert columnar_index.triples == frozen
        assert columnar.triples() != frozen


class TestHomomorphismParity:
    SOURCES = [
        # path of length 2
        [TriplePattern(VARS[0], PREDS[0], VARS[1]), TriplePattern(VARS[1], PREDS[1], VARS[2])],
        # triangle with a repeated variable
        [
            TriplePattern(VARS[0], PREDS[0], VARS[1]),
            TriplePattern(VARS[1], PREDS[0], VARS[2]),
            TriplePattern(VARS[2], PREDS[0], VARS[0]),
        ],
        # self loop
        [TriplePattern(VARS[0], PREDS[2], VARS[0])],
    ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("source_id", range(len(SOURCES)))
    def test_answer_sets_agree(self, seed, source_id):
        rng = random.Random(seed)
        ts = [random_triple(rng) for _ in range(80)]
        columnar = RDFGraph.from_triples(ts)
        reference = ReferenceRDFGraph.from_triples(ts)
        source = self.SOURCES[source_id]
        assert canon(all_homomorphisms(source, columnar)) == canon(
            all_homomorphisms(source, reference.triples())
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_answer_sets_agree_with_fixed_bindings(self, seed):
        rng = random.Random(seed)
        ts = [random_triple(rng) for _ in range(80)]
        columnar = RDFGraph.from_triples(ts)
        reference = ReferenceRDFGraph.from_triples(ts)
        source = self.SOURCES[0]
        fixed = {VARS[0]: NODES[0]}
        assert canon(all_homomorphisms(source, columnar, fixed)) == canon(
            all_homomorphisms(source, reference.triples(), fixed)
        )
