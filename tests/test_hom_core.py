"""Unit tests for core computation of generalised t-graphs."""

from repro.hom import GeneralizedTGraph, core_of, hom_equivalent, is_core, is_core_of, maps_to
from repro.workloads.families import example3_gtgraphs, kk_tgraph


class TestCoreBasics:
    def test_redundant_branch_is_folded(self):
        g = GeneralizedTGraph.of([("?x", "p", "?y"), ("?x", "p", "?z")], ["x"])
        core = core_of(g)
        assert len(core.triples()) == 1
        assert is_core(core)

    def test_distinguished_variables_block_folding(self):
        g = GeneralizedTGraph.of([("?x", "p", "?y"), ("?x", "p", "?z")], ["x", "y", "z"])
        assert core_of(g) == g

    def test_core_is_subgraph_and_equivalent(self):
        g = GeneralizedTGraph.of(
            [("?x", "p", "?y"), ("?y", "q", "?z"), ("?x", "p", "?w"), ("?w", "q", "?u")],
            ["x"],
        )
        core = core_of(g)
        assert core.tgraph.issubset(g.tgraph)
        assert is_core_of(core, g)
        assert hom_equivalent(core, g)

    def test_clique_is_its_own_core(self):
        clique = GeneralizedTGraph.of(kk_tgraph(4), [])
        assert core_of(clique) == clique
        assert is_core(clique)

    def test_clique_with_self_loop_collapses(self):
        # K3 plus a self loop over the same predicate: everything folds onto the loop.
        from repro.workloads.families import R_PRED

        triples = kk_tgraph(3) + [("?loop", R_PRED, "?loop")]
        g = GeneralizedTGraph.of(triples, [])
        core = core_of(g)
        assert len(core.triples()) == 1  # everything folds onto the loop

    def test_ground_tgraph_is_a_core(self):
        g = GeneralizedTGraph.of([("a", "p", "b")], [])
        assert core_of(g) == g


class TestExample3:
    """Example 3 of the paper: (S, X) is a core, (S', X) collapses to C'."""

    def test_s_is_a_core(self):
        s, _ = example3_gtgraphs(3)
        assert is_core(s)
        assert core_of(s) == s

    def test_s_prime_core_has_four_triples(self):
        _, s_prime = example3_gtgraphs(3)
        core = core_of(s_prime)
        # C' = {(?z,q,?x), (?x,p,?y), (?y,r,?o), (?o,r,?o)}
        assert len(core.triples()) == 4
        existential = core.variables() - core.distinguished
        assert len(existential) == 1  # only the self-loop variable remains

    def test_s_prime_maps_to_its_core_and_back(self):
        _, s_prime = example3_gtgraphs(3)
        core = core_of(s_prime)
        assert maps_to(s_prime, core)
        assert maps_to(core, s_prime)


class TestHomEquivalence:
    def test_equivalent_but_not_equal(self):
        a = GeneralizedTGraph.of([("?x", "p", "?y")], ["x"])
        b = GeneralizedTGraph.of([("?x", "p", "?y"), ("?x", "p", "?z")], ["x"])
        assert hom_equivalent(a, b)

    def test_not_equivalent_with_different_distinguished(self):
        a = GeneralizedTGraph.of([("?x", "p", "?y")], ["x"])
        b = GeneralizedTGraph.of([("?x", "p", "?y")], ["y"])
        assert not hom_equivalent(a, b)

    def test_not_equivalent_when_one_direction_fails(self):
        a = GeneralizedTGraph.of([("?x", "p", "?y")], [])
        b = GeneralizedTGraph.of([("?x", "q", "?y")], [])
        assert not hom_equivalent(a, b)
