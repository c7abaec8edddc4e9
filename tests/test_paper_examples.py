"""End-to-end tests of the paper's worked examples and headline claims.

These tests tie the subsystems together exactly the way the paper does:
Figure 1 (Example 3), Figure 2/3 (Examples 4-5), the Section 3.2 family, the
local-tractability gap, Proposition 5 and the Theorem 3 dichotomy on the
implemented families.
"""

import pytest

from repro.evaluation import Engine
from repro.hom import ctw, tw, is_core, maps_to
from repro.patterns import WDPatternForest
from repro.width import (
    branch_treewidth,
    domination_width,
    local_width,
    local_width_of_forest,
)
from repro.workloads.families import (
    example3_gtgraphs,
    fk_data_graph,
    fk_forest,
    fk_pattern,
    hard_clique_tree,
    tprime_data_graph,
    tprime_pattern,
    tprime_tree,
)


class TestExample3Figure1:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_ctw_of_s_is_k_minus_one(self, k):
        s, _ = example3_gtgraphs(k)
        assert is_core(s)
        assert ctw(s) == k - 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_s_prime_core_collapses(self, k):
        _, s_prime = example3_gtgraphs(k)
        assert ctw(s_prime) == 1
        assert tw(s_prime) == k - 1


class TestExamples4And5Figure2:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_domination_width_is_one(self, k):
        assert domination_width(fk_forest(k)) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_not_locally_tractable(self, k):
        assert local_width_of_forest(fk_forest(k)) == k - 1

    def test_figure3_domination_structure(self):
        """S_Δ1 → S_Δ2 (the width-1 member dominates the width-(k-1) member)."""
        from repro.patterns.gtg import gtg

        forest = fk_forest(4)
        members = sorted(gtg(forest, forest[0].root_subtree()), key=ctw)
        assert [ctw(m) for m in members] == [1, 3]
        assert maps_to(members[0], members[1])
        assert not maps_to(members[1], members[0])


class TestSection32Family:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_branch_treewidth_one_but_not_locally_tractable(self, k):
        tree = tprime_tree(k)
        assert branch_treewidth(tree) == 1
        assert local_width(tree) == k - 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_evaluation_is_exact_with_two_pebbles(self, k):
        engine = Engine(tprime_pattern(k), width_bound=1)
        graph = tprime_data_graph(8, 25, seed=k)
        for mu in sorted(engine.solutions(graph, method="naive"), key=repr)[:4]:
            answers = engine.contains_all_methods(graph, mu)
            assert all(answers.values())


class TestTheorem3Dichotomy:
    """The implemented families land on the two sides of the frontier."""

    def test_bounded_side(self):
        for k in (2, 3, 4):
            assert domination_width(fk_forest(k)) == 1
            assert branch_treewidth(tprime_tree(k)) == 1

    def test_unbounded_side(self):
        widths = [branch_treewidth(hard_clique_tree(k)) for k in (2, 3, 4, 5)]
        assert widths == [1, 2, 3, 4]

    @pytest.mark.parametrize("k", [2, 3])
    def test_pebble_engine_agrees_with_reference_on_fk(self, k):
        pattern = fk_pattern(k)
        engine = Engine(pattern, width_bound=1)
        graph = fk_data_graph(6, 36, clique_size=k, seed=k)
        reference = engine.solutions(graph, method="naive")
        for mu in sorted(reference, key=repr)[:5]:
            assert engine.contains(graph, mu, method="pebble")


class TestLocalTractabilityGap:
    """Bounded domination width strictly extends local tractability."""

    def test_fk_gap(self):
        forest = fk_forest(5)
        assert domination_width(forest) == 1
        assert local_width_of_forest(forest) == 4

    def test_tprime_gap(self):
        tree = tprime_tree(5)
        assert branch_treewidth(tree) == 1
        assert local_width(tree) == 4

    def test_local_bound_still_implies_domination_bound(self):
        from repro.workloads.families import chain_tree

        tree = chain_tree(4)
        assert local_width(tree) == 1
        assert domination_width(WDPatternForest([tree])) == 1
