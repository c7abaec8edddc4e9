"""Unit tests for domination width (Definitions 1-2) and its helpers."""

import pytest

from repro.exceptions import WidthComputationError
from repro.hom import GeneralizedTGraph
from repro.patterns import WDPatternForest
from repro.sparql import parse_pattern
from repro.width import (
    domination_width,
    domination_width_of_pattern,
    has_domination_width_at_most,
    is_dominating_set,
    is_k_dominated,
    minimum_domination_level,
)
from repro.workloads.families import (
    chain_tree,
    fk_forest,
    fk_pattern,
    hard_clique_tree,
    kk_tgraph,
    tprime_tree,
)


def clique_gtgraph(k, distinguished=()):
    return GeneralizedTGraph.of(kk_tgraph(k), distinguished)


class TestDominatingSets:
    def test_empty_collection_is_dominated(self):
        assert is_dominating_set([], [])
        assert is_k_dominated([], 1)
        assert minimum_domination_level([]) == 1

    def test_self_domination(self):
        member = clique_gtgraph(3)
        assert is_dominating_set([member], [member])

    def test_low_width_member_dominates_high_width_member(self):
        # K2 (a single edge) maps homomorphically into K4.
        low = clique_gtgraph(2)
        high = clique_gtgraph(4)
        assert is_dominating_set([low], [low, high])
        assert is_k_dominated([low, high], 1)
        assert minimum_domination_level([low, high]) == 1

    def test_high_width_member_not_dominated(self):
        # K4 alone: its only dominator is itself (ctw 3).
        high = clique_gtgraph(4)
        assert not is_k_dominated([high], 2)
        assert minimum_domination_level([high]) == 3


class TestDominationWidthOfFamilies:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fk_forest_has_domination_width_one(self, k):
        """Example 5: dw(F_k) = 1 for every k >= 2."""
        assert domination_width(fk_forest(k)) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_fk_pattern_domination_width(self, k):
        assert domination_width_of_pattern(fk_pattern(k)) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tprime_family_width_one(self, k):
        assert domination_width(WDPatternForest([tprime_tree(k)])) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hard_family_width_grows(self, k):
        assert domination_width(WDPatternForest([hard_clique_tree(k)])) == k - 1

    def test_chain_family_width_one(self):
        assert domination_width(WDPatternForest([chain_tree(3)])) == 1

    def test_single_triple_pattern(self):
        assert domination_width_of_pattern(parse_pattern("(?x p ?y)")) == 1

    def test_per_subtree_report(self):
        per_subtree = {}
        domination_width(fk_forest(2), per_subtree)
        assert per_subtree
        assert all(level >= 1 for level in per_subtree.values())

    def test_requires_nr_normal_form(self):
        from repro.patterns import build_wdpt

        tree = build_wdpt(
            parse_pattern("((?x p ?y) OPT (?y p ?x)) OPT (?x q ?z)"), normalize=False
        )
        with pytest.raises(WidthComputationError):
            domination_width(WDPatternForest([tree]))


class TestBoundedCheck:
    def test_has_domination_width_at_most(self):
        forest = fk_forest(3)
        assert has_domination_width_at_most(forest, 1)
        assert has_domination_width_at_most(forest, 2)
        assert not has_domination_width_at_most(forest, 0)

    def test_hard_family_not_low_width(self):
        forest = WDPatternForest([hard_clique_tree(4)])
        assert not has_domination_width_at_most(forest, 2)
        assert has_domination_width_at_most(forest, 3)
