"""Unit tests for the tractability classification API."""

from repro.patterns import WDPatternForest
from repro.sparql import parse_pattern
from repro.width import classify_family, classify_forest, classify_pattern
from repro.workloads.families import fk_forest, fk_pattern, hard_clique_tree, tprime_tree


class TestClassifyPattern:
    def test_simple_pattern(self):
        report = classify_pattern(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        assert report.domination_width == 1
        assert report.branch_treewidth == 1
        assert report.local_width == 1
        assert report.recommended_pebble_width == 1
        assert "dw=1" in report.summary()

    def test_union_pattern_has_no_branch_treewidth(self):
        report = classify_pattern(fk_pattern(3))
        assert report.domination_width == 1
        assert report.branch_treewidth is None
        assert report.local_width == 2
        assert "bw" not in report.summary()

    def test_classify_forest_single_tree(self):
        report = classify_forest(WDPatternForest([tprime_tree(4)]))
        assert report.branch_treewidth == 1
        assert report.domination_width == 1
        assert report.local_width == 3


class TestClassifyFamily:
    def test_bounded_family(self):
        classification = classify_family(fk_forest, parameters=(2, 3, 4))
        assert classification.bounded
        assert classification.width_bound == 1
        assert "PTIME" in classification.table()

    def test_unbounded_family(self):
        classification = classify_family(hard_clique_tree, parameters=(2, 3, 4))
        assert not classification.bounded
        assert classification.width_bound is None
        assert "W[1]" in classification.table()

    def test_family_of_patterns(self):
        classification = classify_family(fk_pattern, parameters=(2, 3))
        assert classification.bounded

    def test_table_contains_every_parameter(self):
        classification = classify_family(tprime_tree, parameters=(2, 3))
        table = classification.table()
        assert "  2 " in table and "  3 " in table
