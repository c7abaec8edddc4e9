"""Unit tests for the graph pattern -> wdPT/wdPF translation (the wdpf function)."""

import pytest

from repro.exceptions import NotWellDesignedError, PatternTreeError
from repro.patterns import build_wdpt, pattern_of_forest, pattern_of_tree, wdpf
from repro.rdf.terms import Variable
from repro.sparql import parse_pattern
from repro.sparql.algebra import Union
from repro.workloads.families import example1_patterns, example2_pattern, fk_pattern


class TestBuildWdpt:
    def test_single_triple(self):
        tree = build_wdpt(parse_pattern("(?x p ?y)"))
        assert tree.size() == 1
        assert len(tree.pat(tree.root)) == 1

    def test_and_merges_roots(self):
        tree = build_wdpt(parse_pattern("((?x p ?y) AND (?y q ?z))"))
        assert tree.size() == 1
        assert len(tree.pat(tree.root)) == 2

    def test_opt_creates_child(self):
        tree = build_wdpt(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        assert tree.size() == 2
        child = tree.children_of(tree.root)[0]
        assert tree.vars(child) == {Variable("y"), Variable("z")}

    def test_nested_opt_structure(self):
        p1, _ = example1_patterns()
        tree = build_wdpt(p1)
        assert tree.size() == 3
        assert len(tree.children_of(tree.root)) == 2

    def test_and_below_opt(self):
        tree = build_wdpt(parse_pattern("(?x p ?y) OPT ((?y q ?z) AND (?z q ?w))"))
        child = tree.children_of(tree.root)[0]
        assert len(tree.pat(child)) == 2

    def test_rejects_non_well_designed(self):
        _, p2 = example1_patterns()
        with pytest.raises(NotWellDesignedError):
            build_wdpt(p2)

    def test_rejects_union(self):
        with pytest.raises(NotWellDesignedError):
            build_wdpt(parse_pattern("(?x p ?y) UNION (?x q ?y)"))

    def test_result_is_nr_normal_form(self):
        pattern = parse_pattern("((?x p ?y) OPT (?y p ?x)) OPT (?x q ?z)")
        tree = build_wdpt(pattern)
        assert tree.is_nr_normal_form()

    def test_normalize_false_keeps_redundant_nodes(self):
        pattern = parse_pattern("((?x p ?y) OPT (?y p ?x)) OPT (?x q ?z)")
        tree = build_wdpt(pattern, normalize=False)
        assert not tree.is_nr_normal_form()
        assert tree.size() == 3


class TestWdpf:
    def test_union_free_gives_single_tree(self):
        forest = wdpf(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        assert len(forest) == 1

    def test_union_operands_become_trees(self):
        forest = wdpf(parse_pattern("((?x p ?y) OPT (?z q ?x)) UNION ((?x p ?y) AND (?y r ?w))"))
        assert len(forest) == 2
        assert forest[1].size() == 1

    def test_example2_produces_two_trees(self):
        forest = wdpf(example2_pattern(2))
        assert len(forest) == 2
        assert [tree.size() for tree in forest] == [3, 2]

    def test_fk_pattern_produces_figure2_forest(self):
        forest = wdpf(fk_pattern(3))
        assert len(forest) == 3
        assert [tree.size() for tree in forest] == [3, 2, 2]
        # T1's second child carries the K_k clique: 1 connector + 3 clique triples
        t1 = forest[0]
        child_sizes = sorted(len(t1.pat(c)) for c in t1.children_of(t1.root))
        assert child_sizes == [1, 4]

    def test_forest_is_nr_normal_form(self):
        assert wdpf(fk_pattern(2)).is_nr_normal_form()


class TestRoundTrip:
    def test_pattern_of_tree_round_trips_semantically(self):
        from repro.evaluation import evaluate_pattern
        from repro.rdf.generators import random_graph
        from repro.workloads.random_patterns import random_wd_tree

        for seed in range(5):
            tree = random_wd_tree(num_nodes=3, seed=seed)
            pattern = pattern_of_tree(tree)
            rebuilt = build_wdpt(pattern)
            graph = random_graph(4, 15, seed=seed)
            assert evaluate_pattern(pattern, graph) == evaluate_pattern(
                pattern_of_tree(rebuilt), graph
            )

    def test_pattern_of_forest_has_union(self):
        forest = wdpf(fk_pattern(2))
        pattern = pattern_of_forest(forest)
        assert isinstance(pattern, Union)

    def test_pattern_of_tree_rejects_empty_node(self):
        from repro.hom.tgraph import TGraph
        from repro.patterns.tree import WDPatternTree

        tree = WDPatternTree({0: TGraph()}, {}, check_connectivity=False)
        with pytest.raises(PatternTreeError):
            pattern_of_tree(tree)
