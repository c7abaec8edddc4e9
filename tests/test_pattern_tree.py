"""Unit tests for well-designed pattern trees and subtrees."""

import pickle
import sys
import threading

import pytest

from repro.exceptions import PatternTreeError
from repro.hom.tgraph import GeneralizedTGraph, TGraph
from repro.patterns import Subtree, WDPatternTree
from repro.rdf.terms import Variable
from repro.workloads.families import fk_forest


def simple_tree() -> WDPatternTree:
    """root {(?x,p,?y)} with children {(?y,q,?z)} and {(?x,r,?w)}; the first
    child has a grandchild {(?z,s,?u)}."""
    return WDPatternTree.from_node_specs(
        [
            (None, [("?x", "p", "?y")]),
            (0, [("?y", "q", "?z")]),
            (0, [("?x", "r", "?w")]),
            (1, [("?z", "s", "?u")]),
        ]
    )


class TestConstruction:
    def test_from_node_specs(self):
        tree = simple_tree()
        assert tree.size() == 4
        assert tree.root == 0
        assert tree.children_of(0) == (1, 2)
        assert tree.parent_of(3) == 1

    def test_rejects_orphan_nodes(self):
        with pytest.raises(PatternTreeError):
            WDPatternTree({0: TGraph.of(("?x", "p", "?y")), 1: TGraph.of(("?y", "q", "?z"))}, {})

    def test_rejects_missing_parent(self):
        with pytest.raises(PatternTreeError):
            WDPatternTree(
                {0: TGraph.of(("?x", "p", "?y")), 1: TGraph.of(("?y", "q", "?z"))}, {1: 7}
            )

    def test_rejects_root_with_parent(self):
        with pytest.raises(PatternTreeError):
            WDPatternTree(
                {0: TGraph.of(("?x", "p", "?y")), 1: TGraph.of(("?y", "q", "?z"))},
                {0: 1, 1: 0},
            )

    def test_rejects_disconnected_variable_occurrences(self):
        # ?z appears in both children but not in the root: condition (3) fails.
        with pytest.raises(PatternTreeError):
            WDPatternTree.from_node_specs(
                [
                    (None, [("?x", "p", "?y")]),
                    (0, [("?x", "q", "?z")]),
                    (0, [("?z", "r", "?y")]),
                ]
            )

    def test_connectivity_check_can_be_disabled(self):
        tree = WDPatternTree.from_node_specs(
            [
                (None, [("?x", "p", "?y")]),
                (0, [("?x", "q", "?z")]),
                (0, [("?z", "r", "?y")]),
            ],
            check_connectivity=False,
        )
        assert tree.size() == 3

    def test_only_first_spec_may_be_root(self):
        with pytest.raises(PatternTreeError):
            WDPatternTree.from_node_specs(
                [(None, [("?x", "p", "?y")]), (None, [("?y", "q", "?z")])]
            )

    def test_immutable(self):
        tree = simple_tree()
        with pytest.raises(AttributeError):
            tree._root = 5


class TestQueries:
    def test_pat_and_vars(self):
        tree = simple_tree()
        assert tree.vars(0) == {Variable("x"), Variable("y")}
        assert len(tree.pattern()) == 4
        assert tree.variables() == {Variable(v) for v in "xyzwu"}

    def test_branch(self):
        tree = simple_tree()
        assert tree.branch(0) == ()
        assert tree.branch(1) == (0,)
        assert tree.branch(3) == (0, 1)

    def test_depth(self):
        assert simple_tree().depth() == 2

    def test_pretty_contains_all_nodes(self):
        text = simple_tree().pretty()
        assert "[0]" in text and "[3]" in text


class TestNRNormalForm:
    def test_simple_tree_is_nr(self):
        assert simple_tree().is_nr_normal_form()

    def test_redundant_node_detected_and_removed(self):
        tree = WDPatternTree.from_node_specs(
            [
                (None, [("?x", "p", "?y")]),
                (0, [("?y", "p", "?x")]),  # no new variable
                (1, [("?x", "q", "?z")]),
            ]
        )
        assert not tree.is_nr_normal_form()
        normalized = tree.to_nr_normal_form()
        assert normalized.is_nr_normal_form()
        assert normalized.size() == 2
        # the redundant node's label was merged into its child
        child = normalized.children_of(normalized.root)[0]
        assert len(normalized.pat(child)) == 2

    def test_normalization_is_idempotent(self):
        tree = simple_tree()
        assert tree.to_nr_normal_form().size() == tree.size()


class TestSubtrees:
    def test_root_and_full_subtree(self):
        tree = simple_tree()
        assert tree.root_subtree().nodes == {0}
        assert tree.full_subtree().is_full()

    def test_subtree_must_contain_root(self):
        tree = simple_tree()
        with pytest.raises(PatternTreeError):
            Subtree(tree, frozenset({1}))

    def test_subtree_must_be_parent_closed(self):
        tree = simple_tree()
        with pytest.raises(PatternTreeError):
            tree.subtree({0, 3})

    def test_subtree_children(self):
        tree = simple_tree()
        assert tree.root_subtree().children() == (1, 2)
        assert tree.subtree({0, 1}).children() == (2, 3)
        assert tree.full_subtree().children() == ()

    def test_extend(self):
        tree = simple_tree()
        extended = tree.root_subtree().extend(1)
        assert extended.nodes == {0, 1}
        with pytest.raises(PatternTreeError):
            extended.extend(3).extend(3)

    def test_enumeration_counts(self):
        tree = simple_tree()
        subtrees = list(tree.subtrees())
        # root alone, root+1, root+2, root+1+2, root+1+3, root+1+2+3 -> 6
        assert len(subtrees) == 6
        assert len({s.nodes for s in subtrees}) == 6

    def test_subtree_pat_and_vars(self):
        tree = simple_tree()
        sub = tree.subtree({0, 1})
        assert sub.variables() == {Variable("x"), Variable("y"), Variable("z")}
        assert len(sub.pat()) == 2

    def test_facts_memoized_on_the_tree(self):
        tree = fk_forest(2)[0]
        first, second = tree.root_subtree(), Subtree(tree, frozenset({tree.root}))
        assert first is not second
        children = first.children()
        assert children
        assert second.children() is children
        assert second.pat() is first.pat()
        for child in children:
            instance = first.child_instance(child)
            assert second.child_instance(child) is instance
            assert instance == GeneralizedTGraph(
                first.pat().union(tree.pat(child)), first.variables()
            )
        restored = pickle.loads(pickle.dumps(tree)).root_subtree()
        assert restored.children() == children
        assert restored.pat() == first.pat()
        assert restored.variables() == first.variables()
        assert [restored.child_instance(c) for c in children] == [
            first.child_instance(c) for c in children
        ]

    def test_facts_filled_concurrently_equal_serial_facts(self):
        """The query service's threads share one tree and fill its memo
        concurrently; a race may duplicate a computation, never store a
        wrong fact."""
        star = WDPatternTree.from_node_specs(
            [(None, [("?x", "p", "?y")])] + [(0, [("?y", f"q{i}", f"?z{i}")]) for i in range(5)]
        )

        def facts(tree):
            return [
                (s.children(), s.pat(), s.variables(), [s.child_instance(c) for c in s.children()])
                for s in tree.subtrees()
            ]

        expected = facts(pickle.loads(pickle.dumps(star)))
        assert len(expected) == 32
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(facts(star))) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
