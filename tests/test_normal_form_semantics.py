"""Semantics-preservation tests for the NR normal form transformation.

The paper assumes every wdPT is in NR normal form; the library's
``to_nr_normal_form`` transformation merges redundant nodes into their
children.  These tests check — by brute force on small graphs — that the
transformation preserves the Lemma 1 semantics, including on trees that are
*not* produced by the pattern translation (hand-built redundant trees).
"""

import pytest

from repro.evaluation import tree_solutions
from repro.patterns import WDPatternTree, build_wdpt, pattern_of_tree
from repro.evaluation import evaluate_pattern
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX

P = EX.term("p").value
Q = EX.term("q").value
R = EX.term("r").value


def redundant_tree_a() -> WDPatternTree:
    """root {(?x,p,?y)}; child {(?y,p,?x)} (adds nothing); grandchild {(?x,q,?z)}."""
    return WDPatternTree.from_node_specs(
        [
            (None, [("?x", P, "?y")]),
            (0, [("?y", P, "?x")]),
            (1, [("?x", Q, "?z")]),
        ]
    )


def redundant_tree_b() -> WDPatternTree:
    """A redundant middle node with two children."""
    return WDPatternTree.from_node_specs(
        [
            (None, [("?x", P, "?y")]),
            (0, [("?x", Q, "?y")]),  # adds no variable
            (1, [("?y", R, "?z")]),
            (1, [("?x", R, "?w")]),
        ]
    )


def redundant_leaf_tree() -> WDPatternTree:
    """A redundant leaf: it should simply disappear."""
    return WDPatternTree.from_node_specs(
        [
            (None, [("?x", P, "?y")]),
            (0, [("?y", Q, "?x")]),
        ]
    )


@pytest.mark.parametrize(
    "tree_builder", [redundant_tree_a, redundant_tree_b, redundant_leaf_tree]
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nr_normalisation_preserves_semantics(tree_builder, seed):
    """⟦T⟧G computed via the original pattern equals ⟦nr(T)⟧G via Lemma 1."""
    tree = tree_builder()
    normalized = tree.to_nr_normal_form()
    assert normalized.is_nr_normal_form()
    graph = random_graph(3, 16, seed=seed)
    # Reference semantics: serialise the ORIGINAL tree into a graph pattern and
    # evaluate compositionally (pattern_of_tree does not require NR form).
    reference = evaluate_pattern(pattern_of_tree(tree), graph)
    assert tree_solutions(normalized, graph) == reference


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nr_normalisation_on_parsed_patterns(seed):
    """build_wdpt(normalize=True/False) evaluate to the same answers."""
    from repro.sparql.parser import parse_pattern

    pattern = parse_pattern(
        f"((?x <{P}> ?y) OPT (?y <{P}> ?x)) OPT (?x <{Q}> ?z)"
    )
    graph = random_graph(3, 14, seed=seed)
    reference = evaluate_pattern(pattern, graph)
    normalized_tree = build_wdpt(pattern, normalize=True)
    assert tree_solutions(normalized_tree, graph) == reference


def test_redundant_leaf_is_dropped():
    tree = redundant_leaf_tree()
    normalized = tree.to_nr_normal_form()
    assert normalized.size() == 1


def test_chained_redundant_nodes_all_removed():
    tree = WDPatternTree.from_node_specs(
        [
            (None, [("?x", P, "?y")]),
            (0, [("?y", P, "?x")]),
            (1, [("?x", Q, "?y")]),
            (2, [("?y", R, "?z")]),
        ]
    )
    normalized = tree.to_nr_normal_form()
    assert normalized.is_nr_normal_form()
    assert normalized.size() == 2
    child = normalized.children_of(normalized.root)[0]
    # the two redundant labels were merged into the surviving child
    assert len(normalized.pat(child)) == 3
