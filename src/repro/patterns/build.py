"""Translation of well-designed graph patterns into pattern trees/forests.

This is the polynomial-time function ``wdpf`` fixed by the paper: every
well-designed graph pattern ``P = P1 UNION ... UNION Pm`` is translated into
an equivalent wdPF ``{T1, ..., Tm}``, where each ``Ti`` is the wdPT of the
UNION-free operand ``Pi`` (Letelier et al.), brought into NR normal form.

The construction for a UNION-free well-designed pattern is the standard one:

* a triple pattern becomes a single-node tree;
* ``P1 AND P2``: merge the roots of the two trees and keep the children of
  both (sound because the pattern is well-designed);
* ``P1 OPT P2``: hang the whole tree of ``P2`` as an additional child of the
  root of ``P1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .forest import WDPatternForest
from .tree import WDPatternTree
from ..hom.tgraph import TGraph
from ..sparql.algebra import And, GraphPattern, Opt, TriplePatternNode, Union
from ..sparql.well_designed import check_well_designed, union_operands
from ..exceptions import NotWellDesignedError, PatternTreeError

__all__ = ["build_wdpt", "wdpf", "pattern_of_tree", "pattern_of_forest"]


@dataclass
class _TreeDraft:
    """Mutable tree used during construction: a root label plus child drafts."""

    label: TGraph
    children: List["_TreeDraft"]


def _draft_of(pattern: GraphPattern) -> _TreeDraft:
    if isinstance(pattern, TriplePatternNode):
        return _TreeDraft(label=TGraph({pattern.triple_pattern}), children=[])
    if isinstance(pattern, And):
        left = _draft_of(pattern.left)
        right = _draft_of(pattern.right)
        return _TreeDraft(
            label=left.label.union(right.label),
            children=left.children + right.children,
        )
    if isinstance(pattern, Opt):
        left = _draft_of(pattern.left)
        right = _draft_of(pattern.right)
        left.children.append(right)
        return left
    if isinstance(pattern, Union):
        raise NotWellDesignedError(
            "UNION below AND/OPT: the pattern is not in UNION normal form"
        )
    raise PatternTreeError(f"unsupported pattern node {type(pattern).__name__}")


def _freeze_draft(draft: _TreeDraft) -> WDPatternTree:
    labels: Dict[int, TGraph] = {}
    parent: Dict[int, int] = {}

    def assign(node: _TreeDraft, parent_id: Optional[int]) -> None:
        node_id = len(labels)
        labels[node_id] = node.label
        if parent_id is not None:
            parent[node_id] = parent_id
        for child in node.children:
            assign(child, node_id)

    assign(draft, None)
    return WDPatternTree(labels, parent, root=0)


def build_wdpt(pattern: GraphPattern, normalize: bool = True) -> WDPatternTree:
    """Translate a UNION-free well-designed pattern into an equivalent wdPT.

    With ``normalize=True`` (the default, and the paper's standing
    assumption) the result is in NR normal form.
    """
    check_well_designed(pattern)
    if not pattern.is_union_free():
        raise NotWellDesignedError("build_wdpt() expects a UNION-free pattern; use wdpf()")
    tree = _freeze_draft(_draft_of(pattern))
    if normalize:
        tree = tree.to_nr_normal_form()
    return tree


def wdpf(pattern: GraphPattern, normalize: bool = True) -> WDPatternForest:
    """The function ``wdpf``: translate a well-designed graph pattern into an
    equivalent well-designed pattern forest (one tree per UNION operand).

    >>> from ..sparql import parse_pattern
    >>> forest = wdpf(parse_pattern("((?x p ?y) OPT (?z q ?x)) UNION ((?x p ?y) AND (?y r ?w))"))
    >>> len(forest)
    2
    """
    check_well_designed(pattern)
    trees = [build_wdpt(operand, normalize=normalize) for operand in union_operands(pattern)]
    return WDPatternForest(trees)


def pattern_of_tree(tree: WDPatternTree) -> GraphPattern:
    """An AND/OPT graph pattern equivalent to the given wdPT.

    The inverse direction of :func:`build_wdpt`: node labels become ANDs of
    their triple patterns, children become OPT-nested subpatterns.  Useful
    for round-trip testing and for feeding tree-defined families (such as the
    paper's ``F_k``) to engines that work on graph patterns.
    """
    from ..sparql.algebra import conj, TriplePatternNode as Leaf

    def pattern_of_node(node: int) -> GraphPattern:
        triples = sorted(tree.pat(node))
        if not triples:
            raise PatternTreeError(f"node {node} has an empty label; cannot serialise")
        result: GraphPattern = conj([Leaf(t) for t in triples])
        for child in tree.children_of(node):
            result = Opt(result, pattern_of_node(child))
        return result

    return pattern_of_node(tree.root)


def pattern_of_forest(forest: WDPatternForest) -> GraphPattern:
    """A well-designed graph pattern (UNION of AND/OPT patterns) equivalent to
    the forest."""
    result: Optional[GraphPattern] = None
    for tree in forest:
        operand = pattern_of_tree(tree)
        result = operand if result is None else Union(result, operand)
    assert result is not None
    return result
