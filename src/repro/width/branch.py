"""Branch treewidth (Definition 3 of the paper).

For a wdPT ``T`` and a non-root node ``n``, the *branch* ``B_n`` is the set
of nodes on the path from the root to the parent of ``n``; the branch
t-graph is ``S^br_n = pat(n) ∪ ⋃_{n' ∈ B_n} pat(n')`` with distinguished
variables ``X^br_n = vars(⋃_{n' ∈ B_n} pat(n'))``.  The branch treewidth
``bw(T)`` is the least ``k`` bounding ``ctw(S^br_n, X^br_n)`` for every
non-root node ``n``.

Proposition 5 of the paper shows that for UNION-free well-designed patterns
``dw(P) = bw(P)``; the equality is exercised in the tests and in the
Proposition 5 benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hom.tgraph import GeneralizedTGraph
from ..hom.treewidth import ctw
from ..patterns.build import build_wdpt
from ..patterns.tree import WDPatternTree
from ..sparql.algebra import GraphPattern
from ..exceptions import WidthComputationError

__all__ = ["branch_gtgraph", "branch_treewidth", "branch_treewidth_of_pattern"]


def branch_gtgraph(tree: WDPatternTree, node: int) -> GeneralizedTGraph:
    """The generalised t-graph ``(S^br_n, X^br_n)`` of a non-root node."""
    if node == tree.root:
        raise WidthComputationError("the root has no branch t-graph")
    branch_nodes = tree.branch(node)
    branch_pat = tree.pat_of_nodes(branch_nodes)
    full = branch_pat.union(tree.pat(node))
    return GeneralizedTGraph(full, branch_pat.variables())


def branch_treewidth(tree: WDPatternTree, per_node: Optional[Dict[int, int]] = None) -> int:
    """``bw(T)``: the maximum over non-root nodes of ``ctw(S^br_n, X^br_n)``
    (at least 1; a single-node tree has branch treewidth 1)."""
    width = 1
    for node in tree.node_ids():
        if node == tree.root:
            continue
        node_width = max(1, ctw(branch_gtgraph(tree, node)))
        if per_node is not None:
            per_node[node] = node_width
        width = max(width, node_width)
    return width


def branch_treewidth_of_pattern(pattern: GraphPattern) -> int:
    """``bw(P)`` for a UNION-free well-designed pattern."""
    if not pattern.is_union_free():
        raise WidthComputationError("branch treewidth is defined for UNION-free patterns")
    return branch_treewidth(build_wdpt(pattern))
