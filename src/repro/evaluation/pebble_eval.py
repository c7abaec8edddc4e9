"""The polynomial-time evaluation algorithm of Theorem 1.

The algorithm is the natural wdPF evaluation algorithm with the NP-hard
extension test replaced by the existential ``(k+1)``-pebble game: for every
tree ``Ti`` with a witness subtree ``T^µ_i`` it checks, for every child
``n``, whether

    ``(pat(T^µ_i) ∪ pat(n), vars(T^µ_i)) →µ_{k+1} G``

and accepts as soon as some tree has *no* such child.  The algorithm is

* always **sound**: if it accepts then ``µ ∈ ⟦F⟧G`` (because ``→µ`` implies
  ``→µ_{k+1}``);
* **complete** whenever ``dw(F) ≤ k`` (the main content of Theorem 1).

On classes of bounded domination width it therefore decides ``wdEVAL`` in
polynomial time; on other inputs its answer may be a false negative, which
:class:`~repro.evaluation.engine.Engine` reports as such.

Both functions take a trailing
:class:`~repro.evaluation.context.EvalContext` (cache and budget) that
defaults to the empty context.
"""

from __future__ import annotations

from .context import EvalContext
from .wdeval import _PLAIN_CONTEXT
from ..patterns.forest import WDPatternForest
from ..patterns.tree import WDPatternTree
from ..rdf.graph import RDFGraph
from ..sparql.mappings import Mapping

__all__ = ["tree_contains_pebble", "forest_contains_pebble"]


def tree_contains_pebble(
    tree: WDPatternTree,
    graph: RDFGraph,
    mu: Mapping,
    k: int,
    context: EvalContext = _PLAIN_CONTEXT,
) -> bool:
    """The per-tree acceptance test of the Theorem 1 algorithm.

    Returns ``True`` when the witness subtree exists and no child passes the
    ``(k+1)``-pebble extension test.  Sound for every input; complete when
    ``dw ≤ k``.

    The per-child instances are memoized on the tree (see
    :class:`~repro.patterns.tree.Subtree`).  With a caching *context*, each
    child instance is answered through a shared
    :class:`~repro.pebble.kernel.ConsistencyKernel` — the µ-independent part
    of the pebble game is built once per ``(subtree, child)`` and graph
    version instead of once per mapping, and only the µ-dependent solve runs
    per mapping (identical answers, see :mod:`repro.evaluation.cache`).
    """
    subtree = context.mu_subtree(tree, graph, mu)
    if subtree is None:
        return False
    for child in subtree.children():
        if context.pebble_winner(subtree.child_instance(child), graph, mu, k + 1):
            return False
    return True


def forest_contains_pebble(
    forest: WDPatternForest,
    graph: RDFGraph,
    mu: Mapping,
    k: int,
    context: EvalContext = _PLAIN_CONTEXT,
) -> bool:
    """The Theorem 1 algorithm on a forest: accept iff some tree accepts.

    ``k`` should be (an upper bound on) the domination width of the forest;
    the algorithm runs the existential ``(k+1)``-pebble game.
    """
    if k < 1:
        raise ValueError("the width parameter k must be at least 1")
    for tree in forest:
        if tree_contains_pebble(tree, graph, mu, k, context):
            return True
    return False
