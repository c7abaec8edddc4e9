"""Well-designed pattern trees (wdPTs).

A wdPT is a rooted tree whose nodes are labelled with t-graphs (sets of
triple patterns); the tree structure encodes the nesting of OPT operators of
a UNION-free well-designed graph pattern (Letelier et al.).  The paper
additionally requires:

* condition (3): for every variable, the nodes mentioning it induce a
  connected subgraph of the tree;
* NR normal form: every non-root node mentions at least one variable that
  its parent does not.

:class:`WDPatternTree` is an immutable tree over integer node identifiers;
:class:`Subtree` represents the rooted subtrees the paper quantifies over
(always containing the root, closed under taking parents).  A tree interns
one validated :class:`Subtree` per node set.  A subtree's facts — its
children, ``pat(T')``, ``vars(T')`` and the per-child instances
``(pat(T') ∪ pat(n), vars(T'))`` — depend on the pattern alone, so they are
memoized on the tree, beside each node's variables, and every evaluation
path, cached or not, shares them.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..hom.tgraph import GeneralizedTGraph, TGraph
from ..rdf.terms import Variable
from ..exceptions import PatternTreeError

__all__ = ["WDPatternTree", "Subtree"]


class WDPatternTree:
    """An immutable well-designed pattern tree.

    Nodes are integers; the root is always node ``0``.  Construction
    validates the tree shape and (optionally) the variable-connectivity
    condition of wdPTs.
    """

    __slots__ = ("_labels", "_parent", "_children", "_root", "_order", "_facts")

    def __init__(
        self,
        labels: Mapping[int, TGraph],
        parent: Mapping[int, int],
        root: int = 0,
        check_connectivity: bool = True,
    ) -> None:
        labels = dict(labels)
        parent = dict(parent)
        if root not in labels:
            raise PatternTreeError(f"root {root} has no label")
        if root in parent:
            raise PatternTreeError("the root cannot have a parent")
        for node in parent:
            if node not in labels:
                raise PatternTreeError(f"node {node} has a parent but no label")
            if parent[node] not in labels:
                raise PatternTreeError(f"parent of node {node} does not exist")
        for node in labels:
            if node != root and node not in parent:
                raise PatternTreeError(f"non-root node {node} has no parent")
            if not isinstance(labels[node], TGraph):
                raise PatternTreeError(f"label of node {node} must be a TGraph")

        children: Dict[int, List[int]] = {node: [] for node in labels}
        for node, parent_node in parent.items():
            children[parent_node].append(node)
        for node in children:
            children[node].sort()

        # Check acyclicity / reachability from the root.
        order: List[int] = []
        stack = [root]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                raise PatternTreeError("cycle detected in pattern tree")
            seen.add(current)
            order.append(current)
            stack.extend(reversed(children[current]))
        if seen != set(labels):
            unreachable = sorted(set(labels) - seen)
            raise PatternTreeError(f"nodes not reachable from the root: {unreachable}")

        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_children", {n: tuple(c) for n, c in children.items()})
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_order", tuple(order))
        # Memo of the node variables, the interned Subtrees and their facts
        # (children, pat, vars, child instances); not pickled, a restored
        # tree refills it.
        object.__setattr__(self, "_facts", {})

        if check_connectivity:
            self._check_variable_connectivity()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WDPatternTree instances are immutable")

    def __reduce__(self):
        # Connectivity was validated at construction time; skip it on restore.
        return (WDPatternTree, (self._labels, self._parent, self._root, False))

    # --- constructors ----------------------------------------------------------
    @classmethod
    def from_node_specs(
        cls,
        specs: Sequence[Tuple[Optional[int], Iterable[Tuple[object, object, object]]]],
        check_connectivity: bool = True,
    ) -> "WDPatternTree":
        """Build a tree from ``(parent_index, triples)`` specs.

        The first spec must have parent ``None`` (the root); nodes are
        numbered in the order given.

        >>> tree = WDPatternTree.from_node_specs([
        ...     (None, [("?x", "p", "?y")]),
        ...     (0, [("?z", "q", "?x")]),
        ... ])
        >>> tree.size()
        2
        """
        labels: Dict[int, TGraph] = {}
        parent: Dict[int, int] = {}
        for index, (parent_index, triples) in enumerate(specs):
            labels[index] = TGraph.of(*triples)
            if parent_index is None:
                if index != 0:
                    raise PatternTreeError("only the first spec may be the root")
            else:
                parent[index] = parent_index
        return cls(labels, parent, root=0, check_connectivity=check_connectivity)

    # --- structural queries -------------------------------------------------------
    @property
    def root(self) -> int:
        """The root node identifier."""
        return self._root

    def node_ids(self) -> Tuple[int, ...]:
        """All node identifiers in pre-order (root first)."""
        return self._order

    def size(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    def pat(self, node: int) -> TGraph:
        """``pat(n)`` — the t-graph labelling node *n*."""
        return self._labels[node]

    def vars(self, node: int) -> FrozenSet[Variable]:
        """``vars(n)`` (memoized on the tree)."""
        return self._fact(("node vars", node), lambda: self._labels[node].variables())

    def parent_of(self, node: int) -> Optional[int]:
        """The parent of *node*, or ``None`` for the root."""
        return self._parent.get(node)

    def children_of(self, node: int) -> Tuple[int, ...]:
        """The children of *node* (sorted by identifier)."""
        return self._children[node]

    def pattern(self) -> TGraph:
        """``pat(T)`` — the union of all node labels."""
        return self.pat_of_nodes(self._order)

    def variables(self) -> FrozenSet[Variable]:
        """``vars(T)``."""
        return self.pattern().variables()

    def pat_of_nodes(self, nodes: Iterable[int]) -> TGraph:
        """Union of the labels of the given nodes."""
        result: FrozenSet = frozenset()
        for node in nodes:
            result = result | self._labels[node].triples()
        return TGraph(result)

    def branch(self, node: int) -> Tuple[int, ...]:
        """``B_n``: the nodes on the path from the root to the *parent* of *node*
        (empty for the root)."""
        if node == self._root:
            return ()
        path: List[int] = []
        current = self.parent_of(node)
        while current is not None:
            path.append(current)
            current = self.parent_of(current)
        return tuple(reversed(path))

    def depth(self) -> int:
        """The depth of the tree (a single-node tree has depth 0)."""
        return max(len(self.branch(node)) for node in self._order)

    # --- normal forms -------------------------------------------------------------
    def is_nr_normal_form(self) -> bool:
        """``True`` when every non-root node adds a variable over its parent."""
        for node in self._order:
            parent_node = self.parent_of(node)
            if parent_node is None:
                continue
            if not (self.vars(node) - self.vars(parent_node)):
                return False
        return True

    def to_nr_normal_form(self) -> "WDPatternTree":
        """An equivalent tree in NR normal form.

        A non-root node that adds no variable over its parent is removed and
        its label is merged into each of its children (which are re-attached
        to the grand-parent).  The transformation preserves the wdPT
        semantics of Lemma 1 and terminates because every step removes a
        node.
        """
        labels = {n: self._labels[n] for n in self._order}
        parent = dict(self._parent)
        changed = True
        while changed:
            changed = False
            for node in list(labels):
                if node == self._root:
                    continue
                parent_node = parent[node]
                if labels[node].variables() - labels[parent_node].variables():
                    continue
                # Merge the redundant node into its children.
                for other, other_parent in list(parent.items()):
                    if other_parent == node:
                        parent[other] = parent_node
                        labels[other] = labels[other].union(labels[node])
                del labels[node]
                del parent[node]
                changed = True
                break
        return WDPatternTree(labels, parent, root=self._root, check_connectivity=False)

    # The memo is filled through GIL-atomic dict get/setdefault of
    # deterministic values, so it needs no lock: concurrent fillers can at
    # worst duplicate a computation, and all of them return the first value
    # stored.
    def _fact(self, key: Tuple, compute: Callable[[], Any]) -> Any:
        value = self._facts.get(key)
        if value is None:
            value = self._facts.setdefault(key, compute())
        return value

    def _check_variable_connectivity(self) -> None:
        """Condition (3) of wdPTs: occurrences of each variable are connected."""
        for variable in self.variables():
            occurrences = {n for n in self._order if variable in self.vars(n)}
            # The occurrence set is connected iff every occurrence's parent
            # chain reaches another occurrence without leaving the set, i.e.
            # exactly one occurrence has its parent outside the set (or is the
            # root).
            top_nodes = 0
            for node in occurrences:
                parent_node = self.parent_of(node)
                if parent_node is None or parent_node not in occurrences:
                    top_nodes += 1
            if top_nodes > 1:
                raise PatternTreeError(
                    f"variable {variable} occurs in a disconnected set of nodes; "
                    "not a valid well-designed pattern tree"
                )

    # --- subtrees --------------------------------------------------------------------
    def full_subtree(self) -> "Subtree":
        """The subtree consisting of every node."""
        return self.subtree(self._order)

    def root_subtree(self) -> "Subtree":
        """The subtree consisting of the root only."""
        return self.subtree((self._root,))

    def subtree(self, nodes: Iterable[int]) -> "Subtree":
        """The subtree induced by *nodes* (must contain the root and be
        closed under taking parents).  Validated once and interned: every
        call with the same node set returns the same object."""
        node_set = frozenset(nodes)
        return self._fact(("subtree", node_set), lambda: Subtree(self, node_set))

    def subtrees(self) -> Iterator["Subtree"]:
        """Enumerate all subtrees (ancestor-closed node sets containing the root).

        The number of subtrees can be exponential in the tree size; the
        paper's width measures quantify over all of them, so this is only
        meant for the small trees of queries.  Each subtree is yielded as
        soon as it is built, so a caller that stops early, or whose deadline
        trips, pays only for the subtrees it took.  Callers return the first
        witness they meet, so the order is part of the contract: the root
        alone, then for each child in turn every subtree so far extended by
        each subtree of that child.
        """
        def expand(node: int) -> Iterator[FrozenSet[int]]:
            """All node sets of subtrees of the subtree rooted at *node* that
            contain *node*; no set repeats."""
            options: List[FrozenSet[int]] = [frozenset({node})]
            yield options[0]
            for child in self.children_of(node):
                for existing in options[:]:
                    for child_set in expand(child):
                        options.append(existing | child_set)
                        yield options[-1]

        for node_set in expand(self._root):
            yield Subtree(self, node_set)

    # --- rendering --------------------------------------------------------------------
    def pretty(self) -> str:
        """A human-readable indented rendering of the tree."""
        lines: List[str] = []

        def render(node: int, indent: int) -> None:
            label = ", ".join(str(t) for t in sorted(self.pat(node)))
            lines.append("  " * indent + f"[{node}] {{{label}}}")
            for child in self.children_of(node):
                render(child, indent + 1)

        render(self._root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"WDPatternTree(<{self.size()} nodes, root={self._root}>)"


class Subtree:
    """A subtree of a wdPT: a set of nodes containing the root and closed
    under taking parents (so it is itself a tree rooted at the same root)."""

    __slots__ = ("tree", "nodes")

    def __init__(self, tree: WDPatternTree, nodes: FrozenSet[int]) -> None:
        nodes = frozenset(nodes)
        if tree.root not in nodes:
            raise PatternTreeError("a subtree must contain the root")
        for node in nodes:
            if node not in tree.node_ids():
                raise PatternTreeError(f"unknown node {node}")
            parent_node = tree.parent_of(node)
            if parent_node is not None and parent_node not in nodes:
                raise PatternTreeError(
                    f"subtree is not closed under parents: node {node} without its parent"
                )
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "nodes", nodes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Subtree instances are immutable")

    def __reduce__(self):
        return (Subtree, (self.tree, self.nodes))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subtree) and self.tree is other.tree and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash((self.tree, self.nodes))

    def __repr__(self) -> str:
        return f"Subtree(nodes={sorted(self.nodes)})"

    def pat(self) -> TGraph:
        """``pat(T')`` — union of the labels of the subtree's nodes."""
        return self.tree._fact(("pat", self.nodes), lambda: self.tree.pat_of_nodes(self.nodes))

    def variables(self) -> FrozenSet[Variable]:
        """``vars(T')``."""
        return self.tree._fact(("vars", self.nodes), lambda: self.pat().variables())

    def children(self) -> Tuple[int, ...]:
        """The children of the subtree: nodes outside it whose parent is inside."""

        def compute() -> Tuple[int, ...]:
            result = [
                node
                for node in self.tree.node_ids()
                if node not in self.nodes and self.tree.parent_of(node) in self.nodes
            ]
            return tuple(sorted(result))

        return self.tree._fact(("children", self.nodes), compute)

    def child_instance(self, child: int) -> GeneralizedTGraph:
        """``(pat(T') ∪ pat(n), vars(T'))`` for a child *n* — the instance the
        Theorem 1 pebble test runs on."""
        return self.tree._fact(
            ("instance", self.nodes, child),
            lambda: GeneralizedTGraph(self.pat().union(self.tree.pat(child)), self.variables()),
        )

    def extend(self, node: int) -> "Subtree":
        """The subtree obtained by adding one child node."""
        if node not in self.children():
            raise PatternTreeError(f"node {node} is not a child of this subtree")
        return self.tree.subtree(self.nodes | {node})

    def is_full(self) -> bool:
        """``True`` when the subtree is the whole tree."""
        return len(self.nodes) == self.tree.size()
