"""Unit tests for the natural wdPF evaluation algorithm (Lemma 1) and its
top-down solution enumeration."""

import itertools

import pytest

from repro.evaluation import (
    Budget,
    Engine,
    evaluate_pattern,
    find_mu_subtree,
    forest_contains,
    forest_solutions,
    tree_contains,
    tree_solutions,
)
from repro.patterns import wdpf
from repro.rdf import RDFGraph, Triple
from repro.rdf.namespace import EX
from repro.rdf.terms import Variable
from repro.sparql import Mapping, parse_pattern
from repro.workloads.families import (
    P_PRED,
    Q_PRED,
    R_PRED,
    fk_data_graph,
    fk_forest,
    fk_pattern,
    tprime_data_graph,
    tprime_pattern,
)


@pytest.fixture
def fk_graph() -> RDFGraph:
    """A hand-crafted graph for F_2: a p-edge, a q-edge into its subject and an
    r-clique of size 2 hanging off the p-target."""
    return RDFGraph(
        [
            Triple.of(EX.a, P_PRED, EX.b),
            Triple.of(EX.c, Q_PRED, EX.a),
            Triple.of(EX.b, R_PRED, EX.m1),
            Triple.of(EX.m1, R_PRED, EX.m2),
        ]
    )


class TestFindMuSubtree:
    def test_finds_root_only(self, fk_graph):
        tree = fk_forest(2)[0]
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b})
        subtree = find_mu_subtree(tree, fk_graph, mu)
        assert subtree is not None and subtree.nodes == {0}

    def test_extends_to_satisfied_child(self, fk_graph):
        tree = fk_forest(2)[0]
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b, Variable("z"): EX.c})
        subtree = find_mu_subtree(tree, fk_graph, mu)
        assert subtree is not None and subtree.nodes == {0, 1}

    def test_none_when_root_unsatisfied(self, fk_graph):
        tree = fk_forest(2)[0]
        mu = Mapping({Variable("x"): EX.b, Variable("y"): EX.a})
        assert find_mu_subtree(tree, fk_graph, mu) is None

    def test_none_when_domain_mismatch(self, fk_graph):
        tree = fk_forest(2)[0]
        # domain includes a variable the tree cannot account for
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b, Variable("nope"): EX.c})
        assert find_mu_subtree(tree, fk_graph, mu) is None


class TestTreeMembership:
    def test_solution_without_extension(self, fk_graph):
        """{x->a, y->b, z->c} is a solution of T1 iff the K_k child cannot extend."""
        tree = fk_forest(3)[0]  # K_3 child cannot be satisfied by the 2-clique
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b, Variable("z"): EX.c})
        assert tree_contains(tree, fk_graph, mu)

    def test_not_solution_when_child_extends(self, fk_graph):
        tree = fk_forest(2)[0]  # K_2 child IS satisfied (m1 -r-> m2)
        mu = Mapping({Variable("x"): EX.a, Variable("y"): EX.b, Variable("z"): EX.c})
        assert not tree_contains(tree, fk_graph, mu)


class TestAgainstNaiveSemantics:
    """The wdPF algorithms agree with the compositional semantics."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fk_solution_sets(self, k, seed):
        pattern = fk_pattern(k)
        forest = wdpf(pattern)
        graph = fk_data_graph(5, 25, clique_size=k, seed=seed)
        assert forest_solutions(forest, graph) == evaluate_pattern(pattern, graph)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tprime_solution_sets(self, k):
        pattern = tprime_pattern(k)
        forest = wdpf(pattern)
        graph = tprime_data_graph(6, 20, seed=k)
        assert forest_solutions(forest, graph) == evaluate_pattern(pattern, graph)

    @pytest.mark.parametrize("k", [2, 3])
    def test_fk_membership_exhaustive_over_small_domain(self, k):
        pattern = fk_pattern(k)
        forest = wdpf(pattern)
        graph = fk_data_graph(4, 18, clique_size=k, seed=7)
        truth = evaluate_pattern(pattern, graph)
        domains = {frozenset(mu.domain()) for mu in truth}
        nodes = sorted(graph.domain(), key=str)[:3]
        for domain in list(domains)[:2]:
            variables = sorted(domain, key=lambda v: v.name)
            for values in itertools.islice(itertools.product(nodes, repeat=len(variables)), 10):
                mu = Mapping(dict(zip(variables, values)))
                assert forest_contains(forest, graph, mu) == (mu in truth)

    def test_tree_solutions_respects_maximality(self, fk_graph):
        tree = fk_forest(2)[0]
        solutions = tree_solutions(tree, fk_graph)
        # the mapping {x->a, y->b, z->c} is NOT maximal (the K_2 child extends),
        # so the only solutions over {x,y,z,...} include the clique variables.
        assert Mapping(
            {Variable("x"): EX.a, Variable("y"): EX.b, Variable("z"): EX.c}
        ) not in solutions
        assert any(Variable("o1") in mu for mu in solutions)


class TestTopDownEnumeration:
    def test_wide_star_enumerates_within_a_thousand_steps(self):
        # A root with 16 OPT children has 2^16 rooted subtrees, and one
        # answer here; extending the root's match child by child searches
        # each child once.
        pattern = parse_pattern("(?x p ?y)" + "".join(f" OPT (?y q ?z{i})" for i in range(16)))
        graph = RDFGraph([Triple.of("a", "p", "b"), Triple.of("b", "q", "c")])
        solutions = Engine(pattern).solutions(graph, budget=Budget(steps=1000))
        assert solutions == evaluate_pattern(pattern, graph)
