"""Integration tests: the full pipeline on realistic workloads.

These tests tie the parser, the pattern-forest translation, the width
measures and the three evaluation engines together on the social-network
workload and on the paper's Example 2, mirroring what the examples do but
with assertions instead of prints.
"""

import itertools

import pytest

from repro.evaluation import Engine, forest_contains
from repro.hom import homomorphism_count, all_homomorphisms, TGraph
from repro.patterns import wdpf
from repro.rdf.generators import social_network_graph, random_graph
from repro.rdf.namespace import EX, FOAF
from repro.sparql import parse_pattern
from repro.width import classify_pattern
from repro.workloads.families import example2_pattern, fk_data_graph


@pytest.fixture(scope="module")
def network():
    return social_network_graph(18, seed=11)


class TestSocialNetworkWorkload:
    def queries(self):
        knows, mbox, phone = FOAF.knows.value, FOAF.mbox.value, FOAF.phone.value
        return [
            parse_pattern(f"((?x <{knows}> ?y) OPT (?y <{mbox}> ?e))"),
            parse_pattern(
                f"(((?x <{knows}> ?y) OPT (?y <{mbox}> ?e)) OPT (?y <{phone}> ?t))"
            ),
            parse_pattern(f"((?x <{mbox}> ?e) UNION (?x <{phone}> ?t))"),
        ]

    def test_all_queries_are_width_one(self, network):
        for pattern in self.queries():
            report = classify_pattern(pattern)
            assert report.domination_width == 1

    def test_engines_agree_on_full_answer_sets(self, network):
        for pattern in self.queries():
            engine = Engine(pattern, width_bound=1)
            assert engine.solutions(network, method="naive") == engine.solutions(
                network, method="natural"
            )

    def test_membership_consistency_on_samples(self, network):
        for pattern in self.queries():
            engine = Engine(pattern, width_bound=1)
            solutions = sorted(engine.solutions(network, method="natural"), key=repr)
            for mu in solutions[:3]:
                assert engine.contains(network, mu, method="pebble")
                assert engine.contains(network, mu, method="natural")

    def test_optional_maximality_on_network(self, network):
        """No returned mapping can be strictly extended by another returned one."""
        knows, mbox = FOAF.knows.value, FOAF.mbox.value
        pattern = parse_pattern(f"((?x <{knows}> ?y) OPT (?y <{mbox}> ?e))")
        solutions = Engine(pattern).solutions(network, method="natural")
        for mu in solutions:
            for nu in solutions:
                if mu is nu:
                    continue
                if mu.domain() < nu.domain():
                    assert not all(nu[v] == mu[v] for v in mu.domain())


class TestExample2Pipeline:
    def test_solutions_and_membership(self):
        pattern = example2_pattern(2)
        forest = wdpf(pattern)
        graph = fk_data_graph(6, 30, clique_size=2, seed=4)
        engine = Engine(pattern, width_bound=1)
        solutions = engine.solutions(graph, method="natural")
        assert solutions == engine.solutions(graph, method="naive")
        for mu in sorted(solutions, key=repr)[:3]:
            assert forest_contains(forest, graph, mu)


class TestHomomorphismEnumerationCompleteness:
    """all_homomorphisms() finds exactly the assignments brute force finds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_bruteforce(self, seed):
        source = TGraph.of(
            ("?a", EX.term("p").value, "?b"),
            ("?b", EX.term("q").value, "?c"),
        )
        graph = random_graph(3, 12, seed=seed)
        found = {
            tuple(sorted((v.name, str(t)) for v, t in hom.items()))
            for hom in all_homomorphisms(source, graph)
        }
        variables = sorted(source.variables(), key=lambda v: v.name)
        values = sorted(graph.domain(), key=str)
        expected = set()
        for assignment in itertools.product(values, repeat=len(variables)):
            mapping = dict(zip(variables, assignment))
            if all(t.substitute(mapping) in graph for t in source):
                expected.add(tuple(sorted((v.name, str(t)) for v, t in mapping.items())))
        assert found == expected

    def test_count_matches_bruteforce_on_loop_query(self):
        source = TGraph.of(("?a", EX.term("p").value, "?a"))
        graph = random_graph(4, 20, seed=9)
        loops = sum(
            1 for t in graph if t.predicate == EX.term("p") and t.subject == t.object
        )
        assert homomorphism_count(source, graph) == loops
