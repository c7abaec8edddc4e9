"""Unit tests for the synthetic RDF graph generators."""

import networkx as nx
import pytest

from repro.rdf import TriplePattern
from repro.rdf.generators import (
    clique_graph,
    cycle_graph,
    from_networkx,
    grid_graph,
    path_graph,
    power_law_graph,
    random_graph,
    social_network_graph,
    star_graph,
    tree_graph,
)
from repro.rdf.namespace import EX, FOAF


class TestStructuredGraphs:
    def test_path_graph_size(self):
        assert len(path_graph(5)) == 5

    def test_path_graph_zero_length(self):
        assert len(path_graph(0)) == 0

    def test_cycle_graph_size_and_closure(self):
        g = cycle_graph(4)
        assert len(g) == 4
        # the cycle closes: some triple points back to node0
        assert any(t.object == EX.term("node0") for t in g)

    def test_cycle_rejects_zero(self):
        with pytest.raises(ValueError):
            cycle_graph(0)

    def test_clique_graph_edge_count(self):
        assert len(clique_graph(4)) == 12  # ordered pairs without self loops
        assert len(clique_graph(4, symmetric=False)) == 6

    def test_grid_graph_bidirectional(self):
        g = grid_graph(2, 2)
        assert len(g) == 8  # 4 undirected edges, both directions

    def test_star_graph(self):
        assert len(star_graph(7)) == 7

    def test_tree_graph_node_count(self):
        g = tree_graph(depth=2, branching=2)
        assert len(g) == 6  # 2 + 4 edges

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            grid_graph(0, 3)
        with pytest.raises(ValueError):
            clique_graph(0)
        with pytest.raises(ValueError):
            tree_graph(1, 0)


class TestRandomGraphs:
    def test_random_graph_is_seeded(self):
        assert random_graph(10, 30, seed=5) == random_graph(10, 30, seed=5)

    def test_random_graph_respects_vocabulary(self):
        g = random_graph(5, 20, predicates=("p",), seed=1)
        assert g.predicates() == {EX.term("p")}

    def test_random_graph_rejects_empty(self):
        with pytest.raises(ValueError):
            random_graph(0, 5)

    def test_social_network_contains_foaf_properties(self):
        g = social_network_graph(12, seed=3)
        assert any(t.predicate == FOAF.knows for t in g)
        assert any(t.predicate == FOAF.name for t in g)

    def test_social_network_is_seeded(self):
        assert social_network_graph(10, seed=1) == social_network_graph(10, seed=1)

    def test_social_network_minimum_size(self):
        with pytest.raises(ValueError):
            social_network_graph(2)


class TestFromNetworkx:
    def test_undirected_graph_is_symmetric(self):
        g = from_networkx(nx.path_graph(3))
        pattern = TriplePattern.of("?x", EX.term("edge").value, "?y")
        assert len(list(g.matches(pattern))) == 4  # 2 edges, both directions

    def test_directed_graph_keeps_orientation(self):
        digraph = nx.DiGraph([(0, 1)])
        g = from_networkx(digraph, predicate="edge")
        assert len(g) == 1


class TestPowerLawGraphs:
    def test_power_law_is_seeded(self):
        assert power_law_graph(200, 600, seed=3) == power_law_graph(200, 600, seed=3)

    def test_power_law_seeds_differ(self):
        assert power_law_graph(200, 600, seed=3) != power_law_graph(200, 600, seed=4)

    def test_power_law_respects_vocabulary(self):
        g = power_law_graph(50, 200, predicates=("p",), seed=1)
        assert g.predicates() == {EX.term("p")}

    def test_power_law_degree_distribution_is_skewed(self):
        """The Zipf endpoints must produce hub nodes: the top degree has to
        dwarf the median degree (no uniform generator does this)."""
        from collections import Counter

        g = power_law_graph(500, 5000, seed=7)
        degree = Counter()
        for t in g:
            degree[t.subject] += 1
            degree[t.object] += 1
        ordered = sorted(degree.values())
        median = ordered[len(ordered) // 2]
        assert degree[EX.term("node0")] == max(degree.values())
        assert max(degree.values()) >= 10 * median

    def test_power_law_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            power_law_graph(0, 5)
        with pytest.raises(ValueError):
            power_law_graph(5, -1)
        with pytest.raises(ValueError):
            power_law_graph(5, 5, exponent=0.0)

    def test_scalable_generators_bulk_load_in_one_version_bump(self):
        assert power_law_graph(50, 200, seed=1).version == 1
        assert random_graph(10, 30, seed=5).version == 1
        assert social_network_graph(10, seed=1).version == 1
        assert from_networkx(nx.path_graph(3)).version == 1


@pytest.mark.slow
class TestLargeGraphSmoke:
    """Tier-2 smoke: a 10^5-triple power-law graph must load and answer one
    membership query through every evaluation engine."""

    def test_load_and_answer_membership_per_engine(self):
        from repro.evaluation import Session
        from repro.rdf.terms import Variable
        from repro.sparql import Mapping, parse_pattern

        g = power_law_graph(40_000, 175_000, exponent=1.1, seed=13)
        assert len(g) >= 100_000

        t = next(iter(g))
        pattern = parse_pattern(f"(?x <{t.predicate.value}> ?y)")
        x, y = Variable("x"), Variable("y")
        present = Mapping({x: t.subject, y: t.object})
        absent = Mapping({x: EX.term("nowhere"), y: t.object})
        engine = Session().engine(pattern)
        for method in ("natural", "pebble", "auto"):
            assert engine.contains(g, present, method=method) is True
            assert engine.contains(g, absent, method=method) is False
