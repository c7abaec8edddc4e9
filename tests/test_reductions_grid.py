"""Unit tests for grids and minor maps."""

import networkx as nx
import pytest

from repro.exceptions import ReductionError
from repro.reductions import (
    extend_minor_map_onto,
    find_grid_minor_map,
    grid_graph,
    is_minor_map,
    minor_map_by_monomorphism,
    minor_map_into_clique,
)


class TestGridGraph:
    def test_dimensions(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert g.number_of_edges() == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_single_vertex(self):
        g = grid_graph(1, 1)
        assert g.number_of_nodes() == 1 and g.number_of_edges() == 0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            grid_graph(0, 2)


class TestMinorMaps:
    def test_identity_map_on_grid(self):
        grid = grid_graph(2, 3)
        gamma = {v: frozenset({v}) for v in grid.nodes()}
        assert is_minor_map(grid, grid, gamma)

    def test_empty_branch_set_rejected(self):
        grid = grid_graph(1, 2)
        gamma = {(1, 1): frozenset(), (1, 2): frozenset({(1, 2)})}
        assert not is_minor_map(grid, grid, gamma)

    def test_overlapping_branch_sets_rejected(self):
        grid = grid_graph(1, 2)
        gamma = {(1, 1): frozenset({(1, 1)}), (1, 2): frozenset({(1, 1)})}
        assert not is_minor_map(grid, grid, gamma)

    def test_missing_edge_rejected(self):
        grid = grid_graph(1, 2)
        host = nx.Graph()
        host.add_nodes_from(["a", "b"])
        gamma = {(1, 1): frozenset({"a"}), (1, 2): frozenset({"b"})}
        assert not is_minor_map(grid, host, gamma)

    def test_map_into_clique(self):
        grid = grid_graph(2, 3)
        host = nx.complete_graph(6)
        gamma = minor_map_into_clique(2, 3, list(host.nodes()))
        assert is_minor_map(grid, host, gamma)

    def test_map_into_too_small_clique_rejected(self):
        with pytest.raises(ReductionError):
            minor_map_into_clique(2, 3, list(range(5)))

    def test_monomorphism_map(self):
        grid = grid_graph(2, 2)
        host = nx.complete_graph(5)
        gamma = minor_map_by_monomorphism(grid, host)
        assert gamma is not None
        assert is_minor_map(grid, host, gamma)

    def test_monomorphism_map_none_when_impossible(self):
        grid = grid_graph(2, 2)
        host = nx.path_graph(3)
        assert minor_map_by_monomorphism(grid, host) is None


class TestExtendOnto:
    def test_extension_covers_component(self):
        grid = grid_graph(1, 2)
        host = nx.path_graph(5)  # 0-1-2-3-4
        gamma = {(1, 1): frozenset({1}), (1, 2): frozenset({2})}
        extended = extend_minor_map_onto(gamma, host)
        covered = set().union(*extended.values())
        assert covered == set(host.nodes())
        assert is_minor_map(grid, host, extended)

    def test_extension_preserves_connectivity_of_branch_sets(self):
        host = nx.cycle_graph(6)
        gamma = {(1, 1): frozenset({0}), (1, 2): frozenset({1})}
        extended = extend_minor_map_onto(gamma, host)
        for branch in extended.values():
            assert nx.is_connected(host.subgraph(branch))


class TestFindGridMinorMap:
    def test_in_clique_host(self):
        host = nx.complete_graph(7)
        gamma = find_grid_minor_map(2, 3, host)
        assert is_minor_map(grid_graph(2, 3), host, gamma)
        covered = set().union(*gamma.values())
        assert covered == set(host.nodes())  # onto

    def test_in_grid_host(self):
        host = nx.Graph()
        host.add_edges_from(grid_graph(3, 3).edges())
        gamma = find_grid_minor_map(2, 2, host)
        assert is_minor_map(grid_graph(2, 2), host, gamma)

    def test_failure_when_host_too_small(self):
        with pytest.raises(ReductionError):
            find_grid_minor_map(3, 3, nx.path_graph(4))
