"""Tests for Gaifman-graph locality, cross-checked against networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.errors import UniverseError
from repro.structures.builders import graph_structure, grid_graph, path_graph
from repro.structures.gaifman import (
    ball,
    connected_components,
    connectivity_graph,
    distance,
    distances_from,
    induced,
    is_connected,
    is_tuple_connected,
    neighbourhood,
    radius_of_set,
    tuple_components,
    tuple_distance,
)

from ..conftest import small_graphs
from ..reference import gaifman_adjacency


def _to_networkx(structure):
    g = nx.Graph()
    g.add_nodes_from(structure.universe_order)
    for a, neighbours in gaifman_adjacency(structure).items():
        for b in neighbours:
            g.add_edge(a, b)
    return g


class TestDistance:
    def test_path_distances(self, path5):
        assert distance(path5, 1, 1) == 0
        assert distance(path5, 1, 2) == 1
        assert distance(path5, 1, 5) == 4

    def test_unreachable_is_infinite(self):
        s = graph_structure([1, 2, 3], [(1, 2)])
        assert distance(s, 1, 3) == math.inf

    def test_unknown_element_rejected(self, path5):
        with pytest.raises(UniverseError):
            distance(path5, 1, 99)

    @given(small_graphs(min_vertices=2))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, structure):
        g = _to_networkx(structure)
        nodes = list(structure.universe_order)
        source, target = nodes[0], nodes[-1]
        ours = distance(structure, source, target)
        try:
            theirs = nx.shortest_path_length(g, source, target)
        except nx.NetworkXNoPath:
            theirs = math.inf
        assert ours == theirs

    def test_tuple_distance_is_minimum(self, path5):
        assert tuple_distance(path5, (1, 5), 4) == 1
        assert tuple_distance(path5, (1, 5), 3) == 2
        assert tuple_distance(path5, (3,), 3) == 0


class TestBallsAndNeighbourhoods:
    def test_ball_on_path(self, path5):
        assert ball(path5, [3], 1) == frozenset({2, 3, 4})
        assert ball(path5, [3], 0) == frozenset({3})
        assert ball(path5, [1, 5], 1) == frozenset({1, 2, 4, 5})

    def test_ball_negative_radius_rejected(self, path5):
        with pytest.raises(ValueError):
            ball(path5, [1], -1)

    def test_neighbourhood_is_induced(self, path5):
        sub = neighbourhood(path5, [3], 1)
        assert set(sub.universe) == {2, 3, 4}
        assert sub.has_tuple("E", (2, 3))
        assert not sub.has_tuple("E", (1, 2))

    def test_multi_source_distances(self, path5):
        dist = distances_from(path5, [1, 5])
        assert dist[3] == 2
        assert dist[2] == 1

    def test_radius_limited_distances(self, path5):
        dist = distances_from(path5, [1], radius=2)
        assert set(dist) == {1, 2, 3}


class TestComponents:
    def test_connected_components(self):
        s = graph_structure([1, 2, 3, 4, 5], [(1, 2), (3, 4)])
        comps = connected_components(s)
        assert sorted(map(sorted, comps)) == [[1, 2], [3, 4], [5]]
        assert not is_connected(s)
        assert is_connected(path_graph(4))

    def test_induced_rejects_empty_or_foreign(self, path5):
        with pytest.raises(UniverseError):
            induced(path5, [])
        with pytest.raises(UniverseError):
            induced(path5, [99])
        with pytest.raises(UniverseError):
            induced(path5, [1, 2, 99])

    def test_induced_keeps_universe_order_on_a_mixed_universe(self):
        universe = [5, "b", 2, "a", (1, 2), 9, "c", 0]
        edges = [(5, "b"), ("b", 2), (2, "a"), ("a", (1, 2)), (9, "c"), ("c", 0), (0, 5)]
        structure = graph_structure(universe, edges)
        chosen = ["c", 0, 2, (1, 2), 5, "a", "c"]
        sub = induced(structure, iter(chosen))
        assert list(sub.universe_order) == [
            a for a in structure.universe_order if a in set(chosen)
        ]
        assert sub.relation("E") == frozenset(
            tup for tup in structure.relation("E") if set(tup) <= set(chosen)
        )


class TestTupleConnectivity:
    def test_connectivity_graph_on_path(self, path5):
        # positions: 1->vertex1, 2->vertex2, 3->vertex5
        edges = connectivity_graph(path5, (1, 2, 5), 1)
        assert edges == frozenset({(1, 2)})
        edges2 = connectivity_graph(path5, (1, 2, 5), 3)
        assert edges2 == frozenset({(1, 2), (2, 3)})

    def test_repeated_elements_are_linked(self, path5):
        edges = connectivity_graph(path5, (2, 2), 0)
        assert edges == frozenset({(1, 2)})

    def test_tuple_components(self, path5):
        comps = tuple_components(path5, (1, 2, 5), 1)
        assert sorted(map(sorted, comps)) == [[1, 2], [3]]
        assert not is_tuple_connected(path5, (1, 2, 5), 1)
        assert is_tuple_connected(path5, (1, 2, 5), 4)

    @given(small_graphs(min_vertices=3))
    @settings(max_examples=30, deadline=None)
    def test_lemma_6_1_two_elements(self, structure):
        """Lemma 6.1: N_r(a1,a2) connected iff dist(a1,a2) <= 2r+1."""
        nodes = list(structure.universe_order)
        a1, a2 = nodes[0], nodes[-1]
        r = 1
        region = ball(structure, [a1, a2], r)
        connected = is_connected(induced(structure, region))
        expected = distance(structure, a1, a2) <= 2 * r + 1
        assert connected == expected


class TestRadius:
    def test_radius_of_path_set(self, path5):
        assert radius_of_set(path5, frozenset({1, 2, 3})) == 1
        assert radius_of_set(path5, frozenset({1, 2, 3, 4, 5})) == 2

    def test_radius_of_disconnected_set_is_infinite(self):
        s = graph_structure([1, 2, 3], [(1, 2)])
        assert radius_of_set(s, frozenset({1, 3})) == math.inf

    def test_grid_ball_radius(self):
        g = grid_graph(5, 5)
        centre = (2, 2)
        region = ball(g, [centre], 2)
        assert radius_of_set(g, region) <= 2
