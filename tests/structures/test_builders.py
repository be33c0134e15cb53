"""Tests for the structure builders."""

import pytest

from repro.errors import UniverseError
from repro.structures.builders import (
    balanced_tree,
    complete_graph,
    coloured_graph_structure,
    cycle_graph,
    forest_structure,
    graph_structure,
    grid_graph,
    path_graph,
    star_graph,
    string_signature,
    string_structure,
)
from repro.structures.gaifman import connected_components, distance, is_connected

from ..reference import gaifman_adjacency


class TestGraphBuilders:
    def test_symmetric_closure(self):
        g = graph_structure([1, 2], [(1, 2)])
        assert g.has_tuple("E", (1, 2)) and g.has_tuple("E", (2, 1))

    def test_directed_mode(self):
        g = graph_structure([1, 2], [(1, 2)], symmetric=False)
        assert g.has_tuple("E", (1, 2)) and not g.has_tuple("E", (2, 1))

    def test_path_and_cycle(self):
        assert distance(path_graph(10), 1, 10) == 9
        assert distance(cycle_graph(10), 1, 10) == 1
        assert distance(cycle_graph(10), 1, 6) == 5

    def test_cycle_minimum_size(self):
        with pytest.raises(UniverseError):
            cycle_graph(2)

    def test_complete_graph(self):
        k5 = complete_graph(5)
        assert len(k5.relation("E")) == 20  # 10 undirected edges, both ways
        assert all(distance(k5, 1, v) <= 1 for v in k5.universe)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.order() == 12
        assert distance(g, (0, 0), (2, 3)) == 5
        assert is_connected(g)

    def test_star_degrees(self):
        s = star_graph(7)
        adjacency = gaifman_adjacency(s)
        assert len(adjacency[0]) == 7
        assert all(len(adjacency[i]) == 1 for i in range(1, 8))

    def test_balanced_tree(self):
        t = balanced_tree(2, 3)
        assert t.order() == 1 + 2 + 4 + 8
        assert is_connected(t)
        assert distance(t, (), (0, 0, 0)) == 3

    def test_forest(self):
        f = forest_structure({2: 1, 3: 1, 5: 4})
        assert len(connected_components(f)) == 2


class TestColouredGraphs:
    def test_colours_are_unary_relations(self):
        g = coloured_graph_structure(
            [1, 2, 3], [(1, 2)], red=[1], blue=[2, 3], green=[]
        )
        assert g.has_tuple("R", (1,))
        assert g.has_tuple("B", (3,))
        assert g.relation("G") == frozenset()
        # directed edges
        assert g.has_tuple("E", (1, 2)) and not g.has_tuple("E", (2, 1))


class TestStrings:
    def test_string_signature(self):
        sig = string_signature("ab")
        assert sig["leq"].arity == 2
        assert sig["P_a"].arity == 1

    def test_string_structure_positions(self):
        s = string_structure("abca")
        assert s.order() == 4
        assert s.has_tuple("P_a", (1,)) and s.has_tuple("P_a", (4,))
        assert s.has_tuple("P_b", (2,))
        assert s.has_tuple("leq", (1, 3)) and not s.has_tuple("leq", (3, 1))
        assert s.has_tuple("leq", (2, 2))

    def test_empty_word_rejected(self):
        with pytest.raises(UniverseError):
            string_structure("")

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(UniverseError):
            string_structure("abd", alphabet="abc")

    def test_gaifman_graph_of_string_is_clique(self):
        # The linear order makes every pair adjacent: strings have unbounded
        # degree — why Theorem 4.3 is interesting.
        s = string_structure("aaaa")
        assert all(len(gaifman_adjacency(s)[p]) == 3 for p in s.universe)
