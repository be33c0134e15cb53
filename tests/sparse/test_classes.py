"""Tests for the structure-family generators."""

import pytest

from repro.errors import UniverseError
from repro.sparse.classes import (
    DENSE_FAMILIES,
    SPARSE_FAMILIES,
    bounded_degree_graph,
    caterpillar,
    coloured_digraph,
    dense_random_graph,
    long_subdivided_clique,
    nearly_square_grid,
    random_tree,
    sparse_random_graph,
    triangulated_grid,
)
from repro.structures.gaifman import is_connected

from ..reference import gaifman_adjacency


class TestGenerators:
    def test_random_tree_is_a_tree(self):
        t = random_tree(50, seed=3)
        assert is_connected(t)
        # a tree on n vertices has n-1 undirected edges = 2(n-1) pairs
        assert len(t.relation("E")) == 2 * 49

    def test_random_tree_deterministic(self):
        assert random_tree(30, seed=7) == random_tree(30, seed=7)
        assert random_tree(30, seed=7) != random_tree(30, seed=8)

    def test_bounded_degree_cap_respected(self):
        g = bounded_degree_graph(60, max_degree=3, seed=1)
        assert max(len(ns) for ns in gaifman_adjacency(g).values()) <= 3

    def test_sparse_random_graph_edge_budget(self):
        g = sparse_random_graph(100, average_degree=2.0, seed=0)
        assert len(g.relation("E")) == 2 * 100  # m = avg*n/2 = 100 edges

    def test_dense_random_graph_probability_bounds(self):
        g = dense_random_graph(20, probability=1.0, seed=0)
        assert len(g.relation("E")) == 20 * 19
        empty = dense_random_graph(20, probability=0.0, seed=0)
        assert len(empty.relation("E")) == 0
        with pytest.raises(UniverseError):
            dense_random_graph(5, probability=1.5)

    def test_triangulated_grid_planar_density(self):
        g = triangulated_grid(4, 4)
        # grid edges 2*r*c - r - c = 24, plus 9 diagonals
        assert len(g.relation("E")) == 2 * (24 + 9)

    def test_caterpillar_is_tree(self):
        c = caterpillar(10, legs_per_vertex=2, seed=0)
        assert is_connected(c)
        assert len(c.relation("E")) == 2 * (c.order() - 1)

    def test_subdivided_clique(self):
        g = long_subdivided_clique(4, 3)
        assert is_connected(g)
        # 4 + 6 edges * 3 middles
        assert g.order() == 4 + 6 * 3
        assert max(len(ns) for ns in gaifman_adjacency(g).values()) == 3

    def test_coloured_digraph_signature(self):
        g = coloured_digraph(30, 2.0, seed=2)
        assert set(g.signature.names) == {"B", "E", "G", "R"}

    def test_nearly_square_grid_size(self):
        g = nearly_square_grid(100)
        assert 100 <= g.order() <= 110


class TestFamilyRegistries:
    @pytest.mark.parametrize("name", sorted(SPARSE_FAMILIES))
    def test_sparse_families_generate(self, name):
        structure = SPARSE_FAMILIES[name](30, 0)
        assert structure.order() >= 25

    @pytest.mark.parametrize("name", sorted(DENSE_FAMILIES))
    def test_dense_families_generate(self, name):
        structure = DENSE_FAMILIES[name](15, 0)
        assert structure.order() == 15

    def test_sparse_families_really_sparse(self):
        from repro.sparse.measures import degeneracy

        for name, make in SPARSE_FAMILIES.items():
            g = make(60, 0)
            assert degeneracy(g) <= 5, name

    def test_dense_controls_really_dense(self):
        from repro.sparse.measures import degeneracy

        clique = DENSE_FAMILIES["clique"](30, 0)
        assert degeneracy(clique) == 29
