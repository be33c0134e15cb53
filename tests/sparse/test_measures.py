"""Tests for sparsity measures."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.sparse.measures import (
    ball_growth,
    degeneracy,
    degree_statistics,
    sparsity_report,
)
from repro.structures.builders import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)

from ..conftest import small_graphs
from ..reference import gaifman_adjacency


class TestDegeneracy:
    def test_known_values(self):
        assert degeneracy(path_graph(10)) == 1
        assert degeneracy(cycle_graph(10)) == 2
        assert degeneracy(complete_graph(7)) == 6
        assert degeneracy(grid_graph(5, 5)) == 2

    @given(small_graphs(min_vertices=2, max_vertices=7))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx_core_number(self, structure):
        g = nx.Graph()
        g.add_nodes_from(structure.universe_order)
        for a, ns in gaifman_adjacency(structure).items():
            for b in ns:
                g.add_edge(a, b)
        expected = max(nx.core_number(g).values()) if g.number_of_nodes() else 0
        assert degeneracy(structure) == expected


class TestDegreeStatistics:
    def test_path(self):
        stats = degree_statistics(path_graph(5))
        assert stats["min_degree"] == 1
        assert stats["max_degree"] == 2
        assert stats["avg_degree"] == pytest.approx(8 / 5)


class TestBallGrowth:
    def test_path_growth_is_linear(self):
        growth = ball_growth(path_graph(50), 4)
        # interior vertices have |N_i| = 2i + 1
        assert growth[0] == 1
        assert growth[4] <= 9

    def test_clique_saturates_immediately(self):
        growth = ball_growth(complete_graph(30), 2)
        assert growth[1] == 30
        assert growth[2] == 30

    def test_sample_restriction(self):
        growth = ball_growth(path_graph(50), 2, sample=[25])
        assert growth[2] == 5


class TestReport:
    def test_report_fields(self):
        report = sparsity_report(grid_graph(6, 6), radius=2)
        assert report["order"] == 36
        assert report["degeneracy"] == 2
        assert 0 < report["ball_saturation"] <= 1
        assert set(report["ball_growth"]) == {0, 1, 2}

    def test_saturation_separates_classes(self):
        sparse = sparsity_report(grid_graph(8, 8), radius=3)["ball_saturation"]
        dense = sparsity_report(complete_graph(64), radius=3)["ball_saturation"]
        assert sparse < 0.5 < dense
