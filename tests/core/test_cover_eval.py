"""Tests for cover-based evaluation (Definitions 7.4 / 7.5, Section 8.2)."""

import pytest
from hypothesis import given, settings

from repro.core.clterms import CoverTerm
from repro.core.cover_eval import (
    evaluate_basic_cover_unary,
    evaluate_cover_polynomial_unary,
    evaluate_cover_term,
    evaluate_per_cluster,
)
from repro.core.decomposition import decompose_cover_term
from repro.errors import FormulaError
from repro.logic.builder import Rel
from repro.logic.syntax import And, Eq, Exists, Not, Top
from repro.sparse.covers import CoverError, sparse_cover, trivial_cover
from repro.structures.builders import grid_graph, path_graph

from ..conftest import small_graphs
from ..reference import gaifman_adjacency

E = Rel("E", 2)


def degree_cover_term(unary=True):
    return CoverTerm(
        variables=("y1", "y2"),
        edges=frozenset({(1, 2)}),
        link_distance=1,
        component_formulas=((frozenset({1, 2}), E("y1", "y2")),),
        unary=unary,
    )


class TestBasicCoverEvaluation:
    def test_degree_term_on_grid(self):
        g = grid_graph(4, 4)
        cover = sparse_cover(g, 2)
        values = evaluate_basic_cover_unary(g, cover, degree_cover_term())
        adjacency = gaifman_adjacency(g)
        assert values == {a: len(adjacency[a]) for a in g.universe_order}

    def test_local_psi_checked_inside_cluster(self):
        """psi with a quantifier: 'y2 has a second neighbour'.  The cluster
        must contain enough context — guaranteed by the cover property."""
        p = path_graph(8)
        cover = sparse_cover(p, 2)
        psi = And(
            E("y1", "y2"), Exists("z", And(E("y2", "z"), Not(Eq("z", "y1"))))
        )
        term = CoverTerm(
            ("y1", "y2"),
            frozenset({(1, 2)}),
            1,
            ((frozenset({1, 2}), psi),),
            unary=True,
        )
        values = evaluate_basic_cover_unary(p, cover, term)
        # vertex 1: neighbour 2 has second neighbour 3 -> 1
        assert values[1] == 1
        # vertex 2: neighbour 1 has no second neighbour; neighbour 3 has 4
        assert values[2] == 1
        # interior vertex 4: both neighbours have second neighbours
        assert values[4] == 2

    def test_well_definedness_check_passes_for_local_psi(self):
        g = grid_graph(4, 4)
        cover = trivial_cover(g, 3)
        values = evaluate_basic_cover_unary(
            g, cover, degree_cover_term(), check_well_defined=True
        )
        assert sum(values.values()) == len(g.relation("E"))

    def test_ground_term_requires_matching_kind(self):
        g = path_graph(4)
        cover = sparse_cover(g, 1)
        with pytest.raises(FormulaError):
            evaluate_basic_cover_unary(g, cover, degree_cover_term(unary=False))


class TestCoverTermReference:
    @given(small_graphs(min_vertices=2, max_vertices=5))
    @settings(max_examples=15, deadline=None)
    def test_reference_matches_pattern_walk(self, structure):
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        reference = evaluate_cover_term(structure, cover, term)
        walked = evaluate_basic_cover_unary(structure, cover, term)
        assert reference == walked

    def test_disconnected_cover_term_reference(self):
        p = path_graph(6)
        cover = sparse_cover(p, 2)
        term = CoverTerm(
            variables=("y1", "y2"),
            edges=frozenset(),
            link_distance=1,
            component_formulas=(
                (frozenset({1}), Exists("z", E("y1", "z"))),
                (frozenset({2}), Exists("z", E("y2", "z"))),
            ),
            unary=False,
        )
        value = evaluate_cover_term(p, cover, term)
        # all vertices have a neighbour; pairs at distance > 1: 6*6 pairs
        # minus pairs at distance <= 1 (6 + 2*5 = 16) -> 20
        assert value == 20

    @given(small_graphs(min_vertices=2, max_vertices=5))
    @settings(max_examples=12, deadline=None)
    def test_lemma_7_6_with_cover_semantics(self, structure):
        """Decompose a disconnected cover term and evaluate the polynomial
        *with cover semantics*: must equal the reference semantics."""
        cover = sparse_cover(structure, 2)
        term = CoverTerm(
            variables=("y1", "y2"),
            edges=frozenset(),
            link_distance=1,
            component_formulas=(
                (frozenset({1}), Exists("z", E("y1", "z"))),
                (frozenset({2}), Top()),
            ),
            unary=True,
        )
        reference = evaluate_cover_term(structure, cover, term)
        poly = decompose_cover_term(term, psi_radius=1)
        values = evaluate_cover_polynomial_unary(structure, cover, poly)
        assert values == reference


class TestPerClusterAlgorithm:
    def test_matches_semantic_path_on_grid(self):
        g = grid_graph(5, 5)
        term = degree_cover_term()
        # need a k*r = 2*1 = 2 neighbourhood cover
        cover = sparse_cover(g, 2)
        per_cluster = evaluate_per_cluster(g, cover, term)
        semantic = evaluate_basic_cover_unary(g, cover, term)
        assert per_cluster == semantic

    def test_radius_precondition_enforced(self):
        g = grid_graph(3, 3)
        term = CoverTerm(
            variables=("y1", "y2", "y3"),
            edges=frozenset({(1, 2), (2, 3)}),
            link_distance=2,
            component_formulas=((frozenset({1, 2, 3}), Top()),),
            unary=True,
        )
        small = sparse_cover(g, 2)  # needs 3 * 2 = 6
        with pytest.raises(CoverError):
            evaluate_per_cluster(g, small, term)

    @given(small_graphs(min_vertices=2, max_vertices=6))
    @settings(max_examples=15, deadline=None)
    def test_per_cluster_matches_naive(self, structure):
        term = degree_cover_term()
        cover = sparse_cover(structure, 2)
        per_cluster = evaluate_per_cluster(structure, cover, term)
        adjacency = gaifman_adjacency(structure)
        assert per_cluster == {
            a: len(adjacency[a]) for a in structure.universe_order
        }
