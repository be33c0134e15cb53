"""Tests for locality machinery: distance formulas, delta_G,r, scattered
sentences, and semantic r-locality."""

import pytest
from hypothesis import given, settings

from repro.errors import FormulaError
from repro.logic.builder import Rel
from repro.logic.locality import (
    ScatteredSentence,
    adjacency_formula,
    all_graphs_on,
    delta_formula,
    dist_formula,
    dist_gt_formula,
    expand_distance_atoms,
    gaifman_locality_radius,
    graph_components,
    is_connected_graph,
    is_r_local_at,
    quantifier_rank,
)
from repro.logic.semantics import satisfies
from repro.logic.syntax import And, DistAtom, Eq, Exists, Not
from repro.structures.builders import grid_graph, path_graph
from repro.structures.gaifman import connectivity_graph, distance
from repro.structures.signature import GRAPH_SIGNATURE, Signature

from ..conftest import small_graphs
from ..reference import gaifman_adjacency

E = Rel("E", 2)


class TestQuantifierRank:
    def test_basic(self):
        assert quantifier_rank(E("x", "y")) == 0
        assert quantifier_rank(Exists("x", Exists("y", E("x", "y")))) == 2
        assert (
            quantifier_rank(And(Exists("x", E("x", "y")), Exists("z", E("z", "y"))))
            == 1
        )

    def test_counting_rejected(self):
        from repro.logic.parser import parse_formula

        with pytest.raises(FormulaError):
            quantifier_rank(parse_formula("@geq1(#(y). E(x, y))"))

    def test_gaifman_radius_grows(self):
        phi0 = E("x", "y")
        phi2 = Exists("z", Exists("w", And(E("x", "z"), E("w", "y"))))
        assert gaifman_locality_radius(phi0) == 0
        assert gaifman_locality_radius(phi2) == (49 - 1) // 2


class TestDistanceFormulas:
    @given(small_graphs(min_vertices=2), )
    @settings(max_examples=30, deadline=None)
    def test_adjacency_formula(self, structure):
        phi = adjacency_formula("x", "y", GRAPH_SIGNATURE)
        nodes = list(structure.universe_order)
        adjacency = gaifman_adjacency(structure)
        for a in nodes[:3]:
            for b in nodes[:3]:
                assert satisfies(structure, phi, {"x": a, "y": b}) == (
                    b in adjacency[a]
                )

    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 5])
    def test_dist_formula_on_path(self, radius):
        p = path_graph(8)
        phi = dist_formula("x", "y", radius, GRAPH_SIGNATURE)
        for a in [1, 4, 8]:
            for b in [1, 2, 6, 8]:
                expected = distance(p, a, b) <= radius
                assert satisfies(p, phi, {"x": a, "y": b}) == expected

    def test_dist_gt(self):
        p = path_graph(5)
        phi = dist_gt_formula("x", "y", 2, GRAPH_SIGNATURE)
        assert satisfies(p, phi, {"x": 1, "y": 5})
        assert not satisfies(p, phi, {"x": 1, "y": 3})

    def test_expand_distance_atoms(self):
        p = path_graph(6)
        phi = And(DistAtom("x", "y", 2), Not(DistAtom("x", "y", 1)))
        expanded = expand_distance_atoms(phi, GRAPH_SIGNATURE)
        from repro.logic.syntax import subexpressions

        assert not any(isinstance(n, DistAtom) for n in subexpressions(expanded))
        for a, b in [(1, 3), (1, 2), (1, 5)]:
            assert satisfies(p, phi, {"x": a, "y": b}) == satisfies(
                p, expanded, {"x": a, "y": b}
            )

    def test_higher_arity_adjacency(self):
        sig = Signature.of(T=3)
        from repro.structures.structure import Structure

        s = Structure(sig, [1, 2, 3, 4], {"T": [(1, 2, 3)]})
        phi = adjacency_formula("x", "y", sig)
        assert satisfies(s, phi, {"x": 1, "y": 3})
        assert not satisfies(s, phi, {"x": 1, "y": 4})
        assert not satisfies(s, phi, {"x": 1, "y": 1})

    def test_empty_signature_adjacency_is_false(self):
        sig = Signature.of(R=1)
        from repro.structures.structure import Structure

        s = Structure(sig, [1, 2], {"R": [(1,)]})
        phi = adjacency_formula("x", "y", sig)
        assert not satisfies(s, phi, {"x": 1, "y": 2})


class TestPatternGraphs:
    def test_all_graphs_on(self):
        assert len(all_graphs_on(1)) == 1
        assert len(all_graphs_on(2)) == 2
        assert len(all_graphs_on(3)) == 8
        assert len(all_graphs_on(4)) == 64

    def test_components_and_connectivity(self):
        edges = frozenset({(1, 2), (3, 4)})
        comps = graph_components(4, edges)
        assert sorted(map(sorted, comps)) == [[1, 2], [3, 4]]
        assert not is_connected_graph(4, edges)
        assert is_connected_graph(3, frozenset({(1, 2), (2, 3)}))

    @given(small_graphs(min_vertices=3, max_vertices=6))
    @settings(max_examples=25, deadline=None)
    def test_delta_formula_matches_connectivity_graph(self, structure):
        nodes = list(structure.universe_order)
        tup = (nodes[0], nodes[-1], nodes[len(nodes) // 2])
        radius = 1
        actual_edges = connectivity_graph(structure, tup, radius)
        phi = delta_formula(("y1", "y2", "y3"), actual_edges, radius)
        env = {"y1": tup[0], "y2": tup[1], "y3": tup[2]}
        assert satisfies(structure, phi, env)
        # a wrong pattern must be rejected
        for other in all_graphs_on(3):
            if other != actual_edges:
                wrong = delta_formula(("y1", "y2", "y3"), other, radius)
                assert not satisfies(structure, wrong, env)

    def test_delta_edge_out_of_range(self):
        with pytest.raises(FormulaError):
            delta_formula(("y1", "y2"), [(1, 3)], 1)


class TestSemanticLocality:
    def test_quantifier_free_is_0_local(self, sparse20):
        phi = And(E("x", "y"), Not(Eq("x", "y")))
        nodes = list(sparse20.universe_order)
        for a, b in [(nodes[0], nodes[1]), (nodes[2], nodes[5])]:
            assert is_r_local_at(sparse20, phi, ["x", "y"], [a, b], 0)

    def test_degree_formula_is_1_local(self, sparse20):
        phi = Exists("z", And(E("x", "z"), Not(Eq("z", "y"))))
        nodes = list(sparse20.universe_order)
        for a, b in [(nodes[0], nodes[1]), (nodes[3], nodes[7])]:
            assert is_r_local_at(sparse20, phi, ["x", "y"], [a, b], 1)

    def test_non_local_formula_detected(self):
        # "there exists some edge" is not 0-local around x
        p = path_graph(6)
        phi = Exists("u", Exists("v", E("u", "v")))
        assert not is_r_local_at(p, phi, ["x"], [1], 0)


class TestScatteredSentences:
    def test_build_and_naive_agree(self):
        p = path_graph(9)
        sentence = ScatteredSentence(
            count=2, min_distance=2, variable="y", psi=Exists("z", E("y", "z"))
        )
        assert satisfies(p, sentence.build())
        assert sentence.holds_in(p)

    def test_witnesses_are_scattered(self):
        g = grid_graph(4, 4)
        sentence = ScatteredSentence(
            count=3, min_distance=2, variable="y", psi=Eq("y", "y")
        )
        witnesses = sentence.witnesses(g)
        assert witnesses is not None
        for i, a in enumerate(witnesses):
            for b in witnesses[i + 1 :]:
                assert distance(g, a, b) > 2

    def test_unsatisfiable(self):
        p = path_graph(3)
        sentence = ScatteredSentence(
            count=3, min_distance=2, variable="y", psi=Eq("y", "y")
        )
        assert sentence.witnesses(p) is None
        assert not satisfies(p, sentence.build())

    @given(small_graphs(min_vertices=2, max_vertices=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_semantics(self, structure):
        sentence = ScatteredSentence(
            count=2, min_distance=1, variable="y", psi=Exists("z", E("y", "z"))
        )
        assert sentence.holds_in(structure) == satisfies(structure, sentence.build())

    def test_extra_free_variable_rejected(self):
        with pytest.raises(FormulaError):
            ScatteredSentence(count=1, min_distance=0, variable="y", psi=E("y", "z"))
