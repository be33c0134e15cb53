"""Tests for the Theorem 4.1 reduction: FO on graphs -> FOC({P=}) on trees."""

import pytest
from hypothesis import given, settings

from repro.core.evaluator import Foc1Evaluator
from repro.errors import FormulaError
from repro.hardness.tree_reduction import (
    build_tree,
    psi_a,
    psi_b,
    psi_c,
    psi_e,
    reduce_instance,
    translate_sentence,
)
from repro.logic.foc1 import is_foc1
from repro.logic.parser import parse_formula
from repro.logic.semantics import satisfies
from repro.logic.syntax import expression_size, free_variables
from repro.structures.builders import graph_structure
from repro.structures.gaifman import distance, is_connected

from ..conftest import small_graphs
from ..reference import gaifman_adjacency

ENGINE = Foc1Evaluator(check_fragment=False)

SENTENCES = [
    "exists x. exists y. E(x, y)",
    "exists x. exists y. exists z. (E(x, y) & E(y, z) & E(x, z))",
    "forall x. exists y. E(x, y)",
    "exists x. !(exists y. E(x, y))",
    "forall x. forall y. (E(x, y) -> exists z. (E(y, z) & !(z = x)))",
]


def _sample_graph(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 5)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.45
    ]
    return graph_structure(range(1, n + 1), edges)


class TestGadget:
    def test_tree_is_a_tree(self):
        g = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
        reduction = build_tree(g)
        tree = reduction.tree
        assert is_connected(tree)
        assert len(tree.relation("E")) == 2 * (tree.order() - 1)

    def test_height_at_most_three(self):
        g = graph_structure([1, 2, 3, 4], [(1, 2), (3, 4), (2, 3)])
        tree = build_tree(g).tree
        root = ("r",)
        assert all(distance(tree, root, v) <= 3 for v in tree.universe_order)

    def test_quadratic_size_bound(self):
        """||T_G|| = O(||G||^2) — the reduction is polynomial."""
        for n in (2, 4, 8, 16):
            g = graph_structure(
                range(1, n + 1), [(i, i + 1) for i in range(1, n)]
            )
            tree = build_tree(g).tree
            assert tree.size() <= 20 * (g.size() ** 2)

    def test_vertex_map_identifies_by_b_count(self):
        g = graph_structure([10, 20], [(10, 20)])
        reduction = build_tree(g)
        tree = reduction.tree
        adjacency = gaifman_adjacency(tree)
        for index, vertex in enumerate([10, 20], start=1):
            a_vertex = reduction.vertex_map[vertex]
            b_children = [w for w in adjacency[a_vertex] if w[0] == "b"]
            assert len(b_children) == index + 1

    def test_vertex_classification_formulas(self):
        g = graph_structure([1, 2], [(1, 2)])
        tree = build_tree(g).tree
        kinds = {"a": psi_a, "b": psi_b, "c": psi_c, "e": psi_e}
        for vertex in tree.universe_order:
            for kind, formula in kinds.items():
                expected = vertex[0] == kind
                assert (
                    satisfies(tree, formula("x"), {"x": vertex}) == expected
                ), (vertex, kind)


class TestTranslation:
    def test_output_is_foc_but_not_foc1(self):
        phi_hat = translate_sentence(parse_formula(SENTENCES[0]))
        assert not free_variables(phi_hat)
        assert not is_foc1(phi_hat)

    def test_polynomial_formula_growth(self):
        sizes = []
        for depth in (1, 2, 3, 4):
            quantifiers = "".join(f"exists x{i}. " for i in range(depth))
            body = " & ".join(f"E(x0, x{i})" for i in range(1, depth)) or "E(x0, x0)"
            phi = parse_formula(quantifiers + "(" + body + ")")
            sizes.append(expression_size(translate_sentence(phi)))
        # growth should be at most linear in the input size here
        assert sizes[-1] < sizes[0] * 10

    def test_free_variables_rejected(self):
        with pytest.raises(FormulaError):
            translate_sentence(parse_formula("E(x, y)"))

    def test_non_graph_signature_rejected(self):
        with pytest.raises(FormulaError):
            translate_sentence(parse_formula("exists x. R(x)"))


class TestEquivalence:
    """The headline property: G |= phi  iff  T_G |= phi-hat."""

    @pytest.mark.parametrize("source", SENTENCES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_on_samples(self, source, seed):
        g = _sample_graph(seed)
        phi = parse_formula(source)
        tree, phi_hat = reduce_instance(g, phi)
        assert satisfies(g, phi) == ENGINE.model_check(tree, phi_hat)

    @given(small_graphs(min_vertices=1, max_vertices=4))
    @settings(max_examples=8, deadline=None)
    def test_triangle_detection_random(self, structure):
        phi = parse_formula(SENTENCES[1])
        tree, phi_hat = reduce_instance(structure, phi)
        assert satisfies(structure, phi) == ENGINE.model_check(tree, phi_hat)
