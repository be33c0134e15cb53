"""E11 — the Removal Lemma (Lemmas 7.8 / 7.9).

Paper claim: "for fixed sigma and r, we can compute A astrix_r d from A and
d in linear time", and the formula/term rewriting preserves semantics — the
recursion step of the Section 8.2 algorithm.

Measured shape: surgery time grows linearly in ||A||; a cluster surgery
(``within=X``, the main algorithm's per-cluster step) costs the tuples that
touch X, not ||A||; the size of the rewritten formula depends only on the
formula and r (not on A); the equivalence holds (asserted).
"""

import pytest

from repro.core.removal import (
    removal_formula,
    removal_ground_term,
    remove_element,
)
from repro.logic.parser import parse_formula
from repro.logic.semantics import satisfies
from repro.logic.syntax import expression_size
from repro.sparse.classes import nearly_square_grid, random_tree
from repro.structures.gaifman import ball, induced

RADIUS = 3
SIZES = (100, 400, 1600)


@pytest.mark.parametrize("n", SIZES)
def test_surgery_cost_on_grid(benchmark, n):
    structure = nearly_square_grid(n)
    victim = structure.universe_order[n // 2]
    removed = benchmark(remove_element, structure, victim, RADIUS)
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["removed_size"] = removed.size()
    assert removed.order() == structure.order() - 1


@pytest.mark.parametrize("n", SIZES)
def test_surgery_cost_on_tree(benchmark, n):
    structure = random_tree(n, seed=n)
    victim = structure.universe_order[0]
    removed = benchmark(remove_element, structure, victim, RADIUS)
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["removed_size"] = removed.size()


def test_cluster_surgery_on_grid(benchmark):
    """``A[X] astrix_r d`` for a radius-2r ball X, straight from A."""
    structure = nearly_square_grid(1600)
    victim = structure.universe_order[1600 // 2]
    cluster = ball(structure, [victim], 2 * RADIUS)
    removed = benchmark(remove_element, structure, victim, RADIUS, within=cluster)
    want = remove_element(induced(structure, cluster), victim, RADIUS)
    assert removed == want and removed.universe_order == want.universe_order
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["cluster"] = len(cluster)
    benchmark.extra_info["removed_size"] = removed.size()


FORMULAS = [
    "exists z. (E(x, z) & dist(z, y) <= 2)",
    "forall z. (E(x, z) -> exists w. (E(z, w) & !(w = y)))",
]


@pytest.mark.parametrize("source", FORMULAS)
def test_formula_rewriting_cost(benchmark, source):
    phi = parse_formula(source)
    rewritten = benchmark(removal_formula, phi, frozenset({"x"}), RADIUS)
    benchmark.extra_info["input_size"] = expression_size(phi)
    benchmark.extra_info["output_size"] = expression_size(rewritten)


def test_equivalence_spot_check(brute_engine):
    structure = random_tree(40, seed=1)
    phi = parse_formula("exists z. (E(x, z) & dist(z, y) <= 2)")
    victim = structure.universe_order[5]
    removed = remove_element(structure, victim, RADIUS)
    nodes = [a for a in structure.universe_order if a != victim][:6]
    for a in nodes:
        for b in nodes:
            rewritten = removal_formula(phi, frozenset(), RADIUS)
            assert satisfies(structure, phi, {"x": a, "y": b}) == satisfies(
                removed, rewritten, {"x": a, "y": b}
            )


def test_term_rewriting_part_count(benchmark):
    body = parse_formula("E(y1, y2) & dist(y1, y3) <= 2")
    parts = benchmark(removal_ground_term, ("y1", "y2", "y3"), body, RADIUS)
    assert len(parts) == 8  # all subsets of three counted variables
    benchmark.extra_info["parts"] = len(parts)
