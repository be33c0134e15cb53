"""E13 — the composed Section 8.2 loop.

Measures the full pipeline (sparse cover -> per-cluster -> splitter move ->
removal surgery -> Lemma 7.9 rewriting -> recombination) against the plain
ball-exploration evaluation of the same basic cl-term, and records how much
machinery each run engaged (clusters, removals, base-case sizes).
"""

import pytest

from repro.core.clterms import BasicClTerm
from repro.core.local_eval import evaluate_basic_unary
from repro.core.main_algorithm import (
    MainAlgorithmStats,
    evaluate_unary_main_algorithm,
)
from repro.logic.builder import Rel
from repro.logic.syntax import And, Eq, Not
from repro.sparse.classes import nearly_square_grid, random_tree

E = Rel("E", 2)

TERM = BasicClTerm(
    ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
)

# Three variables: 4 Lemma 7.9 parts per cluster instead of 2.
PATH_TERM = BasicClTerm(
    ("y1", "y2", "y3"),
    And(And(E("y1", "y2"), E("y2", "y3")), Not(Eq("y1", "y3"))),
    0,
    1,
    frozenset({(1, 2), (2, 3)}),
    unary=True,
)

FAMILIES = {
    "grid": lambda n: nearly_square_grid(n),
    "tree": lambda n: random_tree(n, seed=6),
}

SIZES = (64, 256)


def _main_algorithm(benchmark, family, n, term):
    structure = FAMILIES[family](n)

    def run():
        local_stats = MainAlgorithmStats()
        return evaluate_unary_main_algorithm(
            structure, term, depth=1, stats=local_stats
        ), local_stats

    (values, stats) = benchmark(run)
    assert values == evaluate_basic_unary(structure, term)
    benchmark.extra_info["family"] = family
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["clusters"] = stats.clusters_processed
    benchmark.extra_info["removals"] = stats.removals


def _ball_exploration(benchmark, family, n, term):
    structure = FAMILIES[family](n)
    values = benchmark(evaluate_basic_unary, structure, term)
    benchmark.extra_info["family"] = family
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["total"] = sum(values.values())


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_main_algorithm(benchmark, family, n):
    _main_algorithm(benchmark, family, n, TERM)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_main_algorithm_path(benchmark, family, n):
    _main_algorithm(benchmark, family, n, PATH_TERM)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_ball_exploration_baseline(benchmark, family, n):
    _ball_exploration(benchmark, family, n, TERM)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_ball_exploration_baseline_path(benchmark, family, n):
    _ball_exploration(benchmark, family, n, PATH_TERM)
