"""Seeded differential tests: parallel output is byte-identical to serial.

The determinism guarantee (docs/PARALLEL.md) says every parallel entry
point produces the *same dict, in the same insertion order*, as the serial
loop, for every worker count.  These tests enforce it across seeded random
structures for the entry points that fan out to child processes —
:func:`~repro.core.cover_eval.evaluate_per_cluster` and
:meth:`~repro.core.evaluator.Foc1Evaluator.count_many` — and check that
the inline ones stay inline at ``workers > 1``.

Plain ``random.Random(seed)`` so each case is a fixed, individually
re-runnable pytest id.
"""

import random

import pytest

from repro.core.clterms import BasicClTerm, CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.core.evaluator import Foc1Evaluator
from repro.core.main_algorithm import (
    MainAlgorithmStats,
    evaluate_unary_main_algorithm,
)
from repro.logic.builder import Rel
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import NumericalPredicate, PredicateCollection
from repro.parallel import ParallelError
from repro.parallel import pool as pool_module
from repro.robust import RetryPolicy
from repro.robust.guard import RobustEvaluator
from repro.sparse.covers import sparse_cover
from repro.structures.builders import graph_structure, grid_graph

E = Rel("E", 2)

SEEDS = range(30)


def _random_graph(rng: random.Random, max_n: int = 12):
    n = rng.randint(2, max_n)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.3]
    return graph_structure(vertices, edges)


def degree_cover_term():
    return CoverTerm(
        variables=("y1", "y2"),
        edges=frozenset({(1, 2)}),
        link_distance=1,
        component_formulas=((frozenset({1, 2}), E("y1", "y2")),),
        unary=True,
    )


class TestPerClusterParallelParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_workers_1_vs_4_byte_identical(self, seed):
        rng = random.Random(1000 + seed)
        structure = _random_graph(rng)
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        serial = evaluate_per_cluster(structure, cover, term)
        one = evaluate_per_cluster(structure, cover, term, workers=1)
        four = evaluate_per_cluster(structure, cover, term, workers=4)
        # Byte-identical: same values AND same dict insertion order.
        assert list(one.items()) == list(serial.items())
        assert list(four.items()) == list(serial.items())

    @pytest.mark.parametrize("seed", (0, 7, 19))
    def test_odd_worker_counts_agree_too(self, seed):
        rng = random.Random(2000 + seed)
        structure = _random_graph(rng)
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        serial = evaluate_per_cluster(structure, cover, term)
        for workers in (2, 3, 5):
            parallel = evaluate_per_cluster(
                structure, cover, term, workers=workers
            )
            assert list(parallel.items()) == list(serial.items())


class TestCountManyParallelParity:
    FORMULAS = (
        ("E(x, y)", ["x", "y"]),
        ("E(x, y) & E(y, z)", ["x", "y", "z"]),
        ("exists y. E(x, y)", ["x"]),
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_workers_1_vs_4_identical_and_match_serial_counts(self, seed):
        rng = random.Random(3000 + seed)
        structures = [_random_graph(rng, max_n=8) for _ in range(rng.randint(2, 5))]
        text, variables = self.FORMULAS[seed % len(self.FORMULAS)]
        phi = parse_formula(text)
        serial_engine = Foc1Evaluator()
        expected = [
            serial_engine.count(s, phi, variables) for s in structures
        ]
        one = Foc1Evaluator(workers=1).count_many(structures, phi, variables)
        four = Foc1Evaluator(workers=4).count_many(structures, phi, variables)
        assert one == expected
        assert four == expected

    def test_empty_batch(self):
        phi = parse_formula("E(x, y)")
        assert Foc1Evaluator(workers=4).count_many([], phi, ["x", "y"]) == []

    def test_order_matches_input_order(self):
        rng = random.Random(99)
        structures = [_random_graph(rng, max_n=6) for _ in range(6)]
        phi = parse_formula("E(x, y)")
        counts = Foc1Evaluator(workers=3).count_many(structures, phi, ["x", "y"])
        expected = [
            Foc1Evaluator().count(s, phi, ["x", "y"]) for s in structures
        ]
        assert counts == expected

    @pytest.mark.parametrize("workers", (2, 3, 5))
    def test_odd_worker_counts_agree_too(self, workers):
        rng = random.Random(3500 + workers)
        structures = [_random_graph(rng, max_n=8) for _ in range(5)]
        phi = parse_formula("E(x, y) & E(y, z)")
        expected = Foc1Evaluator(workers=1).count_many(
            structures, phi, ["x", "y", "z"]
        )
        parallel = Foc1Evaluator(workers=workers).count_many(
            structures, phi, ["x", "y", "z"]
        )
        assert parallel == expected


def _at_least_one(values):
    return values[0] >= 1


def _within_one(values):
    return abs(values[0] - values[1]) <= 1


def _custom_collection():
    """A collection of module-level functions, so it pickles; its ``eq``
    holds for counts within one of each other."""
    return PredicateCollection(
        [
            NumericalPredicate("geq1", 1, _at_least_one),
            NumericalPredicate("eq", 2, _within_one),
        ]
    )


class TestCountManyPredicates:
    """Child processes evaluate with the engine's own collection."""

    FORMULA = "@eq(#(y). E(x, y), 3)"

    def test_picklable_custom_collection_gives_the_serial_answer(self):
        structures = [grid_graph(4, 4), grid_graph(5, 5)]
        phi = parse_formula(self.FORMULA)
        serial = Foc1Evaluator(
            predicates=_custom_collection(), workers=1
        ).count_many(structures, phi, ["x"])
        assert serial == [16, 25]  # every grid degree is within one of 3
        parallel = Foc1Evaluator(
            predicates=_custom_collection(), workers=2
        ).count_many(structures, phi, ["x"])
        assert parallel == serial

    def test_closure_collection_raises_parallel_error(self):
        near = PredicateCollection(
            [
                NumericalPredicate("geq1", 1, _at_least_one),
                NumericalPredicate("eq", 2, lambda v: abs(v[0] - v[1]) <= 1),
            ]
        )
        engine = Foc1Evaluator(predicates=near, workers=2)
        with pytest.raises(ParallelError, match="pickle"):
            engine.count_many(
                [grid_graph(4, 4), grid_graph(5, 5)],
                parse_formula(self.FORMULA),
                ["x"],
            )

    def test_robust_default_collection_crosses_as_none(self):
        structures = [grid_graph(4, 4), grid_graph(5, 5)]
        phi = parse_formula(self.FORMULA)
        serial = Foc1Evaluator(workers=1).count_many(structures, phi, ["x"])
        assert serial == [8, 12]  # the degree-3 vertices: boundary non-corners
        engine = RobustEvaluator(workers=2)
        assert engine.count_many(structures, phi, ["x"]) == serial
        assert engine.last_report.answered_by == "foc1"


def _no_pool(*args, **kwargs):
    raise AssertionError("an inline path started a process pool")


class TestInlineAtEveryWorkerCount:
    @pytest.mark.parametrize("seed", (1, 8, 13, 27))
    def test_unary_term_values_parity(self, seed, monkeypatch):
        rng = random.Random(5000 + seed)
        structure = _random_graph(rng)
        term = parse_term("#(y). E(x, y)")
        serial = Foc1Evaluator(workers=1).unary_term_values(structure, term, "x")
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        four = Foc1Evaluator(workers=4).unary_term_values(structure, term, "x")
        assert list(four.items()) == list(serial.items())

    @pytest.mark.parametrize("seed", (1, 10, 16, 27))
    def test_main_algorithm_values_and_stats_parity(self, seed):
        """A retry policy or salvage runs the cluster loop through the
        pool's retry driver, on a fresh engine and stats record; a clean
        run folds back the plain run's values and stats exactly."""
        rng = random.Random(6000 + seed)
        structure = _random_graph(rng)
        term = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 1, 1, frozenset({(1, 2)}), unary=True
        )
        plain_stats = MainAlgorithmStats()
        plain = evaluate_unary_main_algorithm(
            structure, term, small_threshold=4, stats=plain_stats
        )
        assert plain_stats.removals > 0  # the cover loop ran, with surgery
        for options in (
            {"retry": RetryPolicy(retries=1, base_delay=0.0)},
            {"on_shard_failure": "salvage"},
        ):
            stats = MainAlgorithmStats()
            values = evaluate_unary_main_algorithm(
                structure, term, small_threshold=4, stats=stats, **options
            )
            assert list(values.items()) == list(plain.items())
            assert stats == plain_stats

    def test_robust_unary_terms_answered_by_foc1(self):
        """Unary sweeps close over live engine state, so they run inline
        at ``workers=2``: the cascade's foc1 stage answers, and its
        circuit stays closed past the breaker's threshold of three
        calls."""
        structure = grid_graph(8, 8)
        term = parse_term("#(y). (E(x, y) & @gt(#(z). E(y, z), 2))")
        serial = Foc1Evaluator(workers=1).unary_term_values(structure, term, "x")
        engine = RobustEvaluator(workers=2)
        for _ in range(4):
            values = engine.unary_term_values(structure, term, "x")
            assert list(values.items()) == list(serial.items())
            assert engine.last_report.answered_by == "foc1"
        count = engine.count(structure, parse_formula("E(x, y)"), ["x", "y"])
        assert count == len(structure.relation("E"))
        assert engine.last_report.answered_by == "foc1"
        assert engine.breaker.failures("foc1") == 0

    def test_main_algorithm_accepts_only_one_worker(self):
        structure = grid_graph(5, 5)
        term = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 1, 1, frozenset({(1, 2)}), unary=True
        )
        serial = evaluate_unary_main_algorithm(structure, term)
        assert evaluate_unary_main_algorithm(structure, term, workers=1) == serial
        with pytest.raises(ParallelError, match="inline"):
            evaluate_unary_main_algorithm(structure, term, workers=2)
