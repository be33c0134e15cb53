"""Seeded differential tests: parallel output is byte-identical to serial.

The determinism guarantee (docs/PARALLEL.md) says every parallel entry
point produces the *same dict, in the same insertion order*, as the serial
loop, for every worker count.  These tests enforce it across seeded random
structures for :func:`~repro.core.cover_eval.evaluate_per_cluster`, check
that P-oracle call counts do not depend on the worker count either, and
check that the inline entry points — among them
:meth:`~repro.core.evaluator.Foc1Evaluator.count_many` — stay inline.

Plain ``random.Random(seed)`` so each case is a fixed, individually
re-runnable pytest id.
"""

import random

import pytest

from repro.approx import ApproxEvaluator
from repro.approx.evaluator import _PILOT_SIZE
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
from repro.robust.guard import RobustEvaluator
from repro.sparse.classes import dense_random_graph
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


class TestCountManyParity:
    """``count_many`` runs inline: one executor per input, in input order,
    each answer equal to a per-structure ``count``."""

    FORMULAS = (
        ("E(x, y)", ["x", "y"]),
        ("E(x, y) & E(y, z)", ["x", "y", "z"]),
        ("exists y. E(x, y)", ["x"]),
    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_structure_counts(self, seed):
        rng = random.Random(3000 + seed)
        structures = [_random_graph(rng, max_n=8) for _ in range(rng.randint(2, 5))]
        text, variables = self.FORMULAS[seed % len(self.FORMULAS)]
        phi = parse_formula(text)
        serial_engine = Foc1Evaluator()
        expected = [
            serial_engine.count(s, phi, variables) for s in structures
        ]
        assert Foc1Evaluator().count_many(structures, phi, variables) == expected

    def test_empty_batch(self):
        phi = parse_formula("E(x, y)")
        assert Foc1Evaluator().count_many([], phi, ["x", "y"]) == []

    def test_order_matches_input_order(self):
        rng = random.Random(99)
        structures = [_random_graph(rng, max_n=6) for _ in range(6)]
        phi = parse_formula("E(x, y)")
        counts = Foc1Evaluator().count_many(structures, phi, ["x", "y"])
        expected = [
            Foc1Evaluator().count(s, phi, ["x", "y"]) for s in structures
        ]
        assert counts == expected


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


def _closure_collection():
    """The same collection built from a lambda, so it cannot pickle."""
    return PredicateCollection(
        [
            NumericalPredicate("geq1", 1, _at_least_one),
            NumericalPredicate("eq", 2, lambda v: abs(v[0] - v[1]) <= 1),
        ]
    )


class TestRobustCountMany:
    """The cascade's foc1 stage answers a batch inline, whatever the
    evaluator's worker count, so its collection never has to pickle."""

    FORMULA = "@eq(#(y). E(x, y), 3)"

    @pytest.mark.parametrize(
        "predicates, expected",
        [
            # every grid degree is within one of 3
            (_closure_collection(), [16, 25]),
            # the degree-3 vertices: boundary non-corners
            (None, [8, 12]),
        ],
        ids=["closure-collection", "default-collection"],
    )
    def test_answered_by_foc1_at_two_workers(self, predicates, expected):
        engine = RobustEvaluator(predicates=predicates, workers=2)
        counts = engine.count_many(
            [grid_graph(4, 4), grid_graph(5, 5)],
            parse_formula(self.FORMULA),
            ["x"],
        )
        assert counts == expected
        assert engine.last_report.answered_by == "foc1"


class TestOracleCallsAcrossWorkers:
    """Children's P-oracle calls come back to the collection a serial run
    counts on, so ``oracle_calls`` reads the same at every worker count."""

    @pytest.mark.parametrize("workers", (2, 3))
    def test_per_cluster(self, workers):
        structure = grid_graph(6, 6)
        cover = sparse_cover(structure, 4)
        term = CoverTerm(
            variables=("y1", "y2"),
            edges=frozenset({(1, 2)}),
            link_distance=1,
            component_formulas=(
                (
                    frozenset({1, 2}),
                    parse_formula("E(y1, y2) & @geq1(#(z). E(y2, z))"),
                ),
            ),
            unary=True,
        )

        def calls_at(count):
            predicates = _custom_collection()
            evaluate_per_cluster(
                structure, cover, term, predicates=predicates, workers=count
            )
            return predicates.oracle_calls

        serial = calls_at(1)
        assert serial > 0
        assert calls_at(workers) == serial

    @pytest.mark.parametrize("workers", (2, 3))
    def test_sampler(self, workers):
        structure = dense_random_graph(40, probability=0.5, seed=3)
        phi = parse_formula("@geq1(#(z). E(y, z)) & E(x, y)")

        def calls_at(count):
            engine = ApproxEvaluator(epsilon=0.1, seed=3, workers=count)
            engine.count(structure, phi, ["x", "y"])
            return engine.predicates.oracle_calls

        serial = calls_at(1)
        assert serial > _PILOT_SIZE  # the blocks, not just the pilot
        assert calls_at(workers) == serial


def _no_pool(*args, **kwargs):
    raise AssertionError("an inline path started a process pool")


class TestInlineAtEveryWorkerCount:
    @pytest.mark.parametrize("seed", (1, 8, 13, 27))
    def test_unary_term_values_parity(self, seed, monkeypatch):
        rng = random.Random(5000 + seed)
        structure = _random_graph(rng)
        term = parse_term("#(y). E(x, y)")
        serial = Foc1Evaluator().unary_term_values(structure, term, "x")
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
        four = RobustEvaluator(workers=4).unary_term_values(structure, term, "x")
        assert list(four.items()) == list(serial.items())

    @pytest.mark.parametrize("seed", (1, 10, 16, 27))
    def test_main_algorithm_values_and_stats_parity(self, seed):
        """``workers=1`` is the default cluster loop: same values, same
        stats."""
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
        stats = MainAlgorithmStats()
        values = evaluate_unary_main_algorithm(
            structure, term, small_threshold=4, stats=stats, workers=1
        )
        assert list(values.items()) == list(plain.items())
        assert stats == plain_stats

    def test_robust_unary_terms_answered_by_foc1(self, monkeypatch):
        """The cascade's foc1 stage runs inline whatever the evaluator's
        worker count: at ``workers=2`` it answers without a process pool,
        and its circuit stays closed past the breaker's threshold of
        three calls."""
        structure = grid_graph(8, 8)
        term = parse_term("#(y). (E(x, y) & @gt(#(z). E(y, z), 2))")
        serial = Foc1Evaluator().unary_term_values(structure, term, "x")
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _no_pool)
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

    def test_foc1_evaluator_accepts_only_one_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        Foc1Evaluator()  # REPRO_WORKERS does not reach the inline engine
        Foc1Evaluator(workers=1)
        with pytest.raises(ParallelError, match="inline"):
            Foc1Evaluator(workers=2)
