"""Seeded differential tests: parallel output is byte-identical to serial.

The determinism guarantee (docs/PARALLEL.md) says every parallel entry
point produces the *same dict, in the same insertion order*, as the serial
loop, for every worker count.  These tests enforce it across seeded random
structures for the two ISSUE-mandated entry points —
:func:`~repro.core.cover_eval.evaluate_per_cluster` and
:meth:`~repro.core.evaluator.Foc1Evaluator.count_many` — plus the other
parallel paths (evaluate_basic_cover_unary, unary_term_values, the main
algorithm).

Plain ``random.Random(seed)`` so each case is a fixed, individually
re-runnable pytest id.
"""

import random

import pytest

from repro.core.clterms import BasicClTerm, CoverTerm
from repro.core.cover_eval import (
    evaluate_basic_cover_unary,
    evaluate_per_cluster,
)
from repro.core.evaluator import Foc1Evaluator
from repro.core.main_algorithm import (
    MainAlgorithmStats,
    evaluate_unary_main_algorithm,
)
from repro.logic.builder import Rel
from repro.logic.parser import parse_formula, parse_term
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


class TestOtherParallelEntryPoints:
    @pytest.mark.parametrize("seed", (0, 5, 11, 23))
    def test_basic_cover_unary_parity(self, seed):
        rng = random.Random(4000 + seed)
        structure = _random_graph(rng)
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        serial = evaluate_basic_cover_unary(structure, cover, term)
        four = evaluate_basic_cover_unary(structure, cover, term, workers=4)
        assert list(four.items()) == list(serial.items())

    @pytest.mark.parametrize("seed", (1, 8, 13, 27))
    def test_unary_term_values_parity(self, seed):
        rng = random.Random(5000 + seed)
        structure = _random_graph(rng)
        term = parse_term("#(y). E(x, y)")
        serial = Foc1Evaluator().unary_term_values(structure, term, "x")
        four = Foc1Evaluator(workers=4).unary_term_values(structure, term, "x")
        assert list(four.items()) == list(serial.items())

    @pytest.mark.parametrize("seed", (2, 9, 16, 29))
    def test_main_algorithm_values_and_stats_parity(self, seed):
        rng = random.Random(6000 + seed)
        structure = _random_graph(rng)
        term = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 1, 1, frozenset({(1, 2)}), unary=True
        )
        serial_stats = MainAlgorithmStats()
        serial = evaluate_unary_main_algorithm(
            structure, term, stats=serial_stats
        )
        four_stats = MainAlgorithmStats()
        four = evaluate_unary_main_algorithm(
            structure, term, stats=four_stats, workers=4
        )
        assert list(four.items()) == list(serial.items())
        assert four_stats == serial_stats


class TestProcessBackend:
    def test_per_cluster_process_parity(self):
        rng = random.Random(7000)
        structure = _random_graph(rng)
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        serial = evaluate_per_cluster(structure, cover, term)
        proc = evaluate_per_cluster(
            structure, cover, term, workers=2, backend="process"
        )
        assert list(proc.items()) == list(serial.items())

    def test_count_many_process_parity(self):
        rng = random.Random(7001)
        structures = [_random_graph(rng, max_n=6) for _ in range(4)]
        phi = parse_formula("E(x, y)")
        expected = [
            Foc1Evaluator().count(s, phi, ["x", "y"]) for s in structures
        ]
        engine = Foc1Evaluator(workers=2, parallel_backend="process")
        assert engine.count_many(structures, phi, ["x", "y"]) == expected

    def test_robust_unary_terms_answered_by_foc1(self):
        """``unary_term_values``' shards close over live engine state, so
        the process backend runs them inline: the cascade's foc1 stage
        answers, and its circuit stays closed past the breaker's
        threshold of three calls."""
        structure = grid_graph(8, 8)
        term = parse_term("#(y). (E(x, y) & @gt(#(z). E(y, z), 2))")
        serial = Foc1Evaluator(workers=1).unary_term_values(structure, term, "x")
        engine = RobustEvaluator(workers=2, parallel_backend="process")
        for _ in range(4):
            values = engine.unary_term_values(structure, term, "x")
            assert list(values.items()) == list(serial.items())
            assert engine.last_report.answered_by == "foc1"
        count = engine.count(structure, parse_formula("E(x, y)"), ["x", "y"])
        assert count == len(structure.relation("E"))
        assert engine.last_report.answered_by == "foc1"
        assert engine.breaker.failures("foc1") == 0

    def test_basic_cover_unary_runs_inline(self):
        """``evaluate_basic_cover_unary``'s shards close over live engine
        state, so the process backend runs its targets as one inline
        shard: the serial answer, in order, with salvage still applying."""
        structure = grid_graph(5, 5)
        cover = sparse_cover(structure, 2)
        term = degree_cover_term()
        serial = evaluate_basic_cover_unary(structure, cover, term)
        for mode in ("raise", "salvage"):
            proc = evaluate_basic_cover_unary(
                structure, cover, term, workers=2, backend="process",
                on_shard_failure=mode,
            )
            assert list(proc.items()) == list(serial.items())
