"""Chaos harness: seeded faults at the parallel sites, healed or salvaged.

The differential gate for PR 5 (see docs/ROBUSTNESS.md): for seeded
random structures, injecting deterministic faults at each parallel fault
site (``worker.task``, ``worker.join``, ``shard.result``) on child
processes, at two and at three workers, must

* with ``retries=2``: produce **byte-identical** answers to the fault-free
  serial run (the retry genuinely healed the shard), and
* with ``retries=0`` and ``on_shard_failure="salvage"``: produce a
  :class:`~repro.robust.PartialResult` whose covered values are *exactly*
  the corresponding slice of the serial answer, with accurate coverage
  bookkeeping.

The cluster loop of the main algorithm and ``unary_term_values`` run
inline at every worker count and pass no parallel site, so their faults
are armed at the engine sites the inline run still meets
(``removal.surgery``, ``memo.insert``, ``predicate.oracle``), with the
same two contracts.

Rate-mode schedules are pure functions of ``(seed, site, hit)`` checked in
the parent, so the same chaos schedule falls out of every run; the
determinism tests pin that down.

Plain ``random.Random(seed)`` so each case is a fixed, individually
re-runnable pytest id.
"""

import random
from functools import lru_cache

import pytest

from repro.core.clterms import BasicClTerm, CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.core.evaluator import Foc1Evaluator
from repro.core.main_algorithm import evaluate_unary_main_algorithm
from repro.logic.builder import Rel
from repro.logic.parser import parse_formula, parse_term
from repro.robust import (
    PARALLEL_FAULT_SITES,
    FaultInjector,
    PartialResult,
    RetryPolicy,
    inject_faults,
)
from repro.sparse.covers import sparse_cover
from repro.structures.builders import graph_structure

E = Rel("E", 2)

SEEDS = range(30)
WORKERS = (2, 3)


def _retry(retries=2):
    return RetryPolicy(retries=retries, base_delay=0.0)


def _random_graph(rng, max_n=10):
    n = rng.randint(3, max_n)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.3]
    return graph_structure(vertices, edges)


def _degree_cover_term():
    return CoverTerm(
        variables=("y1", "y2"),
        edges=frozenset({(1, 2)}),
        link_distance=1,
        component_formulas=((frozenset({1, 2}), E("y1", "y2")),),
        unary=True,
    )


@lru_cache(maxsize=None)
def _per_cluster_case(seed):
    """(structure, cover, term, fault-free serial baseline) for one seed."""
    rng = random.Random(8000 + seed)
    structure = _random_graph(rng)
    cover = sparse_cover(structure, 2)
    term = _degree_cover_term()
    serial = evaluate_per_cluster(structure, cover, term, workers=1)
    return structure, cover, term, serial


def _assert_partial_slice_of(partial, serial):
    """The salvage contract: exact covered values, honest bookkeeping."""
    assert isinstance(partial, PartialResult)
    assert partial.failures
    assert partial.covered == len(partial.value)
    assert partial.expected == len(serial)
    assert 0.0 <= partial.coverage < 1.0
    # Byte-identical slice: same values in the same insertion order.
    expected_slice = [
        (key, value) for key, value in serial.items() if key in partial.value
    ]
    assert list(partial.value.items()) == expected_slice


class TestChaosPerCluster:
    """The matrix: 30 seeds × 3 sites × 2 worker counts."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("site", PARALLEL_FAULT_SITES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_retries_heal_to_byte_identical(self, seed, site, workers):
        structure, cover, term, serial = _per_cluster_case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            healed = evaluate_per_cluster(
                structure,
                cover,
                term,
                workers=workers,
                retry=_retry(),
            )
        assert list(healed.items()) == list(serial.items())
        if len(cover.clusters) > 1:
            # The pool fanned out, so the fault genuinely fired — and the
            # retry healed it (exact-hit faults fire exactly once).
            assert injector.fired[site] == 1

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("site", PARALLEL_FAULT_SITES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_salvage_returns_exact_partial_result(self, seed, site, workers):
        structure, cover, term, serial = _per_cluster_case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            result = evaluate_per_cluster(
                structure,
                cover,
                term,
                workers=workers,
                on_shard_failure="salvage",
            )
        if len(cover.clusters) <= 1:
            # Single shard: no fan-out, no fault checkpoint, full answer.
            assert list(result.items()) == list(serial.items())
            return
        _assert_partial_slice_of(result, serial)
        # Hit 1 always lands on shard 0.
        assert result.failed_shards() == [0]
        assert result.failures[0].error_type == "FaultInjectedError"
        # Per-cluster failures carry the lost *cluster ids*; expanding
        # them to members accounts for exactly the missing elements.
        lost = {
            member
            for index in result.failed_items()
            for member in cover.members_with_cluster(index)
        }
        assert lost == set(serial) - set(result.value)


class TestChaosDeterminism:
    """Rate-mode chaos: one schedule per worker count, every run."""

    def _run(self, seed, workers):
        structure, cover, term, serial = _per_cluster_case(seed)
        injector = FaultInjector(
            seed=seed, rate=0.35, rate_sites=PARALLEL_FAULT_SITES
        )
        with inject_faults(injector):
            result = evaluate_per_cluster(
                structure,
                cover,
                term,
                workers=workers,
                retry=_retry(retries=1),
                on_shard_failure="salvage",
            )
        if isinstance(result, PartialResult):
            fingerprint = (
                tuple(result.failed_shards()),
                tuple(result.value.items()),
            )
        else:
            fingerprint = ((), tuple(result.items()))
        return fingerprint, dict(injector.hits), dict(injector.fired)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("seed", (2, 9))
    def test_same_schedule_across_runs(self, seed, workers):
        assert self._run(seed, workers) == self._run(seed, workers)

    @pytest.mark.parametrize("seed", (4, 13))
    def test_salvaged_values_stay_exact_under_rate_chaos(self, seed):
        structure, cover, term, serial = _per_cluster_case(seed)
        injector = FaultInjector(
            seed=seed, rate=0.5, rate_sites=PARALLEL_FAULT_SITES
        )
        with inject_faults(injector):
            result = evaluate_per_cluster(
                structure,
                cover,
                term,
                workers=2,
                on_shard_failure="salvage",
            )
        if isinstance(result, PartialResult):
            _assert_partial_slice_of(result, serial)
        else:
            assert list(result.items()) == list(serial.items())


class TestChaosCountMany:
    FORMULA = "E(x, y)"

    @lru_cache(maxsize=None)
    def _case(self, seed):
        rng = random.Random(9000 + seed)
        structures = tuple(
            _random_graph(rng, max_n=6) for _ in range(rng.randint(3, 5))
        )
        phi = parse_formula(self.FORMULA)
        serial = [
            Foc1Evaluator().count(s, phi, ["x", "y"]) for s in structures
        ]
        return structures, phi, serial

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("site", PARALLEL_FAULT_SITES)
    @pytest.mark.parametrize("seed", (0, 5, 12, 21))
    def test_retries_heal(self, seed, site, workers):
        structures, phi, serial = self._case(seed)
        engine = Foc1Evaluator(workers=workers, retry=_retry())
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            counts = engine.count_many(list(structures), phi, ["x", "y"])
        assert counts == serial
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("site", PARALLEL_FAULT_SITES)
    @pytest.mark.parametrize("seed", (1, 8))
    def test_salvage_leaves_none_holes(self, seed, site, workers):
        structures, phi, serial = self._case(seed)
        engine = Foc1Evaluator(workers=workers, on_shard_failure="salvage")
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            result = engine.count_many(list(structures), phi, ["x", "y"])
        assert isinstance(result, PartialResult)
        assert result.value[0] is None  # hit 1 lands on batch position 0
        assert result.value[1:] == serial[1:]
        assert result.expected == len(structures)
        assert result.covered == len(structures) - 1
        assert result.coverage == pytest.approx(
            (len(structures) - 1) / len(structures)
        )


class TestChaosMainAlgorithm:
    """The cluster loop runs inline as one retried shard."""

    SITES = ("removal.surgery", "memo.insert")

    @lru_cache(maxsize=None)
    def _case(self, seed):
        rng = random.Random(9500 + seed)
        structure = _random_graph(rng)
        term = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 1, 1, frozenset({(1, 2)}), unary=True
        )
        serial = evaluate_unary_main_algorithm(structure, term, small_threshold=4)
        return structure, term, serial

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 4, 7, 9, 14, 18))
    def test_retries_heal(self, seed, site):
        structure, term, serial = self._case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            healed = evaluate_unary_main_algorithm(
                structure, term, small_threshold=4, retry=_retry()
            )
        assert list(healed.items()) == list(serial.items())
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (10, 13, 29))
    def test_salvage_covers_surviving_clusters(self, seed, site):
        structure, term, serial = self._case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            result = evaluate_unary_main_algorithm(
                structure, term, small_threshold=4, on_shard_failure="salvage"
            )
        assert injector.fired[site] == 1
        # The loop is one shard, so its failure loses every cluster.
        _assert_partial_slice_of(result, serial)
        assert result.covered == 0


class TestChaosUnaryTermValues:
    """The unary sweep runs inline as one retried shard at ``workers > 1``."""

    SITES = ("memo.insert", "predicate.oracle")
    TERM = "#(y). (E(x, y) & @geq1(#(z). E(y, z)))"

    @lru_cache(maxsize=None)
    def _case(self, seed):
        rng = random.Random(9700 + seed)
        structure = _random_graph(rng)
        term = parse_term(self.TERM)
        serial = Foc1Evaluator(workers=1).unary_term_values(structure, term, "x")
        return structure, term, serial

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 3, 6, 11))
    def test_retries_heal(self, seed, site):
        structure, term, serial = self._case(seed)
        engine = Foc1Evaluator(workers=2, retry=_retry())
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            healed = engine.unary_term_values(structure, term, "x")
        assert list(healed.items()) == list(serial.items())
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (2, 9))
    def test_salvage_returns_an_empty_exact_slice(self, seed, site):
        structure, term, serial = self._case(seed)
        engine = Foc1Evaluator(workers=2, on_shard_failure="salvage")
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            result = engine.unary_term_values(structure, term, "x")
        assert injector.fired[site] == 1
        _assert_partial_slice_of(result, serial)
        assert result.covered == 0
