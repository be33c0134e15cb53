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

The per-cluster loop is the one engine path that takes a retry policy:
the sampler fans out without one, and every other path runs inline,
where a retry would only raise the same error again.  So the inline
paths (``count_many``, the main algorithm's cluster loop and
``unary_term_values``) get the fail-fast contract instead, armed at the
engine sites they meet (``cover.construct``, ``removal.surgery``,
``memo.insert``, ``predicate.oracle``): a fault fails the whole call
with :class:`~repro.errors.FaultInjectedError` and never hands back a
partial or wrong answer, the engine answers exactly when asked again,
and the :class:`~repro.robust.RobustEvaluator` cascade falls through to
its next stage with the exact answer.

Beside injected faults, ``TestChildDeathPerCluster`` has a child process
exit abruptly mid-shard: the retry heals it on a fresh executor, and
salvage keeps the shards that returned exactly.

Rate-mode schedules are pure functions of ``(seed, site, hit)`` checked in
the parent, so the same chaos schedule falls out of every run; the
determinism tests pin that down.

Plain ``random.Random(seed)`` so each case is a fixed, individually
re-runnable pytest id.
"""

import os
import random
from functools import lru_cache, partial

import pytest

from repro.core.clterms import BasicClTerm, CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.core.evaluator import Foc1Evaluator
from repro.core.main_algorithm import evaluate_unary_main_algorithm
from repro.errors import FaultInjectedError
from repro.logic.builder import Rel
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import NumericalPredicate, PredicateCollection
from repro.robust import (
    PARALLEL_FAULT_SITES,
    FaultInjector,
    PartialResult,
    RetryPolicy,
    RobustEvaluator,
    inject_faults,
)
from repro.sparse.covers import sparse_cover
from repro.structures.builders import graph_structure, grid_graph

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


def _geq1_dying_once(marker, parent, values):
    """``geq1`` that exits its process abruptly on the first call made
    in a child; it never dies in process ``parent``, the test runner."""
    if os.getpid() != parent:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return values[0] >= 1


def _dying_collection(marker):
    return PredicateCollection(
        [
            NumericalPredicate(
                "geq1", 1, partial(_geq1_dying_once, marker, os.getpid())
            )
        ]
    )


class TestChildDeathPerCluster:
    """Not an injected fault: a child process dies mid-shard.  Its
    executor breaks, the shards it had not returned fail with a
    ParallelError, a retry re-runs them on a fresh executor, and salvage
    keeps the shards that did return exactly."""

    @staticmethod
    @lru_cache(maxsize=None)
    def _case():
        structure = grid_graph(6, 6)
        cover = sparse_cover(structure, 4)  # four non-empty clusters
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
        return structure, cover, term

    def _serial(self, tmp_path):
        structure, cover, term = self._case()
        predicates = _dying_collection(str(tmp_path / "serial"))
        values = evaluate_per_cluster(
            structure, cover, term, predicates=predicates, workers=1
        )
        return values, predicates.oracle_calls

    @pytest.mark.parametrize("workers", WORKERS)
    def test_retry_heals_to_byte_identical(self, tmp_path, workers):
        structure, cover, term = self._case()
        serial, serial_calls = self._serial(tmp_path)
        predicates = _dying_collection(str(tmp_path / "dies"))
        healed = evaluate_per_cluster(
            structure,
            cover,
            term,
            predicates=predicates,
            workers=workers,
            retry=_retry(),
        )
        assert (tmp_path / "dies").exists()  # a child really died
        assert list(healed.items()) == list(serial.items())
        # The dead attempts' oracle calls never came back; the retries'
        # did, so the count is the serial run's.
        assert predicates.oracle_calls == serial_calls

    @pytest.mark.parametrize("workers", WORKERS)
    def test_salvage_keeps_the_returned_shards_exact(self, tmp_path, workers):
        structure, cover, term = self._case()
        serial, _ = self._serial(tmp_path)
        result = evaluate_per_cluster(
            structure,
            cover,
            term,
            predicates=_dying_collection(str(tmp_path / "dies")),
            workers=workers,
            on_shard_failure="salvage",
        )
        _assert_partial_slice_of(result, serial)
        assert {f.error_type for f in result.failures} == {"ParallelError"}
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


def _assert_fell_through(engine, failed_stage, answered_by):
    """The cascade's report: one stage failed on the injected fault and
    the next exact stage answered."""
    report = engine.last_report
    assert report.answered_by == answered_by
    assert report.failed_stages() == [failed_stage]
    assert report.stage(failed_stage).error_type == "FaultInjectedError"


class TestChaosCountMany:
    """``count_many`` runs inline: a fault fails the whole batch."""

    FORMULA = "E(x, y) & @geq1(#(z). E(y, z))"
    SITES = ("memo.insert", "predicate.oracle")

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

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 5, 12, 21))
    def test_fault_fails_the_batch(self, seed, site):
        structures, phi, _ = self._case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector), pytest.raises(FaultInjectedError):
            Foc1Evaluator().count_many(list(structures), phi, ["x", "y"])
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 5, 12, 21))
    def test_the_same_engine_answers_exactly_when_asked_again(self, seed, site):
        structures, phi, serial = self._case(seed)
        engine = Foc1Evaluator()
        with inject_faults(FaultInjector({site: 1})):
            with pytest.raises(FaultInjectedError):
                engine.count_many(list(structures), phi, ["x", "y"])
            # The fault left no half-built plan or memo behind.
            assert engine.count_many(list(structures), phi, ["x", "y"]) == serial

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 5, 12, 21))
    def test_cascade_falls_through_to_the_exact_baseline(self, seed, site):
        # At two workers too, the foc1 stage runs inline and fails on the
        # fault itself (not on a worker count it cannot use).
        structures, phi, serial = self._case(seed)
        engine = RobustEvaluator(workers=2)
        with inject_faults(FaultInjector({site: 1})):
            counts = engine.count_many(list(structures), phi, ["x", "y"])
        assert counts == serial
        _assert_fell_through(engine, "foc1", "baseline")


class TestChaosMainAlgorithm:
    """The cluster loop runs inline: a fault fails the whole loop."""

    SITES = ("cover.construct", "removal.surgery", "memo.insert")

    @staticmethod
    def _term():
        return BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 1, 1, frozenset({(1, 2)}), unary=True
        )

    @lru_cache(maxsize=None)
    def _case(self, seed):
        rng = random.Random(9500 + seed)
        structure = _random_graph(rng)
        term = self._term()
        serial = evaluate_unary_main_algorithm(structure, term, small_threshold=4)
        return structure, term, serial

    @lru_cache(maxsize=None)
    def _cascade_case(self, seed):
        # Above the default small_threshold (12) and banded, so the
        # cascade's main stage builds a cover of several clusters and
        # runs removal surgery on them.
        rng = random.Random(9600 + seed)
        vertices = list(range(1, rng.randint(16, 24) + 1))
        edges = [(v, v + 1) for v in vertices[:-1]]
        edges += [(v, v + 2) for v in vertices[:-2] if rng.random() < 0.3]
        structure = graph_structure(vertices, edges)
        term = self._term()
        serial = evaluate_unary_main_algorithm(structure, term)
        return structure, term, serial

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 4, 7, 9, 14, 18))
    def test_fault_fails_the_loop(self, seed, site):
        structure, term, _ = self._case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector), pytest.raises(FaultInjectedError):
            evaluate_unary_main_algorithm(structure, term, small_threshold=4)
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (10, 13, 29))
    def test_cascade_falls_through_to_the_exact_foc1_stage(self, seed, site):
        structure, term, serial = self._cascade_case(seed)
        engine = RobustEvaluator()
        injector = FaultInjector({site: 1})
        with inject_faults(injector):
            values = engine.evaluate_unary_cl_term(structure, term)
        assert injector.fired[site] == 1
        # The same values; the foc1 stage lists them in universe order.
        assert values == serial
        _assert_fell_through(engine, "main_algorithm", "foc1")


class TestChaosUnaryTermValues:
    """The unary sweep runs inline: a fault fails the whole sweep."""

    SITES = ("memo.insert", "predicate.oracle")
    TERM = "#(y). (E(x, y) & @geq1(#(z). E(y, z)))"

    @lru_cache(maxsize=None)
    def _case(self, seed):
        rng = random.Random(9700 + seed)
        structure = _random_graph(rng)
        term = parse_term(self.TERM)
        serial = Foc1Evaluator().unary_term_values(structure, term, "x")
        return structure, term, serial

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 3, 6, 11))
    def test_fault_fails_the_sweep(self, seed, site):
        structure, term, _ = self._case(seed)
        injector = FaultInjector({site: 1})
        with inject_faults(injector), pytest.raises(FaultInjectedError):
            Foc1Evaluator().unary_term_values(structure, term, "x")
        assert injector.fired[site] == 1

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (0, 3, 6, 11))
    def test_the_same_engine_answers_exactly_when_asked_again(self, seed, site):
        structure, term, serial = self._case(seed)
        engine = Foc1Evaluator()
        with inject_faults(FaultInjector({site: 1})):
            with pytest.raises(FaultInjectedError):
                engine.unary_term_values(structure, term, "x")
            again = engine.unary_term_values(structure, term, "x")
        assert list(again.items()) == list(serial.items())

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("seed", (2, 9))
    def test_cascade_falls_through_to_the_exact_baseline(self, seed, site):
        structure, term, serial = self._case(seed)
        engine = RobustEvaluator(workers=2)
        with inject_faults(FaultInjector({site: 1})):
            values = engine.unary_term_values(structure, term, "x")
        assert list(values.items()) == list(serial.items())
        _assert_fell_through(engine, "foc1", "baseline")
