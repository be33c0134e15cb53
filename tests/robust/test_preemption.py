"""Differential tests for preemptible evaluation (suspend/resume).

The correctness bar (docs/ROBUSTNESS.md): suspending at every budget
quantum and resuming from the checkpoint must produce **exactly** the
answer of an uninterrupted run — across seeded random structures.
Restored state (materialised
strata, memo contents, completed shards) may only ever *skip* work, never
change a value.

Each round of the driver persists the checkpoint to disk and reloads it,
so the differential suite also exercises the save/load path end to end.
"""

import random

import pytest

from repro.errors import SuspendedError
from repro.logic.parser import parse_formula, parse_term
from repro.parallel import WorkerPool
from repro.robust import EvaluationBudget, FaultInjector, inject_faults
from repro.robust.checkpoint import (
    Checkpoint,
    CheckpointSession,
    checkpoint_session,
    load_checkpoint,
    save_checkpoint,
)
from repro.robust.guard import RobustEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.sparse.classes import nearly_square_grid
from repro.structures.builders import graph_structure

SEEDS = range(30)


def _tenfold(x):
    return x * 10


def _spend_five(params):
    """A payload that spends five budget steps through the child harness."""
    from repro.parallel.tasks import _run_in_child

    def spend(budget):
        budget.tick(weight=5)
        return "done"

    return _run_in_child(spend, params, False)


def _random_graph(rng: random.Random, max_n: int = 10):
    n = rng.randint(3, max_n)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.35]
    return graph_structure(vertices, edges)


def run_preempted(
    make_engine,
    call,
    tmp_path,
    quantum: int = 25,
    max_rounds: int = 80,
):
    """Drive ``call`` to completion, suspending at every budget quantum.

    Each suspension snapshots the session, persists the checkpoint to
    disk, reloads it, and resumes in a fresh session.  The quantum
    doubles whenever a round makes no recordable progress (some work —
    e.g. a single huge memo entry — is atomic at checkpoint granularity),
    so the loop always terminates; ``max_rounds`` is the backstop.
    Returns ``(result, suspensions)``.
    """
    target = str(tmp_path / "preempt.ckpt")
    session = CheckpointSession(operation="test", query_key="test")
    suspensions = 0
    last_progress = None
    for _ in range(max_rounds):
        budget = EvaluationBudget(max_steps=quantum, preemptible=True)
        engine = make_engine(budget)
        try:
            with checkpoint_session(session):
                return call(engine), suspensions
        except SuspendedError:
            suspensions += 1
            checkpoint = session.snapshot(budget.steps)
        save_checkpoint(checkpoint, target)
        checkpoint = load_checkpoint(target)
        progress = (
            checkpoint.steps_spent,
            sum(len(r.strata) for r in checkpoint.exec_state.values()),
            sum(len(r.memo) for r in checkpoint.exec_state.values()),
            sum(len(s) for s in checkpoint.shards.values()),
        )
        if progress[1:] == (last_progress or (None,))[1:]:
            quantum *= 2
        last_progress = progress
        session = CheckpointSession(resume=checkpoint)
    raise AssertionError(f"no convergence after {max_rounds} rounds")


def _operation_for(seed: int):
    """Rotate the evaluated operation across the seed range."""
    which = seed % 3
    if which == 0:
        formula = parse_formula("E(x, y) & E(y, z)")
        return lambda e, s: e.count(s, formula, ["x", "y", "z"])
    if which == 1:
        sentence = parse_formula("forall x. @geq1(#(y). E(x, y))")
        return lambda e, s: e.model_check(s, sentence)
    term = parse_term("#(y). E(x, y)")
    return lambda e, s: list(e.unary_term_values(s, term, "x").items())


class TestSerialPreemptionDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_resumed_equals_uninterrupted(self, seed, tmp_path):
        rng = random.Random(4000 + seed)
        structure = _random_graph(rng)
        op = _operation_for(seed)
        expected = op(Foc1Evaluator(), structure)
        actual, _ = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget),
            lambda engine: op(engine, structure),
            tmp_path,
        )
        assert actual == expected

    def test_suspensions_actually_happen(self, tmp_path):
        # The differential above is vacuous if nothing ever suspends;
        # pin a workload big enough to guarantee several quanta.
        structure = _random_graph(random.Random(99), max_n=12)
        formula = parse_formula("E(x, y) & E(y, z)")
        expected = Foc1Evaluator().count(structure, formula, ["x", "y", "z"])
        actual, suspensions = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget),
            lambda engine: engine.count(structure, formula, ["x", "y", "z"]),
            tmp_path,
            quantum=20,
        )
        assert actual == expected
        assert suspensions >= 3

    def test_ground_term_round_trips(self, tmp_path):
        structure = _random_graph(random.Random(7), max_n=9)
        term = parse_term("#(x, y). E(x, y)")
        expected = Foc1Evaluator().ground_term_value(structure, term)
        actual, _ = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget),
            lambda engine: engine.ground_term_value(structure, term),
            tmp_path,
        )
        assert actual == expected


class TestMixedElementTypes:
    """Elements of types that do not compare (``int`` and ``str``) reach the
    structure digest and the stratum records, which fall back to universe
    order there."""

    def test_round_trip_records_a_mixed_stratum(self, tmp_path, monkeypatch):
        structure = graph_structure([1, "a", 2], [(1, "a"), ("a", 2)])
        term = parse_term("#(x). @gt(#(y). E(x, y), 0)")
        strata = []
        snapshot = CheckpointSession.snapshot

        def record(session, steps_this_run=0):
            checkpoint = snapshot(session, steps_this_run)
            strata.extend(
                s for r in checkpoint.exec_state.values() for s in r.strata.values()
            )
            return checkpoint

        monkeypatch.setattr(CheckpointSession, "snapshot", record)
        actual, suspensions = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget, workers=1),
            lambda engine: engine.ground_term_value(structure, term),
            tmp_path,
            quantum=3,
        )
        assert actual == 3 == Foc1Evaluator().ground_term_value(structure, term)
        assert suspensions >= 3
        assert {s.tuples for s in strata} == {((1,), ("a",), (2,))}


class TestResumeOverhead:
    """Suspend once at half the uninterrupted steps, save, load, resume:
    both quanta together spend at most 1.05x the uninterrupted steps (the
    gate of ``benchmarks/bench_preempt.py``).  A count column cut short
    by the suspension keeps its finished prefix, and the resumed executor
    restores memo entries before it replays strata, so an unfinished
    stratum takes them too."""

    @pytest.mark.parametrize(
        "operation, text",
        [("unary", "#(y). E(x, y)"), ("ground", "#(x). @eq(#(y). E(x, y), 4)")],
    )
    def test_resume_respends_at_most_five_percent(self, operation, text, tmp_path):
        structure = nearly_square_grid(100)
        term = parse_term(text)

        def call(budget):
            engine = Foc1Evaluator(budget=budget, workers=1)
            if operation == "unary":
                return engine.unary_term_values(structure, term, "x")
            return engine.ground_term_value(structure, term)

        whole = EvaluationBudget(max_steps=10**9, preemptible=True)
        expected = call(whole)
        session = CheckpointSession(operation="test", query_key="test")
        first = EvaluationBudget(max_steps=whole.steps // 2, preemptible=True)
        with pytest.raises(SuspendedError), checkpoint_session(session):
            call(first)
        target = str(tmp_path / "resume.ckpt")
        save_checkpoint(session.snapshot(first.steps), target)
        second = EvaluationBudget(max_steps=10**9, preemptible=True)
        with checkpoint_session(CheckpointSession(resume=load_checkpoint(target))):
            assert call(second) == expected
        assert first.steps + second.steps <= 1.05 * whole.steps


class TestInlinePreemptionDifferential:
    """Unary sweeps and ``count_many`` batches run inline and resume
    exactly."""

    @pytest.mark.parametrize("seed", (0, 3, 11, 19, 26))
    def test_unary_values_identical(self, seed, tmp_path):
        rng = random.Random(5000 + seed)
        structure = _random_graph(rng, max_n=12)
        term = parse_term("#(y). E(x, y)")
        expected = list(
            Foc1Evaluator().unary_term_values(structure, term, "x").items()
        )
        actual, _ = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget),
            lambda engine: list(
                engine.unary_term_values(structure, term, "x").items()
            ),
            tmp_path,
        )
        assert actual == expected

    @pytest.mark.parametrize("quantum", (25, 60))
    @pytest.mark.parametrize("seed", (2, 13))
    def test_count_many_identical(self, seed, quantum, tmp_path):
        # Suspended at every quantum, the batch resumes to the
        # uninterrupted answer, in input order.
        rng = random.Random(6000 + seed)
        structures = [_random_graph(rng, max_n=8) for _ in range(3)]
        formula = parse_formula("E(x, y) & E(y, z)")
        expected = [
            Foc1Evaluator().count(s, formula, ["x", "y", "z"]) for s in structures
        ]
        actual, suspensions = run_preempted(
            lambda budget: Foc1Evaluator(budget=budget),
            lambda engine: engine.count_many(structures, formula, ["x", "y", "z"]),
            tmp_path,
            quantum=quantum,
            max_rounds=30,
        )
        assert actual == expected
        assert suspensions > 0


class TestPoolShardResume:
    """Completed shards restored from a checkpoint are never re-executed."""

    def test_resumed_shards_skip_execution(self):
        recording = CheckpointSession(operation="pool", query_key="k")
        pool = WorkerPool(workers=1)
        calls = []

        def task(i):
            calls.append(i)
            return i * 10

        with checkpoint_session(recording):
            first = pool.map_outcomes(task, range(3))
        assert first == [0, 10, 20]
        assert calls == [0, 1, 2]

        calls.clear()
        resumed = CheckpointSession(resume=recording.snapshot())
        with checkpoint_session(resumed):
            second = pool.map_outcomes(task, range(3))
        assert second == [0, 10, 20]
        assert calls == []  # every shard replayed from the checkpoint

    def test_partially_resumed_fanout_runs_only_the_gap(self):
        session = CheckpointSession(operation="pool", query_key="k")
        scope = session.next_shard_scope(3)
        session.record_shard(scope, 0, 100)
        session.record_shard(scope, 2, 300)
        resumed = CheckpointSession(resume=session.snapshot())
        calls = []

        def task(i):
            calls.append(i)
            return i * 10

        with checkpoint_session(resumed):
            results = WorkerPool(workers=1).map_outcomes(task, range(3))
        assert results == [100, 10, 300]
        assert calls == [1]

    def test_partially_resumed_process_fanout_submits_only_the_gap(self):
        session = CheckpointSession(operation="pool", query_key="k")
        scope = session.next_shard_scope(3)
        session.record_shard(scope, 0, 100)
        session.record_shard(scope, 2, 300)
        resumed = CheckpointSession(resume=session.snapshot())
        injector = FaultInjector()
        with inject_faults(injector), checkpoint_session(resumed):
            results = WorkerPool(workers=2).map_outcomes(_tenfold, range(3))
        assert results == [100, 10, 300]
        # One child submission: the gap, checked once at each site.
        assert injector.hits["worker.task"] == 1
        assert injector.hits["shard.result"] == 1

    def test_resumed_shards_bypass_fault_sites(self):
        # A fully resumed fan-out performs no shard work, so an armed
        # worker.task fault has nothing to fire on.
        recording = CheckpointSession(operation="pool", query_key="k")
        pool = WorkerPool(workers=2)
        with checkpoint_session(recording):
            pool.map_outcomes(_tenfold, range(2))
        resumed = CheckpointSession(resume=recording.snapshot())
        injector = FaultInjector({"worker.task": 1})
        with inject_faults(injector):
            with checkpoint_session(resumed):
                results = pool.map_outcomes(_tenfold, range(2))
        assert results == [0, 10]
        assert injector.total_fired() == 0

    def test_resumed_shards_are_not_recharged(self):
        # Steps the recording run already charged must not be re-billed.
        from repro.parallel.tasks import _join_shards, _slice_params

        def join(budget):
            payloads = [_slice_params(part) for part in budget.split(2)]
            return _join_shards(WorkerPool(workers=1), _spend_five, payloads, budget)

        recording = CheckpointSession(operation="pool", query_key="k")
        first_budget = EvaluationBudget(max_steps=1000, preemptible=True)
        with checkpoint_session(recording):
            assert join(first_budget) == ["done", "done"]
        assert first_budget.steps == 10

        resumed = CheckpointSession(resume=recording.snapshot())
        second_budget = EvaluationBudget(max_steps=1000, preemptible=True)
        with checkpoint_session(resumed):
            assert join(second_budget) == ["done", "done"]
        assert second_budget.steps == 0


class TestCascadeSuspension:
    """Suspension is a quantum boundary, not a stage failure."""

    @staticmethod
    def _graph():
        return graph_structure([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])

    def test_suspension_does_not_trip_breaker(self):
        structure = self._graph()
        formula = parse_formula("E(x, y) & E(y, z)")
        budget = EvaluationBudget(max_steps=10, preemptible=True)
        engine = RobustEvaluator(budget=budget)
        session = CheckpointSession(operation="count", query_key="k")
        with checkpoint_session(session):
            with pytest.raises(SuspendedError):
                engine.count(structure, formula, ["x", "y", "z"])
        assert engine.breaker.state("foc1") == "closed"
        assert engine.breaker.failures("foc1") == 0
        report = engine.last_report
        assert report is not None
        entry = report.stage("foc1")
        assert entry.status == "suspended"
        assert "suspended" in entry.detail
        # The session remembers which stage to re-enter.
        assert session.stage == "foc1"

    def test_resume_skips_stages_decided_before_suspension(self):
        structure = self._graph()
        formula = parse_formula("E(x, y)")
        resume = Checkpoint(query_key="k", operation="count", stage="baseline")
        session = CheckpointSession(resume=resume)
        engine = RobustEvaluator()
        with checkpoint_session(session):
            result = engine.count(structure, formula, ["x", "y"])
        assert result == 8
        report = engine.last_report
        assert report.answered_by == "baseline"
        foc1 = report.stage("foc1")
        assert foc1.status == "skipped"
        assert "resumed" in foc1.detail

    def test_suspend_then_resume_cascade_end_to_end(self):
        structure = self._graph()
        formula = parse_formula("E(x, y) & E(y, z)")
        expected = RobustEvaluator().count(structure, formula, ["x", "y", "z"])

        session = CheckpointSession(operation="count", query_key="k")
        quantum = 10
        for _ in range(60):
            budget = EvaluationBudget(max_steps=quantum, preemptible=True)
            engine = RobustEvaluator(budget=budget)
            try:
                with checkpoint_session(session):
                    actual = engine.count(structure, formula, ["x", "y", "z"])
                break
            except SuspendedError:
                session = CheckpointSession(resume=session.snapshot(budget.steps))
                quantum *= 2
        else:
            raise AssertionError("cascade never completed")
        assert actual == expected


class TestPreemptibleBudget:
    def test_preemptible_budget_raises_suspended_with_fields(self):
        budget = EvaluationBudget(max_steps=3, preemptible=True, stage="foc1")
        with pytest.raises(SuspendedError) as info:
            for _ in range(10):
                budget.tick(site="test.loop")
        error = info.value
        assert error.reason == "steps"
        assert error.stage == "foc1"
        assert error.steps_spent == error.steps == 4
        assert error.max_steps == 3
        assert error.checkpoint is None  # attached later by the CLI layer

    def test_fatal_budget_error_carries_progress_fields(self):
        from repro.errors import BudgetExceededError

        budget = EvaluationBudget(max_steps=2, deadline=60.0, stage="baseline")
        with pytest.raises(BudgetExceededError) as info:
            for _ in range(5):
                budget.tick()
        error = info.value
        assert error.steps_spent == 3
        assert error.stage == "baseline"
        assert error.deadline_remaining is not None
        assert error.deadline_remaining > 0

    def test_slice_and_split_inherit_preemption(self):
        budget = EvaluationBudget(
            max_steps=100, preemptible=True, stage="foc1"
        )
        child = budget.slice(0.5)
        assert child.preemptible and child.stage == "foc1"
        for shard in budget.split(4):
            assert shard.preemptible and shard.stage == "foc1"

    def test_charge_never_raises_when_preemptible(self):
        budget = EvaluationBudget(max_steps=5, preemptible=True)
        budget.charge(1000, site="parallel.join")  # must not raise
        assert budget.steps == 1000
        with pytest.raises(SuspendedError):
            budget.check(site="after.join")
