"""Tests for the fallback cascade (:class:`repro.robust.RobustEvaluator`).

Includes the two acceptance scenarios from the robustness issue: the
kill-switch (an adversarial dense-graph query under a tight budget dies
quickly with :class:`BudgetExceededError`) and graceful degradation (with
faults injected into the main algorithm and cover stages, the cascade still
returns the exact baseline-verified answer and the report names the failed
stages).
"""

import time

import pytest

from repro.core.local_eval import evaluate_basic_unary
from repro.errors import BudgetExceededError, FragmentError, ReproError
from repro.logic.parser import parse_formula
from repro.robust import (
    CircuitBreaker,
    EvaluationBudget,
    FaultInjector,
    RobustEvaluator,
    inject_faults,
)
from repro.robust.guard import STAGES, RobustReport, StageReport
from repro.structures.builders import complete_graph, grid_graph, path_graph

from repro import Atom, BasicClTerm


@pytest.fixture
def degree_term():
    """#(y2). (E(y1, y2) ∧ dist(y1, y2) <= 1) — the vertex degree."""
    return BasicClTerm(
        ("y1", "y2"), Atom("E", ("y1", "y2")), 0, 1, frozenset({(1, 2)}), unary=True
    )


@pytest.fixture
def grid():
    # Order 25 > the main algorithm's small_threshold, so the cover and
    # removal machinery genuinely runs (and can genuinely be faulted).
    return grid_graph(5, 5)


class TestEngineMirror:
    def test_model_check_answered_by_foc1(self):
        engine = RobustEvaluator()
        sentence = parse_formula("forall x. @eq(#(y). E(x, y), 2)")
        assert engine.model_check(path_graph(5), sentence) is False
        report = engine.last_report
        assert report.operation == "model_check"
        assert report.answered_by == "foc1"
        assert report.stage("main_algorithm").status == "skipped"
        assert report.stage("baseline").status == "skipped"
        assert report.succeeded()

    def test_count_matches_plain_engines(self, fast_evaluator, brute_evaluator):
        engine = RobustEvaluator()
        structure = path_graph(6)
        phi = parse_formula("E(x, y) & E(y, z)")
        robust = engine.count(structure, phi, ["x", "y", "z"])
        assert robust == fast_evaluator.count(structure, phi, ["x", "y", "z"])
        assert robust == brute_evaluator.count(structure, phi, ["x", "y", "z"])

    def test_ground_term_and_unary_values(self):
        engine = RobustEvaluator()
        structure = path_graph(4)
        from repro.logic.parser import parse_term

        assert engine.ground_term_value(structure, parse_term("#(x, y). E(x, y)")) == 6
        values = engine.unary_term_values(structure, parse_term("#(y). E(x, y)"), "x")
        assert values == {1: 1, 2: 2, 3: 2, 4: 1}

    def test_evaluate_query(self):
        from repro import Foc1Query, Rel, count, variables

        E = Rel("E", 2)
        x, y = variables("x y")
        degree = count([y], E(x, y))
        q = Foc1Query(head_variables=(x,), head_terms=(degree,), condition=degree.geq1())
        engine = RobustEvaluator()
        assert sorted(engine.evaluate_query(path_graph(3), q)) == [(1, 1), (2, 2), (3, 1)]

    def test_out_of_fragment_falls_through_to_baseline(self):
        # FOC(P) \ FOC1(P): the fragment check fails the foc1 stage, the
        # brute-force baseline still answers exactly.
        engine = RobustEvaluator()
        sentence = parse_formula(
            "exists x. exists y. (!(x = y) & @eq(#(z). E(x, z), #(z). E(y, z)))"
        )
        assert engine.model_check(complete_graph(4), sentence) is True
        report = engine.last_report
        assert report.answered_by == "baseline"
        assert report.failed_stages() == ["foc1"]
        assert report.stage("foc1").error_type == "FragmentError"


class TestFullCascade:
    def test_main_algorithm_answers_when_healthy(self, grid, degree_term):
        engine = RobustEvaluator()
        values = engine.evaluate_unary_cl_term(grid, degree_term)
        assert values == evaluate_basic_unary(grid, degree_term)
        assert engine.last_report.answered_by == "main_algorithm"
        assert engine.last_report.failed_stages() == []

    def test_non_unary_term_rejected(self, grid):
        term = BasicClTerm(
            ("y1", "y2"), Atom("E", ("y1", "y2")), 0, 1, frozenset({(1, 2)}), unary=False
        )
        with pytest.raises(ReproError):
            RobustEvaluator().evaluate_unary_cl_term(grid, term)

    @pytest.mark.parametrize("site", ["cover.construct", "removal.surgery"])
    def test_single_fault_degrades_to_foc1(self, grid, degree_term, site):
        truth = evaluate_basic_unary(grid, degree_term)
        engine = RobustEvaluator()
        with inject_faults(FaultInjector({site: 1})) as injector:
            values = engine.evaluate_unary_cl_term(grid, degree_term)
        assert values == truth
        assert injector.fired[site] == 1
        report = engine.last_report
        assert report.answered_by in ("foc1", "baseline")
        assert "main_algorithm" in report.failed_stages()
        assert report.stage("main_algorithm").error_type == "FaultInjectedError"

    def test_acceptance_faulted_cascade_is_exact(self, grid, degree_term):
        """Faults in the main algorithm (cover construction) *and* the FOC1
        engine (memo insert): the cascade still returns the exact
        baseline-verified answer, and the report names the failed stages."""
        truth = evaluate_basic_unary(grid, degree_term)
        engine = RobustEvaluator()
        faults = FaultInjector({"cover.construct": 1, "memo.insert": 1})
        with inject_faults(faults):
            values = engine.evaluate_unary_cl_term(grid, degree_term)
        assert values == truth
        report = engine.last_report
        assert report.answered_by == "baseline"
        assert report.failed_stages() == ["main_algorithm", "foc1"]
        assert "FaultInjectedError" in report.summary()

    def test_foc1_stage_inherits_the_evaluators_settings(
        self, grid, degree_term, monkeypatch
    ):
        """With the main stage faulted, the engine that answers the
        cl-term from foc1 shares the evaluator's predicate collection and
        has no fragment check."""
        from repro.core.evaluator import Foc1Evaluator

        engines = []
        unary_term_values = Foc1Evaluator.unary_term_values

        def recording(self, *args, **kwargs):
            engines.append(self)
            return unary_term_values(self, *args, **kwargs)

        monkeypatch.setattr(Foc1Evaluator, "unary_term_values", recording)
        engine = RobustEvaluator(workers=2)
        with inject_faults(FaultInjector({"cover.construct": 1})):
            values = engine.evaluate_unary_cl_term(grid, degree_term)
        assert values == evaluate_basic_unary(grid, degree_term)
        assert engine.last_report.answered_by == "foc1"
        used = engines[-1]
        assert used.predicates is engine.predicates
        assert used.check_fragment is False

    def test_report_records_stage_order(self, grid, degree_term):
        engine = RobustEvaluator()
        engine.evaluate_unary_cl_term(grid, degree_term)
        assert tuple(s.stage for s in engine.last_report.stages) == STAGES


class TestBudgets:
    def test_kill_switch_acceptance(self):
        """Adversarial deep-counting query on a dense graph under a
        100 ms / 10k-step budget: raises within 2x the budget."""
        dense = complete_graph(14)
        phi = parse_formula("E(x, y) & E(y, z) & E(z, w)")
        budget = EvaluationBudget(deadline=0.1, max_steps=10_000)
        engine = RobustEvaluator(budget=budget)
        started = time.monotonic()
        with pytest.raises(BudgetExceededError) as info:
            engine.count(dense, phi, ["x", "y", "z", "w"])
        assert time.monotonic() - started < 0.2
        assert info.value.steps > 0
        # The report survives the failure and shows what was tried.
        report = engine.last_report
        assert not report.succeeded()
        assert set(report.failed_stages()) == {"foc1", "baseline"}

    def test_budget_exhaustion_beats_stage_errors(self):
        # When the pool is dry the cascade surfaces BudgetExceededError
        # (with overall stats), not whichever per-slice error came last.
        engine = RobustEvaluator(budget=EvaluationBudget(max_steps=50))
        with pytest.raises(BudgetExceededError) as info:
            engine.count(
                complete_graph(10), parse_formula("E(x, y) & E(y, z)"), ["x", "y", "z"]
            )
        assert info.value.site == "robust.cascade"

    def test_generous_budget_still_answers(self):
        engine = RobustEvaluator(budget=EvaluationBudget(deadline=60.0, max_steps=10**9))
        assert engine.count(path_graph(4), parse_formula("E(x, y)"), ["x", "y"]) == 6
        assert engine.last_report.steps > 0

    def test_stage_steps_charged_to_parent(self):
        budget = EvaluationBudget(max_steps=10**9)
        engine = RobustEvaluator(budget=budget)
        engine.count(path_graph(4), parse_formula("E(x, y)"), ["x", "y"])
        assert budget.steps == engine.last_report.stage("foc1").steps

    def test_plain_foc1_engine_respects_budget(self):
        from repro import Foc1Evaluator

        engine = Foc1Evaluator(budget=EvaluationBudget(max_steps=5_000))
        with pytest.raises(BudgetExceededError):
            engine.count(
                complete_graph(12),
                parse_formula("E(x, y) & E(y, z) & E(z, w)"),
                ["x", "y", "z", "w"],
            )

    def test_brute_force_engine_respects_budget(self):
        from repro import BruteForceEvaluator

        engine = BruteForceEvaluator(budget=EvaluationBudget(max_steps=5_000))
        with pytest.raises(BudgetExceededError):
            engine.count(
                complete_graph(12),
                parse_formula("E(x, y) & E(y, z) & E(z, w)"),
                ["x", "y", "z", "w"],
            )


class TestCircuitBreaker:
    def test_breaker_trips_and_skips_the_stage(self, grid, degree_term):
        truth = evaluate_basic_unary(grid, degree_term)
        engine = RobustEvaluator(breaker=CircuitBreaker(threshold=2))
        for _ in range(2):
            with inject_faults(FaultInjector({"cover.construct": 1})):
                assert engine.evaluate_unary_cl_term(grid, degree_term) == truth
            assert "main_algorithm" in engine.last_report.failed_stages()
        # Circuit open: the third call skips the stage outright — no
        # injector needed, no budget slice paid for the broken stage.
        assert engine.evaluate_unary_cl_term(grid, degree_term) == truth
        report = engine.last_report
        entry = report.stage("main_algorithm")
        assert entry.status == "skipped"
        assert "circuit open" in entry.detail
        assert report.answered_by == "foc1"

    def test_success_resets_the_failure_count(self, grid, degree_term):
        engine = RobustEvaluator(breaker=CircuitBreaker(threshold=2))
        with inject_faults(FaultInjector({"cover.construct": 1})):
            engine.evaluate_unary_cl_term(grid, degree_term)
        assert engine.breaker.failures("main_algorithm") == 1
        engine.evaluate_unary_cl_term(grid, degree_term)  # healthy run
        assert engine.breaker.failures("main_algorithm") == 0
        with inject_faults(FaultInjector({"cover.construct": 1})) as injector:
            engine.evaluate_unary_cl_term(grid, degree_term)
        # The third call really ran the main algorithm into the fault...
        assert injector.fired["cover.construct"] == 1
        assert engine.breaker.failures("main_algorithm") == 1
        # ...and non-consecutive failures never trip.
        assert engine.breaker.state("main_algorithm") == "closed"

    def test_trip_and_skip_metrics(self, grid, degree_term):
        from repro import obs

        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            engine = RobustEvaluator(breaker=CircuitBreaker(threshold=1))
            with inject_faults(FaultInjector({"cover.construct": 1})):
                engine.evaluate_unary_cl_term(grid, degree_term)
            engine.evaluate_unary_cl_term(grid, degree_term)
        finally:
            obs.set_metrics(previous)
        assert registry.counter("robust.breaker.trip") == 1
        assert registry.counter("robust.breaker.skipped") == 1

    def test_evaluators_can_share_one_breaker(self, grid, degree_term):
        breaker = CircuitBreaker(threshold=2)
        first = RobustEvaluator(breaker=breaker)
        second = RobustEvaluator(breaker=breaker)
        for engine in (first, second):
            with inject_faults(FaultInjector({"cover.construct": 1})):
                engine.evaluate_unary_cl_term(grid, degree_term)
        # Two failures across two evaluators pooled into one trip.
        assert breaker.is_open("main_algorithm")


class TestReportPlumbing:
    def test_stage_lookup_raises_on_unknown_name(self):
        report = RobustReport(operation="op", stages=[StageReport("foc1", "ok")])
        with pytest.raises(KeyError):
            report.stage("nope")

    def test_summaries_are_one_liners(self):
        ok = StageReport("foc1", "ok", elapsed=0.5, steps=12)
        failed = StageReport("main_algorithm", "failed", error_type="X", error="boom")
        skipped = StageReport("baseline", "skipped", detail="not needed")
        for entry in (ok, failed, skipped):
            assert "\n" not in entry.summary()
        report = RobustReport("count", "foc1", [ok, failed, skipped])
        assert "answered by foc1" in report.summary()

    def test_programming_errors_propagate(self, monkeypatch):
        # Only the library's typed errors trigger fallback; genuine bugs
        # (TypeError &c.) must surface immediately, not be papered over.
        class Exploding:
            def __init__(self, **kwargs):
                pass

            def model_check(self, structure, sentence):
                raise TypeError("genuine bug")

        monkeypatch.setattr("repro.robust.guard.Foc1Evaluator", Exploding)
        engine = RobustEvaluator()
        with pytest.raises(TypeError, match="genuine bug"):
            engine.model_check(path_graph(3), parse_formula("exists x. E(x, x)"))
