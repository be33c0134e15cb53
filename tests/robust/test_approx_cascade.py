"""The optional approx stage of the robust cascade.

The sampling tier joins the cascade only on request (``approx=True``)
and only for counting operations; it runs last, and its answers are
:class:`ApproxResult` values with the report flagged ``approximate`` —
an estimate can never impersonate an exact count.
"""

from repro.approx import ApproxResult
from repro.logic.parser import parse_formula, parse_term
from repro.robust import EvaluationBudget
from repro.robust.guard import RobustEvaluator
from repro.sparse.classes import dense_random_graph
from repro.structures.builders import path_graph

#: Open wedges: the negated binary atom keeps foc1 on the guarded search,
#: which pays what the two-path body cost before elimination.
PHI = "E(x, y) & E(y, z) & !E(x, z)"
VARIABLES = ["x", "y", "z"]


def _dense():
    return dense_random_graph(40, probability=0.5, seed=3)


class TestCascadeShape:
    def test_default_cascade_has_no_approx_stage(self):
        engine = RobustEvaluator()
        count = engine.count(path_graph(6), parse_formula(PHI), VARIABLES)
        assert isinstance(count, int)
        report = engine.last_report
        assert [s.stage for s in report.stages] == [
            "main_algorithm",
            "foc1",
            "baseline",
        ]
        assert report.approximate is False
        assert report.to_dict()["approximate"] is False

    def test_approx_joins_last_for_counting(self):
        engine = RobustEvaluator(approx=True)
        count = engine.count(path_graph(6), parse_formula(PHI), VARIABLES)
        # Plenty of budget: an exact stage answers and the sampler never
        # runs, so the answer stays a plain int.
        assert isinstance(count, int)
        report = engine.last_report
        assert [s.stage for s in report.stages][-1] == "approx"
        assert len(report.stages) == 4
        assert report.approximate is False

    def test_model_check_never_gets_an_approx_stage(self):
        engine = RobustEvaluator(approx=True)
        engine.model_check(path_graph(6), parse_formula("exists x. E(x, x)"))
        assert "approx" not in [s.stage for s in engine.last_report.stages]

    def test_non_count_term_marks_approx_skipped(self):
        engine = RobustEvaluator(approx=True)
        engine.ground_term_value(path_graph(6), parse_term("3"))
        report = engine.last_report
        [approx_stage] = [s for s in report.stages if s.stage == "approx"]
        assert approx_stage.status == "skipped"
        assert "counting terms" in approx_stage.detail


class TestApproxAnswers:
    def test_sampler_salvages_a_budget_too_small_for_exact(self):
        # 50k steps: every exact stage exhausts its slice on this dense
        # input (baseline alone needs 40^3 = 64k assignments), and the
        # pilot-refined sampling plan fits.
        engine = RobustEvaluator(
            budget=EvaluationBudget(max_steps=50_000),
            approx=True,
            approx_seed=7,
        )
        result = engine.count(_dense(), parse_formula(PHI), VARIABLES)
        assert isinstance(result, ApproxResult)
        report = engine.last_report
        assert report.answered_by == "approx"
        assert report.approximate is True
        assert report.to_dict()["approximate"] is True
        exact_statuses = {
            s.stage: s.status for s in report.stages if s.stage != "approx"
        }
        assert all(v != "ok" for v in exact_statuses.values())

    def test_cascade_answer_is_seed_deterministic(self):
        values = []
        for _ in range(2):
            engine = RobustEvaluator(
                budget=EvaluationBudget(max_steps=50_000),
                approx=True,
                approx_seed=7,
            )
            result = engine.count(_dense(), parse_formula(PHI), VARIABLES)
            values.append((result.value, result.samples, result.hits))
        assert values[0] == values[1]

    def test_estimate_lands_near_the_exact_count(self):
        engine = RobustEvaluator(
            budget=EvaluationBudget(max_steps=50_000),
            approx=True,
            approx_seed=7,
        )
        result = engine.count(_dense(), parse_formula(PHI), VARIABLES)
        exact = RobustEvaluator().count(_dense(), parse_formula(PHI), VARIABLES)
        assert result.relative_error_vs(exact) <= result.epsilon

    def test_ground_count_term_can_be_sampled(self):
        engine = RobustEvaluator(
            budget=EvaluationBudget(max_steps=50_000),
            approx=True,
            approx_seed=7,
        )
        term = parse_term(f"#({', '.join(VARIABLES)}). ({PHI})")
        result = engine.ground_term_value(_dense(), term)
        assert isinstance(result, ApproxResult)
        assert engine.last_report.approximate is True

    def test_epsilon_and_seed_are_forwarded(self):
        engine = RobustEvaluator(
            budget=EvaluationBudget(max_steps=50_000),
            approx=True,
            epsilon=0.2,
            delta=0.1,
            approx_seed=13,
        )
        result = engine.count(_dense(), parse_formula(PHI), VARIABLES)
        assert isinstance(result, ApproxResult)
        assert result.epsilon == 0.2
        assert result.delta == 0.1
        assert result.seed == 13
