"""Unit tests for :class:`repro.approx.ApproxEvaluator`: estimates,
determinism, budget participation, metrics, and input validation."""

import pytest

from repro.approx import ApproxEvaluator
from repro.errors import BudgetExceededError, ReproError
from repro.logic.parser import parse_formula, parse_term
from repro.obs import MetricsRegistry, collect_metrics
from repro.robust import EvaluationBudget
from repro.sparse.classes import dense_random_graph
from repro.structures.builders import path_graph


def _result_key(result):
    """Everything that must be byte-identical across runs and worker
    counts (``elapsed`` is wall-clock and legitimately varies)."""
    payload = result.to_dict()
    payload.pop("elapsed")
    return payload


class TestEstimates:
    def test_tautology_estimates_the_whole_space(self):
        structure = path_graph(10)
        result = ApproxEvaluator(seed=3).count(
            structure, parse_formula("x = x"), ["x", "y"]
        )
        assert result.estimate == 100.0
        assert result.value == 100
        assert result.hits == result.samples

    def test_contradiction_estimates_zero(self):
        structure = path_graph(10)
        result = ApproxEvaluator(seed=3).count(
            structure, parse_formula("!(x = x)"), ["x"]
        )
        assert result.estimate == 0.0
        assert result.ci_low == 0.0

    def test_ci_brackets_the_estimate_inside_the_space(self):
        structure = dense_random_graph(20, probability=0.5, seed=1)
        result = ApproxEvaluator(seed=0).count(
            structure, parse_formula("E(x, y)"), ["x", "y"]
        )
        assert 0.0 <= result.ci_low <= result.estimate <= result.ci_high
        assert result.ci_high <= result.space == 400.0

    def test_ground_term_value_delegates_to_count(self):
        structure = dense_random_graph(16, probability=0.5, seed=2)
        engine = ApproxEvaluator(seed=5)
        term = parse_term("#(x, y). E(x, y)")
        via_term = engine.ground_term_value(structure, term)
        via_count = engine.count(structure, parse_formula("E(x, y)"), ["x", "y"])
        assert _result_key(via_term) == _result_key(via_count)

    def test_median_of_means_method(self):
        structure = dense_random_graph(16, probability=0.5, seed=2)
        result = ApproxEvaluator(seed=1, method="median_of_means").count(
            structure, parse_formula("E(x, y)"), ["x", "y"]
        )
        assert result.method == "median_of_means"
        assert 0.0 <= result.estimate <= result.space


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        structure = dense_random_graph(18, probability=0.5, seed=4)
        phi = parse_formula("E(x, y)")
        first = ApproxEvaluator(seed=11).count(structure, phi, ["x", "y"])
        second = ApproxEvaluator(seed=11).count(structure, phi, ["x", "y"])
        assert _result_key(first) == _result_key(second)

    def test_result_records_its_seed(self):
        structure = path_graph(6)
        result = ApproxEvaluator(seed=42).count(
            structure, parse_formula("E(x, y)"), ["x", "y"]
        )
        assert result.seed == 42


class TestBudget:
    def test_exhausted_budget_raises(self):
        structure = dense_random_graph(20, probability=0.5, seed=0)
        budget = EvaluationBudget(max_steps=50)
        engine = ApproxEvaluator(budget=budget, seed=0)
        with pytest.raises(BudgetExceededError):
            engine.count(structure, parse_formula("E(x, y)"), ["x", "y"])

    def test_call_site_budget_overrides_the_stored_one(self):
        structure = dense_random_graph(20, probability=0.5, seed=0)
        engine = ApproxEvaluator(budget=EvaluationBudget(), seed=0)
        with pytest.raises(BudgetExceededError):
            engine.count(
                structure,
                parse_formula("E(x, y)"),
                ["x", "y"],
                budget=EvaluationBudget(max_steps=50),
            )


class TestObservability:
    def test_counters_and_histograms(self):
        structure = dense_random_graph(16, probability=0.5, seed=1)
        registry = MetricsRegistry()
        with collect_metrics(registry):
            ApproxEvaluator(seed=0).count(
                structure, parse_formula("E(x, y)"), ["x", "y"]
            )
        assert registry.counter("approx.count") == 1
        assert registry.counter("approx.samples") > 0
        assert registry.counter("approx.samples_planned") > 0
        assert "approx.elapsed_s" in registry.histograms
        assert "approx.ci_width" in registry.histograms


class TestValidation:
    def test_no_variables_rejected(self):
        with pytest.raises(ReproError):
            ApproxEvaluator().count(path_graph(4), parse_formula("x = x"), [])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ReproError):
            ApproxEvaluator().count(
                path_graph(4), parse_formula("E(x, y)"), ["x", "x"]
            )

    def test_uncounted_free_variable_rejected(self):
        with pytest.raises(ReproError):
            ApproxEvaluator().count(
                path_graph(4), parse_formula("E(x, y)"), ["x"]
            )

    def test_non_count_term_rejected(self):
        with pytest.raises(ReproError):
            ApproxEvaluator().ground_term_value(path_graph(4), parse_term("3"))

    def test_open_count_term_rejected(self):
        with pytest.raises(ReproError):
            ApproxEvaluator().ground_term_value(
                path_graph(4), parse_term("#(y). E(x, y)")
            )
