"""Seeded randomized differential tests: every engine, one answer.

For ~100 seeded random (structure, formula) pairs the three public engines
— :class:`RobustEvaluator`, :class:`Foc1Evaluator` and the literal
Definition 3.1 :class:`BruteForceEvaluator` — must agree on model checking
and counting.  A second battery re-runs the cascade with a fault injected
at every registered site and checks the answer against fault-free ground
truth: robustness must never trade exactness for availability.

Plain ``random.Random(seed)`` (not hypothesis) so each case is a fixed,
individually re-runnable pytest id.
"""

import random

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.core.local_eval import evaluate_basic_unary
from repro.logic.syntax import (
    And,
    Atom,
    CountTerm,
    Eq,
    Exists,
    Forall,
    IntTerm,
    Not,
    Or,
    PredicateAtom,
    exists_block,
    free_variables,
)
from repro.robust import FAULT_SITES, FaultInjector, RobustEvaluator, inject_faults
from repro.structures.builders import graph_structure, grid_graph

from repro import BasicClTerm

VARS = ("x", "y", "z")
PREDICATES = {"geq1": 1, "eq": 2, "leq": 2, "even": 1, "prime": 1}


def _random_graph(rng: random.Random):
    n = rng.randint(1, 6)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.4]
    return graph_structure(vertices, edges)


def _random_atom(rng: random.Random):
    a, b = rng.choice(VARS), rng.choice(VARS)
    return Eq(a, b) if rng.random() < 0.3 else Atom("E", (a, b))


def _random_count_atom(rng: random.Random):
    """A rule-(4') predicate atom over a one-free-variable counting term."""
    free = rng.choice(VARS)
    bound = rng.choice([v for v in VARS if v != free])
    body = And(Atom("E", (free, bound)), Not(Eq(free, bound)))
    if rng.random() < 0.5:
        body = Or(body, Atom("E", (bound, bound)))
    term = CountTerm((bound,), body)
    name = rng.choice(sorted(PREDICATES))
    if PREDICATES[name] == 1:
        return PredicateAtom(name, (term,))
    return PredicateAtom(name, (term, IntTerm(rng.randint(0, 3))))


def _random_formula(rng: random.Random, depth: int):
    if depth == 0:
        return _random_atom(rng)
    choice = rng.randint(0, 6)
    if choice == 0:
        return _random_atom(rng)
    if choice == 1:
        return Not(_random_formula(rng, depth - 1))
    if choice == 2:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if choice == 3:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if choice == 4:
        return Exists(rng.choice(VARS), _random_formula(rng, depth - 1))
    if choice == 5:
        return Forall(rng.choice(VARS), _random_formula(rng, depth - 1))
    return _random_count_atom(rng)


@pytest.mark.parametrize("seed", range(100))
def test_engines_agree(seed):
    rng = random.Random(seed)
    structure = _random_graph(rng)
    formula = _random_formula(rng, depth=2)
    sentence = exists_block(sorted(free_variables(formula)), formula)

    robust = RobustEvaluator()
    fast = Foc1Evaluator(check_fragment=False)
    unguarded = Foc1Evaluator(check_fragment=False, use_guards=False)
    brute = BruteForceEvaluator()

    expected = brute.model_check(structure, sentence)
    assert fast.model_check(structure, sentence) == expected
    assert unguarded.model_check(structure, sentence) == expected
    assert robust.model_check(structure, sentence) == expected
    assert robust.last_report.succeeded()

    count_vars = sorted(free_variables(formula)) or ["x"]
    expected_count = brute.count(structure, formula, count_vars)
    assert fast.count(structure, formula, count_vars) == expected_count
    assert unguarded.count(structure, formula, count_vars) == expected_count
    assert robust.count(structure, formula, count_vars) == expected_count


# ---------------------------------------------------------------------------
# Fault-injected differentials: every registered site, exact answers.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return grid_graph(5, 5)


@pytest.fixture(scope="module")
def degree_term():
    return BasicClTerm(
        ("y1", "y2"), Atom("E", ("y1", "y2")), 0, 1, frozenset({(1, 2)}), unary=True
    )


@pytest.mark.parametrize("site", FAULT_SITES)
def test_cascade_exact_under_fault_at_every_site(site, grid, degree_term):
    truth = evaluate_basic_unary(grid, degree_term)
    engine = RobustEvaluator()
    with inject_faults(FaultInjector({site: 1})) as injector:
        values = engine.evaluate_unary_cl_term(grid, degree_term)
    assert values == truth
    report = engine.last_report
    assert report.succeeded()
    # If the armed site was actually exercised, some stage must have
    # absorbed the failure — and the cascade still answered exactly.
    if injector.fired[site]:
        assert report.failed_stages()


@pytest.mark.parametrize("site", FAULT_SITES)
def test_model_check_exact_under_fault_at_every_site(site):
    from repro.logic.parser import parse_formula

    structure = grid_graph(4, 4)
    sentence = parse_formula("forall x. @geq1(#(y). E(x, y))")
    truth = BruteForceEvaluator().model_check(structure, sentence)
    engine = RobustEvaluator()
    with inject_faults(FaultInjector({site: 1})):
        assert engine.model_check(structure, sentence) == truth
    assert engine.last_report.succeeded()


def test_cascade_exact_under_seeded_rate_faults(grid, degree_term):
    """A noisy run: random faults everywhere (seeded, bounded) must still
    produce the exact answer or a typed error — never a wrong answer."""
    truth = evaluate_basic_unary(grid, degree_term)
    for seed in range(5):
        engine = RobustEvaluator()
        with inject_faults(FaultInjector(seed=seed, rate=0.001, limit=2)):
            values = engine.evaluate_unary_cl_term(grid, degree_term)
        assert values == truth
