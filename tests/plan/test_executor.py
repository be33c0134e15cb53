"""Plan execution: differential correctness and cache reuse.

The planned executor is the subject, the literal Definition 3.1
:class:`BruteForceEvaluator` is the oracle.  Plain ``random.Random(seed)``
so each case is a fixed, re-runnable pytest id (same convention as
``tests/core/test_differential.py``).
"""

import gc
import random
import weakref

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.errors import BudgetExceededError, EvaluationError
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import standard_collection
from repro.logic.syntax import (
    And,
    Atom,
    CountTerm,
    Eq,
    Exists,
    Not,
    Or,
    PredicateAtom,
    exists_block,
    free_variables,
)
from repro.obs.metrics import MetricsRegistry, collect_metrics, set_metrics
from repro.plan import PlanCache, PlanExecutor, compile_plan
from repro.plan.executor import ExecutionState
from repro.plan.ir import PlanOptions
from repro.robust.budget import EvaluationBudget
from repro.structures.builders import (
    cycle_graph,
    graph_structure,
    grid_graph,
    path_graph,
)
from repro.structures.signature import Signature
from repro.structures.structure import Structure

VARS = ("x", "y", "z")


def _random_graph(rng: random.Random):
    n = rng.randint(1, 6)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.4]
    return graph_structure(vertices, edges)


def _random_sentence(rng: random.Random):
    """A random FOC1(P) sentence: FO shell + rule-(4') predicate atoms."""

    def atom():
        a, b = rng.choice(VARS), rng.choice(VARS)
        return Eq(a, b) if rng.random() < 0.25 else Atom("E", (a, b))

    def counting_atom():
        free = rng.choice(VARS)
        bound = [v for v in VARS if v != free][: rng.randint(1, 2)]
        body = atom()
        stray = sorted(free_variables(body) - set(bound) - {free})
        term = CountTerm(tuple(bound), exists_block(stray, body))
        predicate = rng.choice(["geq1", "even"])
        return PredicateAtom(predicate, (term,))

    def formula(depth):
        if depth == 0:
            return counting_atom() if rng.random() < 0.5 else atom()
        choice = rng.randint(0, 3)
        if choice == 0:
            return Not(formula(depth - 1))
        if choice == 1:
            return And(formula(depth - 1), formula(depth - 1))
        if choice == 2:
            return Or(formula(depth - 1), formula(depth - 1))
        return Exists(rng.choice(VARS), formula(depth - 1))

    phi = formula(rng.randint(1, 3))
    return exists_block(sorted(free_variables(phi)), phi)


class TestDifferential:
    """PlanExecutor (subject) versus BruteForceEvaluator (oracle)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_model_check_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        structure = _random_graph(rng)
        sentence = _random_sentence(rng)
        oracle = BruteForceEvaluator().model_check(structure, sentence)
        for guards in (True, False):
            plan = compile_plan(
                "model_check", [sentence], (), structure.signature, PlanOptions(guards=guards)
            )
            subject = PlanExecutor(plan, structure, standard_collection()).model_check()
            assert subject is oracle
        # The dynamic path keeps the sentence's own (possibly shadowing)
        # bound variables.
        state = ExecutionState(structure, standard_collection(), True, True)
        _, residual = state.reduce_formula(sentence)
        assert state.holds(residual, {}) is oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_count_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        structure = _random_graph(rng)
        phi = parse_formula(
            rng.choice(
                [
                    "E(x, y)",
                    "E(x, y) & E(y, z)",
                    "E(x, y) | x = y",
                    "!E(x, y) & @geq1(#(w). E(x, w))",
                    "E(x, y) -> E(y, x)",
                ]
            )
        )
        variables = tuple(sorted(free_variables(phi)))
        plan = compile_plan("count", [phi], variables, structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        oracle = BruteForceEvaluator().count(structure, phi, variables)
        assert executor.count_value() == oracle

    def test_ground_and_unary_terms_agree(self):
        structure = path_graph(5)
        ground = parse_term("#(x, y). E(x, y)")
        plan = compile_plan("ground_term", [ground], (), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.ground_term_value() == BruteForceEvaluator().ground_term_value(
            structure, ground
        )

        unary = parse_term("#(y). E(x, y)")
        plan = compile_plan("unary_term", [unary], ("x",), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.unary_term_values("x") == BruteForceEvaluator().unary_term_values(
            structure, unary, "x"
        )

    def test_solutions_agree(self):
        structure = cycle_graph(5)
        phi = parse_formula("E(x, y) & @eq(#(z). E(x, z), 2)")
        variables = ("x", "y")
        plan = compile_plan("solutions", [phi], variables, structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert sorted(executor.solutions()) == sorted(
            BruteForceEvaluator().solutions(structure, phi, variables)
        )


class TestExecutorContracts:
    def test_signature_mismatch_is_rejected(self):
        from repro.structures.builders import coloured_graph_structure

        phi = parse_formula("exists x. E(x, x)")
        plan = compile_plan("model_check", [phi], (), path_graph(3).signature)
        # Same shape, different structure object: fine.
        PlanExecutor(plan, cycle_graph(4), standard_collection())
        # Different signature ({E, R, B, G} vs {E}): rejected.
        mismatched = coloured_graph_structure([1, 2], [(1, 2)], red=[1])
        with pytest.raises(EvaluationError):
            PlanExecutor(plan, mismatched, standard_collection())

    def test_materialising_an_existing_symbol_is_an_error(self):
        structure = path_graph(3)
        phi = parse_formula("exists x. @even(#(y). E(x, y))")
        plan = compile_plan("model_check", [phi], (), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        executor.prepare()
        with pytest.raises(EvaluationError):
            executor.state.apply_materialise_step(plan.steps[0])

    def test_prepare_is_idempotent(self):
        structure = path_graph(3)
        phi = parse_formula("exists x. @even(#(y). E(x, y))")
        plan = compile_plan("model_check", [phi], (), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.model_check() == executor.model_check()


class TestFacadeCaching:
    def test_repeated_evaluation_hits_the_plan_cache(self):
        cache = PlanCache()
        engine = Foc1Evaluator(plan_cache=cache)
        structure = path_graph(6)
        sentence = parse_formula("forall x. @geq1(#(y). E(x, y))")
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            first = engine.model_check(structure, sentence)
            second = engine.model_check(structure, sentence)
        finally:
            set_metrics(previous)
        assert first is second is True
        assert cache.hits >= 1
        assert registry.counter("plan.cache.hit") >= 1
        assert registry.counter("plan.cache.miss") >= 1

    def test_alpha_equivalent_queries_share_a_plan(self):
        cache = PlanCache()
        engine = Foc1Evaluator(plan_cache=cache)
        structure = path_graph(4)
        engine.model_check(structure, parse_formula("exists u. E(u, u)"))
        misses = cache.misses
        engine.model_check(structure, parse_formula("exists v. E(v, v)"))
        assert cache.misses == misses  # same canonical key, pure hit
        assert cache.hits >= 1

    def test_count_via_facade_matches_oracle_with_shared_cache(self):
        cache = PlanCache()
        engine = Foc1Evaluator(plan_cache=cache)
        oracle = BruteForceEvaluator()
        phi = parse_formula("E(x, y) & !E(y, x)")
        for structure in (path_graph(4), cycle_graph(5)):
            assert engine.count(structure, phi, ["x", "y"]) == oracle.count(
                structure, phi, ["x", "y"]
            )


def _atoms_structure():
    """A digraph with self-loops and a ternary relation."""
    edges = {(1, 1), (1, 2), (2, 3), (3, 3), (3, 1), (4, 5), (5, 5), (6, 4), (2, 6)}
    triples = {(1, 2, 3), (2, 3, 1), (1, 1, 2), (3, 3, 3), (4, 5, 6), (5, 4, 6), (1, 2, 6)}
    return Structure(
        Signature.of(E=2, T=3), range(1, 7), {"E": edges, "T": triples}
    )


def _count(structure, text, variables):
    """(planned executor, oracle) counts, plus the executor's state.

    The planned count must also agree with guards switched off and with
    the dynamic path (no plan, bound variables not renamed, so shadowing
    inside exists-blocks survives to the search)."""
    phi = parse_formula(text)
    plan = compile_plan("count", [phi], variables, structure.signature)
    executor = PlanExecutor(plan, structure, standard_collection())
    subject = executor.count_value()
    unguarded = compile_plan(
        "count", [phi], variables, structure.signature, PlanOptions(guards=False)
    )
    assert PlanExecutor(unguarded, structure, standard_collection()).count_value() == subject
    dynamic = ExecutionState(structure, standard_collection(), True, True)
    assert dynamic.count(tuple(variables), phi, {}) == subject
    return subject, BruteForceEvaluator().count(structure, phi, variables), executor.state


class TestInPlaceAtoms:
    """Atoms are tested in place and a satisfied guard is not re-tested;
    every answer still matches the oracle."""

    def test_repeated_variable_guard(self):
        structure = _atoms_structure()
        subject, oracle, state = _count(structure, "E(x, x)", ("x",))
        assert subject == oracle == 3
        # The pool of E(x, x) holds only loops: the atom is never tested.
        assert not state._tests
        subject, oracle, _ = _count(structure, "E(x, x) & E(x, y)", ("x", "y"))
        assert subject == oracle

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y) & T(x, y, z)",
            "E(y, z) & T(x, y, z)",
            "T(x, y, z) & T(z, y, x)",
            "E(x, y) & T(x, z, x)",
            "E(x, z) & T(x, y, z) & !T(z, y, x)",
            "T(x, x, y) & E(y, z) & T(y, z, z)",
        ],
    )
    def test_ternary_guard_with_two_bound_positions(self, text):
        subject, oracle, _ = _count(_atoms_structure(), text, ("x", "y", "z"))
        assert subject == oracle

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y) & E(y, z) & !E(x, z)",
            "E(x, y) & E(y, z) & !(x = z)",
            "E(x, y) & !E(y, x) & E(y, z) & !(y = z) & !E(z, x)",
        ],
    )
    def test_negated_atom_and_equality_checks(self, text):
        for structure in (_atoms_structure(), cycle_graph(5)):
            subject, oracle, state = _count(structure, text, ("x", "y", "z"))
            assert subject == oracle
            assert not state._holds_memo  # atoms leave no memo entry

    def test_elided_distance_guard(self):
        structure = path_graph(7)
        subject, oracle, state = _count(structure, "dist(x, y) <= 2", ("x", "y"))
        assert subject == oracle
        assert not state._tests  # every y came from x's 2-ball
        subject, oracle, _ = _count(
            structure, "dist(x, y) <= 2 & E(y, z) & !(x = z)", ("x", "y", "z")
        )
        assert subject == oracle

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y) & exists y. E(y, x)",
            "E(x, y) & exists x. (E(y, x) & !(x = y))",
            "exists z. (T(x, y, z) & exists y. E(z, y))",
            "E(x, y) & exists z. exists x. (T(x, y, z) & E(z, x))",
            "E(x, y) & exists z. (E(y, z) & exists y. (E(z, y) & !(y = x)))",
        ],
    )
    def test_exists_look_through_with_shadowed_variables(self, text):
        subject, oracle, _ = _count(_atoms_structure(), text, ("x", "y"))
        assert subject == oracle

    @pytest.mark.parametrize(
        "text",
        [
            "dist(x, y) <= 1 & E(y, z) & !(dist(x, z) <= 1)",
            "E(x, y) & dist(y, z) <= 2 & !(x = z)",
            "dist(x, y) <= 2 & dist(y, z) <= 1 & T(x, y, z)",
            "dist(x, y) <= 1 & exists z. (dist(y, z) <= 1 & E(z, x))",
        ],
    )
    def test_distance_guards(self, text):
        variables = tuple(sorted(free_variables(parse_formula(text))))
        structures = [_atoms_structure()] + ([] if "T(" in text else [path_graph(6)])
        for structure in structures:
            subject, oracle, _ = _count(structure, text, variables)
            assert subject == oracle

    def test_atom_gate_without_counted_variable(self):
        structure = _atoms_structure()
        term = parse_term("#(y). (E(x, x) & E(x, y))")
        plan = compile_plan("unary_term", [term], ("x",), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.unary_term_values("x") == BruteForceEvaluator().unary_term_values(
            structure, term, "x"
        )
        sentence = parse_formula("exists x. @eq(#(y). (E(x, x) & !E(y, y) & E(x, y)), 1)")
        plan = compile_plan("model_check", [sentence], (), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.model_check() is BruteForceEvaluator().model_check(
            structure, sentence
        )

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y)",
            "!E(x, y)",
            "x = y",
            "!(x = y)",
            "dist(x, y) <= 1",
            "E(x, y) & E(y, y)",
            "exists z. (E(x, z) & E(z, y))",
            "exists z. (E(x, z) & dist(z, y) <= 1)",
        ],
    )
    def test_unassigned_free_variable_is_an_evaluation_error(self, text):
        state = ExecutionState(path_graph(3), standard_collection(), True, True)
        with pytest.raises(EvaluationError, match="'y' is not assigned"):
            state.holds(parse_formula(text), {"x": 1})
        with pytest.raises(EvaluationError, match="'x' is not assigned"):
            state.count(("y",), parse_formula(text), {})

    def test_atom_tests_skip_the_holds_memo_counters(self):
        with collect_metrics() as metrics:
            subject, oracle, _ = _count(
                grid_graph(4, 4), "E(x, y) & E(y, z) & !(x = z)", ("x", "y", "z")
            )
        assert subject == oracle
        assert metrics.counter("evaluator.holds.memo.miss") == 0
        assert metrics.counter("evaluator.holds.memo.hit") == 0
        assert metrics.counter("evaluator.count.memo.miss") >= 1

    def test_state_is_freed_without_the_cycle_collector(self):
        """Compiled tests hold no reference to their state, so a finished
        executor's state goes with its last reference."""
        structure = path_graph(5)
        sentence = parse_formula(
            "forall x. exists y. (E(x, y) & dist(x, y) <= 2 & !(x = y))"
        )
        plan = compile_plan("model_check", [sentence], (), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert executor.model_check() is True
        state = weakref.ref(executor.state)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del executor
            assert state() is None
        finally:
            if enabled:
                gc.enable()

    def test_two_path_count_ticks_once_per_candidate(self):
        """The tick contract of guarded enumeration: one count tick, then
        one enumerate tick per candidate at each level — the scan over x,
        the d(x) neighbours y of each x, the d(y) neighbours z of each y."""
        structure = grid_graph(6, 7)
        degrees = [len(ns) for ns in structure.adjacency().values()]
        budget = EvaluationBudget()
        phi = parse_formula("E(x, y) & E(y, z) & !(x = z)")
        Foc1Evaluator(budget=budget).count(structure, phi, ["x", "y", "z"])
        expected = (
            1
            + sum(1 for d in degrees if d)
            + sum(degrees)
            + sum(d * d for d in degrees)
        )
        assert budget.steps == expected == 683

    def test_budget_still_stops_a_two_path_count(self):
        structure = grid_graph(30, 30)
        phi = parse_formula("E(x, y) & E(y, z) & !(x = z)")
        engine = Foc1Evaluator(budget=EvaluationBudget(max_steps=2_000))
        with pytest.raises(BudgetExceededError):
            engine.count(structure, phi, ["x", "y", "z"])
