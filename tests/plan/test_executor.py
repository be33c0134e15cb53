"""Plan execution: differential correctness and cache reuse.

The planned executor is the subject, the literal Definition 3.1
:class:`BruteForceEvaluator` is the oracle.  Plain ``random.Random(seed)``
so each case is a fixed, re-runnable pytest id (same convention as
``tests/core/test_differential.py``).
"""

import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.errors import BudgetExceededError, EvaluationError
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import standard_collection
from repro.logic.printer import pretty
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
from repro.robust.faults import FaultInjector, inject_faults
from repro.structures.builders import (
    cycle_graph,
    graph_structure,
    grid_graph,
    path_graph,
)
from repro.structures.signature import RelationSymbol, Signature
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
        for options in (PlanOptions(), PlanOptions(guards=False), PlanOptions(factoring=False)):
            plan = compile_plan("model_check", [sentence], (), structure.signature, options)
            subject = PlanExecutor(plan, structure, standard_collection()).model_check()
            assert subject is oracle

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
    factoring switched off (one component per conjunction)."""
    phi = parse_formula(text)
    plan = compile_plan("count", [phi], variables, structure.signature)
    executor = PlanExecutor(plan, structure, standard_collection())
    subject = executor.count_value()
    for options in (PlanOptions(guards=False), PlanOptions(factoring=False)):
        other = compile_plan("count", [phi], variables, structure.signature, options)
        assert PlanExecutor(other, structure, standard_collection()).count_value() == subject
    return subject, BruteForceEvaluator().count(structure, phi, variables), executor.state


class TestInPlaceAtoms:
    """Atoms are tested in place and a satisfied guard is not re-tested;
    every answer still matches the oracle."""

    def test_repeated_variable_guard(self):
        structure = _atoms_structure()
        subject, oracle, state = _count(structure, "E(x, x)", ("x",))
        assert subject == oracle == 3
        # The pool of E(x, x) holds only loops: the atom is never tested.
        assert not state._bound_tests
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
        assert not state._bound_tests  # every y came from x's 2-ball
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
        structure = path_graph(3)
        plan = compile_plan("count", [parse_formula(text)], ("y",), structure.signature)
        state = ExecutionState(structure, standard_collection(), plan)
        (phi,) = plan.roots
        with pytest.raises(EvaluationError, match="'y' is not assigned"):
            state.holds(phi, {"x": 1})
        with pytest.raises(EvaluationError, match="'x' is not assigned"):
            state.count(("y",), phi, {})

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

    def test_stratum_and_unary_root_tick_like_count(self):
        """Column kernels charge what per-element ``count()`` did.  The
        census stratum pays a materialise, a count and one enumerate tick
        per neighbour for every vertex; the root count then scans the 12
        vertices of degree 4.  A unary root pays per element what the
        stratum below it pays."""
        structure = grid_graph(5, 6)
        degrees = [len(ns) for ns in structure.adjacency().values()]
        n, total = len(degrees), sum(degrees)
        assert (n, total, degrees.count(4)) == (30, 98, 12)
        engine = Foc1Evaluator(budget=EvaluationBudget(), workers=1)
        engine.ground_term_value(structure, parse_term("#(x). @eq(#(y). E(x, y), 4)"))
        assert engine.budget.steps == n + n + total + 1 + 12 == 171
        engine = Foc1Evaluator(budget=EvaluationBudget(), workers=1)
        high = parse_term("#(y). (E(x, y) & @gt(#(z). E(y, z), 2))")
        engine.unary_term_values(structure, high, "x")
        assert engine.budget.steps == 3 * n + 2 * total == 286

    def test_budget_still_stops_a_two_path_count(self):
        structure = grid_graph(30, 30)
        phi = parse_formula("E(x, y) & E(y, z) & !(x = z)")
        engine = Foc1Evaluator(budget=EvaluationBudget(max_steps=2_000))
        with pytest.raises(BudgetExceededError):
            engine.count(structure, phi, ["x", "y", "z"])


def _random_ternary_structure(rng: random.Random) -> Structure:
    universe = list(range(rng.randint(2, 7)))
    edges = [(a, b) for a in universe for b in universe if rng.random() < 0.25]
    triples = [
        tuple(rng.choice(universe) for _ in range(3)) for _ in range(rng.randint(0, 6))
    ]
    marked = [(a,) for a in universe if rng.random() < 0.5]
    return Structure(
        Signature.of(E=2, T=3, U=1), universe, {"E": edges, "T": triples, "U": marked}
    )


def _random_residue(rng: random.Random) -> str:
    """A conjunction over x, y, z with what the compiler folds: distance
    atoms beside relation atoms over the same variables, negated distance
    atoms, constants, repeated conjuncts and complementary literals."""
    names = ("x", "y", "z")

    def var():
        return rng.choice(names)

    def literal():
        roll = rng.random()
        if roll < 0.3:
            return f"E({var()}, {var()})"
        if roll < 0.45:
            return f"T({var()}, {var()}, {var()})"
        if roll < 0.55:
            return f"U({var()})"
        if roll < 0.8:
            return f"dist({var()}, {var()}) <= {rng.randint(0, 2)}"
        if roll < 0.9:
            return f"{var()} = {var()}"
        return rng.choice(["true", "false", "!true", "!false"])

    parts = []
    for _ in range(rng.randint(2, 5)):
        part = literal()
        if rng.random() < 0.3:
            part = f"!({part})"
        parts.append(part)
        if rng.random() < 0.15:
            parts.append(part)  # a repeated conjunct
        if rng.random() < 0.1:
            parts.append(f"!({part})")  # a complementary literal
    if len(parts) > 2 and rng.random() < 0.5:
        parts[-2:] = [f"({parts[-2]} & {parts[-1]})"]
    return " & ".join(parts)


class TestFoldedAndImpliedConjuncts:
    """The compiler folds constants, repeated conjuncts and complementary
    literals, and drops a distance atom implied by a relation atom beside
    it; a negated distance atom is tested in place."""

    @pytest.mark.parametrize("block", range(4))
    def test_differential_on_ternary_structures(self, block):
        oracle = BruteForceEvaluator()
        for seed in range(60 * block, 60 * (block + 1)):
            rng = random.Random(seed)
            structure = _random_ternary_structure(rng)
            text = _random_residue(rng)
            phi = parse_formula(text)
            names = free_variables(phi)
            variables = tuple(v for v in VARS if v in names or rng.random() < 0.3)
            plan = compile_plan("count", [phi], variables, structure.signature)
            expected = oracle.count(structure, phi, variables)
            assert PlanExecutor(plan, structure, standard_collection()).count_value() == (
                expected
            ), (seed, text)
            term = parse_term(f"#(y, z). ({text})")
            plan = compile_plan("unary_term", [term], ("x",), structure.signature)
            got = PlanExecutor(plan, structure, standard_collection()).unary_term_values("x")
            assert got == oracle.unary_term_values(structure, term, "x"), (seed, text)

    def test_implied_distance_atoms_are_dropped(self):
        plan = compile_plan(
            "count",
            [parse_formula("E(x, y) & dist(x, y) <= 1 & T(y, z, x) & dist(x, z) <= 2")],
            ("x", "y", "z"),
            Signature.of(E=2, T=3),
        )
        assert pretty(plan.roots[0]) == "E(x, y) & T(y, z, x)"
        kept = compile_plan(
            "count",
            [parse_formula("E(x, y) & dist(y, z) <= 1 & !(dist(x, y) <= 1) & x = y")],
            ("x", "y", "z"),
            Signature.of(E=2),
        )
        assert pretty(kept.roots[0]).count("dist") == 2

    def test_negated_distance_is_tested_in_place(self):
        """No satisfaction memo and no ``evaluator.holds`` tick: the count
        ticks as the two-path count does, 683 on this grid."""
        structure = grid_graph(6, 7)
        budget = EvaluationBudget()
        phi = parse_formula("E(x, y) & E(y, z) & !(dist(x, z) <= 1)")
        with collect_metrics() as metrics:
            value = Foc1Evaluator(budget=budget).count(structure, phi, ["x", "y", "z"])
        assert value == BruteForceEvaluator().count(structure, phi, ["x", "y", "z"])
        assert metrics.counter("evaluator.holds.memo.miss") == 0
        assert budget.steps == 683

    def test_a_folded_count_is_a_constant(self):
        """The body is identically false: one count tick and nothing else."""
        structure = grid_graph(6, 7)
        budget = EvaluationBudget()
        phi = parse_formula("E(x, y) & !false & (E(y, x) & (!E(y, x) & true))")
        with collect_metrics() as metrics:
            assert Foc1Evaluator(budget=budget).count(structure, phi, ["x", "y"]) == 0
        assert budget.steps == 1
        assert metrics.counter("evaluator.guard.scan") == 0



class TestCountIndex:
    """Every count dispatches through a compiled step: the plan indexes
    steps by ``(body, counted variables)``, and the executor finds a count
    by its alpha-canonical text."""

    def test_counting_a_body_without_a_compiled_step_is_an_error(self):
        structure = path_graph(3)
        plan = compile_plan("count", [parse_formula("E(x, y)")], ("x", "y"), structure.signature)
        state = ExecutionState(structure, standard_collection(), plan)
        (phi,) = plan.roots
        with pytest.raises(EvaluationError, match="no compiled count step"):
            state.count(("x", "y"), parse_formula("E(y, x)"), {})  # not in the plan
        with pytest.raises(EvaluationError, match="no compiled count step"):
            state.count(("x",), phi, {"y": 2})  # compiled for (x, y) only
        assert state.count(("x", "y"), phi, {}) == 4
        # A caller's alpha-variant of a plan count finds it by its text.
        assert state.count(("u", "v"), parse_formula("E(u, v)"), {}) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "E(x, y) & E(y, z) & !(x = z)",
            "E(x, y) | !E(y, z)",
            "(E(x, y) -> x = z) & @geq1(#(w). E(z, w))",
        ],
    )
    def test_a_pickled_plan_keeps_its_count_index(self, text):
        phi = parse_formula(text)
        structure = grid_graph(3, 4)
        plan = compile_plan("count", [phi], ("x", "y", "z"), structure.signature)
        restored = pickle.loads(pickle.dumps(plan))
        assert (restored.roots[0], restored.variables) in restored.counts
        assert len(restored.counts) == len(plan.counts)
        expected = PlanExecutor(plan, structure, standard_collection()).count_value()
        assert expected == BruteForceEvaluator().count(structure, phi, ("x", "y", "z"))
        assert (
            PlanExecutor(restored, structure, standard_collection()).count_value()
            == expected
        )

    def test_count_terms_sharing_a_body(self):
        """Stratification maps equal predicate atoms to one Atom object,
        so these count terms share a body but not their binders."""
        structure = path_graph(4)
        oracle = BruteForceEvaluator()
        engine = Foc1Evaluator(plan_cache=PlanCache())
        ground = parse_term("#(y). @even(2) + #(w). @even(2)")
        plan = compile_plan("ground_term", [ground], (), structure.signature)
        left, right = plan.roots[0].left, plan.roots[0].right
        assert left.inner is right.inner and left.variables != right.variables
        assert engine.ground_term_value(structure, ground) == oracle.ground_term_value(
            structure, ground
        )
        unary = parse_term("#(y). @geq1(#(). E(x, x)) + #(w). @geq1(#(). E(x, x))")
        assert engine.unary_term_values(structure, unary, "x") == oracle.unary_term_values(
            structure, unary, "x"
        )


#: Plans whose searches compile child programs on first descent: a
#: non-kernel count with two levels, an exists-block, a Forall.
SHARED_PLANS = (
    ("unary_term", "#(y, z). (E(x, y) & E(y, z) & !(x = z))", ("x",)),
    ("count", "E(x, y) & exists w. (E(y, w) & !E(w, x))", ("x", "y")),
    ("model_check", "forall x. exists y. (E(x, y) & exists z. E(y, z))", ()),
)


def _run(plan, structure):
    executor = PlanExecutor(plan, structure, standard_collection())
    if plan.kind == "unary_term":
        return executor.unary_term_values("x")
    return executor.count_value() if plan.kind == "count" else executor.model_check()


class TestSharedPlans:
    """Search programs live in the plan: published once, plain data that
    pickles, and safe to publish from two threads at once."""

    @pytest.mark.parametrize("kind, text, variables", SHARED_PLANS)
    def test_a_pickled_plan_with_published_programs_gives_the_same_answers(
        self, kind, text, variables
    ):
        structure = grid_graph(4, 5)
        expression = parse_term(text) if kind == "unary_term" else parse_formula(text)
        plan = compile_plan(kind, [expression], variables, structure.signature)
        expected = _run(plan, structure)
        assert plan.programs
        restored = pickle.loads(pickle.dumps(plan))
        assert restored.programs == plan.programs and restored.ids == plan.ids
        with collect_metrics() as metrics:
            assert _run(restored, structure) == expected
        assert metrics.counter("plan.program.compiled") == 0

    @pytest.mark.parametrize("kind, text, variables", SHARED_PLANS)
    def test_threads_running_one_fresh_plan_agree_with_the_serial_answer(
        self, kind, text, variables
    ):
        """Four threads (more than the cores) run one plan that has compiled
        no search program yet, then add the same 50 formulas to its node
        table: every answer is the serial one, the programs are the serial
        run's, no text was added twice, and every id maps to its text."""
        import sys
        import threading

        structure = grid_graph(5, 6)
        expression = parse_term(text) if kind == "unary_term" else parse_formula(text)

        def fresh():
            return compile_plan(kind, [expression], variables, structure.signature)

        serial = fresh()
        expected = _run(serial, structure)
        a, b = structure.universe_order[:2]
        adjacent = structure.has_tuple("E", (a, b)) or structure.has_tuple("E", (b, a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                plan = fresh()
                barrier = threading.Barrier(4)
                results, answers = [], []

                def run():
                    barrier.wait()
                    results.append(_run(plan, structure))
                    state = ExecutionState(structure, standard_collection(), plan)
                    for k in range(50):
                        name = f"v{k}"
                        formula = parse_formula(f"E(x, {name}) | E({name}, x)")
                        answers.append(state.holds(formula, {"x": a, name: b}))

                threads = [threading.Thread(target=run) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 4 and answers == [adjacent] * 200
                assert plan.programs == serial.programs
                # Each formula adds itself and its two atoms.
                assert len(plan.ids) == len(plan.nodes) == len(serial.nodes) + 50 * 3
                assert all(plan.nodes[node].text == text for text, node in plan.ids.items())
        finally:
            sys.setswitchinterval(interval)


def _kernel_graph(seed: int) -> Structure:
    """A seeded directed graph with self-loops and a unary relation U."""
    rng = random.Random(seed)
    universe = list(range(rng.randint(3, 8)))
    edges = [(a, b) for a in universe for b in universe if rng.random() < 0.3]
    marked = [(a,) for a in universe if rng.random() < 0.5]
    return Structure(Signature.of(E=2, U=1), universe, {"E": edges, "U": marked})


def _per_element(plan, structure, variable):
    """The plan run one element at a time through ``term_value`` and so
    ``ExecutionState.count``, strata included, on a fresh state: the
    values, the budget steps and the state."""
    budget = EvaluationBudget()
    state = ExecutionState(structure, standard_collection(), plan, budget)
    for step in plan.steps:
        assert step.arity == 1
        tuples = set()
        for a in structure.universe_order:
            budget.tick("evaluator.materialise")
            values = tuple(state.term_value(t, {step.variable: a}) for t in step.terms)
            if state.predicates.query(step.predicate, values):
                tuples.add((a,))
        state._extend(RelationSymbol(step.symbol, step.arity), tuples)
    (root,) = plan.roots
    if variable is None:
        values = state.term_value(root, {})
    else:
        values = {a: state.term_value(root, {variable: a}) for a in structure.universe_order}
    return values, budget.steps, state


#: Counts over one counted variable y with ``{v}`` free.  These qualify for
#: a column kernel ...
KERNEL_SHAPES = (
    "#(y). E({v}, y)",
    "#(y). E(y, {v})",
    "#(y). (E({v}, y) & U(y))",
    "#(y). (E({v}, y) & !U(y))",
    "#(y). (E({v}, y) & !({v} = y))",
    "#(y). (E({v}, y) & E(y, y))",
)
#: ... and these fall back to per-element counts: two anchored guards, a
#: gate, two levels.
FALLBACK_SHAPES = (
    "#(y). (E({v}, y) & E(y, {v}))",
    "#(y). (E({v}, y) & U({v}))",
    "#(y, z). (E({v}, y) & E(y, z))",
)
#: Unary terms in x around a shape over x (``{c}``) or over w (``{w}``):
#: sums, a left factor that is zero at some elements and at all, a
#: complement and an inclusion-exclusion child that count ``E(x, y)``
#: after a column did, a stratum, and one count shared by two strata ...
UNARY_CONTEXTS = (
    "{c}",
    "{c} + 2 * {c}",
    "#(z). (E(x, z) & U(z)) * {c}",
    "0 * {c} + 1",
    "{c} + #(y). !E(x, y)",
    "{c} * #(y). (E(x, y) | U(y))",
    "#(w). (E(x, w) & @gt({w}, 1))",
    "#(w). (E(w, x) & @eq({w}, 1) & @geq1({w}))",
)
#: ... and ground terms over strata of a shape over x.
GROUND_CONTEXTS = (
    "#(x). @eq({c}, 1)",
    "#(x). (@geq1({c}) & @gt({c}, 1)) + #(x). @geq1({c} * {c})",
    "#(x). @gt({c} + #(y). !E(x, y), 2)",
)


class TestColumnKernels:
    """Unary terms and strata evaluated a column at a time agree with the
    brute-force oracle, charge the steps the per-element path charged,
    and export the count entries it would have stored."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES + FALLBACK_SHAPES)
    def test_which_counts_qualify(self, shape):
        structure = _kernel_graph(0)
        term = parse_term(shape.format(v="x"))
        plan = compile_plan("unary_term", [term], ("x",), structure.signature)
        state = ExecutionState(structure, standard_collection(), plan)
        kernel = state._kernel(plan.root_ids[0], "x")
        assert (kernel is not None) == (shape in KERNEL_SHAPES)

    @pytest.mark.parametrize("context", UNARY_CONTEXTS + GROUND_CONTEXTS)
    @pytest.mark.parametrize("shape", KERNEL_SHAPES + FALLBACK_SHAPES)
    def test_columns_match_the_oracle_and_the_per_element_path(self, shape, context):
        term = parse_term(context.format(c=shape.format(v="x"), w=shape.format(v="w")))
        unary = context in UNARY_CONTEXTS
        kind, variable = ("unary_term", "x") if unary else ("ground_term", None)
        oracle = BruteForceEvaluator()
        for seed in range(4):
            structure = _kernel_graph(seed)
            plan = compile_plan(kind, [term], ("x",) if unary else (), structure.signature)
            executor = PlanExecutor(
                plan, structure, standard_collection(), EvaluationBudget()
            )
            if unary:
                value = executor.unary_term_values("x")
                assert value == oracle.unary_term_values(structure, term, "x")
            else:
                value = executor.ground_term_value()
                assert value == oracle.ground_term_value(structure, term)
            expected, steps, reference = _per_element(plan, structure, variable)
            assert (value, executor.state.budget.steps) == (expected, steps)
            assert Counter(executor.state.export_memo_snapshot()) == Counter(
                reference.export_memo_snapshot()
            )

    def test_checked_candidates_tick_one_at_a_time(self):
        """A kernel with per-candidate tests ticks each candidate as
        ``count()`` does, so a step limit stops it at the same step."""
        structure = Structure(
            Signature.of(E=2, U=1), range(10), {"E": [(0, b) for b in range(10)], "U": []}
        )
        term = parse_term("#(y). (E(x, y) & !(x = y))")
        plan = compile_plan("unary_term", [term], ("x",), structure.signature)
        budget = EvaluationBudget(max_steps=5)
        executor = PlanExecutor(plan, structure, standard_collection(), budget)
        assert executor.state._kernel(plan.root_ids[0], "x") is not None
        with pytest.raises(BudgetExceededError):
            executor.unary_term_values("x")
        assert budget.steps == 6

    def test_a_zero_left_factor_builds_no_kernel(self):
        structure = _kernel_graph(0)
        term = parse_term("0 * #(y). (E(x, y) & U(y)) + 1")
        plan = compile_plan("unary_term", [term], ("x",), structure.signature)
        executor = PlanExecutor(plan, structure, standard_collection())
        assert set(executor.unary_term_values("x").values()) == {1}
        assert executor.state._bound_kernels == {} and executor.state._bound_nodes == {}

    @pytest.mark.parametrize(
        "kind, text, columns, counts",
        [
            ("ground_term", "#(x). @eq(#(y). E(x, y), 4)", 1, 1),
            ("unary_term", "#(y). (E(x, y) & @gt(#(z). E(y, z), 2))", 2, 0),
        ],
    )
    def test_a_column_replaces_the_count_entries(self, kind, text, columns, counts):
        """One column per kernel count, one ``memo.insert`` per column, and
        no count-memo entry for a kernel count: only the census root count
        goes through ``count()``."""
        structure = grid_graph(5, 6)
        variables = ("x",) if kind == "unary_term" else ()
        plan = compile_plan(kind, [parse_term(text)], variables, structure.signature)
        injector = FaultInjector()
        with inject_faults(injector), collect_metrics() as metrics:
            executor = PlanExecutor(plan, structure, standard_collection())
            if kind == "unary_term":
                executor.unary_term_values("x")
            else:
                executor.ground_term_value()
        state = executor.state
        assert len(state._columns) == columns
        assert all(len(column) == structure.order() for column in state._columns.values())
        assert len(state._count_memo) == counts
        kernel_texts = {key[0] for key in state._columns}
        assert not any(key[0] in kernel_texts for key in state._count_memo)
        assert injector.hits["memo.insert"] == columns + counts
        assert metrics.counter("evaluator.count.column") == columns
        assert metrics.counter("evaluator.count.column.elements") == columns * structure.order()
        assert metrics.counter("evaluator.count.memo.miss") == counts
