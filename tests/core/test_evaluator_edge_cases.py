"""Edge-case tests for the engine: exotic signatures, distance atoms,
zero-ary relations, deep nesting, and adversarial shapes."""

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator
from repro.errors import EvaluationError
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import NumericalPredicate, standard_collection
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Not,
    Top,
)
from repro.robust import RobustEvaluator
from repro.structures.builders import graph_structure, path_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

FAST = Foc1Evaluator()
BRUTE = BruteForceEvaluator()


class TestExoticSignatures:
    @pytest.fixture
    def ternary(self):
        sig = Signature.of(T=3, Flag=0, Mark=1)
        return Structure(
            sig,
            [1, 2, 3, 4],
            {"T": [(1, 2, 3), (2, 3, 4), (1, 1, 2)], "Flag": [()], "Mark": [(2,)]},
        )

    def test_zero_ary_atom(self, ternary):
        assert FAST.model_check(ternary, Atom("Flag", ()))
        assert not FAST.model_check(ternary, Not(Atom("Flag", ())))

    def test_ternary_counting(self, ternary):
        term = CountTerm(("x", "y", "z"), Atom("T", ("x", "y", "z")))
        assert FAST.ground_term_value(ternary, term) == 3

    def test_ternary_guarded_count_with_repeats(self, ternary):
        # atoms with a repeated variable: T(x, x, y)
        phi = Atom("T", ("x", "x", "y"))
        assert FAST.count(ternary, phi, ["x", "y"]) == BRUTE.count(
            ternary, phi, ["x", "y"]
        )
        assert FAST.count(ternary, phi, ["x", "y"]) == 1  # (1,1,2)

    def test_unary_relation_guard(self, ternary):
        phi = And(Atom("Mark", ("x",)), Exists("y", Atom("T", ("x", "y", "y"))))
        assert FAST.count(ternary, phi, ["x"]) == BRUTE.count(ternary, phi, ["x"])


class TestDistanceAtoms:
    def test_dist_atom_counting(self):
        p = path_graph(7)
        phi = And(DistAtom("x", "y", 2), Not(Eq("x", "y")))
        assert FAST.count(p, phi, ["x", "y"]) == BRUTE.count(p, phi, ["x", "y"])

    def test_dist_atom_as_guard(self):
        p = path_graph(30)
        # ball-guarded count: pairs within distance 3
        phi = DistAtom("x", "y", 3)
        fast = FAST.count(p, phi, ["x", "y"])
        assert fast == BRUTE.count(p, phi, ["x", "y"])

    def test_scattered_pair_count_via_complement(self):
        p = path_graph(10)
        phi = Not(DistAtom("x", "y", 2))
        assert FAST.count(p, phi, ["x", "y"]) == BRUTE.count(p, phi, ["x", "y"])


class TestBooleanShapes:
    @pytest.fixture
    def g(self):
        return graph_structure([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])

    def test_iff_counting(self, g):
        phi = parse_formula("E(x, y) <-> E(y, x)")
        assert FAST.count(g, phi, ["x", "y"]) == BRUTE.count(g, phi, ["x", "y"])

    def test_implies_counting(self, g):
        phi = parse_formula("E(x, y) -> x = y")
        assert FAST.count(g, phi, ["x", "y"]) == BRUTE.count(g, phi, ["x", "y"])

    def test_top_bottom_counting(self, g):
        assert FAST.count(g, Top(), ["x", "y"]) == 16
        assert FAST.count(g, Bottom(), ["x", "y"]) == 0

    def test_double_negation(self, g):
        phi = Not(Not(parse_formula("E(x, y)")))
        assert FAST.count(g, phi, ["x", "y"]) == 6

    def test_forall_inside_count(self, g):
        term = parse_term("#(x). (forall y. (E(x, y) -> E(y, x)))")
        assert FAST.ground_term_value(g, term) == BRUTE.ground_term_value(g, term)


class TestDeepNesting:
    def test_depth_three_terms(self):
        g = graph_structure([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)])
        # nodes whose count of (neighbours with even degree) is >= 1
        sentence = parse_formula(
            "@geq1(#(x). @geq1(#(y). (E(x, y) & @even(#(z). E(y, z)))))"
        )
        assert FAST.model_check(g, sentence) == BRUTE.model_check(g, sentence)

    def test_arithmetic_tower(self):
        g = path_graph(6)
        term = parse_term(
            "(#(x). x = x + 2) * (#(x, y). E(x, y) - 3) - -7"
        )
        assert FAST.ground_term_value(g, term) == BRUTE.ground_term_value(g, term)


class TestCustomPredicates:
    def test_user_predicate_collection(self):
        triple = NumericalPredicate("triple", 1, lambda v: v[0] % 3 == 0)
        collection = standard_collection().extended(triple)
        engine = Foc1Evaluator(predicates=collection)
        g = path_graph(7)
        sentence = parse_formula("@triple(#(x, y). E(x, y))")
        # 12 directed edges: divisible by 3
        assert engine.model_check(g, sentence)

    def test_oracle_counter_monotone(self):
        engine = Foc1Evaluator()
        g = path_graph(5)
        engine.predicates.reset_counter()
        engine.model_check(g, parse_formula("forall x. @geq1(#(y). E(x, y))"))
        first = engine.predicates.oracle_calls
        engine.model_check(g, parse_formula("forall x. @geq1(#(y). E(x, y))"))
        assert engine.predicates.oracle_calls == 2 * first


class TestSingletonUniverse:
    def test_all_operations_on_singleton(self):
        g = graph_structure([1], [])
        assert FAST.model_check(g, parse_formula("forall x. x = x"))
        assert FAST.count(g, parse_formula("x = y"), ["x", "y"]) == 1
        assert FAST.ground_term_value(g, parse_term("#(x, y). E(x, y)")) == 0
        with_loop = graph_structure([1], [(1, 1)], symmetric=False)
        assert FAST.ground_term_value(with_loop, parse_term("#(x, y). E(x, y)")) == 1


class TestTargetsOutsideTheUniverse:
    """``unary_term_values`` rejects a target outside the universe with the
    oracle's error, on every engine, instead of answering for it."""

    @pytest.mark.parametrize(
        "engine",
        # Built per test: the cascade's breaker counts failures across calls.
        [lambda: FAST, lambda: RobustEvaluator(workers=2), lambda: BRUTE],
        ids=["foc1", "robust", "brute"],
    )
    @pytest.mark.parametrize("text", ["#(y). (x = y)", "#(y). !E(x, y)", "#(y). E(x, y)"])
    def test_foreign_target_is_an_evaluation_error(self, engine, text):
        with pytest.raises(EvaluationError, match="sends 'x' to 99, which is outside"):
            engine().unary_term_values(path_graph(4), parse_term(text), "x", [1, 99])

    def test_universe_targets_still_answer(self):
        term = parse_term("#(y). !E(x, y)")
        assert FAST.unary_term_values(path_graph(4), term, "x", [2, 1]) == {2: 2, 1: 3}
