"""Reference semantics of FOC(P) — a literal rendering of Definition 3.1.

This evaluator is intentionally naive: ``∃`` iterates the whole universe and
``#(y1,...,yk)`` enumerates all ``|A|^k`` assignments.  It is the ground-truth
oracle every optimized engine in :mod:`repro.core` is tested against, and the
brute-force baseline of the scaling benchmarks (experiment E3).

Semantic values are integers: formulas evaluate to 0/1, counting terms to
arbitrary integers — exactly the paper's ``⟦xi⟧_I`` convention.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..errors import ArityError, EvaluationError
from ..robust.budget import EvaluationBudget
from ..structures.gaifman import distance
from ..structures.structure import Element, Structure
from .predicates import PredicateCollection, standard_collection
from .syntax import (
    Add,
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Expression,
    Forall,
    Formula,
    free_variables,
    Iff,
    Implies,
    IntTerm,
    Mul,
    Not,
    Or,
    PredicateAtom,
    Term,
    Top,
    Variable,
)

Assignment = Dict[Variable, Element]


class Interpretation:
    """A sigma-interpretation ``I = (A, beta)``.

    The assignment needs to cover only the free variables of the expressions
    evaluated under it; evaluating an expression with an unbound free variable
    raises :class:`~repro.errors.EvaluationError` (the paper's total
    assignments are realised lazily).
    """

    __slots__ = ("structure", "assignment", "predicates")

    def __init__(
        self,
        structure: Structure,
        assignment: "Optional[Dict[Variable, Element]]" = None,
        predicates: "Optional[PredicateCollection]" = None,
    ):
        self.structure = structure
        self.assignment: Assignment = dict(assignment or {})
        for variable, element in self.assignment.items():
            if element not in structure:
                raise EvaluationError(
                    f"assignment sends {variable!r} to {element!r}, "
                    "which is outside the universe"
                )
        self.predicates = predicates if predicates is not None else standard_collection()

    def rebind(self, variables: Sequence[Variable], elements: Sequence[Element]) -> "Interpretation":
        """``I[a1...ak / y1...yk]`` — a new interpretation with updated bindings."""
        updated = dict(self.assignment)
        updated.update(zip(variables, elements))
        return Interpretation(self.structure, updated, self.predicates)


def evaluate(
    expression: Expression,
    structure: Structure,
    assignment: "Optional[Dict[Variable, Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> int:
    """``⟦xi⟧_I`` for the interpretation I = (structure, assignment).

    An optional :class:`~repro.robust.budget.EvaluationBudget` is drawn on
    once per quantifier/counting iteration, making even the naive
    ``n^k`` scans cancellable.
    """
    interpretation = Interpretation(structure, assignment, predicates)
    return _eval(
        expression,
        interpretation.structure,
        interpretation.assignment,
        interpretation.predicates,
        budget,
    )


def satisfies(
    structure: Structure,
    formula: Formula,
    assignment: "Optional[Dict[Variable, Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> bool:
    """``I |= phi``."""
    if not isinstance(formula, Formula):
        raise EvaluationError("satisfies() expects a formula")
    return evaluate(formula, structure, assignment, predicates, budget) == 1


def term_value(
    structure: Structure,
    term: Term,
    assignment: "Optional[Dict[Variable, Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> int:
    """``t^A[a-bar]`` for a counting term."""
    if not isinstance(term, Term):
        raise EvaluationError("term_value() expects a counting term")
    return evaluate(term, structure, assignment, predicates, budget)


def solutions(
    structure: Structure,
    formula: Formula,
    variables: Sequence[Variable],
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> Iterator[Tuple[Element, ...]]:
    """Enumerate ``phi(A)``: all tuples ``a-bar`` with ``A |= phi[a-bar]``.

    ``variables`` fixes the tuple ordering and must cover ``free(phi)``.
    """
    missing = free_variables(formula) - set(variables)
    if missing:
        raise EvaluationError(f"variables {sorted(missing)} are free but not listed")
    collection = predicates if predicates is not None else standard_collection()
    env: Assignment = {}
    universe = structure.universe_order
    for tup in itertools.product(universe, repeat=len(variables)):
        if budget is not None:
            budget.tick("semantics.solutions")
        for variable, element in zip(variables, tup):
            env[variable] = element
        if _eval(formula, structure, env, collection, budget) == 1:
            yield tup


def count_solutions(
    structure: Structure,
    formula: Formula,
    variables: Sequence[Variable],
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> int:
    """``|phi(A)|`` by brute-force enumeration (the counting problem)."""
    return sum(1 for _ in solutions(structure, formula, variables, predicates, budget))


def _eval(
    expression: Expression,
    structure: Structure,
    env: Assignment,
    predicates: PredicateCollection,
    budget: "Optional[EvaluationBudget]" = None,
) -> int:
    # -- formulas ---------------------------------------------------------------
    if isinstance(expression, Eq):
        return 1 if _lookup(expression.left, env) == _lookup(expression.right, env) else 0
    if isinstance(expression, Atom):
        symbol = structure.signature.get(expression.relation)
        if symbol is None:
            raise EvaluationError(
                f"relation {expression.relation!r} is not in the structure's signature"
            )
        if symbol.arity != len(expression.args):
            raise ArityError(
                f"atom {expression.relation} has {len(expression.args)} arguments, "
                f"signature says {symbol.arity}"
            )
        tup = tuple(_lookup(arg, env) for arg in expression.args)
        return 1 if tup in structure.tuples(symbol) else 0
    if isinstance(expression, DistAtom):
        a = _lookup(expression.left, env)
        b = _lookup(expression.right, env)
        return 1 if distance(structure, a, b) <= expression.bound else 0
    if isinstance(expression, Not):
        return 1 - _eval(expression.inner, structure, env, predicates, budget)
    if isinstance(expression, Or):
        left = _eval(expression.left, structure, env, predicates, budget)
        if left == 1:
            return 1
        return _eval(expression.right, structure, env, predicates, budget)
    if isinstance(expression, And):
        left = _eval(expression.left, structure, env, predicates, budget)
        if left == 0:
            return 0
        return _eval(expression.right, structure, env, predicates, budget)
    if isinstance(expression, Implies):
        left = _eval(expression.left, structure, env, predicates, budget)
        if left == 0:
            return 1
        return _eval(expression.right, structure, env, predicates, budget)
    if isinstance(expression, Iff):
        left = _eval(expression.left, structure, env, predicates, budget)
        right = _eval(expression.right, structure, env, predicates, budget)
        return 1 if left == right else 0
    if isinstance(expression, Exists):
        return _eval_quantifier(
            expression.variable, expression.inner, structure, env, predicates, budget, want=1
        )
    if isinstance(expression, Forall):
        return _eval_quantifier(
            expression.variable, expression.inner, structure, env, predicates, budget, want=0
        )
    if isinstance(expression, Top):
        return 1
    if isinstance(expression, Bottom):
        return 0
    if isinstance(expression, PredicateAtom):
        values = tuple(
            _eval(term, structure, env, predicates, budget) for term in expression.terms
        )
        return 1 if predicates.query(expression.predicate, values) else 0

    # -- counting terms -----------------------------------------------------------
    if isinstance(expression, IntTerm):
        return expression.value
    if isinstance(expression, Add):
        return _eval(expression.left, structure, env, predicates, budget) + _eval(
            expression.right, structure, env, predicates, budget
        )
    if isinstance(expression, Mul):
        return _eval(expression.left, structure, env, predicates, budget) * _eval(
            expression.right, structure, env, predicates, budget
        )
    if isinstance(expression, CountTerm):
        variables = expression.variables
        if not variables:
            return _eval(expression.inner, structure, env, predicates, budget)
        saved = {v: env[v] for v in variables if v in env}
        total = 0
        universe = structure.universe_order
        try:
            for tup in itertools.product(universe, repeat=len(variables)):
                if budget is not None:
                    budget.tick("semantics.count")
                for variable, element in zip(variables, tup):
                    env[variable] = element
                total += _eval(expression.inner, structure, env, predicates, budget)
        finally:
            for variable in variables:
                env.pop(variable, None)
            env.update(saved)
        return total

    raise EvaluationError(f"unknown expression node {type(expression).__name__}")


def _eval_quantifier(
    variable: Variable,
    inner: Formula,
    structure: Structure,
    env: Assignment,
    predicates: PredicateCollection,
    budget: "Optional[EvaluationBudget]",
    want: int,
) -> int:
    """Shared ∃/∀ loop: ∃ short-circuits on value 1, ∀ on value 0."""
    had = variable in env
    saved = env.get(variable)
    try:
        for element in structure.universe_order:
            if budget is not None:
                budget.tick("semantics.quantifier")
            env[variable] = element
            if _eval(inner, structure, env, predicates, budget) == want:
                return want
        return 1 - want
    finally:
        if had:
            env[variable] = saved
        else:
            env.pop(variable, None)


def _lookup(variable: Variable, env: Assignment) -> Element:
    try:
        return env[variable]
    except KeyError:
        raise EvaluationError(f"free variable {variable!r} is not assigned") from None
