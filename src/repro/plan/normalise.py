"""Expression normalisation for plan caching.

Two alpha-equivalent FOC(P) expressions — same shape, different bound
variable names — must compile to the *same* plan, and a cached plan must
never hold references to the caller's AST objects (the engine's memo
lifetime contract pins memoised nodes per session, so a cache that
retained caller nodes would leak them across calls).

:func:`canonicalise` solves both at once: it rebuilds the expression
bottom-up (every node is a fresh object, even unchanged leaves) while
renaming every bound variable — quantifier binders *and* counting-term
binders — to a canonical ``_b0, _b1, ...`` sequence assigned in traversal
order.  Free variables keep their names (they are part of the query's
meaning: they name count columns, unary evaluation points, and query
heads), and the generator skips any canonical name that happens to
collide with a free variable.

The module also hosts the two structural helpers shared by the compiler
and the executor: conjunction flattening and predicate-atom replacement.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import AbstractSet, Callable, Dict, Iterator, List, Mapping

from ..errors import FormulaError
from ..logic.syntax import (
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
    Iff,
    Implies,
    IntTerm,
    Mul,
    Not,
    Or,
    PredicateAtom,
    Top,
    Variable,
    free_variables,
)

__all__ = ["canonicalise", "flatten_conjuncts", "replace_atoms"]


def canonicalise(expression: Expression) -> Expression:
    """A deep, alpha-renamed copy with canonical bound-variable names.

    Properties (all property-tested in ``tests/plan/test_normalise.py``):

    * alpha-equivalent inputs produce structurally *equal* outputs, so
      frozen-dataclass equality/hashing makes them share a cache entry;
    * free variables keep their names;
    * the result shares **no** node objects with the input, so plans (and
      cache keys) built from it never pin caller ASTs alive;
    * the function is idempotent up to structural equality.
    """
    fresh = partial(_fresh_name, free_variables(expression), itertools.count())
    return _rename(expression, {}, fresh)


def _fresh_name(free: AbstractSet[Variable], counter: Iterator[int]) -> Variable:
    """The next canonical name ``_b<i>`` that is not a free variable."""
    while True:
        name = f"_b{next(counter)}"
        if name not in free:
            return name


def _rename(
    node: Expression, env: Mapping[Variable, Variable], fresh: Callable[[], Variable]
) -> Expression:
    """:func:`canonicalise`'s walk (module-level, so a call leaves no
    self-referencing closure behind for the cycle collector)."""
    if isinstance(node, Eq):
        return Eq(env.get(node.left, node.left), env.get(node.right, node.right))
    if isinstance(node, Atom):
        return Atom(node.relation, tuple(env.get(a, a) for a in node.args))
    if isinstance(node, DistAtom):
        return DistAtom(
            env.get(node.left, node.left),
            env.get(node.right, node.right),
            node.bound,
        )
    if isinstance(node, Top):
        return Top()
    if isinstance(node, Bottom):
        return Bottom()
    if isinstance(node, Not):
        return Not(_rename(node.inner, env, fresh))  # type: ignore[arg-type]
    if isinstance(node, (And, Or, Implies, Iff)):
        return type(node)(
            _rename(node.left, env, fresh),  # type: ignore[arg-type]
            _rename(node.right, env, fresh),  # type: ignore[arg-type]
        )
    if isinstance(node, (Exists, Forall)):
        name = fresh()
        scope = dict(env)
        scope[node.variable] = name
        return type(node)(name, _rename(node.inner, scope, fresh))  # type: ignore[arg-type]
    if isinstance(node, PredicateAtom):
        return PredicateAtom(
            node.predicate, tuple(_rename(t, env, fresh) for t in node.terms)  # type: ignore[arg-type]
        )
    if isinstance(node, IntTerm):
        return IntTerm(node.value)
    if isinstance(node, (Add, Mul)):
        return type(node)(
            _rename(node.left, env, fresh),  # type: ignore[arg-type]
            _rename(node.right, env, fresh),  # type: ignore[arg-type]
        )
    if isinstance(node, CountTerm):
        names = [fresh() for _ in node.variables]
        scope = dict(env)
        scope.update(zip(node.variables, names))
        return CountTerm(tuple(names), _rename(node.inner, scope, fresh))  # type: ignore[arg-type]
    raise FormulaError(f"unexpected node {type(node).__name__}")


def flatten_conjuncts(formula: Formula) -> List[Formula]:
    """The conjuncts of a (nested) conjunction, ``Top`` dropped."""
    parts: List[Formula] = []

    def walk(node: Formula) -> None:
        if isinstance(node, And):
            walk(node.left)
            walk(node.right)
        elif not isinstance(node, Top):
            parts.append(node)

    walk(formula)
    return parts


def replace_atoms(
    expression: Expression, mapping: Dict[PredicateAtom, Atom]
) -> Expression:
    """Structurally replace predicate atoms (value equality) everywhere."""
    if isinstance(expression, PredicateAtom):
        replacement = mapping.get(expression)
        if replacement is not None:
            return replacement
        return PredicateAtom(
            expression.predicate,
            tuple(replace_atoms(t, mapping) for t in expression.terms),  # type: ignore[arg-type]
        )
    if isinstance(expression, (Eq, Atom, DistAtom, Top, Bottom, IntTerm)):
        return expression
    if isinstance(expression, Not):
        return Not(replace_atoms(expression.inner, mapping))  # type: ignore[arg-type]
    if isinstance(expression, (Or, And, Implies, Iff, Add, Mul)):
        return type(expression)(
            replace_atoms(expression.left, mapping),  # type: ignore[arg-type]
            replace_atoms(expression.right, mapping),  # type: ignore[arg-type]
        )
    if isinstance(expression, (Exists, Forall)):
        return type(expression)(
            expression.variable,
            replace_atoms(expression.inner, mapping),  # type: ignore[arg-type]
        )
    if isinstance(expression, CountTerm):
        return CountTerm(
            expression.variables,
            replace_atoms(expression.inner, mapping),  # type: ignore[arg-type]
        )
    raise FormulaError(f"unexpected node {type(expression).__name__}")
