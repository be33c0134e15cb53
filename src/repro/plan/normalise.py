"""Expression normalisation for plan caching.

Two alpha-equivalent FOC(P) expressions — same shape, different bound
variable names — must compile to the *same* plan, and a cached plan must
never hold references to the caller's AST objects (a cache that retained
caller nodes would keep them alive across calls).

:func:`canonicalise` solves both at once: it rebuilds the expression
bottom-up (every node is a fresh object, even unchanged leaves) while
renaming every bound variable — quantifier binders *and* counting-term
binders — to a canonical ``_b0, _b1, ...`` sequence assigned in traversal
order.  Free variables keep their names (they are part of the query's
meaning: they name count columns, unary evaluation points, and query
heads), and the generator skips any canonical name that happens to
collide with a free variable.

:func:`simplify` folds what a conjunction makes constant or implied, so
that a plan never evaluates a residue such as ``!false`` or ``S(y) & !S(y)``
that a rewrite (Lemma 7.8's, for instance) left behind.

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
    conjunction,
    free_variables,
)

__all__ = ["canonicalise", "flatten_conjuncts", "replace_atoms", "simplify"]


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


def simplify(expression: Expression) -> Expression:
    """Fold constants and implied conjuncts, bottom-up.

    * ``!true`` is Bottom and ``!false`` is Top;
    * a conjunction is Bottom when one of its conjuncts is Bottom or the
      negation of another; otherwise it drops its Top conjuncts, repeated
      conjuncts, and every ``dist(u, v) <= d`` with ``d >= 1`` beside a
      relation atom with both ``u`` and ``v`` among its arguments (a tuple
      makes its entries Gaifman-adjacent);
    * a disjunction is Top when one side is Top and drops a Bottom side.

    A node with nothing to fold comes back as the same object, so a plan
    without such residue keeps its shape (and its memo entries).
    """
    node = _map_children(expression, simplify)
    if isinstance(node, Not) and isinstance(node.inner, (Top, Bottom)):
        return Bottom() if isinstance(node.inner, Top) else Top()
    if isinstance(node, Or):
        if isinstance(node.left, Top) or isinstance(node.right, Top):
            return Top()
        if isinstance(node.left, Bottom) or isinstance(node.right, Bottom):
            return node.right if isinstance(node.left, Bottom) else node.left
    if not isinstance(node, And):
        return node
    parts = flatten_conjuncts(node)
    present = set(parts)
    if Bottom() in present or any(
        isinstance(part, Not) and part.inner in present for part in parts
    ):
        return Bottom()
    atoms = [part for part in parts if isinstance(part, Atom)]
    kept = list(
        dict.fromkeys(
            part
            for part in parts
            if not (
                isinstance(part, DistAtom)
                and part.bound >= 1
                and any(part.left in atom.args and part.right in atom.args for atom in atoms)
            )
        )
    )
    # The conjuncts are folded already, so a Top can only be a child.
    if len(kept) == len(parts) and Top() not in (node.left, node.right):
        return node
    return conjunction(kept)


def _map_children(
    expression: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """``expression`` with ``fn`` applied to each child: the same object
    when no child changes, else a new node of the same kind."""
    if isinstance(expression, (Eq, Atom, DistAtom, Top, Bottom, IntTerm)):
        return expression
    if isinstance(expression, (Not, Exists, Forall, CountTerm)):
        children: tuple = (expression.inner,)
    elif isinstance(expression, (Or, And, Implies, Iff, Add, Mul)):
        children = (expression.left, expression.right)
    elif isinstance(expression, PredicateAtom):
        children = expression.terms
    else:
        raise FormulaError(f"unexpected node {type(expression).__name__}")
    mapped = tuple(fn(child) for child in children)
    if all(new is old for new, old in zip(mapped, children)):
        return expression
    if isinstance(expression, (Exists, Forall)):
        return type(expression)(expression.variable, *mapped)
    if isinstance(expression, CountTerm):
        return CountTerm(expression.variables, *mapped)
    if isinstance(expression, PredicateAtom):
        return PredicateAtom(expression.predicate, mapped)
    return type(expression)(*mapped)


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
    if isinstance(expression, PredicateAtom) and expression in mapping:
        return mapping[expression]
    return _map_children(expression, partial(replace_atoms, mapping=mapping))
