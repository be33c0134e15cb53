"""Cardinality bounds over structure statistics.

Two layers, bottom-up:

* :class:`CardBound` — an interval ``[lower, upper]`` of *provable*
  cardinality bounds plus a point ``estimate`` inside it.  Bounds and
  estimates travel together but are never mixed: combinators tighten the
  provable interval only with provable arguments, while the estimate is
  free to use selectivity heuristics.
* :class:`CardinalityEstimator` — walks a formula (the same AST the
  engines evaluate) against :class:`~repro.cost.stats.StructureStats` and
  produces a :class:`CardBound` for ``#(variables). body``.  Exactness is
  preserved where the statistics allow it: counting a positive atom over
  distinct variables is the relation cardinality, and any conjunction
  gated by an empty positive atom is exactly zero.  The approx planner
  reads these bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateAtom,
    Top,
    Variable,
    free_variables,
)
from ..plan.normalise import flatten_conjuncts
from .stats import StructureStats

__all__ = ["CardBound", "CardinalityEstimator"]

#: Cardinality ceiling: estimates saturate here instead of overflowing.
_CAP = 1e18


def _clip(value: float) -> float:
    if value != value or value < 0.0:  # NaN guard
        return 0.0
    return min(value, _CAP)


@dataclass(frozen=True)
class CardBound:
    """A provable interval plus a point estimate for one cardinality.

    ``lower <= true value <= upper`` is a *proof obligation*: combinators
    only produce these from provable inputs.  ``upper`` may be ``None``
    (no non-trivial proof).  ``estimate`` is a heuristic point inside the
    interval; ``exact`` marks intervals of width zero.
    """

    lower: float
    upper: Optional[float]
    estimate: float
    exact: bool = False

    @classmethod
    def exactly(cls, value: float) -> "CardBound":
        value = _clip(value)
        return cls(lower=value, upper=value, estimate=value, exact=True)

    @classmethod
    def ranged(
        cls, lower: float, upper: Optional[float], estimate: float
    ) -> "CardBound":
        lower = _clip(lower)
        if upper is not None:
            upper = _clip(max(upper, lower))
        estimate = _clip(estimate)
        if upper is not None:
            estimate = min(max(estimate, lower), upper)
        else:
            estimate = max(estimate, lower)
        exact = upper is not None and lower == upper
        return cls(lower=lower, upper=upper, estimate=estimate, exact=exact)

    def complement(self, total: float) -> "CardBound":
        """``total - self`` clamped at zero (counting ``not phi`` within a
        space of ``total`` assignments)."""
        lower = 0.0 if self.upper is None else max(0.0, total - self.upper)
        return CardBound.ranged(
            lower, max(0.0, total - self.lower), max(0.0, total - self.estimate)
        )

    def union_max(self, other: "CardBound") -> "CardBound":
        """Sound bound for a disjunction: at least the larger disjunct, at
        most the sum."""
        upper = (
            None
            if self.upper is None or other.upper is None
            else self.upper + other.upper
        )
        return CardBound.ranged(
            max(self.lower, other.lower),
            upper,
            min(
                self.estimate + other.estimate,
                upper if upper is not None else _CAP,
            ),
        )


class CardinalityEstimator:
    """Bounds for ``#(variables). body`` over one structure's statistics."""

    def __init__(self, stats: StructureStats):
        self.stats = stats

    def count_bound(
        self, variables: Sequence[Variable], body: Formula
    ) -> CardBound:
        counted = tuple(variables)
        n = float(self.stats.order)
        space = _clip(n ** len(counted))
        bound = self._bound(body, set(counted), space)
        # The assignment space itself is always a provable ceiling.
        upper = space if bound.upper is None else min(bound.upper, space)
        return CardBound.ranged(min(bound.lower, upper), upper, bound.estimate)

    # -- recursive walk -------------------------------------------------------

    def _bound(self, body: Formula, counted: set, space: float) -> CardBound:
        if isinstance(body, Top):
            return CardBound.exactly(space)
        if isinstance(body, Bottom):
            return CardBound.exactly(0)
        if isinstance(body, Not):
            return self._bound(body.inner, counted, space).complement(space)
        if isinstance(body, Or):
            left = self._bound(body.left, counted, space)
            right = self._bound(body.right, counted, space)
            merged = left.union_max(right)
            upper = space if merged.upper is None else min(merged.upper, space)
            return CardBound.ranged(merged.lower, upper, merged.estimate)
        if isinstance(body, Implies):
            return self._bound(
                Or(Not(body.left), body.right), counted, space
            )
        if isinstance(body, Iff):
            # No sharp combinator: fall back to the trivial interval with a
            # half-space estimate.
            return CardBound.ranged(0.0, space, space / 2.0)
        if isinstance(body, (And, Atom, DistAtom, Eq, Exists, Forall,
                             PredicateAtom, CountTerm)):
            return self._conjunction_bound(body, counted, space)
        return CardBound.ranged(0.0, space, space / 2.0)

    def _conjunction_bound(
        self, body: Formula, counted: set, space: float
    ) -> CardBound:
        """Conjunctions (and single non-boolean leaves): intersect the
        per-conjunct ceilings, each extended over the variables it does
        not constrain."""
        n = float(self.stats.order)
        conjuncts = flatten_conjuncts(body) if isinstance(body, And) else [body]
        best_upper: Optional[float] = None
        best_estimate = space
        for conjunct in conjuncts:
            atom_bound = self._leaf_bound(conjunct, counted)
            if atom_bound is None:
                continue
            touched = free_variables(conjunct) & counted
            untouched = len(counted) - len(touched)
            extension = _clip(n**untouched)
            if atom_bound.upper is not None:
                ceiling = _clip(atom_bound.upper * extension)
                if best_upper is None or ceiling < best_upper:
                    best_upper = ceiling
            best_estimate = min(best_estimate, atom_bound.estimate * extension)
        # Exact case: a single positive atom over exactly the counted
        # variables, pairwise distinct — every relation tuple is one
        # assignment and vice versa.
        if len(conjuncts) == 1 and isinstance(conjuncts[0], Atom):
            atom = conjuncts[0]
            if (
                len(set(atom.args)) == len(atom.args)
                and set(atom.args) == counted
                and len(atom.args) == len(counted)
            ):
                return CardBound.exactly(self.stats.relation_card(atom.relation))
        if best_upper is not None and best_upper <= 0.0:
            return CardBound.exactly(0)
        upper = space if best_upper is None else min(best_upper, space)
        return CardBound.ranged(0.0, upper, min(best_estimate, upper))

    def _leaf_bound(
        self, conjunct: Formula, counted: set
    ) -> Optional[CardBound]:
        """Ceiling one conjunct puts on assignments of its counted
        variables, or None when it constrains nothing provably."""
        n = float(self.stats.order)
        if isinstance(conjunct, Atom):
            touched = set(conjunct.args) & counted
            if not touched:
                return None
            card = float(self.stats.relation_card(conjunct.relation))
            return CardBound.ranged(0.0, card, card)
        if isinstance(conjunct, Eq):
            touched = {conjunct.left, conjunct.right} & counted
            if len(touched) == len({conjunct.left, conjunct.right}) and touched:
                # Both sides counted: at most n of the n^2 pairs agree.
                return CardBound.ranged(0.0, n, n)
            if touched:
                return CardBound.ranged(0.0, 1.0, 1.0)
            return None
        if isinstance(conjunct, DistAtom):
            touched = {conjunct.left, conjunct.right} & counted
            if not touched:
                return None
            ball = self.stats.ball_size_estimate(conjunct.bound)
            if len(touched) == 2:
                return CardBound.ranged(0.0, None, n * ball)
            return CardBound.ranged(0.0, None, ball)
        if isinstance(conjunct, Exists):
            inner: Formula = conjunct
            shadowed: set = set()
            while isinstance(inner, Exists):
                shadowed.add(inner.variable)
                inner = inner.inner
            # The caller reads the returned bound as a ceiling on the
            # assignments of *this conjunct's* counted free variables.
            target = (free_variables(conjunct) & counted) - shadowed
            if not target:
                return None
            best: Optional[CardBound] = None
            for piece in flatten_conjuncts(inner):
                bound = self._leaf_bound(piece, target)
                if bound is None:
                    continue
                # The piece only constrains the target variables it
                # touches; the rest range freely and multiply the ceiling.
                touched = free_variables(piece) & target
                extension = _clip(n ** (len(target) - len(touched)))
                upper = (
                    None
                    if bound.upper is None
                    else _clip(bound.upper * extension)
                )
                extended = CardBound.ranged(
                    0.0, upper, bound.estimate * extension
                )
                if best is None or extended.estimate < best.estimate:
                    best = extended
            # A witness projection can only shrink: the ceiling survives,
            # exactness does not.
            return best
        return None
