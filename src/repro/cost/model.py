"""Cardinality bounds and the foc1 cost estimate over the plan IR.

Three layers, bottom-up:

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
* :class:`CostModel` — estimates the *work* (abstract step units) the
  ``foc1`` engine would spend by walking the compiled
  :class:`~repro.plan.ir.QueryPlan`: Materialise steps times the
  universe, then the Lemma 6.4 count DAG with guard-pool sizes from the
  plan's :class:`~repro.plan.ir.GuardSpec` annotations and memoisation
  amortised to one evaluation per distinct environment.  The service's
  degradation check reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..logic.syntax import (
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
    Not,
    Or,
    PredicateAtom,
    Term,
    Top,
    Variable,
    free_variables,
    subexpressions,
)
from ..plan.ir import (
    ComponentPlan,
    CountComplement,
    CountConstant,
    CountDecomposition,
    CountInclusionExclusion,
    CountRewrite,
    CountStep,
    QueryPlan,
)
from ..plan.normalise import flatten_conjuncts
from .stats import StructureStats

__all__ = ["CardBound", "CardinalityEstimator", "CostModel", "EngineCost"]

#: Work-unit ceiling: estimates saturate here instead of overflowing.
_CAP = 1e18

#: Fixed overhead (plan fetch, state setup) charged to the planned engine.
_FOC1_SETUP = 32.0


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


@dataclass
class EngineCost:
    """Predicted work of one cascade stage, in shared abstract units."""

    engine: str
    bound: CardBound
    detail: str = ""

    @property
    def estimate(self) -> float:
        return self.bound.estimate


class CostModel:
    """The foc1 engine's cost estimate against one structure's statistics."""

    def __init__(self, stats: StructureStats):
        self.stats = stats
        self.estimator = CardinalityEstimator(stats)

    # -- foc1: walk the compiled plan ----------------------------------------

    def foc1_cost(self, plan: QueryPlan) -> EngineCost:
        n = float(self.stats.order)
        total = _FOC1_SETUP
        for step in plan.steps:
            per_element = 1.0 + sum(
                self._term_cost(term, plan) for term in step.terms
            )
            total += (n if step.arity else 1.0) * per_element
        for root in plan.roots:
            total += self._expression_cost(root, plan)
        if plan.kind == "count":
            total += self._count_cost(plan.variables, plan.roots[0], plan)
        elif plan.kind == "unary_term":
            # One term evaluation per universe element, memo-amortised:
            # the DAG below the free variable re-runs per element, shared
            # subterms hit the memo after the first.
            total += n * max(1.0, self._expression_cost(plan.roots[0], plan) / 2.0)
        bound = CardBound.ranged(_FOC1_SETUP, None, _clip(total))
        return EngineCost("foc1", bound, "plan walk")

    def _term_cost(self, term: Term, plan: QueryPlan) -> float:
        if isinstance(term, IntTerm):
            return 0.0
        if isinstance(term, CountTerm):
            return self._count_cost(term.variables, term.inner, plan)
        cost = 1.0
        for attr in ("left", "right"):
            child = getattr(term, attr, None)
            if child is not None:
                cost += self._term_cost(child, plan)
        return cost

    def _expression_cost(self, node: Expression, plan: QueryPlan) -> float:
        """Satisfaction cost of a root: node count plus embedded counts."""
        cost = 0.0
        for sub in subexpressions(node):
            cost += 1.0
            if isinstance(sub, CountTerm):
                cost += self._count_cost(sub.variables, sub.inner, plan)
        return _clip(cost)

    def _count_cost(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        plan: QueryPlan,
        depth: int = 0,
    ) -> float:
        if depth > 32:
            return _CAP
        step = plan.counts.get((id(body), variables))
        if step is not None:
            return self._count_step_cost(step, plan, depth)
        # No step: a k = 0 count, which the engine answers with one
        # satisfaction test — charge the estimator's candidate-space
        # estimate.
        bound = self.estimator.count_bound(variables, body)
        return _clip(max(1.0, bound.estimate))

    def _count_step_cost(
        self, step: CountStep, plan: QueryPlan, depth: int
    ) -> float:
        n = float(self.stats.order)
        if isinstance(step, CountConstant):
            return 1.0
        if isinstance(step, CountComplement):
            return 1.0 + self._count_cost(step.variables, step.inner, plan, depth + 1)
        if isinstance(step, CountInclusionExclusion):
            return 1.0 + sum(
                self._count_cost(step.variables, child, plan, depth + 1)
                for child in (step.left, step.right, step.overlap)
            )
        if isinstance(step, CountRewrite):
            return 1.0 + self._count_cost(
                step.variables, step.rewritten, plan, depth + 1
            )
        if isinstance(step, CountDecomposition):
            cost = float(len(step.gates))
            for component in step.components:
                cost += self._component_cost(component)
            # Unused variables multiply the result, not the work.
            return _clip(cost)
        return n

    def _component_cost(self, component: ComponentPlan) -> float:
        """Guarded backtracking cost of one connected component: the
        product of the per-variable candidate pools the plan's guard
        annotations predict, times the conjunct checks per assignment."""
        pools: Dict[Variable, float] = {}
        for spec in component.guards:
            pool = self._guard_pool(spec)
            current = pools.get(spec.variable)
            if current is None or pool < current:
                pools[spec.variable] = pool
        enumeration = 1.0
        for variable in component.variables:
            enumeration *= pools.get(variable, float(self.stats.order))
            if enumeration >= _CAP:
                return _CAP
        checks = max(1.0, float(len(component.conjuncts)))
        return _clip(enumeration * checks)

    def _guard_pool(self, spec) -> float:
        """Predicted candidate-pool size of one GuardSpec."""
        stats = self.stats
        if spec.kind == "equality":
            return 1.0
        if spec.kind == "ball":
            radius = _trailing_int(spec.source, "radius")
            return stats.ball_size_estimate(radius if radius is not None else 1)
        if spec.kind == "index":
            name = _relation_from_source(spec.source)
            if name is not None:
                return max(1.0, stats.index_fanout(name))
            return max(1.0, stats.degree().mean)
        # scan: materialise the largest relation once.
        return max(1.0, float(stats.max_relation_card()))


def _trailing_int(source: str, marker: str) -> Optional[int]:
    """Extract ``N`` from ``"... (marker N)"`` provenance strings."""
    token = f"({marker} "
    start = source.find(token)
    if start < 0:
        return None
    rest = source[start + len(token):]
    digits = ""
    for ch in rest:
        if ch.isdigit():
            digits += ch
        else:
            break
    return int(digits) if digits else None


def _relation_from_source(source: str) -> Optional[str]:
    """Extract the relation name from ``"relation NAME..."`` provenance."""
    if source.startswith("relation "):
        return source[len("relation "):].split()[0]
    return None
