"""Cardinality bounds and per-engine cost estimation over the plan IR.

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
  gated by an empty positive atom is exactly zero.
* :class:`CostModel` — estimates the *work* (abstract step units,
  comparable across engines) each cascade stage would spend: the ``foc1``
  cost walks the compiled :class:`~repro.plan.ir.QueryPlan` — Materialise
  steps times the universe, then the Lemma 6.4 count DAG with guard-pool
  sizes from the plan's :class:`~repro.plan.ir.GuardSpec` annotations and
  memoisation amortised to one evaluation per distinct environment; the
  ``baseline`` cost models the literal Definition 3.1 recursion (a fresh
  ``n^k`` enumeration per quantifier/count node, nothing memoised); the
  ``main_algorithm`` cost models cover construction plus the per-cluster
  pattern walk with ball-growth estimates.

:class:`CardinalityLattice` keeps the two orders — provable interval
containment vs heuristic point estimates — separate, so the router can
report *why* it believes one engine is cheaper (proof or heuristic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.clterms import BasicClTerm
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

__all__ = [
    "CardBound",
    "CardinalityLattice",
    "CardinalityEstimator",
    "CostModel",
    "EngineCost",
]

#: Work-unit ceiling: estimates saturate here instead of overflowing.
_CAP = 1e18

#: Constant-factor penalty on the baseline: it re-enumerates ``n^k`` for
#: every count/quantifier node with no memoisation and no guards, so one
#: of its abstract steps does strictly less useful work than a foc1 step
#: that lands in the memo.  Calibrated against bench_foc_vs_foc1.
_BASELINE_NODE_PENALTY = 4.0

#: Fixed overhead (plan fetch, state setup) charged to the planned engine.
_FOC1_SETUP = 32.0

#: Fixed overhead (evaluator construction, validation) for the brute force.
_BASELINE_SETUP = 16.0

#: Fixed overhead (sample planning, RNG setup) for the approximate tier.
_APPROX_SETUP = 32.0

#: Cover construction cost per element per radius unit, plus merge factor.
_COVER_BUILD_UNIT = 2.0


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

    def add(self, other: "CardBound") -> "CardBound":
        upper = (
            None
            if self.upper is None or other.upper is None
            else self.upper + other.upper
        )
        return CardBound.ranged(
            self.lower + other.lower, upper, self.estimate + other.estimate
        )

    def mul(self, other: "CardBound") -> "CardBound":
        if self.upper == 0 or other.upper == 0:
            return CardBound.exactly(0)
        upper = (
            None
            if self.upper is None or other.upper is None
            else self.upper * other.upper
        )
        return CardBound.ranged(
            self.lower * other.lower, upper, self.estimate * other.estimate
        )

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

    def provably_at_most(self, other: "CardBound") -> bool:
        """True when ``self <= other`` holds by interval containment alone."""
        return self.upper is not None and self.upper <= other.lower


class CardinalityLattice:
    """A keyed store of :class:`CardBound` facts with meet-on-record.

    Recording the same key twice *tightens*: lower bounds max, upper
    bounds min, the estimate re-clamped.  :meth:`compare` answers order
    queries and is explicit about provenance — ``("lt", True)`` is an
    interval proof, ``("lt", False)`` merely an estimate order — so the
    router can separate "provably cheaper" from "probably cheaper".
    """

    def __init__(self) -> None:
        self._bounds: Dict[str, CardBound] = {}

    def record(self, key: str, bound: CardBound) -> CardBound:
        existing = self._bounds.get(key)
        if existing is not None:
            lower = max(existing.lower, bound.lower)
            uppers = [u for u in (existing.upper, bound.upper) if u is not None]
            upper = min(uppers) if uppers else None
            bound = CardBound.ranged(lower, upper, bound.estimate)
        self._bounds[key] = bound
        return bound

    def bound(self, key: str) -> Optional[CardBound]:
        return self._bounds.get(key)

    def compare(self, a: str, b: str) -> Tuple[str, bool]:
        """Order ``a`` against ``b``: ``("lt"|"gt"|"eq"|"unknown", provable)``."""
        left = self._bounds.get(a)
        right = self._bounds.get(b)
        if left is None or right is None:
            return ("unknown", False)
        if left.exact and right.exact and left.lower == right.lower:
            return ("eq", True)
        if left.provably_at_most(right):
            return ("lt", True)
        if right.provably_at_most(left):
            return ("gt", True)
        if left.estimate < right.estimate:
            return ("lt", False)
        if left.estimate > right.estimate:
            return ("gt", False)
        return ("eq", False)

    def items(self) -> Dict[str, CardBound]:
        return dict(self._bounds)


class CardinalityEstimator:
    """Bounds for ``#(variables). body`` over one structure's statistics."""

    def __init__(
        self, stats: StructureStats, lattice: Optional[CardinalityLattice] = None
    ):
        self.stats = stats
        self.lattice = lattice if lattice is not None else CardinalityLattice()

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
        n = float(self.stats.order)
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
    """Per-engine cost estimation against one structure's statistics.

    ``calibration`` maps engine name to a multiplicative correction learnt
    from observed traffic (see :class:`repro.cost.router.EngineRouter`);
    absent engines default to 1.0.
    """

    def __init__(
        self,
        stats: StructureStats,
        calibration: Optional[Dict[str, float]] = None,
    ):
        self.stats = stats
        self.calibration = calibration or {}
        self.lattice = CardinalityLattice()
        self.estimator = CardinalityEstimator(stats, self.lattice)

    def _calibrated(self, engine: str, bound: CardBound) -> CardBound:
        factor = self.calibration.get(engine, 1.0)
        if factor == 1.0:
            return bound
        # Calibration is a learnt correction, not a proof: it scales the
        # estimate only and widens nothing.
        return CardBound.ranged(bound.lower, bound.upper, bound.estimate * factor)

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
        cost = EngineCost("foc1", self._calibrated("foc1", bound), "plan walk")
        self.lattice.record("cost.foc1", cost.bound)
        return cost

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

    # -- baseline: literal Definition 3.1 recursion ---------------------------

    def baseline_cost(
        self,
        expressions: Sequence[Expression],
        variables: Sequence[Variable] = (),
    ) -> EngineCost:
        """``variables`` is the operation's outer enumeration space — the
        counted variables of a ``count``, the free variable of a unary
        term, the head variables of a query — which the brute force walks
        in full on top of the per-assignment expression recursion."""
        n = float(self.stats.order)
        total = 0.0
        for expression in expressions:
            total += self._brute_cost(expression, n)
        total *= _clip(n ** len(tuple(variables)))
        # The brute force enumerates its full assignment space; that much
        # work is a provable floor, the node penalty is the heuristic part.
        floor = total
        estimate = _BASELINE_SETUP + total * _BASELINE_NODE_PENALTY
        bound = CardBound.ranged(_clip(floor), None, _clip(estimate))
        cost = EngineCost(
            "baseline", self._calibrated("baseline", bound), "Definition 3.1 recursion"
        )
        self.lattice.record("cost.baseline", cost.bound)
        return cost

    def _brute_cost(self, node: Expression, n: float) -> float:
        if isinstance(node, (Exists, Forall)):
            return _clip(1.0 + n * self._brute_cost(node.inner, n))
        if isinstance(node, CountTerm):
            inner = self._brute_cost(node.inner, n)
            return _clip(1.0 + (n ** len(node.variables)) * max(1.0, inner))
        cost = 1.0
        for attr in ("left", "right", "inner"):
            child = getattr(node, attr, None)
            if isinstance(child, (Expression,)):
                cost += self._brute_cost(child, n)
        if isinstance(node, PredicateAtom):
            cost += sum(self._brute_cost(t, n) for t in node.terms)
        return _clip(cost)

    # -- approx: sampling with planned sample counts ---------------------------

    def approx_cost(
        self,
        expressions: Sequence[Expression],
        variables: Sequence[Variable],
        epsilon: float = 0.1,
        delta: float = 0.05,
    ) -> EngineCost:
        """Predicted work of the sampling tier: planned samples times the
        per-sample satisfaction check (one Definition 3.1 recursion *per
        assignment*, no outer enumeration — that is the whole point).

        Unlike every exact engine, this cost does not grow with the
        assignment space ``n^k`` beyond the (logarithmic-in-δ) sample
        plan, which is what makes it the bounded-cost stage the router
        can fall back to on dense inputs.
        """
        from ..approx.planner import plan_samples

        n = float(self.stats.order)
        counted = tuple(variables)
        space = _clip(max(1.0, n ** len(counted)))
        body = expressions[0] if expressions else None
        bound = None
        if body is not None and isinstance(body, Formula):
            try:
                bound = self.estimator.count_bound(counted, body)
            except Exception:
                bound = None
        plan = plan_samples(space, epsilon, delta, bound=bound)
        per_sample = max(
            1.0,
            sum(self._brute_cost(e, n) for e in expressions) or 1.0,
        )
        total = _APPROX_SETUP + plan.samples * per_sample
        # Sample count and per-sample node walk are both known up front,
        # so the interval is tight: this stage cannot blow up.
        cost_bound = CardBound.ranged(
            _APPROX_SETUP, _clip(total * 2.0), _clip(total)
        )
        cost = EngineCost(
            "approx",
            self._calibrated("approx", cost_bound),
            f"{plan.samples} planned samples",
        )
        self.lattice.record("cost.approx", cost.bound)
        return cost

    # -- main algorithm: cover + per-cluster walk -----------------------------

    def main_algorithm_cost(self, term: BasicClTerm) -> EngineCost:
        stats = self.stats
        n = float(stats.order)
        radius = max(1, term.psi_radius, term.link_distance)
        cover = stats.cover_estimate(radius)
        build = _COVER_BUILD_UNIT * n * radius
        ball = stats.ball_size_estimate(term.link_distance or 1)
        width = len(term.variables)
        psi_nodes = float(sum(1 for _ in subexpressions(term.psi)))
        per_element = max(1.0, ball ** max(0, width - 1)) * max(1.0, psi_nodes)
        walk = cover["clusters"] * max(1.0, cover["cluster_size"] / max(n, 1.0)) * per_element
        total = build + n * per_element + walk
        bound = CardBound.ranged(n, None, _clip(total))
        cost = EngineCost(
            "main_algorithm",
            self._calibrated("main_algorithm", bound),
            "cover construction + cluster walk",
        )
        self.lattice.record("cost.main_algorithm", cost.bound)
        return cost


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
