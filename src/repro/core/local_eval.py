"""Local evaluation of basic cl-terms by ball exploration (Remark 6.3).

A basic cl-term with a *connected* pattern graph G confines every counted
tuple to the ball ``N_R(a1)`` with ``R = r + (k-1) * D`` (Lemma 6.1), so its
unary version can be evaluated at an element by exploring only that ball,
and its ground version by summing the unary values over all elements:
``g^A = sum_a u^A[a]`` — exactly the paper's Remark 6.3.

The tuple enumeration walks the pattern graph G in BFS order from vertex 1:
each next position is pattern-adjacent to an already placed one, so its
candidates come from a D-ball around a placed element rather than from the
whole universe.  On structures with small balls this is the source of the
near-linear behaviour of the whole pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..errors import FormulaError
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.semantics import satisfies
from ..logic.syntax import Formula, Variable
from ..obs import active_metrics, traced
from ..robust.budget import EvaluationBudget
from ..structures.gaifman import neighbourhood
from ..structures.structure import Element, Structure
from .clterms import BasicClTerm, ClPolynomial, Edges


def _is_quantifier_free(formula: Formula) -> bool:
    from ..logic.syntax import Exists, Forall, subexpressions

    return not any(isinstance(n, (Exists, Forall)) for n in subexpressions(formula))


class _BallCache:
    """Memoised D-balls for one structure and one distance, in id space.

    The pattern walk consumes :meth:`ball_ids` (sorted interned ids — the
    candidate stream) and :meth:`bitset` (the O(1) membership side of the
    exactness checks); both are memoised per element id.  Calling the
    cache with an *element* keeps the historical frozenset-of-elements
    contract for external callers.

    Per-call state only (no shared scratch buffers), so one cache may be
    handed to pattern walks running on any thread — though shards of the
    parallel paths still build their own to keep the memo contention-free.
    """

    __slots__ = (
        "structure",
        "distance",
        "kernel",
        "interner",
        "_ids",
        "_bitsets",
        "_metrics",
    )

    def __init__(self, structure: Structure, distance: int):
        self.structure = structure
        self.distance = distance
        self.kernel = structure.columnar()
        self.interner = self.kernel.interner
        self._ids: Dict[int, List[int]] = {}
        self._bitsets: Dict[int, int] = {}
        self._metrics = active_metrics()

    def ball_ids(self, eid: int) -> List[int]:
        """Sorted ids of ``N_D(eid)`` (memoised)."""
        cached = self._ids.get(eid)
        if cached is None:
            cached = self.kernel.ball_ids((eid,), self.distance)
            self._ids[eid] = cached
            if self._metrics is not None:
                self._metrics.inc("local.ball.expansion")
                self._metrics.inc("local.ball.memo.miss")
                self._metrics.observe("local.ball.size", len(cached))
        elif self._metrics is not None:
            self._metrics.inc("local.ball.memo.hit")
        return cached

    def bitset(self, eid: int) -> int:
        """``N_D(eid)`` as an int bitset (memoised).

        Records one ``local.ball.memo`` event per lookup, like
        :meth:`ball_ids`: a hit here, or on a miss whatever the
        :meth:`ball_ids` call building the bitset records.
        """
        cached = self._bitsets.get(eid)
        if cached is None:
            cached = self.kernel.bitset(self.ball_ids(eid))
            self._bitsets[eid] = cached
        elif self._metrics is not None:
            self._metrics.inc("local.ball.memo.hit")
        return cached

    def __call__(self, element: Element) -> FrozenSet[Element]:
        elements = self.interner.elements
        return frozenset(
            elements[i] for i in self.ball_ids(self.interner.id_of(element))
        )


#: Compile-once cache for pattern walk orders: the BFS placement order
#: depends only on (k, edges), never on the structure, so it is computed
#: once per distinct pattern graph for the life of the process (the same
#: compile/execute split the plan layer applies to full expressions —
#: cover_eval, incremental maintenance and the Section 8.2 loop all walk
#: the same handful of patterns thousands of times).
_PATTERN_ORDERS: Dict[Tuple[int, Edges], Tuple[Tuple[int, int], ...]] = {}


def pattern_order(k: int, edges: Edges) -> Tuple[Tuple[int, int], ...]:
    """BFS order over the connected pattern graph from vertex 1, cached.

    Returns ((position, parent_position), ...) for positions 2..k in
    placement order; parent_position is already placed and pattern-adjacent.
    """
    key = (k, edges)
    cached = _PATTERN_ORDERS.get(key)
    if cached is not None:
        return cached
    adjacency: Dict[int, List[int]] = {i: [] for i in range(1, k + 1)}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    order: List[Tuple[int, int]] = []
    seen = {1}
    frontier = deque([1])
    while frontier:
        node = frontier.popleft()
        for neighbour in sorted(adjacency[node]):
            if neighbour not in seen:
                seen.add(neighbour)
                order.append((neighbour, node))
                frontier.append(neighbour)
    if len(seen) != k:
        raise FormulaError("pattern graph must be connected")
    result = tuple(order)
    _PATTERN_ORDERS[key] = result
    return result


#: Backwards-compatible alias (pre-plan-layer name).
_pattern_order = pattern_order


#: Compiled pattern plans: per (k, edges), the BFS placement steps with the
#: exactness checks pre-resolved.  A step is ``(position, parent, checks)``
#: where ``checks`` lists ``(other_position, expected)`` pairs — ``expected``
#: is the edge-set membership that used to be recomputed per candidate per
#: placed position (and ``set(edges)`` itself rebuilt per invocation).  The
#: parent position is omitted from the checks: the candidate is drawn from
#: the parent's D-ball and parent-position is a pattern edge by BFS-order
#: construction, so that check is always satisfied.
_PATTERN_PLANS: Dict[
    Tuple[int, Edges], Tuple[Tuple[int, int, Tuple[Tuple[int, bool], ...]], ...]
] = {}


def pattern_plan(
    k: int, edges: Edges
) -> Tuple[Tuple[int, int, Tuple[Tuple[int, bool], ...]], ...]:
    """The compiled walk plan for one pattern graph, cached for the process."""
    key = (k, edges)
    cached = _PATTERN_PLANS.get(key)
    if cached is not None:
        return cached
    order = pattern_order(k, edges)
    edge_set = set(edges)
    steps: List[Tuple[int, int, Tuple[Tuple[int, bool], ...]]] = []
    placed_order = [1]
    for position, parent in order:
        checks = tuple(
            (other, (min(other, position), max(other, position)) in edge_set)
            for other in placed_order
            if other != parent
        )
        steps.append((position, parent, checks))
        placed_order.append(position)
    result = tuple(steps)
    _PATTERN_PLANS[key] = result
    return result


def pattern_tuples(
    structure: Structure,
    first: Element,
    k: int,
    edges: Edges,
    link_distance: int,
    ball_cache: "Optional[_BallCache]" = None,
) -> Iterator[Tuple[Element, ...]]:
    """All tuples ``(a1, ..., ak)`` with ``a1 = first`` whose connectivity
    pattern at the link distance is *exactly* the connected graph G: pattern
    edges mean ``dist <= D`` and non-edges ``dist > D``.

    Tuples may repeat elements (a repeated element forces a pattern edge,
    which the exactness check enforces automatically).  The walk runs
    entirely in id space — candidates stream from sorted ball-id arrays and
    each exactness check is one bitset probe — converting back to elements
    only as tuples are yielded.  The same tuples come out as from the
    set-based reference walk of the test suite's oracle, in sorted-id
    rather than hash order.
    """
    if k == 1:
        yield (first,)
        return
    balls = ball_cache if ball_cache is not None else _BallCache(structure, link_distance)
    placed_ids = [0] * (k + 1)  # 1-based positions
    placed_ids[1] = balls.interner.id_of(first)
    yield from _walk(pattern_plan(k, edges), 0, placed_ids, balls)


def _walk(
    plan: Tuple[Tuple[int, int, Tuple[Tuple[int, bool], ...]], ...],
    step: int,
    placed_ids: List[int],
    balls: _BallCache,
) -> Iterator[Tuple[Element, ...]]:
    """Place the positions of ``plan[step:]`` and yield each completed
    tuple.  A module-level generator rather than a closure over itself,
    which would be a reference cycle keeping every walk's ball cache (and
    through it the structure) alive until the cycle collector runs."""
    position, parent, checks = plan[step]
    tests = [(balls.bitset(placed_ids[other]), expected) for other, expected in checks]
    candidates = balls.ball_ids(placed_ids[parent])
    if step == len(plan) - 1:
        elements = balls.interner.elements
        k = len(placed_ids) - 1
        for candidate in candidates:
            for bs, expected in tests:
                if ((bs >> candidate) & 1) != expected:
                    break
            else:
                placed_ids[position] = candidate
                yield tuple(elements[placed_ids[i]] for i in range(1, k + 1))
        return
    for candidate in candidates:
        for bs, expected in tests:
            if ((bs >> candidate) & 1) != expected:
                break
        else:
            placed_ids[position] = candidate
            yield from _walk(plan, step + 1, placed_ids, balls)


@traced("local.evaluate_basic_unary")
def evaluate_basic_unary(
    structure: Structure,
    term: BasicClTerm,
    elements: "Optional[Sequence[Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    evaluate_psi_locally: bool = True,
    budget: "Optional[EvaluationBudget]" = None,
) -> Dict[Element, int]:
    """``u^A[a]`` for all ``a`` (or the given elements) by ball exploration.

    With ``evaluate_psi_locally`` the formula ``psi`` is checked inside the
    r-neighbourhood ``N_r(a-bar)`` — correct whenever psi really is r-local
    (which Definition 6.2 requires); switching it off evaluates psi globally
    (always correct, the ablation baseline of experiment E10).
    """
    if not term.unary:
        raise FormulaError("evaluate_basic_unary needs a unary basic cl-term")
    targets = list(elements) if elements is not None else list(structure.universe_order)
    if predicates is None:
        # One collection for every counted tuple, not a fresh one per
        # satisfies() call.
        predicates = standard_collection()
    balls = _BallCache(structure, term.link_distance)
    quantifier_free = _is_quantifier_free(term.psi)
    # Resolve the per-tuple budget hook once: the inner loop is the hot
    # path, and even a repeated `is not None` test per tuple is measurable,
    # so the instrumented and plain loops are kept as separate paths.
    tick = budget.tick if budget is not None else None
    check_locally = evaluate_psi_locally and not quantifier_free
    values: Dict[Element, int] = {}
    for element in targets:
        total = 0
        tuples = pattern_tuples(
            structure, element, term.width, term.edges, term.link_distance, balls
        )
        if tick is None:
            for tup in tuples:
                if _psi_holds(
                    structure,
                    term.psi,
                    term.variables,
                    tup,
                    term.psi_radius,
                    predicates,
                    check_locally,
                ):
                    total += 1
        else:
            for tup in tuples:
                tick("local.tuple")
                if _psi_holds(
                    structure,
                    term.psi,
                    term.variables,
                    tup,
                    term.psi_radius,
                    predicates,
                    check_locally,
                ):
                    total += 1
        values[element] = total
    return values


def evaluate_basic_ground(
    structure: Structure,
    term: BasicClTerm,
    predicates: "Optional[PredicateCollection]" = None,
    evaluate_psi_locally: bool = True,
) -> int:
    """``g^A`` for a ground basic cl-term: the Remark 6.3 sum over the unary
    companion ``u(y1) = #(y2..yk).body``."""
    if term.unary:
        raise FormulaError("evaluate_basic_ground needs a ground basic cl-term")
    companion = BasicClTerm(
        term.variables,
        term.psi,
        term.psi_radius,
        term.link_distance,
        term.edges,
        unary=True,
    )
    values = evaluate_basic_unary(
        structure, companion, None, predicates, evaluate_psi_locally
    )
    return sum(values.values())


def _psi_holds(
    structure: Structure,
    psi: Formula,
    variables: Tuple[Variable, ...],
    tup: Tuple[Element, ...],
    radius: int,
    predicates: "Optional[PredicateCollection]",
    locally: bool,
) -> bool:
    assignment = dict(zip(variables, tup))
    if not locally:
        return satisfies(structure, psi, assignment, predicates)
    local = neighbourhood(structure, tup, radius)
    return satisfies(local, psi, assignment, predicates)


def evaluate_polynomial_ground(
    structure: Structure,
    polynomial: ClPolynomial,
    predicates: "Optional[PredicateCollection]" = None,
    evaluate_psi_locally: bool = True,
) -> int:
    """Evaluate a ground cl-term (polynomial over ground basic cl-terms)."""
    for term in polynomial.basic_terms():
        if term.unary:
            raise FormulaError("ground polynomial contains a unary basic term")
    return polynomial.evaluate(
        lambda term: evaluate_basic_ground(
            structure, term, predicates, evaluate_psi_locally
        )
    )


def evaluate_polynomial_unary(
    structure: Structure,
    polynomial: ClPolynomial,
    elements: "Optional[Sequence[Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    evaluate_psi_locally: bool = True,
) -> Dict[Element, int]:
    """Evaluate a unary cl-term pointwise.

    Ground basic factors are evaluated once and reused across all elements;
    unary factors are evaluated per element.
    """
    targets = list(elements) if elements is not None else list(structure.universe_order)
    ground_cache: Dict[BasicClTerm, int] = {}
    unary_cache: Dict[BasicClTerm, Dict[Element, int]] = {}
    for term in polynomial.basic_terms():
        if term.unary:
            unary_cache[term] = evaluate_basic_unary(
                structure, term, targets, predicates, evaluate_psi_locally
            )
        else:
            ground_cache[term] = evaluate_basic_ground(
                structure, term, predicates, evaluate_psi_locally
            )
    result: Dict[Element, int] = {}
    for element in targets:
        result[element] = polynomial.evaluate(
            lambda term: unary_cache[term][element]
            if term.unary
            else ground_cache[term]
        )
    return result
