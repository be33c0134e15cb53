"""Evaluation of cover terms relative to a neighbourhood cover
(Definitions 7.4 / 7.5 and the per-cluster loop of Section 8.2).

Two evaluation paths are provided:

* :func:`evaluate_basic_cover_unary` / :func:`evaluate_cover_term` — the
  *semantic* path: enumerate the counted tuples in the full structure
  (patterns measured in A), but check each component formula inside a
  cluster that r-covers the component, exactly as the definitions demand.

* :func:`evaluate_per_cluster` — the Section 8.2 *algorithmic* path: group
  elements by their assigned cluster X(a) (the ``Q`` relativisation of the
  paper) and evaluate each group entirely inside the induced substructure
  ``A[X]``.  This is only sound when the cover is a ``k*r``-neighbourhood
  cover (then patterns measured inside the cluster agree with patterns
  measured in A, cf. the argument in Section 8.2); the function checks the
  radius precondition and the tests confirm the two paths agree.

Both paths enumerate counted tuples through
:func:`repro.core.local_eval.pattern_tuples`, whose BFS placement order is
compiled once per pattern graph (see
:func:`repro.core.local_eval.pattern_order`) — the cover loops walk the
same handful of patterns across every cluster, so the order is static
analysis, not per-tuple work.  Polynomial evaluation additionally shares
one ball cache across all basic terms with the same link distance.

The per-cluster path takes ``workers``: above one, its clusters are
sharded deterministically across child processes of a
:class:`~repro.parallel.WorkerPool` and the shard results merge in
shard-index order, so any worker count produces byte-identical output to
the serial loop (see ``docs/PARALLEL.md``).  ``workers=1`` (the default)
*is* the serial loop.  The semantic path always runs inline.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from ..errors import FormulaError
from ..logic.predicates import PredicateCollection
from ..logic.semantics import satisfies
from ..obs import active_metrics, traced
from ..parallel import WorkerPool, shard
from ..robust.budget import EvaluationBudget
from ..robust.partial import (
    PartialResult,
    merge_unary_outcomes,
    validate_failure_mode,
)
from ..robust.retry import RetryPolicy
from ..logic.syntax import Formula, Variable
from ..sparse.covers import CoverError, NeighbourhoodCover
from ..structures.gaifman import connectivity_graph, induced
from ..structures.structure import Element, Structure
from .clterms import BasicClTerm, ClPolynomial, CoverTerm
from .local_eval import _BallCache, pattern_tuples


def _holds_in_cluster(
    structure: Structure,
    cover: NeighbourhoodCover,
    formula: Formula,
    variables: Sequence[Variable],
    elements: Sequence[Element],
    cover_radius: int,
    predicates: "Optional[PredicateCollection]",
    check_well_defined: bool = False,
    budget: "Optional[EvaluationBudget]" = None,
) -> bool:
    """Check ``A[X] |= psi[a-bar]`` for a cluster X that r-covers the tuple.

    With ``check_well_defined`` every covering cluster is consulted and a
    disagreement raises — the (**) condition of Definition 7.5.
    """
    indices = cover.clusters_s_covering(elements, cover_radius)
    if not indices:
        raise CoverError(
            f"no cluster {cover_radius}-covers the tuple {tuple(elements)!r}; "
            "use a cover of sufficient radius"
        )
    assignment = dict(zip(variables, elements))
    first = satisfies(
        induced(structure, cover.clusters[indices[0]]),
        formula,
        assignment,
        predicates,
        budget,
    )
    if check_well_defined:
        for index in indices[1:]:
            other = satisfies(
                induced(structure, cover.clusters[index]),
                formula,
                assignment,
                predicates,
                budget,
            )
            if other != first:
                raise CoverError(
                    "formula is not cover-independent: clusters disagree "
                    f"on {tuple(elements)!r} (condition (**) of Definition 7.5)"
                )
    return first


@traced("cover_eval.basic_unary")
def evaluate_basic_cover_unary(
    structure: Structure,
    cover: NeighbourhoodCover,
    term: CoverTerm,
    elements: "Optional[Sequence[Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    check_well_defined: bool = False,
    budget: "Optional[EvaluationBudget]" = None,
    ball_cache: "Optional[_BallCache]" = None,
) -> Dict[Element, int]:
    """``u^{A,X}[a]`` for a *basic* (connected) cover-cl-term, all ``a``.

    Counted tuples are generated by pattern walking (distances measured in
    the full structure A, as Definition 7.4 requires); the single component
    formula is then checked inside an r-covering cluster.  An optional
    ``ball_cache`` (for this structure and link distance) is reused instead
    of building a fresh one, so batch callers share ball expansions.
    """
    if not term.unary:
        raise FormulaError("expected a unary cover term")
    if not term.is_basic():
        raise FormulaError("expected a basic (connected) cover-cl-term")
    psi = term.component_formulas[0][1]
    targets = list(elements) if elements is not None else list(structure.universe_order)
    balls = (
        ball_cache
        if ball_cache is not None and ball_cache.distance == term.link_distance
        else _BallCache(structure, term.link_distance)
    )
    metrics = active_metrics()
    # Hot path: resolve the per-tuple instrumentation hooks once and keep
    # the uninstrumented loop free of per-tuple `is not None` tests.
    tick = budget.tick if budget is not None else None
    inc = metrics.inc if metrics is not None else None
    values: Dict[Element, int] = {}
    for element in targets:
        total = 0
        tuples = pattern_tuples(
            structure, element, term.width, term.edges, term.link_distance, balls
        )
        if tick is None and inc is None:
            for tup in tuples:
                if _holds_in_cluster(
                    structure,
                    cover,
                    psi,
                    term.variables,
                    tup,
                    term.link_distance,
                    predicates,
                    check_well_defined,
                    budget,
                ):
                    total += 1
        else:
            for tup in tuples:
                if tick is not None:
                    tick("cover.tuple")
                if inc is not None:
                    inc("cover_eval.tuple")
                if _holds_in_cluster(
                    structure,
                    cover,
                    psi,
                    term.variables,
                    tup,
                    term.link_distance,
                    predicates,
                    check_well_defined,
                    budget,
                ):
                    total += 1
        values[element] = total
    return values


@traced("cover_eval.reference")
def evaluate_cover_term(
    structure: Structure,
    cover: NeighbourhoodCover,
    term: CoverTerm,
    predicates: "Optional[PredicateCollection]" = None,
    check_well_defined: bool = False,
    budget: "Optional[EvaluationBudget]" = None,
) -> "int | Dict[Element, int]":
    """Reference semantics of Definition 7.5 (brute-force over tuples).

    Ground terms return an integer, unary terms a per-element dict.  This is
    the oracle the Lemma 7.6 decomposition is tested against; it enumerates
    ``|A|^k`` tuples, so use it on small structures only.
    """
    k = term.width
    universe = list(structure.universe_order)

    def tuple_counts(first: "Optional[Element]") -> int:
        total = 0
        rest = k - 1 if first is not None else k
        for tail in itertools.product(universe, repeat=rest):
            if budget is not None:
                budget.tick("cover.tuple")
            tup = (first,) + tail if first is not None else tail
            if connectivity_graph(structure, tup, term.link_distance) != term.edges:
                continue
            good = True
            for component, psi in term.component_formulas:
                positions = sorted(component)
                sub_elements = [tup[i - 1] for i in positions]
                sub_variables = [term.variables[i - 1] for i in positions]
                if not _holds_in_cluster(
                    structure,
                    cover,
                    psi,
                    sub_variables,
                    sub_elements,
                    term.link_distance,
                    predicates,
                    check_well_defined,
                    budget,
                ):
                    good = False
                    break
            if good:
                total += 1
        return total

    if term.unary:
        return {a: tuple_counts(a) for a in universe}
    return tuple_counts(None)


def evaluate_cover_polynomial_unary(
    structure: Structure,
    cover: NeighbourhoodCover,
    polynomial: ClPolynomial,
    elements: "Optional[Sequence[Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
) -> Dict[Element, int]:
    """Evaluate a Lemma 7.6 output polynomial with cover semantics.

    Each basic cl-term in the polynomial is interpreted as a basic
    cover-cl-term (its ``psi`` checked inside covering clusters).
    """
    targets = list(elements) if elements is not None else list(structure.universe_order)
    unary_cache: Dict[BasicClTerm, Dict[Element, int]] = {}
    ground_cache: Dict[BasicClTerm, int] = {}
    # One ball cache per distinct link distance, shared across the
    # polynomial's basic terms (they usually all use the same one).
    shared_balls: Dict[int, _BallCache] = {}
    for basic in polynomial.basic_terms():
        balls = shared_balls.setdefault(
            basic.link_distance, _BallCache(structure, basic.link_distance)
        )
        as_cover = CoverTerm(
            basic.variables,
            basic.edges,
            basic.link_distance,
            ((frozenset(range(1, basic.width + 1)), basic.psi),),
            basic.unary,
        )
        if basic.unary:
            unary_cache[basic] = evaluate_basic_cover_unary(
                structure,
                cover,
                as_cover,
                None,
                predicates,
                budget=budget,
                ball_cache=balls,
            )
        else:
            companion = CoverTerm(
                basic.variables,
                basic.edges,
                basic.link_distance,
                ((frozenset(range(1, basic.width + 1)), basic.psi),),
                unary=True,
            )
            per_element = evaluate_basic_cover_unary(
                structure,
                cover,
                companion,
                None,
                predicates,
                budget=budget,
                ball_cache=balls,
            )
            ground_cache[basic] = sum(per_element.values())
    result: Dict[Element, int] = {}
    for element in targets:
        result[element] = polynomial.evaluate(
            lambda basic: unary_cache[basic][element]
            if basic.unary
            else ground_cache[basic]
        )
    return result


def _cluster_shard_values(
    structure: Structure,
    cover: NeighbourhoodCover,
    term: CoverTerm,
    psi: Formula,
    indices: Sequence[int],
    predicates: "Optional[PredicateCollection]",
    budget: "Optional[EvaluationBudget]",
) -> Dict[Element, int]:
    """One shard of the Section 8.2 loop: the listed clusters, in order.

    Shard-local state only (the induced substructure and its ball cache
    are per cluster), so shards are safe to run in child processes;
    iterating a contiguous index range reproduces the serial loop's
    member order exactly.
    """
    metrics = active_metrics()
    tick = budget.tick if budget is not None else None
    inc = metrics.inc if metrics is not None else None
    instrumented = tick is not None or inc is not None
    values: Dict[Element, int] = {}
    for index in indices:
        members = cover.members_with_cluster(index)
        if not members:
            continue
        local = induced(structure, cover.clusters[index])
        balls = _BallCache(local, term.link_distance)
        for element in members:
            total = 0
            tuples = pattern_tuples(
                local, element, term.width, term.edges, term.link_distance, balls
            )
            if not instrumented:
                for tup in tuples:
                    if satisfies(
                        local,
                        psi,
                        dict(zip(term.variables, tup)),
                        predicates,
                        budget,
                    ):
                        total += 1
            else:
                for tup in tuples:
                    if tick is not None:
                        tick("cover.tuple")
                    if inc is not None:
                        inc("cover_eval.tuple")
                    if satisfies(
                        local,
                        psi,
                        dict(zip(term.variables, tup)),
                        predicates,
                        budget,
                    ):
                        total += 1
            values[element] = total
    return values


@traced("cover_eval.per_cluster")
def evaluate_per_cluster(
    structure: Structure,
    cover: NeighbourhoodCover,
    term: CoverTerm,
    predicates: "Optional[PredicateCollection]" = None,
    budget: "Optional[EvaluationBudget]" = None,
    workers: "Optional[int]" = None,
    retry: "Optional[RetryPolicy]" = None,
    on_shard_failure: str = "raise",
) -> "Dict[Element, int] | PartialResult":
    """Section 8.2's per-cluster evaluation of a unary basic cover-cl-term.

    For each cluster X, evaluates the count *inside* ``A[X]`` for exactly the
    elements assigned to X (the paper's ``Q`` relativisation).  Requires the
    cover to be a ``k * link_distance``-neighbourhood cover so that patterns
    measured in the cluster agree with patterns in A.

    Clusters are independent, so with ``workers > 1`` they are sharded
    (contiguously, in cluster-index order) across the child processes of
    a :class:`~repro.parallel.WorkerPool`; merging the shard dicts in
    shard order makes the result byte-identical to the serial loop at
    every worker count.  Inputs must pickle: a custom predicate
    collection needs module-level functions.  The children's P-oracle
    calls are added to ``predicates``, as if the loop had run here.

    ``retry`` and ``on_shard_failure`` apply only when clusters go to
    child processes, the one place a shard can fail with no fault in the
    code: a child that dies fails the shards it had not returned with a
    :class:`~repro.parallel.ParallelError`.  A ``retry`` policy re-runs
    a failed shard alone (deterministic backoff, a fresh executor when a
    child died).  ``on_shard_failure="salvage"`` keeps the completed shards
    when retries are exhausted and returns a
    :class:`~repro.robust.partial.PartialResult` carrying the failed
    cluster ids and the coverage fraction; a run without failures still
    returns the plain dict.  The inline loop runs neither: it is
    deterministic, so a retry would raise the same error again.
    """
    validate_failure_mode(on_shard_failure)
    if not term.unary or not term.is_basic():
        raise FormulaError("per-cluster evaluation expects a unary basic term")
    needed = term.width * term.link_distance
    if cover.radius < needed:
        raise CoverError(
            f"per-cluster evaluation needs a {needed}-neighbourhood cover; "
            f"this one has radius parameter {cover.radius}"
        )
    psi = term.component_formulas[0][1]
    pool = WorkerPool(workers)
    indices = [
        index
        for index in range(len(cover.clusters))
        if cover.members_with_cluster(index)
    ]
    if pool.workers <= 1 or len(indices) <= 1:
        return _cluster_shard_values(
            structure, cover, term, psi, indices, predicates, budget
        )
    from ..parallel.tasks import run_per_cluster_shards

    salvage = on_shard_failure == "salvage"
    shards = shard(indices, pool.workers)
    joined = run_per_cluster_shards(
        pool,
        structure,
        cover,
        term,
        psi,
        shards,
        predicates,
        budget,
        retry=retry,
        salvage=salvage,
    )
    if not salvage:
        return joined
    chunk_sizes = [
        sum(len(cover.members_with_cluster(i)) for i in chunk)
        for chunk in shards
    ]
    return merge_unary_outcomes(
        joined, shards, chunk_sizes, "evaluate_per_cluster"
    )
