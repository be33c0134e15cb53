"""The main algorithm of Section 8.2, composed end-to-end.

Section 8.2 evaluates a unary basic cl-term ``u(x1)`` on a structure from a
nowhere dense class by:

1. computing a sparse neighbourhood cover (Theorem 8.1);
2. grouping elements by their assigned cluster (the ``Q`` relativisation)
   and working inside each cluster substructure ``B_X``;
3. letting *Splitter* answer Connector's move ``cen(X)`` — the removed
   element ``d``;
4. performing the surgery ``B_X astrix_r d`` and rewriting the term through
   the Removal Lemma (7.9).  The surgery is one pass over the tuples of
   ``A`` that touch ``X`` (``remove_element(A, d, r, within=X)``), so
   ``B_X`` itself is never built; the rewrite depends only on the term and
   ``r``, so it is derived once per level, not once per cluster;
5. evaluating the rewritten parts on the smaller structure and recombining.
   Lemma 7.9(b)'s sums — the unary parts for ``a != d``, the ground parts
   for ``d`` — are compiled once per level as two plans over
   ``sigma~_r``, so one cluster costs one surgery and two plan runs.

This module implements one round of that loop.  The rewritten parts of
every cluster are evaluated by the generic engine on the removed
structure, so the result is *exact*.  A second round would need Theorem
7.1's rank-preserving re-localisation of the rewritten terms: the surgery
can only grow distances, so the cover's confinement invariant no longer
holds for them.  ``depth`` 0 skips the round (the engine evaluates the
term directly), and every ``depth`` >= 1 runs exactly one round — one
cover, one game move, surgery and term rewrite per cluster (EXPERIMENTS.md
E13).

The per-run :class:`MainAlgorithmStats` makes the machinery observable:
clusters processed, removals performed, base-case evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import FormulaError
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.syntax import Add, CountTerm, Formula, Variable
from ..obs import active_metrics, traced
from ..plan.cache import PlanCache
from ..plan.ir import QueryPlan
from ..robust.budget import EvaluationBudget
from ..sparse.covers import sparse_cover
from ..structures.gaifman import induced
from ..structures.signature import Signature
from ..structures.structure import Element, Structure
from .clterms import BasicClTerm
from .evaluator import Foc1Evaluator
from .removal import removal_unary_term, remove_element, removed_signature


@dataclass
class MainAlgorithmStats:
    """Counters describing one run of the Section 8.2 loop."""

    covers_built: int = 0
    clusters_processed: int = 0
    removals: int = 0
    base_case_elements: int = 0
    max_depth_reached: int = 0


def _direct_unary_values(
    structure: Structure,
    free_variable: Variable,
    counted: Tuple[Variable, ...],
    body: Formula,
    elements: Sequence[Element],
    engine: Foc1Evaluator,
) -> Dict[Element, int]:
    term = CountTerm(counted, body)
    return engine.unary_term_values(structure, term, free_variable, elements)


class _RewritePlans(NamedTuple):
    """Lemma 7.9(b)'s rewrite of one level's term, compiled once.

    ``unary`` evaluates, at ``a != d``, the sum of the unary parts;
    ``ground`` the sum of the ground parts, which is ``u^A[d]``.  Both are
    compiled against ``sigma~_r``, the same signature for every cluster.
    """

    unary: QueryPlan
    ground: QueryPlan
    parts: int


def _rewrite_plans(
    signature: Signature,
    free_variable: Variable,
    counted: Tuple[Variable, ...],
    body: Formula,
    removal_radius: int,
    engine: Foc1Evaluator,
) -> _RewritePlans:
    ground_parts, unary_parts = removal_unary_term(
        free_variable, counted, body, removal_radius
    )
    removed = removed_signature(signature, removal_radius)
    unary_sum = reduce(Add, (part.count_term() for part in unary_parts))
    ground_sum = reduce(Add, (part.count_term() for part in ground_parts))
    return _RewritePlans(
        engine._plan_for_signature(
            "unary_term", (unary_sum,), (free_variable,), removed
        ),
        engine._plan_for_signature("ground_term", (ground_sum,), (), removed),
        len(unary_parts),
    )


@traced("main_algorithm.evaluate_unary")
def evaluate_unary_main_algorithm(
    structure: Structure,
    term: BasicClTerm,
    depth: int = 1,
    small_threshold: int = 12,
    predicates: "Optional[PredicateCollection]" = None,
    stats: "Optional[MainAlgorithmStats]" = None,
    budget: "Optional[EvaluationBudget]" = None,
    plan_cache: "Optional[PlanCache]" = None,
    workers: "Optional[int]" = None,
) -> Dict[Element, int]:
    """Evaluate ``u^A[a]`` for all ``a`` via the Section 8.2 loop.

    ``term`` must be a unary basic cl-term; its ``psi`` must genuinely be
    ``psi_radius``-local (Definition 6.2's contract — the same assumption
    the paper makes).  ``depth`` 0 evaluates the term with the engine
    directly; every ``depth`` >= 1 runs one cover/removal round (see the
    module docstring), and the answer is exact either way.  An optional
    ``budget`` is drawn on per processed cluster and inside every engine
    call; exhaustion raises :class:`~repro.errors.BudgetExceededError`.
    The removal rewrite is the same for every cluster, so the loop
    compiles it once: two plans, the sum of the Lemma 7.9 unary parts and
    the sum of its ground parts, which every cluster runs on its surgery
    (``plan_cache`` overrides the shared process-wide cache they are
    compiled into).

    The cluster loop runs inline: its clusters close over live engine
    state, which cannot cross a process boundary.  ``workers`` accepts
    only ``None`` or 1 (anything else raises
    :class:`~repro.parallel.ParallelError`).
    """
    engine = Foc1Evaluator(
        predicates=predicates if predicates is not None else standard_collection(),
        check_fragment=False,
        budget=budget,
        plan_cache=plan_cache,
        workers=workers,
    )
    if not term.unary:
        raise FormulaError("the main algorithm evaluates unary basic cl-terms")
    if stats is None:
        stats = MainAlgorithmStats()
    body = term.body()
    counted = term.variables[1:]
    free_variable = term.variables[0]
    # Confinement radius: counted tuples and psi's neighbourhood stay within
    # this distance of x1 (Lemma 6.1), so a cover of this radius makes the
    # per-cluster evaluation exact.
    confinement = term.evaluation_radius() + max(
        term.psi_radius, term.link_distance
    )
    # The removal radius must dominate every distance atom in the body.
    removal_radius = max(term.link_distance, term.psi_radius, 1)
    values = _evaluate_level(
        structure,
        free_variable,
        counted,
        body,
        list(structure.universe_order),
        confinement,
        removal_radius,
        depth,
        small_threshold,
        engine,
        stats,
        level=1,
    )
    return values


def _process_cluster(
    structure: Structure,
    cover,
    index: int,
    members: List[Element],
    free_variable: Variable,
    counted: Tuple[Variable, ...],
    body: Formula,
    removal_radius: int,
    plans: "Optional[_RewritePlans]",
    engine: Foc1Evaluator,
    stats: MainAlgorithmStats,
    level: int,
) -> Dict[Element, int]:
    """One cluster of the Section 8.2 loop: the cover move, the surgery and
    the level's two rewrite plans run on its result."""
    budget = engine.budget
    metrics = active_metrics()
    if budget is not None:
        budget.tick("main.cluster")
    if metrics is not None:
        metrics.inc("main.cluster.processed")
    stats.clusters_processed += 1
    cluster = cover.clusters[index]

    if not _needs_surgery(cluster, structure):
        # Removal impossible (singleton) or useless (cluster is the
        # whole structure, e.g. on dense inputs): evaluate directly.
        stats.base_case_elements += len(members)
        return _direct_unary_values(
            induced(structure, cluster), free_variable, counted, body, members, engine
        )

    # Splitter's move: remove the cluster centre (Connector plays
    # cen(X); removing the centre is a sound Splitter answer).
    d = cover.centres[index]
    removed = remove_element(structure, d, removal_radius, within=cluster)
    if metrics is not None:
        metrics.inc("main.removal")
    stats.removals += 1

    values: Dict[Element, int] = {}
    live_members = [a for a in members if a != d]
    if live_members:
        # The rewritten parts are evaluated directly on the removed
        # structure (depth 0): a further cover/removal round would need
        # the rank-preserving re-localisation of Theorem 7.1 to restore
        # the confinement invariant, because the surgery can only grow
        # distances.  One round already exercises the full pipeline and
        # keeps the result exact.  Each of the 2^k parts counts as one
        # base-case evaluation of the live members at the next level.
        stats.max_depth_reached = max(stats.max_depth_reached, level + 1)
        stats.base_case_elements += len(live_members) * plans.parts
        values = engine._executor(plans.unary, removed).unary_term_values(
            free_variable, live_members
        )
    if len(live_members) < len(members):  # d is a member
        values[d] = engine._executor(plans.ground, removed).ground_term_value()
    return values


def _needs_surgery(cluster: FrozenSet[Element], structure: Structure) -> bool:
    return 2 <= len(cluster) < structure.order()


def _evaluate_level(
    structure: Structure,
    free_variable: Variable,
    counted: Tuple[Variable, ...],
    body: Formula,
    targets: List[Element],
    confinement: int,
    removal_radius: int,
    depth: int,
    small_threshold: int,
    engine: Foc1Evaluator,
    stats: MainAlgorithmStats,
    level: int,
) -> Dict[Element, int]:
    stats.max_depth_reached = max(stats.max_depth_reached, level)
    if depth <= 0 or structure.order() <= small_threshold:
        stats.base_case_elements += len(targets)
        return _direct_unary_values(
            structure, free_variable, counted, body, targets, engine
        )

    budget = engine.budget
    cover = sparse_cover(structure, confinement, budget=budget)
    stats.covers_built += 1
    target_set = set(targets)
    per_cluster_members = []
    for index in range(len(cover.clusters)):
        members = [a for a in cover.members_with_cluster(index) if a in target_set]
        if members:
            per_cluster_members.append((index, members))

    # The rewrite depends only on the term and r: derive and compile it
    # once for the level, and only when some cluster needs the surgery.
    plans = None
    if any(
        _needs_surgery(cover.clusters[index], structure)
        for index, _ in per_cluster_members
    ):
        plans = _rewrite_plans(
            structure.signature, free_variable, counted, body, removal_radius, engine
        )

    values: Dict[Element, int] = {}
    for index, members in per_cluster_members:
        values.update(
            _process_cluster(
                structure,
                cover,
                index,
                members,
                free_variable,
                counted,
                body,
                removal_radius,
                plans,
                engine,
                stats,
                level,
            )
        )
    return values
