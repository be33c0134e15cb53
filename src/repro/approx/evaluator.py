"""The sampling-based approximate counting engine.

Exact FOC(P) counting is AW[*]-hard already on trees (Section 4 of the
paper), and the dense control families sit outside every tractability
guarantee this repository implements.  :class:`ApproxEvaluator` is the
escape hatch: draw uniform assignments from the ``n^k`` candidate space,
check each one against the literal Definition 3.1 semantics
(:func:`repro.logic.semantics.satisfies`), and scale the hit fraction —
the classical Monte-Carlo estimator behind sampling-based first-order
counting (Dreier & Rossmanith, arXiv:2010.14814), with sample sizes
planned by :mod:`repro.approx.planner`.

Determinism contract
--------------------
Every draw comes from an explicit ``random.Random`` instance seeded with
the string ``"approx:{seed}:{block}"`` — never the global RNG.  String
seeding hashes through SHA-512, so the stream is identical across
processes and platforms (the same trick :mod:`repro.robust.faults`
uses).  Sampling is organised in fixed-size blocks, each with its own
seeded RNG; block hit counts are folded in block order, so the estimate
is byte-identical whether the blocks ran serially, on threads, or on
process workers, at any worker count.

The hot loop ticks the shared :class:`~repro.robust.budget.EvaluationBudget`
once per sample (site ``approx.sample``) and per-sample satisfaction
checks tick it further, so a sampling run is exactly as preemptible and
killable as any exact stage; ``approx.*`` counters and a trace span make
the run observable.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence, Tuple

from ..cost.model import CardBound, CardinalityEstimator
from ..cost.stats import structure_stats
from ..errors import ReproError
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.semantics import satisfies
from ..logic.syntax import CountTerm, Formula, Term, Variable, free_variables
from ..obs import active_metrics, span
from ..parallel import resolve_workers
from ..robust.budget import EvaluationBudget
from ..structures.structure import Structure
from .planner import DEFAULT_MAX_SAMPLES, DEFAULT_MIN_DENSITY, SamplePlan, plan_samples
from .result import ApproxResult

__all__ = ["ApproxEvaluator", "sample_blocks"]

#: Samples per deterministic block.  Small enough that parallel shards
#: balance, large enough that the per-block RNG setup amortises.
BLOCK_SIZE = 512

#: Pilot pre-sample: a fixed-size seeded draw whose observed hit rate
#: refines the planner's density floor.  The conservative ``min_density``
#: floor sizes plans for near-worst-case sparsity; on the dense inputs
#: this tier exists for, the true density is high and the pilot shrinks
#: the main plan by an order of magnitude — deterministically, since the
#: pilot stream is just another seeded namespace.
_PILOT_SIZE = 512

#: Only refine when the floor-based plan is this much bigger than the
#: pilot itself (otherwise just run it) and the floor is heuristic.
_PILOT_TRIGGER = 4 * _PILOT_SIZE

#: Shrink the pilot's density estimate before trusting it as a floor —
#: guards against the pilot overestimating and under-sizing the run.
_PILOT_SAFETY = 0.8


def _block_rng(namespace: str, seed: int, block: int) -> random.Random:
    """The one place block RNGs are built: explicit, string-seeded
    (SHA-512 based, stable across processes), never the global RNG."""
    return random.Random(f"{namespace}:{seed}:{block}")


def sample_blocks(
    structure: Structure,
    formula: Formula,
    variables: Sequence[Variable],
    predicates: PredicateCollection,
    seed: int,
    blocks: Sequence[Tuple[int, int]],
    budget: "Optional[EvaluationBudget]" = None,
    namespace: str = "approx",
) -> List[Tuple[int, int, int]]:
    """Run ``blocks`` (pairs of ``(block_index, sample_count)``) and
    return ``(block_index, hits, samples)`` triples.

    Module-level and picklable-argument so child processes can run it;
    the serial path uses the same code.
    """
    universe = structure.universe_order
    n = len(universe)
    names = list(variables)
    registry = active_metrics()
    results: List[Tuple[int, int, int]] = []
    for block, count in blocks:
        rng = _block_rng(namespace, seed, block)
        hits = 0
        for _ in range(count):
            if budget is not None:
                budget.tick("approx.sample")
            assignment = {
                name: universe[rng.randrange(n)] for name in names
            }
            if satisfies(structure, formula, assignment, predicates, budget):
                hits += 1
        results.append((block, hits, count))
        if registry is not None:
            registry.inc("approx.samples", count)
            registry.inc("approx.hits", hits)
    return results


class ApproxEvaluator:
    """Seeded ``(1 +- epsilon, delta)`` approximate counting.

    Parameters
    ----------
    predicates:
        Numerical predicate collection for the per-sample checks.
    budget:
        Shared :class:`EvaluationBudget`; the sampling loop ticks it per
        sample, so runs are bounded and preemptible like exact stages.
    epsilon / delta:
        The relative accuracy target and failure probability the sample
        size is planned for (see :mod:`repro.approx.planner` for what is
        provable and what leans on the density floor).
    seed:
        Reproducibility seed.  Identical ``(query, structure, seed,
        epsilon, delta)`` inputs yield byte-identical results at any
        worker count.
    min_density / max_samples / method:
        Forwarded to :func:`~repro.approx.planner.plan_samples`.
    workers:
        Sampling fans blocks out to the child processes of a
        :class:`~repro.parallel.WorkerPool` when ``workers > 1``; the
        block fold keeps the answer independent of the layout, and the
        children's oracle calls are added to :attr:`predicates`, so its
        ``oracle_calls`` reads the same at every worker count.
    """

    def __init__(
        self,
        predicates: "Optional[PredicateCollection]" = None,
        budget: "Optional[EvaluationBudget]" = None,
        epsilon: float = 0.1,
        delta: float = 0.05,
        seed: int = 0,
        min_density: float = DEFAULT_MIN_DENSITY,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        method: str = "hoeffding",
        workers: "Optional[int]" = None,
    ):
        # The standard collection holds closures and cannot pickle;
        # remembering "caller gave us nothing" lets the sampler ship None
        # to child processes, which rebuild it.
        self._default_predicates = predicates is None
        self.predicates = (
            predicates if predicates is not None else standard_collection()
        )
        self.budget = budget
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.min_density = min_density
        self.max_samples = max_samples
        self.method = method
        self.workers = resolve_workers(workers)

    # -- engine API ------------------------------------------------------------

    def count(
        self,
        structure: Structure,
        formula: Formula,
        variables: Sequence[Variable],
        budget: "Optional[EvaluationBudget]" = None,
    ) -> ApproxResult:
        """Estimate ``|phi(A)|`` over assignments of ``variables``."""
        names = list(variables)
        if not names:
            raise ReproError("approximate counting needs at least one variable")
        if len(set(names)) != len(names):
            raise ReproError(f"counted variables must be distinct, got {names}")
        missing = free_variables(formula) - set(names)
        if missing:
            raise ReproError(
                f"variables {sorted(missing)} are free but not counted"
            )
        use_budget = budget if budget is not None else self.budget
        started = time.monotonic()
        plan, bound = self._plan(structure, formula, names)
        registry = active_metrics()
        if registry is not None:
            registry.inc("approx.count")
        with span("approx.count"):
            plan = self._refine_with_pilot(
                structure, formula, names, plan, bound, use_budget, registry
            )
            if registry is not None:
                registry.inc("approx.samples_planned", plan.samples)
            per_block = self._block_layout(plan)
            outcomes = self._run_blocks(
                structure, formula, names, per_block, use_budget
            )
        return self._fold(plan, outcomes, started)

    def ground_term_value(
        self,
        structure: Structure,
        term: Term,
        budget: "Optional[EvaluationBudget]" = None,
    ) -> ApproxResult:
        """Estimate a ground counting term ``#(x-bar). phi``."""
        if not isinstance(term, CountTerm):
            raise ReproError(
                "the approximate tier evaluates counting terms only "
                f"(got {type(term).__name__})"
            )
        if free_variables(term):
            raise ReproError(
                "the approximate tier evaluates ground terms only; "
                f"free variables: {sorted(free_variables(term))}"
            )
        return self.count(structure, term.inner, term.variables, budget=budget)

    # -- machinery -------------------------------------------------------------

    def _plan(
        self,
        structure: Structure,
        formula: Formula,
        names: List[Variable],
    ) -> Tuple[SamplePlan, "Optional[CardBound]"]:
        n = structure.order()
        space = float(n) ** len(names)
        bound: "Optional[CardBound]" = None
        try:
            estimator = CardinalityEstimator(structure_stats(structure))
            bound = estimator.count_bound(tuple(names), formula)
        except Exception:
            # The estimator is advisory; a formula it cannot price just
            # loses the provable floor, never the run.
            bound = None
        plan = plan_samples(
            space,
            self.epsilon,
            self.delta,
            bound=bound,
            min_density=self.min_density,
            max_samples=self.max_samples,
            method=self.method,
        )
        return plan, bound

    def _refine_with_pilot(
        self,
        structure: Structure,
        formula: Formula,
        names: List[Variable],
        plan: SamplePlan,
        bound: "Optional[CardBound]",
        budget: "Optional[EvaluationBudget]",
        registry,
    ) -> SamplePlan:
        """Refine a heuristic-floor plan with a small seeded pre-sample.

        When the floor is provable the plan is already as tight as the
        proof allows; otherwise a ``_PILOT_SIZE`` draw from its own seed
        namespace estimates the true density, and a floor of
        ``_PILOT_SAFETY`` times that estimate replans the run — the step
        that makes the dense inputs this tier targets affordable.  A
        zero-hit pilot proves nothing and keeps the conservative plan.
        Everything here is a pure function of ``(seed, inputs)``, so
        determinism survives.
        """
        if plan.provable or plan.samples <= _PILOT_TRIGGER:
            return plan
        pilot = sample_blocks(
            structure, formula, names, self.predicates, self.seed,
            [(0, _PILOT_SIZE)], budget, namespace="approx-pilot",
        )
        _, pilot_hits, pilot_count = pilot[0]
        if registry is not None:
            registry.inc("approx.pilot_samples", pilot_count)
        if not pilot_hits:
            return plan
        refined_floor = max(
            plan.floor,
            _PILOT_SAFETY * (pilot_hits / pilot_count) * plan.space,
        )
        return plan_samples(
            plan.space,
            self.epsilon,
            self.delta,
            bound=bound,
            min_density=min(1.0, refined_floor / plan.space),
            max_samples=self.max_samples,
            method=self.method,
        )

    def _block_layout(self, plan: SamplePlan) -> List[Tuple[int, int]]:
        """``(block_index, sample_count)`` pairs covering ``plan.samples``.

        Median-of-means aligns sampling blocks with the estimator's
        blocks (one RNG stream per median block); Hoeffding uses fixed
        ``BLOCK_SIZE`` chunks.
        """
        if plan.method == "median_of_means":
            per_block = plan.samples // plan.blocks
            return [(i, per_block) for i in range(plan.blocks)]
        layout: List[Tuple[int, int]] = []
        remaining = plan.samples
        block = 0
        while remaining > 0:
            size = min(BLOCK_SIZE, remaining)
            layout.append((block, size))
            remaining -= size
            block += 1
        return layout

    def _run_blocks(
        self,
        structure: Structure,
        formula: Formula,
        names: List[Variable],
        per_block: List[Tuple[int, int]],
        budget: "Optional[EvaluationBudget]",
    ) -> List[Tuple[int, int, int]]:
        if self.workers > 1 and len(per_block) > 1:
            from ..parallel.pool import WorkerPool
            from ..parallel.tasks import run_approx_shards

            return run_approx_shards(
                WorkerPool(self.workers),
                structure,
                formula,
                names,
                None if self._default_predicates else self.predicates,
                self.seed,
                per_block,
                budget,
                oracle=self.predicates,
            )
        return sample_blocks(
            structure, formula, names, self.predicates, self.seed,
            per_block, budget,
        )

    def _fold(
        self,
        plan: SamplePlan,
        outcomes: List[Tuple[int, int, int]],
        started: float,
    ) -> ApproxResult:
        # Fold in block order: the estimate must not depend on which
        # worker finished first.
        import math

        ordered = sorted(outcomes)
        hits = sum(h for _, h, _ in ordered)
        samples = sum(c for _, _, c in ordered)
        if plan.method == "median_of_means":
            block_means = sorted(h / c for _, h, c in ordered if c)
            mid = len(block_means) // 2
            if len(block_means) % 2:
                density = block_means[mid]
            else:
                density = (block_means[mid - 1] + block_means[mid]) / 2.0
        else:
            density = hits / samples if samples else 0.0
        estimate = density * plan.space
        # Post-hoc Hoeffding interval from the samples actually drawn —
        # no density assumption, honest even on truncated plans.
        half = (
            plan.space
            * math.sqrt(math.log(2.0 / plan.delta) / (2.0 * samples))
            if samples
            else plan.space
        )
        ci_low = max(0.0, estimate - half)
        ci_high = min(plan.space, estimate + half)
        registry = active_metrics()
        elapsed = time.monotonic() - started
        if registry is not None:
            registry.observe("approx.elapsed_s", elapsed)
            registry.observe("approx.ci_width", ci_high - ci_low)
        return ApproxResult(
            estimate=estimate,
            value=int(round(estimate)),
            ci_low=ci_low,
            ci_high=ci_high,
            epsilon=plan.epsilon,
            delta=plan.delta,
            seed=self.seed,
            samples=samples,
            hits=hits,
            space=plan.space,
            method=plan.method,
            truncated=plan.truncated,
            provable=plan.provable,
            elapsed=elapsed,
        )
