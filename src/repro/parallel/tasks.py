"""Module-level work units for the two process fan-outs.

A :class:`~concurrent.futures.ProcessPoolExecutor` can only run picklable
callables over picklable arguments, so engine closures are off the table.
This module holds the top-level task functions of the per-cluster loop
and the sampler, and their payload plumbing: each task reconstructs its
instruments in the child — a fresh
:class:`~repro.robust.budget.EvaluationBudget` built from the parent
slice's remaining allowance, a fresh
:class:`~repro.obs.metrics.MetricsRegistry` when the parent had one
active — runs the shard, and ships back ``(result, steps,
metrics_snapshot, oracle_calls)`` for the parent to fold in
deterministically (shard order): the children's steps are charged to the
parent budget exactly once, failed attempts included, and the P-oracle
calls of completed shards are added to the collection a serial run
counts on, so ``PredicateCollection.oracle_calls`` reads the same at
every worker count.

Budget caveat: an absolute monotonic deadline does not serialise
meaningfully, so child budgets restart the clock from the slice's
*remaining seconds* at payload-build time.  The parent deadline stays
authoritative up to the (small) pickling latency.

Predicate collections cross as themselves, which must pickle: the
standard collection does (its semantics are module-level functions), and
so does any collection built from module-level functions;
:func:`_ensure_picklable` rejects the rest, such as collections built
from lambdas, with a :class:`~repro.parallel.ParallelError`.

Error fidelity: a failing child re-raises the **original** exception in
the parent — :class:`~repro.errors.ReproError` subclasses pickle
faithfully (type, message and structured attributes) — annotated with the
child's formatted traceback (``error.remote_traceback``) and the steps it
spent before dying (``error.remote_steps``, which the retry driver keeps
charging to the parent).  Only a genuinely unpicklable exception is
wrapped in a :class:`~repro.parallel.ParallelError` carrying the same
annotations.
"""

from __future__ import annotations

import pickle
import traceback
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.predicates import PredicateCollection
from ..obs.metrics import MetricsRegistry, active_metrics, set_thread_metrics
from ..robust.budget import EvaluationBudget
from ..robust.retry import RetryPolicy
from .pool import ParallelError, WorkerPool, shard

__all__ = [
    "run_per_cluster_shards",
    "run_approx_shards",
]

#: ``(remaining_seconds, max_steps, preemptible, stage)`` — all a child
#: needs to rebuild a slice, including the soft-exhaustion mode so a
#: preemptible parent's shard suspends (resumable) rather than dies.
_BudgetParams = Optional[Tuple[Optional[float], Optional[int], bool, str]]


def _slice_params(slice_budget: "Optional[EvaluationBudget]") -> _BudgetParams:
    if slice_budget is None:
        return None
    return (
        slice_budget.remaining_seconds(),
        slice_budget.remaining_steps(),
        slice_budget.preemptible,
        slice_budget.stage,
    )


def _ensure_picklable(obj: object, what: str) -> object:
    if obj is None:
        return None
    try:
        pickle.dumps(obj)
    except Exception as error:
        raise ParallelError(
            f"workers > 1 must pickle {what} to child processes "
            f"({type(error).__name__}: {error}); pass a picklable value or "
            "None, or run with workers=1"
        ) from None
    return obj


def _remote_failure(
    error: BaseException, budget: "Optional[EvaluationBudget]"
) -> BaseException:
    """Annotate (and if necessary wrap) a child failure for the parent."""
    formatted = traceback.format_exc()
    steps = budget.steps if budget is not None else 0
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        error = ParallelError(
            f"process worker failed with unpicklable "
            f"{type(error).__name__}: {error}"
        )
    error.remote_traceback = formatted
    error.remote_steps = steps
    return error


def _run_in_child(
    fn,
    budget_params: _BudgetParams,
    want_metrics: bool,
    predicates: "Optional[PredicateCollection]" = None,
):
    """Child-side harness: install instruments, run, return with accounting.

    Returns ``(result, steps, metrics_snapshot, oracle_calls)``, where
    ``oracle_calls`` is how many P-oracle calls ``fn`` made on
    ``predicates``.  It is a delta, because a pickled collection arrives
    carrying the parent's count, and it is taken back off the collection:
    the parent adds it to its own collection, which on an inline pool is
    this very object.
    """
    registry = MetricsRegistry() if want_metrics else None
    calls_before = predicates.oracle_calls if predicates is not None else 0
    previous = set_thread_metrics(registry) if want_metrics else None
    budget: "Optional[EvaluationBudget]" = None
    try:
        # Built after the registry is installed so the budget's captured
        # metrics hook points at the child registry.
        if budget_params is not None:
            deadline, max_steps, preemptible, stage = budget_params
            budget = EvaluationBudget(
                deadline=deadline,
                max_steps=max_steps,
                preemptible=preemptible,
                stage=stage,
            )
        result = fn(budget)
        steps = budget.steps if budget is not None else 0
    except BaseException as error:  # noqa: BLE001 — re-raised, annotated
        raise _remote_failure(error, budget) from None
    finally:
        if want_metrics:
            set_thread_metrics(previous)
    snapshot = registry.snapshot() if registry is not None else None
    calls = 0
    if predicates is not None:
        calls = predicates.oracle_calls - calls_before
        predicates.oracle_calls -= calls
    return result, steps, snapshot, calls


def _join_shards(
    pool: WorkerPool,
    task,
    payloads: List[tuple],
    budget: "Optional[EvaluationBudget]",
    retry: "Optional[RetryPolicy]" = None,
    salvage: bool = False,
    oracle: "Optional[PredicateCollection]" = None,
) -> list:
    """Run payloads on the pool and fold accounting back in shard order.

    Returns plain results (raising the lowest-indexed permanent failure)
    by default; with ``salvage`` returns the
    :class:`~repro.parallel.ShardOutcome` list with each completed
    outcome's ``value`` unwrapped to the shard's result.  ``oracle`` is
    the collection a serial run counts its P-oracle calls on; completed
    shards add their calls to it.
    """
    registry = active_metrics()
    outcomes = pool.map_outcomes(
        task, payloads, retry=retry, on_failure="salvage"
    )
    spent = 0
    for outcome in outcomes:
        spent += outcome.steps  # steps lost to failed remote attempts
        if outcome.error is None:
            result, *accounting = outcome.value
            outcome.value = result
            if outcome.attempts == 0:
                # Restored from a checkpoint: the recording run already
                # paid (and charged) these steps — charging them again
                # would make the resumed run re-pay for skipped work.
                # Only the result is read, so shards recorded before the
                # oracle-call delta joined the tuple restore too.
                continue
            steps, snapshot, calls = accounting
            outcome.steps += steps
            spent += steps
            if registry is not None and snapshot is not None:
                registry.merge_snapshot(snapshot)
            if oracle is not None:
                oracle.oracle_calls += calls
    first_error = next(
        (o.error for o in outcomes if o.error is not None), None
    )
    if budget is not None and spent:
        try:
            budget.charge(spent, site="parallel.join")
        except Exception:
            # A dry parent always surfaces in salvage mode; in fail-fast
            # mode the shard's own failure is the more precise signal.
            if first_error is None or salvage:
                raise
    if salvage:
        return outcomes
    if first_error is not None:
        raise first_error
    return [outcome.value for outcome in outcomes]


# ---------------------------------------------------------------------------
# Per-cluster evaluation (Section 8.2)
# ---------------------------------------------------------------------------


def _per_cluster_task(payload: tuple):
    (structure, cover, term, psi, indices, predicates, params, metrics) = payload
    from ..core.cover_eval import _cluster_shard_values

    return _run_in_child(
        lambda budget: _cluster_shard_values(
            structure, cover, term, psi, list(indices), predicates, budget
        ),
        params,
        metrics,
        predicates,
    )


def run_per_cluster_shards(
    pool: WorkerPool,
    structure,
    cover,
    term,
    psi,
    shards: Sequence[Sequence[int]],
    predicates,
    budget: "Optional[EvaluationBudget]",
    retry: "Optional[RetryPolicy]" = None,
    salvage: bool = False,
):
    """Process fan-out for :func:`~repro.core.cover_eval.evaluate_per_cluster`.

    Returns the merged per-element dict; with ``salvage`` returns the raw
    shard outcome list (values are the shard dicts) for the caller to
    merge into a :class:`~repro.robust.partial.PartialResult`.  The
    children's P-oracle calls are added to ``predicates``.
    """
    _ensure_picklable(predicates, "the predicate collection")
    want_metrics = active_metrics() is not None
    slices = (
        budget.split(len(shards)) if budget is not None else [None] * len(shards)
    )
    # Cluster indices ship as array('q') — a flat memory copy instead of a
    # per-int pickle op.  Together with Structure/NeighbourhoodCover
    # shipping only their defining data (their __getstate__ drops derived
    # caches), this keeps per-shard payloads close to the raw relation
    # content.
    payloads = [
        (
            structure,
            cover,
            term,
            psi,
            array("q", chunk),
            predicates,
            _slice_params(slices[i]),
            want_metrics,
        )
        for i, chunk in enumerate(shards)
    ]
    joined = _join_shards(
        pool,
        _per_cluster_task,
        payloads,
        budget,
        retry=retry,
        salvage=salvage,
        oracle=predicates,
    )
    if salvage:
        return joined
    values: Dict = {}
    for part in joined:
        values.update(part)
    return values


# ---------------------------------------------------------------------------
# Approximate counting (sampling blocks)
# ---------------------------------------------------------------------------


def _approx_block_task(payload: tuple):
    (
        structure,
        formula,
        variables,
        predicates,
        seed,
        blocks,
        sizes,
        params,
        metrics,
    ) = payload
    from ..approx.evaluator import sample_blocks

    specs = list(zip(blocks, sizes))
    return _run_in_child(
        lambda budget: sample_blocks(
            structure, formula, tuple(variables), predicates, seed, specs, budget
        ),
        params,
        metrics,
        predicates,
    )


def run_approx_shards(
    pool: WorkerPool,
    structure,
    formula,
    variables: Sequence,
    predicates: PredicateCollection,
    seed: int,
    block_specs: Sequence[Tuple[int, int]],
    budget: "Optional[EvaluationBudget]",
) -> List[Tuple[int, int, int]]:
    """Fan sampling blocks out across the pool for the approx tier.

    Each shard gets a contiguous chunk of ``(block_index, sample_count)``
    specs; every block owns its own seeded RNG stream, so the flattened
    ``(block, hits, count)`` list — re-sorted by block index — is
    identical to a serial run at every worker count.  ``predicates``,
    the sampler's own collection, crosses to the children, and their
    P-oracle calls are added back to it.
    """
    _ensure_picklable(predicates, "the predicate collection")
    shards = [chunk for chunk in shard(list(block_specs), pool.workers) if chunk]
    want_metrics = active_metrics() is not None
    slices = (
        budget.split(len(shards)) if budget is not None else [None] * len(shards)
    )
    # Block indices and sizes ship as array('q') pairs — flat memory
    # copies, same idiom as the per-cluster index shards.
    payloads = [
        (
            structure,
            formula,
            tuple(variables),
            predicates,
            seed,
            array("q", [b for b, _ in chunk]),
            array("q", [c for _, c in chunk]),
            _slice_params(slices[i]),
            want_metrics,
        )
        for i, chunk in enumerate(shards)
    ]
    joined = _join_shards(
        pool, _approx_block_task, payloads, budget, oracle=predicates
    )
    merged: List[Tuple[int, int, int]] = []
    for part in joined:
        merged.extend(part)
    merged.sort()
    return merged
