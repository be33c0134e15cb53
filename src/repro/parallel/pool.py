"""The worker pool behind the two process fan-outs.

Section 8.2's main algorithm is embarrassingly parallel across cover
clusters: each cluster's members are evaluated entirely inside the induced
substructure ``A[X]``, with no shared mutable state between clusters.  The
engine is pure-Python CPU work, so only separate interpreters run it in
parallel; :class:`WorkerPool` therefore has one fan-out mechanism,
:meth:`WorkerPool.map_outcomes`:

* at one worker (or at most one work item) it runs inline on the calling
  thread, with no executor and no pickling;
* above one worker it ships module-level payload functions to a
  :class:`~concurrent.futures.ProcessPoolExecutor` (see
  :mod:`repro.parallel.tasks`).

Two engine paths fan out through it: the per-cluster loop
(:func:`repro.core.cover_eval.evaluate_per_cluster`) and the sampler's
seeded blocks (:class:`repro.approx.evaluator.ApproxEvaluator`).  Every
other engine path runs inline and never builds a pool.

Determinism guarantee
---------------------
``map_outcomes`` returns results in **input order** regardless of
completion order, and both fan-outs shard their work deterministically
(contiguous chunks of the cluster-index / block order, via :func:`shard`)
and merge shard results in shard-index order.  A parallel evaluation
therefore produces *byte-identical* output — same values, same dict
insertion order — as the serial path, for every worker count.  Failures
are deterministic too: when several shards raise, the exception of the
lowest-indexed shard is the one re-raised.

Budgets, metrics and P-oracle counts across the process boundary are the
payload layer's business: each payload carries its slice of the caller's
budget, and :func:`repro.parallel.tasks._join_shards` charges the
children's steps back and folds their metrics snapshots and oracle calls
in shard order.

Fault tolerance
---------------
Retry and salvage are for the process fan-out, where a shard can fail
with no fault in the code: a child that dies (killed, out of memory,
``os._exit``) breaks its executor, and every shard it had not yet
returned fails with a :class:`ParallelError`.  ``map_outcomes`` accepts
a :class:`~repro.robust.retry.RetryPolicy`: a failed shard is re-run —
only that shard, on a fresh executor when the old one broke — up to the
policy's bounded attempt count, with deterministic seeded backoff.  With
``on_failure="salvage"`` permanent shard failures no longer raise: the
call returns one :class:`ShardOutcome` per shard, and the caller merges
the completed shards into a :class:`~repro.robust.partial.PartialResult`.
At one worker the same loop runs inline, so a call returns the same
shape and counts its retries the same way at every worker count; inline,
though, only a callable that fails transiently heals, since the engine
code is deterministic and would fail the same way again.  No other
engine path takes a retry policy.

The pool is also a chaos surface: when a pool actually fans out, each
shard attempt passes three parent-side fault checkpoints —
``worker.task`` at submission, ``worker.join`` when the shard's outcome
is collected, and ``shard.result`` when its result is accepted into the
merge.  Checking in the parent, in deterministic shard order, keeps hit
numbering independent of which child runs which shard; an injected fault
counts as that attempt's failure and is retried like any other transient
error.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import FaultInjectedError, ReproError, SuspendedError
from ..obs.metrics import active_metrics
from ..robust.checkpoint import active_checkpoint_session
from ..robust.faults import fault_check
from ..robust.partial import validate_failure_mode
from ..robust.retry import RetryPolicy

__all__ = [
    "ParallelError",
    "ShardOutcome",
    "WORKERS_ENV_VAR",
    "WorkerPool",
    "resolve_workers",
    "shard",
]

#: Environment variable consulted when no explicit worker count is given
#: (the CLI's ``--workers`` and the engines' ``workers=None`` default).
WORKERS_ENV_VAR = "REPRO_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


class ParallelError(ReproError):
    """A worker pool was misconfigured or a task cannot cross to a child."""


@dataclass
class ShardOutcome:
    """The final fate of one shard after all its attempts.

    ``error is None`` means the shard completed (possibly after retries)
    and ``value`` holds its result; otherwise ``error`` is the *final*
    attempt's exception and ``value`` is ``None``.  ``steps`` counts the
    budget steps the shard's payload reported spending (see
    :mod:`repro.parallel.tasks`), failed attempts included — the work
    happened and is charged to the parent either way.
    """

    index: int
    value: Any = None
    error: "Optional[BaseException]" = None
    attempts: int = 1
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_workers(
    workers: "Optional[int]" = None, environ: "Optional[dict]" = None
) -> int:
    """The effective worker count: explicit argument, else ``REPRO_WORKERS``,
    else 1 (serial).  Values below 1 are rejected, not clamped."""
    if workers is None:
        raw = (environ if environ is not None else os.environ).get(
            WORKERS_ENV_VAR, ""
        ).strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ParallelError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ParallelError(f"worker count must be positive, got {workers}")
    return workers


def shard(items: Sequence[T], shards: int) -> List[List[T]]:
    """Split ``items`` into at most ``shards`` contiguous, order-preserving
    chunks whose sizes differ by at most one.  Deterministic: the same
    input always yields the same chunks, and concatenating the chunks
    restores the input — this is what makes shard-order merges reproduce
    the serial iteration order exactly.  Empty chunks are dropped."""
    if shards < 1:
        raise ParallelError(f"shard count must be positive, got {shards}")
    items = list(items)
    count = len(items)
    if count == 0:
        return []
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    chunks: List[List[T]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _checkpointed(
    count: int,
) -> "Tuple[dict, Optional[Callable[[int, Any], None]]]":
    """The active checkpoint session's view of a ``count``-shard fan-out:
    the shards it restores, and the hook that records newly completed
    ones (``None`` when no session is active on this thread)."""
    session = active_checkpoint_session()
    if session is None or not session.on_owner_thread():
        return {}, None
    scope = session.next_shard_scope(count)
    return session.resumed_shards(scope), (
        lambda index, value: session.record_shard(scope, index, value)
    )


def _drive(
    attempt: Callable[[int], Any],
    count: int,
    retry: "Optional[RetryPolicy]",
    resumed: dict,
    record: "Optional[Callable[[int, Any], None]]",
    submit: "Optional[Callable[[int], Future]]" = None,
) -> List[ShardOutcome]:
    """Run every shard with retries; fault checks when it fans out.

    Without ``submit`` each attempt is ``attempt(index)`` on the calling
    thread and no fault site is checked (no pool fans out).  With
    ``submit`` (which schedules one shard on an executor and returns the
    future) first attempts are all submitted up front and collected in
    index order, while retries are driven one at a time from the
    collection loop — still through ``submit``, so a retry re-enters a
    child.  All fault checkpoints run on the calling thread, in index
    order, which is what makes their hit numbering deterministic.

    ``resumed`` maps shard indices to values restored from a checkpoint:
    those shards are never submitted, never attempted and pass no fault
    checkpoints.  ``record`` is called (on this thread, in index order)
    with every *newly* completed shard's ``(index, value)``.
    """
    registry = active_metrics()
    fan_out = submit is not None

    def checked(site: str) -> None:
        if fan_out:
            fault_check(site)

    def run_attempt(index: int) -> Any:
        checked("worker.task")
        value = _collect(submit(index)) if fan_out else attempt(index)
        checked("worker.join")
        checked("shard.result")
        return value

    futures: "List[Optional[Future]]" = [None] * count
    pre_error: List[Optional[BaseException]] = [None] * count
    if fan_out:
        for index in range(count):
            if index in resumed:
                continue
            try:
                checked("worker.task")
            except FaultInjectedError as error:
                pre_error[index] = error
                continue
            futures[index] = submit(index)

    outcomes: List[ShardOutcome] = []
    for index in range(count):
        if index in resumed:
            outcomes.append(
                ShardOutcome(index=index, value=resumed[index], attempts=0)
            )
            if registry is not None:
                registry.inc("parallel.shard.resumed")
            continue
        attempts = 1
        value: Any = None
        error: "Optional[BaseException]" = pre_error[index]
        try:
            if not fan_out:
                value = attempt(index)
            elif futures[index] is not None:
                value = _collect(futures[index])
                checked("worker.join")
                checked("shard.result")
        except BaseException as raised:  # noqa: BLE001 — kept per shard
            error, value = raised, None

        lost_steps = 0
        while (
            error is not None
            and retry is not None
            and retry.should_retry(error, attempts)
        ):
            # Failed remote attempts carry their spent steps on the
            # exception (see repro.parallel.tasks); keep charging them.
            lost_steps += getattr(error, "remote_steps", 0)
            if registry is not None:
                registry.inc("parallel.retry.attempt")
            retry.pause(index, attempts)
            attempts += 1
            error = None
            try:
                value = run_attempt(index)
            except BaseException as raised:  # noqa: BLE001 — kept per shard
                error, value = raised, None

        if error is not None:
            lost_steps += getattr(error, "remote_steps", 0)
            if not isinstance(error, Exception):
                raise error  # KeyboardInterrupt &c. are never shard-scoped
            if registry is not None:
                registry.inc("parallel.retry.exhausted")
        elif attempts > 1 and registry is not None:
            registry.inc("parallel.retry.recovered")
        if error is None and record is not None:
            record(index, value)
        outcomes.append(
            ShardOutcome(
                index=index,
                value=value,
                error=error,
                attempts=attempts,
                steps=lost_steps,
            )
        )
    return outcomes


def _collect(future: Future) -> Any:
    """A shard future's result.  A child that died before returning it
    breaks the executor, which fails the future with
    :class:`~concurrent.futures.BrokenExecutor`; that becomes a
    :class:`ParallelError`, so the default retry policy re-runs the
    shard."""
    try:
        return future.result()
    except BrokenExecutor as error:
        raise ParallelError(
            f"a worker process died before returning its shard ({error})"
        ) from error


def _finalize(
    outcomes: List[ShardOutcome], on_failure: str
) -> "List[ShardOutcome] | List[Any]":
    # Suspension is never a shard-scoped failure: a suspended shard means
    # the evaluation's budget quantum is spent, so it propagates even in
    # salvage mode (the completed shards are already in the checkpoint
    # and the resumed run picks them up for free).
    for outcome in outcomes:
        if isinstance(outcome.error, SuspendedError):
            raise outcome.error
    if on_failure == "salvage":
        return outcomes
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.value for outcome in outcomes]


class WorkerPool:
    """A deterministic fan-out/fan-in pool: inline at one worker, child
    processes above one.

    Pools are cheap value objects: executors are created per call and torn
    down before returning, so a pool can be stored on an engine and used
    from any thread.  ``workers`` defaults to :func:`resolve_workers`
    (``REPRO_WORKERS`` or 1).
    """

    def __init__(self, workers: "Optional[int]" = None) -> None:
        self.workers = resolve_workers(workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerPool(workers={self.workers})"

    def map_outcomes(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        retry: "Optional[RetryPolicy]" = None,
        on_failure: str = "raise",
    ) -> "List[R] | List[ShardOutcome]":
        """``fn`` over ``items`` in input order, on child processes when
        the pool has more than one worker and there is more than one item.

        ``fn`` and the items must pickle (module-level functions).  Budget
        slicing stays with the caller — payload builders bake each item's
        slice into the payload (see :mod:`repro.parallel.tasks`) — so a
        failed item's retry re-runs with the slice its payload carries.
        With ``retry`` set, a failed item re-runs (alone); an item whose
        child process died fails with :class:`ParallelError` and re-runs
        on a fresh executor.
        ``on_failure="raise"`` (default) re-raises the lowest-indexed
        permanent failure and returns plain results; ``"salvage"``
        returns one :class:`ShardOutcome` per item and never raises for
        item failures.  Under an active checkpoint session completed
        items are recorded, and a resumed run skips them.
        """
        validate_failure_mode(on_failure)
        items = list(items)
        if not items:
            return []
        resumed, record = _checkpointed(len(items))
        workers = min(self.workers, len(items))

        def attempt(index: int) -> R:
            return fn(items[index])

        if workers <= 1:
            outcomes = _drive(attempt, len(items), retry, resumed, record)
        else:
            executors = [ProcessPoolExecutor(max_workers=workers)]

            def submit(index: int) -> Future:
                # Ship the module-level ``fn`` and the item — never the
                # ``attempt`` closure, which cannot cross a process
                # boundary.  A child that died broke its executor for
                # good (it refuses every later submit), so the retries
                # after a death go to a fresh one.
                try:
                    return executors[-1].submit(fn, items[index])
                except BrokenExecutor:
                    executors.append(ProcessPoolExecutor(max_workers=workers))
                    return executors[-1].submit(fn, items[index])

            try:
                outcomes = _drive(
                    attempt, len(items), retry, resumed, record, submit=submit
                )
            finally:
                for executor in executors:
                    executor.shutdown(wait=True)
        return _finalize(outcomes, on_failure)
