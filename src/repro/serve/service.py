"""The asyncio multi-tenant query service: :class:`QueryService`.

Architecture (see ``docs/SERVING.md`` for the operator view)::

    submit() ──> AdmissionController ──> DeficitRoundRobin queues
                     │ (typed shed)            │
                     ▼                         ▼  one preemptible quantum
                AdmissionError          executor thread pool
                                               │
                         done ◄── SuspendedError ──► checkpoint, re-queue

* **Admission** (:mod:`repro.serve.admission`): bounded per-tenant
  queues and quotas; refusals raise
  :class:`~repro.errors.AdmissionError`, never queue without bound.
* **Scheduling** (:mod:`repro.serve.scheduler`): deficit round-robin
  across tenants, metered in evaluation steps.  Every dispatched query
  runs one *preemptible* :class:`~repro.robust.EvaluationBudget`
  quantum on an executor thread; quantum exhaustion raises
  :class:`~repro.errors.SuspendedError`, the quantum's
  :class:`~repro.robust.checkpoint.CheckpointSession` snapshot is kept
  in memory on the job, and the job re-queues at the head of its
  tenant's queue — admitted work is *never* killed.
* **Batching**: compatible ``count`` requests (same canonical formula
  and counted variables) collected from the queue heads run as one
  :meth:`~repro.robust.guard.RobustEvaluator.count_many` batch under a
  proportionally larger quantum, one plan for the whole batch through
  the shared :class:`~repro.plan.cache.PlanCache`.
* **Degradation**: with ``degrade_saturation`` set, ``count`` requests
  and ``term`` requests whose expression is a bare ground counting term
  that are dispatched while the observed saturation
  (:class:`~repro.cost.saturation.SaturationTracker`) is at or above it
  are answered by the sampling tier with ``approximate=True`` — the
  service sheds exactness before shedding tenants.
* **Drain**: :meth:`QueryService.drain` stops admission (typed
  ``draining`` sheds) and finishes in-flight work; with a bounded
  ``grace`` the stragglers are suspended once more and handed back as
  ``status="suspended"`` responses carrying their final checkpoint —
  every admitted request gets a terminal response, no checkpoint is
  orphaned.

Determinism: exact answers are byte-identical to an unloaded serial
run at any worker count and any preemption schedule — restored
checkpoint state only ever skips work (see
:mod:`repro.robust.checkpoint`), and the 30-seed serving differential
gate (``tests/serve/test_differential_service.py``) enforces it.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..approx.evaluator import ApproxEvaluator
from ..cost.saturation import SaturationTracker
from ..errors import BudgetExceededError, ReproError, SuspendedError
from ..logic.predicates import PredicateCollection
from ..logic.syntax import CountTerm, free_variables
from ..obs.metrics import (
    MetricsRegistry,
    active_metrics,
    reset_thread_metrics,
    set_thread_metrics,
)
from ..plan.cache import PlanCache, default_plan_cache
from ..robust.budget import EvaluationBudget
from ..robust.checkpoint import (
    Checkpoint,
    CheckpointSession,
    checkpoint_session,
)
from ..robust.guard import RobustEvaluator
from .admission import AdmissionController, TenantQuota
from .request import QueryRequest, QueryResponse, canonical_text, query_key
from .scheduler import DeficitRoundRobin

__all__ = ["QueryService"]


@dataclass(eq=False)
class _Job:
    """One admitted request plus its live scheduling state."""

    request: QueryRequest
    expression: Any
    key: str
    batch_key: "Optional[Tuple]"
    future: "asyncio.Future[QueryResponse]"
    admitted_at: float
    first_dispatch_at: "Optional[float]" = None
    checkpoint: "Optional[Checkpoint]" = None
    boost: int = 1
    last_progress: "Optional[Tuple]" = None
    quanta: int = 0
    drain_quanta: int = 0
    steps: int = 0
    degrade_checked: bool = False
    degraded: bool = False
    batched: bool = False


@dataclass
class _Unit:
    """What one executor quantum runs: a single job or a count batch."""

    members: List[Tuple[str, _Job]]
    saturation: float = 0.0
    checkpoint: "Optional[Checkpoint]" = None

    @property
    def is_batch(self) -> bool:
        return len(self.members) > 1

    @property
    def primary(self) -> Tuple[str, _Job]:
        return self.members[0]


@dataclass
class _Outcome:
    """What a quantum reports back to the event loop."""

    kind: str  # "done" | "suspended" | "error"
    value: Any = None
    values: "Optional[List[Any]]" = None
    approximate: bool = False
    checkpoint: "Optional[Checkpoint]" = None
    error: "Optional[BaseException]" = None
    steps: int = 0
    detail: str = ""


def _progress_signature(
    checkpoint: "Optional[Checkpoint]",
) -> "Optional[Tuple]":
    """What a suspended quantum durably recorded (see test_preemption)."""
    if checkpoint is None:
        return None
    return (
        checkpoint.steps_spent,
        sum(len(r.strata) for r in checkpoint.exec_state.values()),
        sum(len(r.memo) for r in checkpoint.exec_state.values()),
        sum(len(s) for s in checkpoint.shards.values()),
    )


@dataclass
class _ServiceStats:
    completed: int = 0
    suspended: int = 0
    resumes: int = 0
    degraded: int = 0
    batches: int = 0
    batched_requests: int = 0
    errors: int = 0
    drain_suspended: int = 0
    steps: int = 0
    latencies: List[float] = field(default_factory=list)


class QueryService:
    """A long-lived, multi-tenant, preemptible front-end over the engines.

    Parameters
    ----------
    workers:
        Concurrent quantum slots (executor threads): the service's only
        concurrency.  Each quantum runs its cascade inline, whatever
        ``REPRO_WORKERS`` says — a process pool per quantum would cost
        far more than the quantum, and forking a multi-threaded process
        is unsafe.
    eval_workers:
        ``None`` or 1; anything else raises
        :class:`~repro.errors.ReproError`.
    quantum_steps:
        The preemptible budget quantum in evaluation steps — the
        scheduling currency.  Small quanta preempt (and re-queue) more;
        large quanta lower overhead.
    quantum_seconds:
        Optional wall-clock bound per quantum on top of the step bound.
    quota / quotas / max_total_inflight:
        Admission limits: the default :class:`TenantQuota`, optional
        per-tenant overrides, and the global in-flight ceiling
        (defaults to ``workers * 8``).
    batch_max:
        Compatible ``count`` requests merged per dispatch (1 disables
        batching).
    degrade_saturation:
        The degradation trigger (``None`` disables it): the smoothed
        saturation level (1.0 = at capacity) at or above which a
        ``count`` request, or a ``term`` request whose expression is a
        bare ground counting term, is answered by the sampling tier
        flagged ``approximate=True``.  Exact-only deployments leave it
        unset and the service never degrades.
    degrade_cost_threshold:
        Accepted and ignored.  It named a predicted-cost trigger that
        never fired and has been removed; the keyword stays only so that
        existing callers keep working.
    epsilon / delta:
        The sampling tier's accuracy target for degraded answers (the
        per-request ``seed`` keeps them reproducible).
    degrade_budget_factor:
        Step budget for one degraded answer, in quanta; a sampler that
        exceeds it falls back to the exact preemptible path.
    plan_cache / predicates / check_fragment / metrics:
        Shared compile cache (defaults to the process-wide one), the
        predicate collection, fragment enforcement for the cascade, and
        the :class:`~repro.obs.MetricsRegistry` receiving ``serve.*``
        counters (defaults to the globally active registry, if any).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        eval_workers: "Optional[int]" = None,
        quantum_steps: int = 20_000,
        quantum_seconds: "Optional[float]" = None,
        quota: TenantQuota = TenantQuota(),
        quotas: "Optional[Dict[str, TenantQuota]]" = None,
        max_total_inflight: "Optional[int]" = None,
        batch_max: int = 8,
        degrade_cost_threshold: "Optional[float]" = None,
        degrade_saturation: "Optional[float]" = None,
        epsilon: float = 0.1,
        delta: float = 0.05,
        degrade_budget_factor: int = 8,
        plan_cache: "Optional[PlanCache]" = None,
        predicates: "Optional[PredicateCollection]" = None,
        check_fragment: bool = True,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if workers < 1:
            raise ReproError("service workers must be a positive integer")
        if eval_workers not in (None, 1):
            raise ReproError(
                f"quanta run their cascade inline; eval_workers must be "
                f"None or 1, got {eval_workers!r}"
            )
        if quantum_steps < 1:
            raise ReproError("quantum_steps must be a positive integer")
        if batch_max < 1:
            raise ReproError("batch_max must be >= 1")
        if degrade_budget_factor < 1:
            raise ReproError("degrade_budget_factor must be >= 1")
        self.workers = workers
        self.quantum_steps = quantum_steps
        self.quantum_seconds = quantum_seconds
        self.batch_max = batch_max
        self.degrade_saturation = degrade_saturation
        self.epsilon = epsilon
        self.delta = delta
        self.degrade_budget_factor = degrade_budget_factor
        self.plan_cache = (
            plan_cache if plan_cache is not None else default_plan_cache()
        )
        self.predicates = predicates
        self.check_fragment = check_fragment
        self._metrics = metrics if metrics is not None else active_metrics()
        if max_total_inflight is None:
            max_total_inflight = workers * 8
        self.admission = AdmissionController(
            quota=quota,
            per_tenant=quotas,
            max_total_inflight=max_total_inflight,
            metrics=self._metrics,
        )
        self.saturation = SaturationTracker(capacity=workers)
        self._drr = DeficitRoundRobin(quantum_steps)
        self._stats = _ServiceStats()
        self._jobs: "set[_Job]" = set()
        self._running_units = 0
        self._started = False
        self._draining = False
        self._drain_grace: "Optional[int]" = None
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._executor: "Optional[ThreadPoolExecutor]" = None
        self._workers: List["asyncio.Task"] = []
        self._work: "Optional[asyncio.Event]" = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Spin up the executor and the worker loops (idempotent)."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._draining = False
        self.admission.draining = False
        self._workers = [
            self._loop.create_task(self._worker_loop(i))
            for i in range(self.workers)
        ]
        self._started = True

    async def drain(self, grace: "Optional[int]" = None) -> None:
        """Stop admitting, finish (or checkpoint) in-flight work, stop.

        ``grace`` bounds how many *further* quanta each in-flight query
        may consume: ``None`` runs everything to completion; ``0``
        suspends every queued query at its very next dispatch.  Either
        way every admitted request's future resolves — stragglers get a
        ``status="suspended"`` response carrying their checkpoint — and
        the service retains none: :meth:`orphaned_checkpoints` is 0
        after a drain.
        """
        if not self._started:
            return
        self._draining = True
        self.admission.draining = True
        self._drain_grace = grace
        assert self._work is not None
        self._work.set()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._started = False

    async def close(self) -> None:
        """Drain (unbounded grace) and release resources."""
        await self.drain()

    async def __aenter__(self) -> "QueryService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- the front door -------------------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Admit, schedule and await one request.

        Raises :class:`~repro.errors.AdmissionError` when shed (typed,
        immediate) and :class:`~repro.errors.ReproError` for malformed
        requests; an *admitted* request always resolves to a
        :class:`QueryResponse`.
        """
        if not self._started:
            raise ReproError("QueryService is not started (use 'async with')")
        expression = request.parsed()
        key = query_key(request, expression)
        batch_key: "Optional[Tuple]" = None
        if self.batch_max > 1 and request.operation == "count":
            batch_key = (
                "count",
                canonical_text(request, expression),
                tuple(request.variables),
            )
        self.admission.admit(request.tenant)
        assert self._loop is not None and self._work is not None
        job = _Job(
            request=request,
            expression=expression,
            key=key,
            batch_key=batch_key,
            future=self._loop.create_future(),
            admitted_at=time.monotonic(),
        )
        self._jobs.add(job)
        self._drr.push(request.tenant, job)
        self.saturation.update(self._running_units, len(self._drr))
        self._work.set()
        return await job.future

    # -- scheduling loop ------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        assert self._loop is not None and self._work is not None
        while True:
            unit = self._take_unit()
            if unit is None:
                if (
                    self._draining
                    and len(self._drr) == 0
                    and self._running_units == 0
                ):
                    self._work.set()  # release idle siblings to exit too
                    return
                self._work.clear()
                if len(self._drr) == 0 and not self._draining:
                    await self._work.wait()
                elif len(self._drr) == 0:
                    # Draining, queue empty, but a sibling still runs a
                    # unit that may re-queue its job: wait for the wake.
                    await self._work.wait()
                continue
            self._running_units += 1
            self.saturation.update(self._running_units, len(self._drr))
            try:
                outcome = await self._loop.run_in_executor(
                    self._executor, self._run_unit, unit
                )
            except Exception as error:  # noqa: BLE001 — defensive: a bug
                # in the quantum runner must terminate the request with
                # the error, never hang its future.
                outcome = _Outcome(kind="error", error=error)
            self._running_units -= 1
            self._handle_outcome(unit, outcome)
            self.saturation.update(self._running_units, len(self._drr))
            self._work.set()

    def _take_unit(self) -> "Optional[_Unit]":
        picked = self._drr.next()
        if picked is None:
            return None
        tenant, item = picked
        now = time.monotonic()
        if isinstance(item, _Unit):
            # A suspended batch re-queued as a unit: dispatch it whole.
            for member_tenant, job in item.members:
                self.admission.start(member_tenant)
            item.saturation = self.saturation.level()
            return item
        job = item
        self.admission.start(tenant)
        if job.first_dispatch_at is None:
            job.first_dispatch_at = now
        # The degrade decision happens once, at first dispatch: a job
        # the policy sends to the sampling tier answers alone (cheaply)
        # instead of joining an exact batch.
        if not job.degrade_checked:
            job.degrade_checked = True
            job.degraded = self._should_degrade(job, self.saturation.level())
        members = [(tenant, job)]
        if (
            job.batch_key is not None
            and job.checkpoint is None
            and not job.degraded
            and self.batch_max > 1
        ):
            extras = self._drr.collect(
                lambda other: (
                    isinstance(other, _Job)
                    and other.batch_key == job.batch_key
                    and other.checkpoint is None
                ),
                self.batch_max - 1,
            )
            for extra_tenant, extra in extras:
                self.admission.start(extra_tenant)
                if extra.first_dispatch_at is None:
                    extra.first_dispatch_at = now
                members.append((extra_tenant, extra))
            if len(members) > 1:
                for _, member in members:
                    member.batched = True
                self._stats.batches += 1
                self._stats.batched_requests += len(members)
                if self._metrics is not None:
                    self._metrics.inc("serve.batch.dispatched")
                    self._metrics.inc("serve.batch.merged", len(members) - 1)
        if job.checkpoint is not None and self._metrics is not None:
            self._metrics.inc("serve.preempt.resumed")
        return _Unit(members=members, saturation=self.saturation.level())

    # -- outcome handling (event loop thread) ---------------------------------

    def _handle_outcome(self, unit: _Unit, outcome: _Outcome) -> None:
        tenant, job = unit.primary
        quantum_share = self.quantum_steps * max(1, len(unit.members))
        per_member = outcome.steps // len(unit.members) if unit.members else 0
        self._stats.steps += outcome.steps
        if self._metrics is not None and outcome.steps:
            self._metrics.observe("serve.quantum.steps", outcome.steps)

        # Step accounting: the dispatching tenant paid one quantum up
        # front; refund its unspent share (or charge the overspend of a
        # boosted quantum) and charge the collected batch members their
        # share directly.
        if per_member <= self.quantum_steps:
            self._drr.credit(tenant, self.quantum_steps - per_member)
        else:
            self._drr.charge(tenant, per_member - self.quantum_steps)
        for member_tenant, member in unit.members:
            self.admission.charge_steps(member_tenant, per_member)
            member.steps += per_member
            member.quanta += 1
            if self._draining:
                member.drain_quanta += 1
        for member_tenant, _ in unit.members[1:]:
            self._drr.charge(member_tenant, per_member)

        if outcome.kind == "done":
            values = (
                outcome.values
                if outcome.values is not None
                else [outcome.value] * len(unit.members)
            )
            for (member_tenant, member), value in zip(unit.members, values):
                self._resolve(
                    member_tenant,
                    member,
                    value=value,
                    approximate=outcome.approximate,
                    status="ok",
                )
            return
        if outcome.kind == "error":
            for member_tenant, member in unit.members:
                self.admission.release(member_tenant)
                self._jobs.discard(member)
                self._stats.errors += 1
                if self._metrics is not None:
                    self._metrics.inc("serve.errors")
                if not member.future.done():
                    member.future.set_exception(outcome.error)
            return

        # Suspended: keep the checkpoint in memory and re-queue — unless
        # a bounded drain says hand the work back instead.
        self._stats.suspended += 1
        if self._metrics is not None:
            self._metrics.inc("serve.preempt.suspended")
        # Escalation: some work is atomic at checkpoint granularity (a
        # single huge memo entry), so a quantum that recorded no durable
        # progress doubles this job's next budget — the suspend/resume
        # loop always terminates.
        progress = _progress_signature(outcome.checkpoint)
        if progress is not None and progress[1:] == (
            (job.last_progress or (None,))[1:]
        ):
            job.boost = min(job.boost * 2, 1 << 20)
            if self._metrics is not None:
                self._metrics.inc("serve.preempt.boosted")
        job.last_progress = progress
        out_of_grace = (
            self._draining
            and self._drain_grace is not None
            and job.drain_quanta > self._drain_grace
        )
        if out_of_grace:
            for member_tenant, member in unit.members:
                member.checkpoint = outcome.checkpoint
                self._stats.drain_suspended += 1
                self._resolve(
                    member_tenant,
                    member,
                    value=None,
                    approximate=False,
                    status="suspended",
                    checkpoint=outcome.checkpoint,
                )
            return
        if unit.is_batch:
            unit.checkpoint = outcome.checkpoint
            for member_tenant, member in unit.members:
                member.checkpoint = outcome.checkpoint
                self.admission.requeue(member_tenant)
            self._drr.push_front(tenant, unit)
        else:
            job.checkpoint = outcome.checkpoint
            self.admission.requeue(tenant)
            self._drr.push_front(tenant, job)
        self._stats.resumes += 1

    def _resolve(
        self,
        tenant: str,
        job: _Job,
        *,
        value: Any,
        approximate: bool,
        status: str,
        checkpoint: "Optional[Checkpoint]" = None,
    ) -> None:
        self.admission.release(tenant)
        self._jobs.discard(job)
        now = time.monotonic()
        latency = now - job.admitted_at
        queue_wait = (
            (job.first_dispatch_at or now) - job.admitted_at
        )
        resumes = max(0, job.quanta - 1) if not job.degraded else 0
        response = QueryResponse(
            request_id=job.request.request_id,
            tenant=tenant,
            operation=job.request.operation,
            value=value,
            status=status,
            approximate=approximate,
            quanta=job.quanta,
            resumes=resumes,
            steps=job.steps,
            batched=job.batched,
            latency_s=latency,
            queue_wait_s=queue_wait,
            checkpoint=checkpoint,
        )
        if status == "ok":
            self._stats.completed += 1
            self._stats.latencies.append(latency)
            if approximate:
                self._stats.degraded += 1
        if self._metrics is not None:
            self._metrics.inc("serve.completed")
            self._metrics.observe("serve.latency_s", latency)
            self._metrics.observe("serve.queue_wait_s", queue_wait)
            if approximate:
                self._metrics.inc("serve.degraded")
            if status == "suspended":
                self._metrics.inc("serve.drain.suspended")
        if not job.future.done():
            job.future.set_result(response)

    # -- the quantum (executor thread) ----------------------------------------

    def _run_unit(self, unit: _Unit) -> _Outcome:
        # Thread hygiene first: this pool thread is reused across quanta
        # and across service sessions — never trust (or leak) a
        # thread-local metrics override (see docs/OBSERVABILITY.md).
        reset_thread_metrics()
        if self._metrics is not None:
            set_thread_metrics(self._metrics)
        try:
            if unit.is_batch:
                return self._run_batch_quantum(unit)
            return self._run_single_quantum(unit)
        finally:
            reset_thread_metrics()

    def _quantum_budget(
        self, members: int = 1, boost: int = 1
    ) -> EvaluationBudget:
        return EvaluationBudget(
            deadline=self.quantum_seconds,
            max_steps=self.quantum_steps * members * boost,
            preemptible=True,
        )

    def _engine(self, budget: EvaluationBudget) -> RobustEvaluator:
        return RobustEvaluator(
            predicates=self.predicates,
            budget=budget,
            check_fragment=self.check_fragment,
            plan_cache=self.plan_cache,
            workers=1,
        )

    def _run_single_quantum(self, unit: _Unit) -> _Outcome:
        tenant, job = unit.primary
        request = job.request
        if job.degraded:
            outcome = self._run_degraded(job)
            if outcome is not None:
                return outcome
            job.degraded = False  # sampler blew its budget: go exact
        budget = self._quantum_budget(boost=job.boost)
        session = (
            CheckpointSession(resume=job.checkpoint)
            if job.checkpoint is not None
            else CheckpointSession(
                operation=request.operation, query_key=job.key
            )
        )
        engine = self._engine(budget)
        try:
            with checkpoint_session(session):
                try:
                    value = self._execute(engine, job)
                except SuspendedError as error:
                    ckpt = error.checkpoint
                    if ckpt is None:
                        ckpt = session.snapshot(budget.steps)
                    return _Outcome(
                        kind="suspended",
                        checkpoint=ckpt,
                        steps=budget.steps,
                    )
            return _Outcome(kind="done", value=value, steps=budget.steps)
        except ReproError as error:
            return _Outcome(kind="error", error=error, steps=budget.steps)

    def _run_batch_quantum(self, unit: _Unit) -> _Outcome:
        jobs = [job for _, job in unit.members]
        first = jobs[0]
        structures = [job.request.structure for job in jobs]
        variables = list(first.request.variables)
        formula = first.expression
        budget = self._quantum_budget(len(jobs), boost=first.boost)
        session = (
            CheckpointSession(resume=unit.checkpoint)
            if unit.checkpoint is not None
            else CheckpointSession(
                operation="count_many", query_key=first.key
            )
        )
        engine = self._engine(budget)
        try:
            with checkpoint_session(session):
                try:
                    values = engine.count_many(structures, formula, variables)
                except SuspendedError as error:
                    ckpt = error.checkpoint
                    if ckpt is None:
                        ckpt = session.snapshot(budget.steps)
                    return _Outcome(
                        kind="suspended",
                        checkpoint=ckpt,
                        steps=budget.steps,
                    )
            return _Outcome(
                kind="done", values=list(values), steps=budget.steps
            )
        except ReproError as error:
            return _Outcome(kind="error", error=error, steps=budget.steps)

    @staticmethod
    def _execute(engine: RobustEvaluator, job: _Job):
        request = job.request
        if request.operation == "check":
            return engine.model_check(request.structure, job.expression)
        if request.operation == "count":
            return engine.count(
                request.structure, job.expression, list(request.variables)
            )
        if request.operation == "term":
            return engine.ground_term_value(request.structure, job.expression)
        return engine.unary_term_values(
            request.structure, job.expression, request.variable
        )

    # -- degradation ----------------------------------------------------------

    def _should_degrade(self, job: _Job, saturation: float) -> bool:
        if (
            self.degrade_saturation is None
            or saturation < self.degrade_saturation
            or job.checkpoint is not None
        ):
            return False
        if job.request.operation == "count":
            return True
        # The sampler's own precondition: a term degrades only when it is
        # a bare ground counting term, so every other term answers exactly.
        return (
            job.request.operation == "term"
            and isinstance(job.expression, CountTerm)
            and not free_variables(job.expression)
        )

    def _run_degraded(self, job: _Job) -> "Optional[_Outcome]":
        request = job.request
        budget = EvaluationBudget(
            deadline=self.quantum_seconds,
            max_steps=self.quantum_steps * self.degrade_budget_factor,
            preemptible=False,
        )
        sampler = ApproxEvaluator(
            predicates=self.predicates,
            budget=budget,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=request.seed,
            workers=1,
        )
        try:
            if request.operation == "count":
                result = sampler.count(
                    request.structure, job.expression, list(request.variables)
                )
            else:
                result = sampler.ground_term_value(
                    request.structure, job.expression
                )
        except BudgetExceededError:
            # Too expensive even to sample: run exact quanta instead.
            # Visible as a counter because a degrade budget that always
            # blows makes the policy silently useless.
            if self._metrics is not None:
                self._metrics.inc("serve.degrade.fallback")
            return None
        except ReproError as error:
            return _Outcome(kind="error", error=error, steps=budget.steps)
        return _Outcome(
            kind="done",
            value=result.value,
            approximate=True,
            steps=budget.steps,
            detail=result.summary(),
        )

    # -- introspection --------------------------------------------------------

    def orphaned_checkpoints(self) -> int:
        """In-memory checkpoints not yet handed back to a client.

        Non-zero only while requests are in flight; a drained service
        reports 0 — the drain contract.
        """
        return sum(
            1
            for job in self._jobs
            if job.checkpoint is not None and not job.future.done()
        )

    def stats(self) -> Dict[str, Any]:
        latencies = sorted(self._stats.latencies)

        def percentile(q: float) -> "Optional[float]":
            if not latencies:
                return None
            index = min(
                len(latencies) - 1, int(round(q * (len(latencies) - 1)))
            )
            return latencies[index]

        return {
            "admission": self.admission.snapshot(),
            "saturation": self.saturation.level(),
            "completed": self._stats.completed,
            "suspended_quanta": self._stats.suspended,
            "resumes": self._stats.resumes,
            "degraded": self._stats.degraded,
            "batches": self._stats.batches,
            "batched_requests": self._stats.batched_requests,
            "errors": self._stats.errors,
            "drain_suspended": self._stats.drain_suspended,
            "steps": self._stats.steps,
            "latency_p50_s": percentile(0.50),
            "latency_p99_s": percentile(0.99),
            "pending": len(self._drr),
            "orphaned_checkpoints": self.orphaned_checkpoints(),
            "plan_cache": self.plan_cache.stats(),
        }
