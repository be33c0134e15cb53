"""QueryService integration tests: preemption, batching, degradation,
drain, typed shedding, and executor-thread metrics hygiene.

Everything here runs real engines on small structures; the service's
exact answers are cross-checked against a serial
:class:`~repro.core.evaluator.Foc1Evaluator` run (the byte-identity
contract gets its own 30-seed gate in ``test_differential_service.py``).
"""

import asyncio
import copy
import time

import pytest

from repro.core.evaluator import Foc1Evaluator
from repro.errors import AdmissionError, ReproError
from repro.logic.parser import parse_formula
from repro.obs.metrics import (
    MetricsRegistry,
    reset_thread_metrics,
    set_thread_metrics,
)
from repro.plan.executor import ExecutionState
from repro.robust import checkpoint
from repro.robust.checkpoint import CheckpointSession, memo_entries
from repro.serve import QueryRequest, QueryService, TenantQuota
from repro.serve.admission import SHED_REASONS
from repro.structures.builders import graph_structure, path_graph


def cycle_graph(n):
    vertices = list(range(1, n + 1))
    edges = [(v, v % n + 1) for v in vertices]
    return graph_structure(vertices, edges)


def dense_graph(n):
    vertices = list(range(1, n + 1))
    edges = [(u, v) for u in vertices for v in vertices if u < v]
    return graph_structure(vertices, edges)


SMALL = cycle_graph(4)
PATHS = "E(x, y) & E(y, z)"


def count_request(structure, tenant="t", formula=PATHS, request_id="r"):
    return QueryRequest(
        tenant=tenant,
        operation="count",
        structure=structure,
        expression=formula,
        variables=("x", "y", "z"),
        request_id=request_id,
    )


def exact_count(structure, formula=PATHS, variables=("x", "y", "z")):
    return Foc1Evaluator().count(
        structure, parse_formula(formula), list(variables)
    )


async def until_preempted(registry, timeout=30.0):
    """Return once the service has suspended a quantum, so the job is
    mid-flight; a job needing many more quanta cannot finish in the few
    loop turns a test takes after this."""
    deadline = time.monotonic() + timeout
    while registry.counter("serve.preempt.suspended") < 1:
        assert time.monotonic() < deadline, "no quantum was suspended"
        await asyncio.sleep(0.001)


class TestSubmit:
    def test_completes_with_the_exact_answer(self):
        async def scenario():
            async with QueryService(workers=2, quantum_steps=10**6) as service:
                return await service.submit(count_request(SMALL))

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.approximate is False
        assert response.value == exact_count(SMALL)
        assert response.quanta == 1
        assert response.resumes == 0

    def test_check_and_unary_operations(self):
        async def scenario():
            async with QueryService(workers=1, quantum_steps=10**6) as service:
                check = await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="check",
                        structure=SMALL,
                        expression="forall x. @geq1(#(y). E(x, y))",
                    )
                )
                unary = await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="unary",
                        structure=SMALL,
                        expression="#(y). E(x, y)",
                        variable="x",
                    )
                )
                return check, unary

        check, unary = asyncio.run(scenario())
        assert check.value is True
        assert dict(unary.value) == {1: 2, 2: 2, 3: 2, 4: 2}

    def test_submit_before_start_is_rejected(self):
        service = QueryService()

        async def scenario():
            await service.submit(count_request(SMALL))

        with pytest.raises(ReproError, match="not started"):
            asyncio.run(scenario())

    def test_malformed_request_rejected_before_admission(self):
        with pytest.raises(ReproError, match="variables"):
            QueryRequest(
                tenant="t", operation="count", structure=SMALL, expression=PATHS
            )

    def test_engine_error_fails_the_future_typed(self):
        # An evaluation failure surfaces from the quantum as the same
        # typed ReproError a direct engine call would raise.  (A merely
        # out-of-fragment formula is NOT an error here: the cascade
        # falls back to the baseline engine and still answers.)
        async def scenario():
            async with QueryService(workers=1, quantum_steps=10**6) as service:
                await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="count",
                        structure=SMALL,
                        expression="R(x, y)",
                        variables=("x", "y"),
                    )
                )

        with pytest.raises(ReproError, match="signature"):
            asyncio.run(scenario())

    def test_out_of_fragment_falls_back_instead_of_erroring(self):
        async def scenario():
            async with QueryService(workers=1, quantum_steps=10**6) as service:
                return await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="check",
                        structure=SMALL,
                        expression="exists x. @even(#(y). E(x, y))",
                    )
                )

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.value is True  # every cycle vertex has degree 2


class TestPreemption:
    def test_small_quantum_suspends_resumes_and_stays_exact(self):
        structure = dense_graph(8)
        registry = MetricsRegistry()

        async def scenario():
            async with QueryService(
                workers=2, quantum_steps=30, metrics=registry
            ) as service:
                return await service.submit(count_request(structure))

        response = asyncio.run(scenario())
        assert response.value == exact_count(structure)
        assert response.resumes >= 1
        assert response.quanta == response.resumes + 1
        assert registry.counter("serve.preempt.suspended") >= 1
        assert registry.counter("serve.preempt.resumed") >= 1

    def test_concurrent_preempted_tenants_all_exact(self):
        structures = [dense_graph(6), dense_graph(7), cycle_graph(9)]

        async def scenario():
            async with QueryService(workers=2, quantum_steps=40) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            count_request(s, tenant=f"t{i}", request_id=str(i))
                        )
                        for i, s in enumerate(structures)
                    )
                )

        responses = asyncio.run(scenario())
        for structure, response in zip(structures, responses):
            assert response.value == exact_count(structure)
            assert response.status == "ok"


class TestMixedElementTypes:
    def test_keyed_preempted_and_exact(self):
        # An int/str universe reaches the query key and the stratum records.
        structure = graph_structure([1, "a", 2], [(1, "a"), ("a", 2)])

        async def scenario():
            async with QueryService(
                workers=1, eval_workers=1, quantum_steps=3
            ) as service:
                return await asyncio.gather(
                    service.submit(count_request(structure)),
                    service.submit(
                        QueryRequest(
                            tenant="u",
                            operation="term",
                            structure=structure,
                            expression="#(x). @gt(#(y). E(x, y), 0)",
                        )
                    ),
                )

        paths, census = asyncio.run(scenario())
        assert paths.value == exact_count(structure)
        assert census.value == 3
        assert paths.resumes >= 1 and census.resumes >= 1


class TestCheckpointCost:
    """A request that never suspends pays one content digest per structure
    and exports no memo; a preempted one snapshots what an eager export
    at every executor's exit would have given."""

    def test_unpreempted_requests_digest_once_per_structure(self, monkeypatch):
        digests, exports = [], []
        compute = checkpoint._compute_digest
        export = ExecutionState.export_memo_snapshot
        monkeypatch.setattr(
            checkpoint,
            "_compute_digest",
            lambda structure: digests.append(structure) or compute(structure),
        )
        monkeypatch.setattr(
            ExecutionState,
            "export_memo_snapshot",
            lambda state: exports.append(state) or export(state),
        )
        structures = [cycle_graph(6), dense_graph(5)]

        async def scenario():
            async with QueryService(
                workers=2, eval_workers=1, quantum_steps=10**6
            ) as service:
                return [
                    await service.submit(
                        count_request(structures[i % 2], request_id=str(i))
                    )
                    for i in range(20)
                ]

        responses = asyncio.run(scenario())
        assert [r.value for r in responses] == [
            exact_count(structures[i % 2]) for i in range(20)
        ]
        assert all(r.quanta == 1 for r in responses)
        assert len(digests) == 2
        assert exports == []

    def test_preempted_snapshots_equal_eager_exports(self, monkeypatch):
        structure = dense_graph(8)
        census = QueryRequest(
            tenant="t",
            operation="term",
            structure=structure,
            expression="#(x). @eq(#(y). E(x, y), 7)",
        )

        def snapshots():
            states = []
            snapshot = CheckpointSession.snapshot

            def record(session, steps_this_run=0):
                taken = snapshot(session, steps_this_run)
                # A resumed session records into the checkpoint's records.
                states.append(copy.deepcopy(taken.exec_state))
                return taken

            async def scenario():
                async with QueryService(
                    workers=1, eval_workers=1, quantum_steps=10
                ) as service:
                    return await service.submit(census)

            with monkeypatch.context() as patch:
                patch.setattr(CheckpointSession, "snapshot", record)
                response = asyncio.run(scenario())
            assert response.value == 8
            assert response.resumes == len(states) >= 2
            return states

        deferred = snapshots()
        with monkeypatch.context() as patch:
            patch.setattr(
                CheckpointSession,
                "register_memo",
                lambda session, digest, *tables: session.record_memo(
                    digest, memo_entries(*tables)
                ),
            )
            eager = snapshots()
        assert deferred == eager
        assert any(record.memo for state in deferred for record in state.values())


class TestBatching:
    def test_compatible_counts_merge_and_stay_exact(self):
        registry = MetricsRegistry()
        expected = exact_count(SMALL)

        async def scenario():
            # One worker: the first dispatch finds the other tenants'
            # identical counts still queued and collects them.
            async with QueryService(
                workers=1, quantum_steps=10**6, batch_max=8, metrics=registry
            ) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            count_request(
                                SMALL, tenant=f"t{i}", request_id=str(i)
                            )
                        )
                        for i in range(4)
                    )
                )

        responses = asyncio.run(scenario())
        assert [r.value for r in responses] == [expected] * 4
        assert any(r.batched for r in responses)
        assert registry.counter("serve.batch.dispatched") >= 1
        assert registry.counter("serve.batch.merged") >= 1

    def test_batched_quanta_run_inline_under_repro_workers(self, monkeypatch):
        """A quantum's cascade runs inline whatever ``REPRO_WORKERS``
        says: a process pool per quantum costs far more than the quantum,
        and forking the multi-threaded service is unsafe."""
        import repro.parallel.pool as pool_module

        started = []

        def no_pool(*args, **kwargs):
            started.append(args or kwargs)
            raise ReproError("a quantum started a process pool")

        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        structures = [cycle_graph(n) for n in (4, 5, 6, 7)]
        registry = MetricsRegistry()

        async def scenario():
            async with QueryService(
                workers=1, quantum_steps=10**6, batch_max=8, metrics=registry
            ) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            count_request(s, tenant=f"t{i}", request_id=str(i))
                        )
                        for i, s in enumerate(structures)
                    )
                )

        responses = asyncio.run(scenario())
        assert [r.value for r in responses] == [
            exact_count(s) for s in structures
        ]
        assert registry.counter("serve.batch.merged") >= 1
        assert started == []

    def test_eval_workers_accepts_only_one(self):
        assert QueryService(eval_workers=1).workers == 2
        with pytest.raises(ReproError, match="inline"):
            QueryService(eval_workers=2)

    def test_batch_max_one_disables_batching(self):
        async def scenario():
            async with QueryService(
                workers=1, quantum_steps=10**6, batch_max=1
            ) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            count_request(
                                SMALL, tenant=f"t{i}", request_id=str(i)
                            )
                        )
                        for i in range(3)
                    )
                )

        responses = asyncio.run(scenario())
        assert not any(r.batched for r in responses)
        assert {r.value for r in responses} == {exact_count(SMALL)}


class TestShedding:
    def test_burst_beyond_quota_sheds_typed_and_admits_exactly(self):
        registry = MetricsRegistry()

        async def scenario():
            async with QueryService(
                workers=1,
                quantum_steps=10**6,
                quota=TenantQuota(max_inflight=2, max_queue=1),
                batch_max=1,
                metrics=registry,
            ) as service:
                return await asyncio.gather(
                    *(
                        service.submit(
                            count_request(SMALL, tenant="t", request_id=str(i))
                        )
                        for i in range(6)
                    ),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, AdmissionError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed, "burst should overflow the quota"
        assert all(error.reason in SHED_REASONS for error in shed)
        assert all(r.value == exact_count(SMALL) for r in served)
        assert len(shed) + len(served) == 6
        assert registry.counter("serve.admitted") == len(served)

    def test_submit_during_drain_sheds_as_draining(self):
        # Thousands of steps against 10-step quanta: after its first
        # suspension the count is still many quanta from done.
        structure = dense_graph(16)
        registry = MetricsRegistry()

        async def scenario():
            service = QueryService(workers=1, quantum_steps=10, metrics=registry)
            await service.start()
            inflight = asyncio.ensure_future(
                service.submit(count_request(structure))
            )
            await until_preempted(registry)
            drain_task = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0)  # drain flag set, job still running
            with pytest.raises(AdmissionError) as info:
                await service.submit(
                    count_request(SMALL, tenant="late", request_id="late")
                )
            await drain_task
            response = await inflight
            return info.value.reason, response

        reason, response = asyncio.run(scenario())
        assert reason == "draining"
        assert response.status == "ok"
        assert response.value == exact_count(structure)


class TestDegradation:
    def test_saturation_threshold_degrades_to_flagged_estimate(self):
        structure = dense_graph(8)
        registry = MetricsRegistry()
        expected = exact_count(structure)

        async def scenario():
            # Threshold 0.0: every count-only request degrades at first
            # dispatch; the generous budget factor lets the sampler fit.
            async with QueryService(
                workers=1,
                quantum_steps=2000,
                degrade_saturation=0.0,
                degrade_budget_factor=100,
                epsilon=0.5,
                delta=0.2,
                metrics=registry,
            ) as service:
                return await service.submit(count_request(structure))

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.approximate is True
        assert registry.counter("serve.degraded") == 1
        # Crude is allowed under overload; garbage is not.
        assert 0 <= response.value <= 4 * expected

    def test_degraded_answers_are_seed_deterministic(self):
        structure = dense_graph(8)

        async def one_run():
            async with QueryService(
                workers=1,
                quantum_steps=2000,
                degrade_saturation=0.0,
                degrade_budget_factor=100,
                epsilon=0.5,
                delta=0.2,
            ) as service:
                return await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="count",
                        structure=structure,
                        expression=PATHS,
                        variables=("x", "y", "z"),
                        seed=7,
                    )
                )

        assert asyncio.run(one_run()).value == asyncio.run(one_run()).value

    def test_non_count_operations_never_degrade(self):
        async def scenario():
            async with QueryService(
                workers=1,
                quantum_steps=10**6,
                degrade_saturation=0.0,
                epsilon=0.5,
                delta=0.2,
            ) as service:
                return await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="check",
                        structure=SMALL,
                        expression="forall x. @geq1(#(y). E(x, y))",
                    )
                )

        response = asyncio.run(scenario())
        assert response.approximate is False
        assert response.value is True

    @pytest.mark.parametrize(
        "text, approximate",
        [("#(x, y). E(x, y) + 1", False), ("#(x, y). E(x, y)", True)],
        ids=["sum", "bare-count"],
    )
    def test_only_bare_counting_terms_degrade(self, text, approximate):
        # The sampler estimates a ground counting term and nothing else;
        # any other term request answers exactly even when saturated.
        async def scenario():
            async with QueryService(
                workers=1,
                quantum_steps=2000,
                degrade_saturation=0.0,
                degrade_budget_factor=100,
                epsilon=0.5,
                delta=0.2,
            ) as service:
                return await service.submit(
                    QueryRequest(
                        tenant="t",
                        operation="term",
                        structure=path_graph(6),
                        expression=text,
                    )
                )

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.approximate is approximate
        if not approximate:
            assert response.value == 11

    def test_exact_only_service_never_degrades(self):
        async def scenario():
            async with QueryService(
                workers=1, quantum_steps=10**6
            ) as service:
                return await service.submit(count_request(dense_graph(6)))

        assert asyncio.run(scenario()).approximate is False

    def test_cost_threshold_keyword_is_inert(self):
        # Accepted so that existing callers keep working; even a zero
        # threshold sends no request to the sampler.
        structure = dense_graph(6)
        registry = MetricsRegistry()

        async def scenario():
            async with QueryService(
                workers=1,
                quantum_steps=10**6,
                degrade_cost_threshold=0.0,
                metrics=registry,
            ) as service:
                return await service.submit(count_request(structure))

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert response.approximate is False
        assert response.value == exact_count(structure)
        assert registry.counter("serve.degraded") == 0


class TestDrain:
    def test_bounded_drain_hands_back_checkpoint_not_orphaned(self):
        # As in the shedding test: still many quanta from done after its
        # first suspension, so the next quantum cannot finish it.
        structure = dense_graph(16)
        registry = MetricsRegistry()

        async def scenario():
            service = QueryService(
                workers=1, quantum_steps=10, metrics=registry
            )
            await service.start()
            task = asyncio.ensure_future(
                service.submit(count_request(structure))
            )
            await until_preempted(registry)
            await service.drain(grace=0)
            response = await task
            return response, service.orphaned_checkpoints()

        response, orphaned = asyncio.run(scenario())
        assert response.status == "suspended"
        assert response.checkpoint is not None
        assert response.checkpoint.steps_spent > 0
        assert orphaned == 0
        assert registry.counter("serve.drain.suspended") == 1

    def test_unbounded_drain_finishes_everything(self):
        structures = [dense_graph(6), cycle_graph(8)]

        async def scenario():
            service = QueryService(workers=2, quantum_steps=50)
            await service.start()
            tasks = [
                asyncio.ensure_future(
                    service.submit(
                        count_request(s, tenant=f"t{i}", request_id=str(i))
                    )
                )
                for i, s in enumerate(structures)
            ]
            await asyncio.sleep(0.01)
            await service.drain()  # grace=None: run to completion
            return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        for structure, response in zip(structures, responses):
            assert response.value == exact_count(structure)

    def test_stats_shape(self):
        async def scenario():
            async with QueryService(workers=1, quantum_steps=10**6) as service:
                await service.submit(count_request(SMALL))
                return service.stats()

        stats = asyncio.run(scenario())
        for key in (
            "admission",
            "saturation",
            "completed",
            "resumes",
            "degraded",
            "batches",
            "errors",
            "drain_suspended",
            "latency_p50_s",
            "latency_p99_s",
            "orphaned_checkpoints",
            "plan_cache",
        ):
            assert key in stats
        assert stats["completed"] == 1
        assert stats["orphaned_checkpoints"] == 0


class TestThreadMetricsHygiene:
    """Regression: a stale thread-local metrics override on a reused
    executor thread must never swallow a later session's counters."""

    def test_poisoned_executor_thread_is_reset_by_the_quantum(self):
        stale = MetricsRegistry()
        registry = MetricsRegistry()

        async def scenario():
            async with QueryService(
                workers=1, quantum_steps=10**6, metrics=registry
            ) as service:
                loop = asyncio.get_running_loop()
                # Poison the single executor thread the way a buggy
                # earlier task would: install an override and leak it.
                await loop.run_in_executor(
                    service._executor, set_thread_metrics, stale
                )
                response = await service.submit(count_request(SMALL))
                # The quantum must have cleared the override on exit.
                leftover = await loop.run_in_executor(
                    service._executor, reset_thread_metrics
                )
                return response, leftover

        response, leftover = asyncio.run(scenario())
        assert response.value == exact_count(SMALL)
        assert leftover is None
        # The quantum's engine work landed in the service registry, not
        # the stale one from the "finished" session.
        assert stale.snapshot()["counters"] == {}
        assert registry.counter("serve.completed") == 1

    def test_stress_many_quanta_never_leak_into_a_stale_registry(self):
        stale = MetricsRegistry()
        registry = MetricsRegistry()
        structure = dense_graph(7)

        async def scenario():
            async with QueryService(
                workers=2, quantum_steps=60, metrics=registry
            ) as service:
                loop = asyncio.get_running_loop()
                for round_index in range(4):
                    await asyncio.gather(
                        *(
                            loop.run_in_executor(
                                service._executor, set_thread_metrics, stale
                            )
                            for _ in range(2)
                        )
                    )
                    responses = await asyncio.gather(
                        *(
                            service.submit(
                                count_request(
                                    structure,
                                    tenant=f"t{i}",
                                    request_id=f"{round_index}-{i}",
                                )
                            )
                            for i in range(3)
                        )
                    )
                    assert {r.value for r in responses} == {
                        exact_count(structure)
                    }

        asyncio.run(scenario())
        assert stale.snapshot()["counters"] == {}
        assert registry.counter("serve.completed") == 12

    def test_back_to_back_sessions_keep_their_counters_separate(self):
        first = MetricsRegistry()
        second = MetricsRegistry()

        async def session(registry, n):
            async with QueryService(
                workers=1, quantum_steps=10**6, metrics=registry
            ) as service:
                await asyncio.gather(
                    *(
                        service.submit(
                            count_request(SMALL, tenant="t", request_id=str(i))
                        )
                        for i in range(n)
                    )
                )

        asyncio.run(session(first, 2))
        first_completed = first.counter("serve.completed")
        asyncio.run(session(second, 3))
        assert first.counter("serve.completed") == first_completed == 2
        assert second.counter("serve.completed") == 3
