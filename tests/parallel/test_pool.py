"""The worker-pool abstraction: sharding, ordering, budget slicing,
metrics merging, error determinism, retries and salvage, inline and on
child processes (see docs/PARALLEL.md).

The retry and salvage bookkeeping tests drive
:meth:`WorkerPool.map_outcomes` at one worker, where closures run inline
through the same retry loop (``_drive``) the process fan-out uses; the
process cases use module-level functions, and ``TestChildDeath`` has
children exit abruptly, the failure retry and salvage exist for."""

import os
import threading

import pytest

from repro.errors import BudgetExceededError, ReproError
from repro.logic.predicates import NumericalPredicate, PredicateCollection
from repro.obs.metrics import MetricsRegistry, active_metrics, set_metrics
from repro.parallel import (
    WORKERS_ENV_VAR,
    ParallelError,
    ShardOutcome,
    WorkerPool,
    resolve_workers,
    shard,
)
from repro.robust.budget import EvaluationBudget
from repro.robust.retry import RetryPolicy


def _no_sleep_policy(retries=2):
    return RetryPolicy(retries=retries, base_delay=0.0)


class _Flaky:
    """A thread-safe callable failing its first ``failures`` calls per key."""

    def __init__(self, failures, error=ReproError):
        self.failures = dict(failures)
        self.error = error
        self.calls = {}
        self._lock = threading.Lock()

    def seen(self, key):
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1
            if self.calls[key] <= self.failures.get(key, 0):
                raise self.error(f"transient failure of {key}")


class TestResolveWorkers:
    def test_explicit_argument_wins(self):
        assert resolve_workers(3, environ={WORKERS_ENV_VAR: "7"}) == 3

    def test_env_var_is_the_fallback(self):
        assert resolve_workers(None, environ={WORKERS_ENV_VAR: "4"}) == 4
        assert resolve_workers(None, environ={WORKERS_ENV_VAR: " 2 "}) == 2

    def test_default_is_serial(self):
        assert resolve_workers(None, environ={}) == 1
        assert resolve_workers(None, environ={WORKERS_ENV_VAR: ""}) == 1

    def test_rejects_non_positive_and_junk(self):
        with pytest.raises(ParallelError):
            resolve_workers(0)
        with pytest.raises(ParallelError):
            resolve_workers(-2)
        with pytest.raises(ParallelError):
            resolve_workers(None, environ={WORKERS_ENV_VAR: "many"})
        with pytest.raises(ParallelError):
            resolve_workers(None, environ={WORKERS_ENV_VAR: "0"})


class TestShard:
    def test_contiguous_order_preserving_partition(self):
        items = list(range(10))
        chunks = shard(items, 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [x for chunk in chunks for x in chunk] == items

    def test_more_shards_than_items_drops_empties(self):
        assert shard([1, 2], 5) == [[1], [2]]
        assert shard([], 4) == []

    def test_single_shard_is_the_whole_list(self):
        assert shard([3, 1, 2], 1) == [[3, 1, 2]]

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ParallelError):
            shard([1], 0)

    def test_deterministic(self):
        items = list(range(17))
        assert shard(items, 4) == shard(items, 4)


class TestWorkerPool:
    def test_workers_resolve_like_resolve_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert WorkerPool().workers == 3
        assert WorkerPool(1).workers == 1
        with pytest.raises(ParallelError):
            WorkerPool(0)

    def test_map_outcomes_runs_inline_at_one_worker_or_one_item(self):
        # A closure cannot cross to a child: it runs on the calling
        # thread at one worker, and for a lone item at any worker count.
        thread_ids = []

        def record(x):
            thread_ids.append(threading.get_ident())
            return x

        WorkerPool(1).map_outcomes(record, range(3), retry=_no_sleep_policy())
        assert WorkerPool(4).map_outcomes(record, [7]) == [7]
        assert thread_ids == [threading.get_ident()] * 4

    def test_map_outcomes_empty(self):
        assert WorkerPool(4).map_outcomes(_square, []) == []

    def test_inline_join_charges_steps_back_once(self):
        # At one worker the payload harness runs on this thread with its
        # own budget; its steps reach the parent once, on join.
        parent = EvaluationBudget(max_steps=100)
        assert _join([("tick", 3), ("tick", 4)], parent, pool=WorkerPool(1)) == [
            3,
            4,
        ]
        assert parent.steps == 7

    @pytest.mark.parametrize("workers", (1, 2))
    def test_map_outcomes_first_index_error_wins(self, workers):
        with pytest.raises(ReproError, match="item 1"):
            WorkerPool(workers).map_outcomes(_fail_odd, range(4))


class TestBudgetSplit:
    def test_children_share_the_parent_deadline(self):
        parent = EvaluationBudget(deadline=60.0, max_steps=90)
        children = parent.split(3)
        assert len(children) == 3
        assert all(c._deadline_at == parent._deadline_at for c in children)

    def test_steps_divide_evenly_over_remaining(self):
        parent = EvaluationBudget(max_steps=90)
        parent.charge(30)
        children = parent.split(3)
        assert [c.remaining_steps() for c in children] == [20, 20, 20]

    def test_unlimited_steps_stay_unlimited(self):
        children = EvaluationBudget(deadline=60.0).split(4)
        assert all(c.remaining_steps() is None for c in children)

    def test_each_child_gets_at_least_one_step(self):
        parent = EvaluationBudget(max_steps=2)
        children = parent.split(8)
        assert all(c.remaining_steps() == 1 for c in children)

    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ValueError):
            EvaluationBudget(max_steps=10).split(0)


class TestRetry:
    def test_flaky_task_recovers(self):
        flaky = _Flaky({1: 2})

        def task(i):
            flaky.seen(i)
            return i * 10

        results = WorkerPool(1).map_outcomes(
            task, range(4), retry=_no_sleep_policy(retries=2)
        )
        assert results == [0, 10, 20, 30]
        assert flaky.calls[1] == 3  # first attempt + two retries

    def test_retry_exhausted_reraises_lowest_index(self):
        def task(i):
            if i == 0:
                raise ReproError("permanent")
            return i

        with pytest.raises(ReproError, match="permanent"):
            WorkerPool(1).map_outcomes(
                task, range(2), retry=_no_sleep_policy(retries=1)
            )

    def test_budget_exhaustion_is_not_retried(self):
        attempts = []

        def task(i):
            if i == 0:
                attempts.append(1)
                raise BudgetExceededError("dry", reason="steps", site="t", steps=1)
            return i

        with pytest.raises(BudgetExceededError):
            WorkerPool(1).map_outcomes(
                task, range(2), retry=_no_sleep_policy(retries=5)
            )
        assert len(attempts) == 1

    def test_serial_pool_supports_retry(self):
        flaky = _Flaky({0: 1})

        def task(i):
            flaky.seen(i)
            return "ok"

        assert WorkerPool(1).map_outcomes(
            task, [0], retry=_no_sleep_policy()
        ) == ["ok"]
        assert flaky.calls[0] == 2

    def test_retry_counters(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            flaky = _Flaky({0: 1, 2: 5})

            def task(i):
                flaky.seen(i)
                return i

            outcomes = WorkerPool(1).map_outcomes(
                task,
                range(3),
                retry=_no_sleep_policy(retries=2),
                on_failure="salvage",
            )
        finally:
            set_metrics(previous)
        assert [o.ok for o in outcomes] == [True, True, False]
        # Shard 0: 1 retry then recovered; shard 2: 2 retries then exhausted.
        assert registry.counter("parallel.retry.attempt") == 3
        assert registry.counter("parallel.retry.recovered") == 1
        assert registry.counter("parallel.retry.exhausted") == 1


class TestSalvage:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="on_shard_failure"):
            WorkerPool(2).map_outcomes(_square, [1], on_failure="ignore")

    def test_salvage_returns_outcomes_in_order(self):
        def task(i):
            if i == 1:
                raise ReproError("shard down")
            return i * 10

        outcomes = WorkerPool(1).map_outcomes(
            task, range(4), on_failure="salvage"
        )
        assert all(isinstance(o, ShardOutcome) for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [0, None, 20, 30]
        assert isinstance(outcomes[1].error, ReproError)
        assert outcomes[1].attempts == 1

    def test_salvage_with_retries_records_attempts(self):
        def task(i):
            if i == 0:
                raise ReproError("down")
            return i

        outcomes = WorkerPool(1).map_outcomes(
            task,
            range(2),
            retry=_no_sleep_policy(retries=2),
            on_failure="salvage",
        )
        assert outcomes[0].attempts == 3
        assert not outcomes[0].ok
        assert outcomes[1].ok

    def test_serial_salvage(self):
        def task(i):
            if i == 1:
                raise ReproError("down")
            return "x"

        outcomes = WorkerPool(1).map_outcomes(task, range(2), on_failure="salvage")
        assert [o.ok for o in outcomes] == [True, False]
        assert outcomes[0].value == "x"

    def test_keyboard_interrupt_is_never_salvaged(self):
        def task(i):
            if i == 0:
                raise KeyboardInterrupt()
            return i

        with pytest.raises(KeyboardInterrupt):
            WorkerPool(1).map_outcomes(task, range(2), on_failure="salvage")


class TestMapOutcomes:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_results_in_input_order(self, workers):
        items = list(range(6))
        assert WorkerPool(workers).map_outcomes(_square, items) == [
            x * x for x in items
        ]

    def test_inline_retry_recovers(self):
        flaky = _Flaky({2: 1})

        def fn(x):
            flaky.seen(x)
            return x + 100

        results = WorkerPool(1).map_outcomes(
            fn, range(4), retry=_no_sleep_policy()
        )
        assert results == [100, 101, 102, 103]
        assert flaky.calls[2] == 2

    def test_salvage_outcomes_on_processes(self):
        outcomes = WorkerPool(2).map_outcomes(
            _fail_odd, range(3), on_failure="salvage"
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert [o.value for o in outcomes] == [0, None, 2]


def _square(x):
    return x * x


def _fail_odd(x):
    if x % 2:
        raise ReproError(f"item {x}")
    return x


def _process_task(x):
    """Module-level (hence picklable) process-backend work item."""
    if x < 0:
        raise BudgetExceededError(
            "child ran dry",
            reason="steps",
            site="process.test",
            steps=7,
            max_steps=7,
        )
    return x * x


class TestProcessErrorFidelity:
    def test_budget_error_survives_as_itself(self):
        outcomes = WorkerPool(2).map_outcomes(
            _process_task, [3, -1], on_failure="salvage"
        )
        assert outcomes[0].ok and outcomes[0].value == 9
        error = outcomes[1].error
        assert type(error) is BudgetExceededError
        assert error.reason == "steps"
        assert error.site == "process.test"
        assert error.steps == 7

    def test_fail_fast_reraises_original_type(self):
        with pytest.raises(BudgetExceededError, match="child ran dry"):
            WorkerPool(2).map_outcomes(_process_task, [-1, 2])

    def test_process_retry_reruns_in_a_child(self):
        # Deterministic failures retry and fail again — proving the retry
        # actually re-entered a worker process rather than silently
        # succeeding in the parent.
        outcomes = WorkerPool(2).map_outcomes(
            _process_task,
            [-1, 4],
            retry=RetryPolicy(retries=2, retry_on=(Exception,), no_retry=()),
            on_failure="salvage",
        )
        assert outcomes[0].attempts == 3
        assert type(outcomes[0].error) is BudgetExceededError
        assert outcomes[1].ok and outcomes[1].value == 16


def _die_once(item):
    """Exit the child abruptly the first time ``marker`` is claimed; every
    other call returns ``value * 10``.  Never dies in process ``parent``
    (the test runner), whatever pool runs it."""
    marker, parent, value = item
    if marker is not None and os.getpid() != parent:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return value * 10


def _dying_items(tmp_path, dying, count=4):
    parent = os.getpid()
    return [
        (str(tmp_path / f"dies-{i}") if i in dying else None, parent, i)
        for i in range(count)
    ]


class TestChildDeath:
    """A child that dies mid-shard breaks its executor: the shards it had
    not returned fail with ParallelError, and a retry re-runs them on a
    fresh executor."""

    def test_retry_recovers_a_dead_child(self, tmp_path):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            results = WorkerPool(2).map_outcomes(
                _die_once,
                _dying_items(tmp_path, {1}),
                retry=_no_sleep_policy(retries=1),
            )
        finally:
            set_metrics(previous)
        assert results == [0, 10, 20, 30]
        assert registry.counter("parallel.retry.recovered") >= 1
        assert registry.counter("parallel.retry.exhausted") == 0

    def test_every_shard_dying_once_recovers(self, tmp_path):
        # Each retry that finds its executor broken builds a new one.  A
        # shard can lose its first attempt to another shard's death and
        # its second to its own, so it needs two retries.
        results = WorkerPool(3).map_outcomes(
            _die_once,
            _dying_items(tmp_path, {0, 1, 2, 3}),
            retry=_no_sleep_policy(retries=2),
        )
        assert results == [0, 10, 20, 30]

    def test_without_retry_raises_parallel_error(self, tmp_path):
        with pytest.raises(ParallelError, match="worker process died"):
            WorkerPool(2).map_outcomes(
                _die_once, _dying_items(tmp_path, {0})
            )

    def test_salvage_reports_the_dead_shard(self, tmp_path):
        outcomes = WorkerPool(2).map_outcomes(
            _die_once, _dying_items(tmp_path, {2}), on_failure="salvage"
        )
        assert type(outcomes[2].error) is ParallelError
        # Shards still pending on the broken executor are lost with it;
        # every shard that did return carries its exact value.
        for outcome in outcomes:
            assert outcome.ok == (outcome.error is None)
            if outcome.ok:
                assert outcome.value == outcome.index * 10


def _child_harness(x):
    """Run through the child-side harness of :mod:`repro.parallel.tasks`."""
    from repro.parallel.tasks import _run_in_child

    def fn(budget):
        for _ in range(x if x > 0 else 5):
            budget.tick("work")
        if x < 0:
            raise ReproError("child exploded")
        return x

    return _run_in_child(fn, (None, 100, False, ""), False)


class TestRemoteAnnotations:
    def test_child_failure_carries_traceback_and_steps(self):
        outcomes = WorkerPool(2).map_outcomes(
            _child_harness, [3, -1], on_failure="salvage"
        )
        ok, failed = outcomes
        assert ok.ok and ok.value == (3, 3, None, 0)
        error = failed.error
        assert isinstance(error, ReproError)
        assert "child exploded" in error.remote_traceback
        assert "Traceback" in error.remote_traceback
        # The work done before dying is accounted and charged on join.
        assert error.remote_steps == 5
        assert failed.steps == 5


class TestMetricsMerge:
    def test_no_registry_active_means_no_registry_plumbing(self):
        previous = set_metrics(None)
        try:
            parent = EvaluationBudget(max_steps=100)
            assert _join([("tick", 1)] * 4, parent) == [1] * 4
        finally:
            set_metrics(previous)


def _child_work(payload):
    """A child-side job run through the payload harness of
    :mod:`repro.parallel.tasks`.

    ``job`` is ``("tick", n)``, ``("doomed", n)`` — tick ``n`` steps,
    then raise — or ``("flaky", first, then, marker)``: the first attempt
    ticks ``first`` steps, leaves ``marker`` and raises; later attempts
    tick ``then`` steps and succeed.  Each job counts its steps in the
    child's metrics registry when one is installed.
    """
    from repro.parallel.tasks import _run_in_child

    job, params, want_metrics = payload

    def body(budget):
        retrying = job[0] == "flaky" and os.path.exists(job[3])
        steps = job[2] if retrying else job[1]
        for _ in range(steps):
            budget.tick("work")
        registry = active_metrics()
        if registry is not None:
            registry.inc("worker.work", steps)
        if job[0] == "doomed":
            raise ReproError("down")
        if job[0] == "flaky" and not retrying:
            open(job[3], "w").close()
            raise ReproError("transient")
        return steps

    return _run_in_child(body, params, want_metrics)


def _at_least_one(values):
    return values[0] >= 1


def _query_work(payload):
    """Make ``n`` P-oracle calls on the payload's collection through the
    child harness."""
    from repro.parallel.tasks import _run_in_child

    n, predicates = payload

    def body(budget):
        for _ in range(n):
            predicates.query("geq1", (1,))
        return n

    return _run_in_child(body, None, False, predicates)


def _join(jobs, parent, retry=None, salvage=False, pool=None):
    """Fan ``jobs`` out to two child processes (or ``pool``), one budget
    slice each, as the engines' payload builders do."""
    from repro.parallel.tasks import _join_shards, _slice_params

    want_metrics = active_metrics() is not None
    payloads = [
        (job, _slice_params(part), want_metrics)
        for job, part in zip(jobs, parent.split(len(jobs)))
    ]
    return _join_shards(
        pool or WorkerPool(2),
        _child_work,
        payloads,
        parent,
        retry=retry,
        salvage=salvage,
    )


class TestProcessJoin:
    """Step charge-back and metrics fold-back from child processes: each
    child's steps reach the parent budget exactly once, failed attempts
    and salvaged shards included."""

    def test_children_steps_charge_back_to_parent(self):
        parent = EvaluationBudget(max_steps=1_000)
        assert _join([("tick", 10)] * 4, parent) == [10] * 4
        assert parent.steps == 40

    def test_slice_exhaustion_raises_budget_exceeded(self):
        parent = EvaluationBudget(max_steps=8)
        with pytest.raises(BudgetExceededError):
            _join([("tick", 100)] * 4, parent)

    def test_failed_attempts_charge_back_exactly_once(self, tmp_path):
        # 2 jobs split a 100-step parent into 50-step shares.  Job 0
        # spends 30 steps and fails, then 20 steps and succeeds; job 1
        # spends 10.  The parent must see 30 + 20 + 10 = 60.
        parent = EvaluationBudget(max_steps=100)
        marker = str(tmp_path / "attempted")
        results = _join(
            [("flaky", 30, 20, marker), ("tick", 10)],
            parent,
            retry=_no_sleep_policy(),
        )
        assert results == [20, 10]
        assert parent.steps == 60

    def test_retry_attempt_gets_a_fresh_slice(self, tmp_path):
        # The share is 6 steps; the first attempt spends all 6 before
        # failing, so only a fresh child budget lets the retry's 4-step
        # run succeed.
        parent = EvaluationBudget(max_steps=12)
        marker = str(tmp_path / "attempted")
        results = _join(
            [("flaky", 6, 4, marker), ("tick", 0)],
            parent,
            retry=_no_sleep_policy(),
        )
        assert results == [4, 0]
        assert parent.steps == 10

    def test_salvage_still_charges_failed_shard_work(self):
        parent = EvaluationBudget(max_steps=100)
        outcomes = _join([("doomed", 5), ("tick", 7)], parent, salvage=True)
        assert [o.ok for o in outcomes] == [False, True]
        assert parent.steps == 12

    @pytest.mark.parametrize("workers", (1, 2))
    def test_oracle_calls_fold_back_once(self, workers):
        # On processes each child counts on its own copy; inline the
        # payload's collection is the parent's own, and the harness
        # hands the calls back rather than keeping them, so either way
        # they are counted exactly once.
        from repro.parallel.tasks import _join_shards

        collection = PredicateCollection(
            [NumericalPredicate("geq1", 1, _at_least_one)]
        )
        collection.oracle_calls = 5
        results = _join_shards(
            WorkerPool(workers),
            _query_work,
            [(3, collection), (4, collection)],
            None,
            oracle=collection,
        )
        assert results == [3, 4]
        assert collection.oracle_calls == 5 + 3 + 4

    def test_metrics_fold_back_from_children(self):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            parent = EvaluationBudget(max_steps=1_000)
            _join([("tick", 7)] * 3, parent)
        finally:
            set_metrics(previous)
        assert registry.counter("worker.work") == 21
        assert registry.counter("budget.ticks") == 21
