"""Retry-machinery overhead on fault-free runs (docs/ROBUSTNESS.md).

PR 5's acceptance bar: arming a :class:`~repro.robust.retry.RetryPolicy`
on a run that never faults must cost < 5% over the plain parallel path.
The only per-shard additions on the happy path are the fault checkpoints
(one ``is None`` test each when no injector is installed) and the
outcome bookkeeping, so the expected overhead is noise-level.

Each benchmark runs the same workload twice across the ``retries``
parameter — ``0`` (``retry=None``, the plain path) and ``2``
(``RetryPolicy(retries=2)`` armed but never triggered) — and records its
``retries`` value in ``extra_info``.  The overhead (this mean over the
retries=0 mean, so 1.0 is free; the target is < 1.05) reads off
pytest-benchmark's table (``pytest benchmarks/bench_retry.py
--benchmark-only``); it is not asserted, because one timing ratio on a
shared runner is noise.

Workloads: the Section 8.2 per-cluster loop at workers=2, as in
``bench_parallel.py`` (child processes), and ``WorkerPool.run_tasks``,
the inline retry driver the unary sweeps and the main algorithm go
through; both are asserted byte-identical to their serial/plain
counterparts.
"""

import pytest

from repro.core.clterms import CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.logic.builder import Rel
from repro.parallel.pool import WorkerPool
from repro.robust.retry import RetryPolicy
from repro.sparse.classes import nearly_square_grid
from repro.sparse.covers import sparse_cover

E = Rel("E", 2)

RETRY_COUNTS = (0, 2)

SIZES = (100, 400)

DEGREE_TERM = CoverTerm(
    variables=("y1", "y2"),
    edges=frozenset({(1, 2)}),
    link_distance=1,
    component_formulas=((frozenset({1, 2}), E("y1", "y2")),),
    unary=True,
)


def _policy(retries):
    """``None`` for the plain path, an armed deterministic policy otherwise."""
    if retries == 0:
        return None
    return RetryPolicy(retries=retries)


@pytest.mark.parametrize("retries", RETRY_COUNTS)
@pytest.mark.parametrize("n", SIZES)
def test_per_cluster_retry_overhead(benchmark, n, retries):
    structure = nearly_square_grid(n)
    cover = sparse_cover(structure, 2)

    values = benchmark(
        evaluate_per_cluster,
        structure,
        cover,
        DEGREE_TERM,
        workers=2,
        retry=_policy(retries),
    )
    # Fault-free, so the armed run must match the serial loop byte-for-byte.
    serial = evaluate_per_cluster(structure, cover, DEGREE_TERM)
    assert list(values.items()) == list(serial.items())
    benchmark.extra_info["retries"] = retries
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["clusters"] = len(cover.clusters)


@pytest.mark.parametrize("retries", RETRY_COUNTS)
@pytest.mark.parametrize("tasks", (16,))
def test_run_tasks_retry_overhead(benchmark, tasks, retries):
    # Bare thunks isolate the driver's own bookkeeping from engine costs:
    # each task is a small pure-Python loop, run inline.
    pool = WorkerPool(workers=1)
    work = [
        (lambda i: (lambda budget=None: sum(range(2_000 + i))))(i)
        for i in range(tasks)
    ]

    results = benchmark(pool.run_tasks, work, retry=_policy(retries))
    assert results == [sum(range(2_000 + i)) for i in range(tasks)]
    benchmark.extra_info["retries"] = retries
    benchmark.extra_info["tasks"] = tasks
