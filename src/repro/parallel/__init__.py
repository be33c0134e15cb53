"""Parallel execution for the evaluation engines (worker pools, sharding).

The paper's per-cluster loop (Section 8.2) and the engine's batch
entry points are embarrassingly parallel; this package supplies the
:class:`WorkerPool` they fan out through (inline at one worker, child
processes above one), the deterministic :func:`shard` helper, and the
``REPRO_WORKERS`` resolution shared by the CLI and the engine facades.
See ``docs/PARALLEL.md`` for the pool model, the budget-slicing
semantics and the determinism guarantee.
"""

from .pool import (
    WORKERS_ENV_VAR,
    ParallelError,
    ShardOutcome,
    WorkerPool,
    resolve_workers,
    shard,
)

__all__ = [
    "WORKERS_ENV_VAR",
    "ParallelError",
    "ShardOutcome",
    "WorkerPool",
    "resolve_workers",
    "shard",
]
