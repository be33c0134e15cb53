"""Resource governance and graceful degradation (the robustness layer).

The pieces:

* :mod:`repro.robust.budget` — :class:`EvaluationBudget`, a wall-clock +
  step budget checked cooperatively inside every engine's hot loops;
* :mod:`repro.robust.faults` — deterministic, site-named fault injection
  used by the tests to prove the cascade degrades gracefully;
* :mod:`repro.robust.retry` — :class:`RetryPolicy`, bounded per-shard
  retries with deterministic backoff, applied by the worker pool to the
  shards it sends to child processes;
* :mod:`repro.robust.partial` — :class:`PartialResult`, the structured
  salvaged answer of a process fan-out (completed shards + coverage
  fraction);
* :mod:`repro.robust.checkpoint` — :class:`Checkpoint` and
  :class:`CheckpointSession`, the suspend/resume machinery behind
  preemptible budgets (versioned, integrity-hashed, crash-consistent
  persistence of resumable evaluation state);
* :mod:`repro.robust.guard` — :class:`RobustEvaluator`, a façade running
  the fallback cascade *main algorithm → FOC1 engine → brute force* in
  that fixed order on every call, with per-stage budget slices and a
  structured :class:`RobustReport`.

``budget``, ``faults``, ``retry``, ``partial`` and ``checkpoint`` are
leaf modules (they depend only on :mod:`repro.errors` and each other) so
the instrumented production modules can import them freely.  ``guard`` sits on top of the whole engine stack and is loaded
lazily (PEP 562) to keep this package importable from inside those
low-level modules without an import cycle.
"""

from __future__ import annotations

from .budget import EvaluationBudget
from .checkpoint import (
    Checkpoint,
    CheckpointSession,
    StratumRecord,
    active_checkpoint_session,
    checkpoint_session,
    load_checkpoint,
    save_checkpoint,
)
from .faults import (
    FAULT_SITES,
    PARALLEL_FAULT_SITES,
    FaultInjector,
    active_injector,
    fault_check,
    inject_faults,
)
from .partial import PartialResult, ShardFailure
from .retry import RetryPolicy

__all__ = [
    "Checkpoint",
    "CheckpointSession",
    "EvaluationBudget",
    "FAULT_SITES",
    "FaultInjector",
    "PARALLEL_FAULT_SITES",
    "PartialResult",
    "RetryPolicy",
    "RobustEvaluator",
    "RobustReport",
    "ShardFailure",
    "StageReport",
    "StratumRecord",
    "active_checkpoint_session",
    "active_injector",
    "checkpoint_session",
    "fault_check",
    "inject_faults",
    "load_checkpoint",
    "save_checkpoint",
]

_GUARD_NAMES = {"RobustEvaluator", "RobustReport", "StageReport"}


def __getattr__(name: str):
    if name in _GUARD_NAMES:
        from . import guard

        return getattr(guard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _GUARD_NAMES)
