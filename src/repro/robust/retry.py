"""Per-shard retry policies for the parallel evaluation paths.

PR 4 made the Section 8.2 main algorithm and the cover evaluators fan out
per-cluster shards across a :class:`~repro.parallel.WorkerPool`; before
this module existed, one failed shard aborted the entire evaluation and
forced :class:`~repro.robust.guard.RobustEvaluator` to re-run the *whole*
query in a slower cascade stage.  A :class:`RetryPolicy` makes the far
cheaper response possible: re-run **only the failed shard**, a bounded
number of times, with deterministic seeded exponential backoff.

Scope and determinism
---------------------
The policy is **per shard, not per pool**: every shard gets its own
``retries`` attempts, and the backoff delay for shard ``s``'s attempt
``a`` is a pure function of ``(seed, s, a)`` — no shared random state, so
the same schedule falls out of every run and every worker count.  (The
derivation seeds ``random.Random`` with a *string*, which hashes
deterministically across processes; tuple seeds would go through
``hash()`` and break under ``PYTHONHASHSEED`` randomisation.)

What retries
------------
Only failures that are plausibly transient: by default the library's
typed :class:`~repro.errors.ReproError` family **minus**
:class:`~repro.errors.BudgetExceededError` — a shard that exhausted its
budget slice will exhaust a fresh identical slice too, and retrying it
would silently double-charge the parent.  Genuine programming errors
(``TypeError`` &c.) never retry.

Sleeping is injectable (``sleep=``) so tests can assert the exact delay
sequence without waiting; the default ``base_delay`` is 0, which makes
retries immediate — production callers opt into real backoff.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Tuple

from ..errors import BudgetExceededError, ReproError, SuspendedError

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Bounded per-shard retries with seeded exponential backoff + jitter.

    Parameters
    ----------
    retries:
        Maximum number of *re*-attempts per shard after its first run
        (``0`` disables retrying while keeping the bookkeeping — useful to
        measure the machinery's overhead).
    base_delay:
        Delay in seconds before the first retry.  Each further retry
        multiplies it by ``multiplier``, capped at ``max_delay``.  The
        default 0.0 makes retries immediate.
    multiplier:
        Exponential backoff factor (>= 1).
    max_delay:
        Upper bound on any single delay, jitter included.
    jitter:
        Fraction of the delay added as deterministic pseudo-random noise
        in ``[0, jitter]`` — decorrelates shards that failed together
        without sacrificing reproducibility.
    seed:
        Seed for the jitter derivation.
    retry_on:
        Exception types eligible for retry.
    no_retry:
        Exception types never retried even when matched by ``retry_on``
        (default: :class:`BudgetExceededError` and
        :class:`~repro.errors.SuspendedError` — a suspension is not a
        failure, it is the quantum boundary of a preemptible run; see the
        module docstring).
    sleep:
        The sleep hook (default :func:`time.sleep`); tests inject a
        recorder here.
    """

    __slots__ = (
        "retries",
        "base_delay",
        "multiplier",
        "max_delay",
        "jitter",
        "seed",
        "retry_on",
        "no_retry",
        "sleep",
    )

    def __init__(
        self,
        retries: int = 2,
        base_delay: float = 0.0,
        multiplier: float = 2.0,
        max_delay: float = 1.0,
        jitter: float = 0.1,
        seed: int = 0,
        retry_on: Tuple[type, ...] = (ReproError,),
        no_retry: Tuple[type, ...] = (BudgetExceededError, SuspendedError),
        sleep: "Callable[[float], None]" = time.sleep,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.retries = retries
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retry_on = tuple(retry_on)
        self.no_retry = tuple(no_retry)
        self.sleep = sleep

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a shard whose attempt number ``attempt`` (1-based) just
        failed with ``error`` deserves another run."""
        if attempt > self.retries:
            return False
        if isinstance(error, self.no_retry):
            return False
        return isinstance(error, self.retry_on)

    def delay(self, shard: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``shard``.

        Deterministic: a pure function of ``(seed, shard, attempt)``.
        """
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        if self.base_delay == 0.0:
            return 0.0
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter:
            draw = random.Random(
                f"{self.seed}:{shard}:{attempt}"
            ).random()
            raw *= 1.0 + self.jitter * draw
        return min(raw, self.max_delay)

    def pause(self, shard: int, attempt: int) -> float:
        """Sleep the computed :meth:`delay` (via the hook); returns it."""
        seconds = self.delay(shard, attempt)
        if seconds > 0:
            self.sleep(seconds)
        return seconds

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(retries={self.retries}, base_delay={self.base_delay}, "
            f"multiplier={self.multiplier}, max_delay={self.max_delay}, "
            f"jitter={self.jitter}, seed={self.seed})"
        )
