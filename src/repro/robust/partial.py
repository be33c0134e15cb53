"""Structured partial results for salvaged parallel evaluations.

Dreier & Rossmanith (*Approximate Evaluation of First-Order Counting
Queries*, 2020) argue that a degraded-but-*bounded* answer is a
principled response when exact evaluation is too expensive; this module
is the systems-side analogue for shard failures.  When a parallel entry
point runs with ``on_shard_failure="salvage"`` and a shard still fails
after its retries, the completed shards are **kept** and returned inside
a :class:`PartialResult` that says precisely what the answer covers: the
merged values, which work items were lost with which error, and the
coverage fraction — so a caller can decide whether 93% of a unary sweep
is good enough, rather than being forced to choose between "everything"
and "an exception".

Salvage never degrades silently: entry points return their plain, full
result whenever *no* shard failed, and a :class:`PartialResult` only when
something was genuinely lost.  The covered values are byte-identical to
the same slice of a fault-free serial run — salvage drops work, it never
approximates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["PartialResult", "ShardFailure", "ON_SHARD_FAILURE_MODES"]

#: The accepted ``on_shard_failure`` modes, shared by every entry point.
ON_SHARD_FAILURE_MODES = ("raise", "salvage")


def validate_failure_mode(mode: str) -> str:
    """Validate an ``on_shard_failure`` argument (shared by all callers)."""
    if mode not in ON_SHARD_FAILURE_MODES:
        raise ValueError(
            f"on_shard_failure must be one of {ON_SHARD_FAILURE_MODES}, "
            f"got {mode!r}"
        )
    return mode


@dataclass
class ShardFailure:
    """One shard that failed permanently (retries exhausted or disabled)."""

    #: Shard index in the deterministic shard order.
    shard: int
    #: The work items the shard carried (cluster ids, target elements,
    #: batch positions — whatever the entry point fans out over).
    items: Tuple
    #: Exception type name and message of the final attempt.
    error_type: str
    error: str
    #: How many attempts were made (1 = no retries).
    attempts: int = 1

    def summary(self) -> str:
        return (
            f"shard {self.shard} ({len(self.items)} item(s), "
            f"{self.attempts} attempt(s)): [{self.error_type}] {self.error}"
        )


@dataclass
class PartialResult:
    """A salvaged answer: completed shards plus an account of the losses.

    ``value`` holds the merged results of every completed shard, in the
    same deterministic order the fault-free run would produce (unary
    sweeps: a dict missing the lost elements; batch counts: a list with
    ``None`` holes).  ``expected``/``covered`` count the operation's
    natural result units (elements, batch entries), so ``coverage`` is an
    honest fraction of the *answer*, not of the shards.
    """

    operation: str
    value: Any
    failures: List[ShardFailure] = field(default_factory=list)
    #: Total result units the full answer would contain.
    expected: int = 0
    #: Result units actually present in ``value``.
    covered: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of the full answer present, in [0, 1]."""
        if self.expected <= 0:
            return 1.0
        return self.covered / self.expected

    def complete(self) -> bool:
        return not self.failures and self.covered == self.expected

    def failed_items(self) -> List:
        """All lost work items across failed shards, in shard order."""
        return [item for failure in self.failures for item in failure.items]

    def failed_shards(self) -> List[int]:
        return [failure.shard for failure in self.failures]

    def summary(self) -> str:
        head = (
            f"{self.operation}: partial answer, coverage "
            f"{self.coverage:.1%} ({self.covered}/{self.expected})"
        )
        if not self.failures:
            return head
        parts = "; ".join(f.summary() for f in self.failures)
        return f"{head} — lost {parts}"


def merge_unary_outcomes(
    outcomes: list,
    chunks: List[list],
    chunk_sizes: List[int],
    operation: str,
) -> "Dict[Any, int] | PartialResult":
    """Fold salvage-mode shard outcomes into a dict or a PartialResult.

    ``chunks[i]`` holds the work items shard ``i`` carried (targets or
    cluster indices) and ``chunk_sizes[i]`` how many *result elements*
    that shard would contribute.  A full success returns the plain merged
    dict — salvage never changes the type of a complete answer.
    """
    values: Dict[Any, int] = {}
    failures: List[ShardFailure] = []
    for outcome in outcomes:
        if outcome.error is None:
            values.update(outcome.value)
        else:
            failures.append(
                ShardFailure(
                    shard=outcome.index,
                    items=tuple(chunks[outcome.index]),
                    error_type=type(outcome.error).__name__,
                    error=str(outcome.error),
                    attempts=outcome.attempts,
                )
            )
    if not failures:
        return values
    return PartialResult(
        operation=operation,
        value=values,
        failures=failures,
        expected=sum(chunk_sizes),
        covered=len(values),
    )
