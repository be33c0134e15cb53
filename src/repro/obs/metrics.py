"""Named counters and histograms for the evaluation engines.

The engines' hot loops report *what happened* — memo hits and misses,
guard selections, ball expansions, cover cluster sizes, budget ticks,
fallback-stage transitions — through a process-global
:class:`MetricsRegistry`.  Collection is **off by default**: when no
registry is installed, every checkpoint is a single module-global load
plus an ``is None`` test, the same near-free pattern the budget and
fault-injection hooks already use.  Hot paths that sit inside tight
loops capture the active registry *once* (``m = active_metrics()``) and
branch on the local, so the disabled cost does not scale with the loop.

Counters are plain integers in a dict; histograms track count / total /
min / max (enough for mean cluster sizes and span statistics without
keeping every sample).  Snapshots carry no derived ratios; a ratio such
as one memo table's hit rate is computed by its reader with
:func:`hit_rate`.

Fault-tolerance counters (PR 5) follow a ``layer.mechanism.event``
naming convention:

* ``parallel.retry.attempt`` — a failed shard was re-run;
* ``parallel.retry.recovered`` — a shard succeeded after >= 1 retry;
* ``parallel.retry.exhausted`` — a shard failed permanently (its final
  error is either re-raised or salvaged);
* ``robust.breaker.trip`` — a cascade stage's circuit just opened;
* ``robust.breaker.skipped`` — a stage was skipped because its circuit
  was open (also counted per stage as ``robust.stage.<name>.skipped``).

The ``parallel.retry.*`` counters move only on the process fan-outs,
the one place retries apply.

Usage::

    from repro.obs import collect_metrics

    with collect_metrics() as metrics:
        engine.count(structure, phi, ["x", "y"])
    print(metrics.snapshot()["counters"]["evaluator.memo.hit"])
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "collect_metrics",
    "hit_rate",
    "set_metrics",
    "set_thread_metrics",
    "thread_metrics",
    "tick",
    "observe",
]


class Histogram:
    """Streaming summary of a numeric series: count, total, min, max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: "Optional[float]" = None
        self.max: "Optional[float]" = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> "Optional[float]":
        if self.count == 0:
            return None
        return self.total / self.count

    def snapshot(self) -> Dict[str, "float | int | None"]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, total={self.total})"


class MetricsRegistry:
    """A bag of named counters and histograms.

    Counter and histogram names are dotted paths
    (``evaluator.memo.hit``, ``cover.cluster_size``); the registry does
    not pre-declare names — the first increment creates the series.

    Recording is thread-safe: ``inc``/``observe``/``merge`` serialise on a
    single per-registry lock, so concurrent workers sharing one registry
    never lose updates.  The disabled path is unaffected — with no
    registry installed nothing here runs at all — and parallel hot loops
    avoid the shared lock entirely by recording into a per-worker
    registry that is merged on join (see :mod:`repro.parallel`).
    """

    __slots__ = ("counters", "histograms", "_lock")

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = Histogram(name)
                self.histograms[name] = histogram
            histogram.observe(value)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-serialisable view: counters plus histogram summaries."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self.histograms.items()
                },
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        ``other`` is snapshotted under its own lock first, so merging a
        still-active worker registry sees a consistent point-in-time view;
        the fold into ``self`` then holds only ``self``'s lock (never both
        at once, so two registries merging into each other cannot
        deadlock).
        """
        with other._lock:
            counters = dict(other.counters)
            histograms = {
                name: (h.count, h.total, h.min, h.max)
                for name, h in other.histograms.items()
            }
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, (count, total, low, high) in histograms.items():
                mine = self.histograms.get(name)
                if mine is None:
                    mine = Histogram(name)
                    self.histograms[name] = mine
                mine.count += count
                mine.total += total
                for bound in (low, high):
                    if bound is None:
                        continue
                    if mine.min is None or bound < mine.min:
                        mine.min = bound
                    if mine.max is None or bound > mine.max:
                        mine.max = bound

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        The cross-process twin of :meth:`merge`: child-process workers
        cannot ship live registries back (and should not — snapshots are
        plain JSON-safe dicts), so they return snapshots that the parent
        folds in on join.
        """
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, summary in (snapshot.get("histograms") or {}).items():
                mine = self.histograms.get(name)
                if mine is None:
                    mine = Histogram(name)
                    self.histograms[name] = mine
                mine.count += summary.get("count", 0)
                mine.total += summary.get("total", 0.0)
                for bound in (summary.get("min"), summary.get("max")):
                    if bound is None:
                        continue
                    if mine.min is None or bound < mine.min:
                        mine.min = bound
                    if mine.max is None or bound > mine.max:
                        mine.max = bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)})"
        )


def hit_rate(hits: int, misses: int) -> "Optional[float]":
    """``hits / (hits + misses)``, or ``None`` when nothing was recorded."""
    total = hits + misses
    if total == 0:
        return None
    return hits / total


# ---------------------------------------------------------------------------
# The process-global registry (same pattern as robust.faults), plus a
# thread-local override: a worker pool's child process records into a
# private registry whose snapshot the parent merges on join, and the
# service's quantum threads install the service's registry.
# ---------------------------------------------------------------------------

_ACTIVE: "Optional[MetricsRegistry]" = None
_THREAD_OVERRIDE = threading.local()


def active_metrics() -> "Optional[MetricsRegistry]":
    """The registry for the calling thread, or ``None`` (collection off).

    A thread-local override installed by :func:`set_thread_metrics` wins
    over the process-global registry.
    """
    override = getattr(_THREAD_OVERRIDE, "registry", None)
    if override is not None:
        return override
    return _ACTIVE


def set_metrics(registry: "Optional[MetricsRegistry]") -> "Optional[MetricsRegistry]":
    """Install (or clear, with ``None``) the global registry; returns the
    previously installed one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def set_thread_metrics(
    registry: "Optional[MetricsRegistry]",
) -> "Optional[MetricsRegistry]":
    """Install (or clear) this thread's override; returns the previous one.

    Only the calling thread is affected; other threads keep seeing the
    process-global registry.  Worker pools use this so each worker's hot
    loops record lock-free into a private registry.
    """
    previous = getattr(_THREAD_OVERRIDE, "registry", None)
    _THREAD_OVERRIDE.registry = registry
    return previous


def reset_thread_metrics() -> "Optional[MetricsRegistry]":
    """Unconditionally clear this thread's override; returns what was set.

    The hygiene hook for *reused* threads: a pooled executor thread (an
    asyncio ``run_in_executor`` pool, the :mod:`repro.serve` quantum
    pool) outlives the task that installed an override, and a leaked
    override would silently redirect every later task's counters — and
    every :class:`~repro.plan.cache.PlanCache` hit/miss recorded through
    :func:`active_metrics` — into a dead registry from a finished
    session.  Call this on task entry (defence against an earlier leak)
    and on task completion (never leak yourself).
    """
    previous = getattr(_THREAD_OVERRIDE, "registry", None)
    _THREAD_OVERRIDE.registry = None
    return previous


@contextmanager
def thread_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope a thread-local registry override to a ``with`` block."""
    previous = set_thread_metrics(registry)
    try:
        yield registry
    finally:
        set_thread_metrics(previous)


def tick(name: str, value: int = 1) -> None:
    """Increment a counter on the active registry; no-op when collection
    is off.  Prefer capturing :func:`active_metrics` once around loops."""
    registry = active_metrics()
    if registry is not None:
        registry.inc(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active registry; no-op when off."""
    registry = active_metrics()
    if registry is not None:
        registry.observe(name, value)


@contextmanager
def collect_metrics(
    registry: "Optional[MetricsRegistry]" = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of the ``with`` block.

    Nested blocks are allowed; the inner block sees its own registry and
    the outer one is restored on exit (inner results are *not* folded
    into the outer registry automatically — use :meth:`MetricsRegistry.merge`).
    """
    chosen = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(chosen)
    try:
        yield chosen
    finally:
        set_metrics(previous)
