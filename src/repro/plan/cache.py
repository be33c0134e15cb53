"""The plan cache: LRU over compiled :class:`~repro.plan.ir.QueryPlan`.

Keys are built by the engine facades from ``(kind, canonicalised
expressions, variables, signature, options)`` — all hashable, all
plan-owned (canonicalisation deep-copies the AST), so a cache entry never
keeps a caller's objects alive.  Hits, misses and evictions are exposed
both as instance counters (``stats()``) and through the metrics registry
(``plan.cache.hit`` / ``plan.cache.miss`` / ``plan.cache.eviction``);
compile time is observed into the ``plan.compile.seconds`` histogram so
benchmarks can split compile cost from execute cost.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable

from ..obs.metrics import active_metrics, hit_rate
from .ir import QueryPlan

__all__ = ["PlanCache", "default_plan_cache"]


class PlanCache:
    """A bounded LRU mapping cache keys to compiled plans.

    The cache is thread-safe: lookup, insert and the hit/miss/eviction
    counters are serialised on an internal :class:`threading.RLock`, so
    concurrent workers sharing one cache (the parallel per-cluster path
    hammers exactly this) never corrupt the LRU order or the statistics.
    Compilation itself runs *outside* the critical section — a slow
    compile must not stall every other worker's hits — so two threads
    missing on the same key may both compile; the second insert then
    defers to the plan already in the cache, keeping plans canonical
    (one object per key), so each search program is compiled into one plan.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._plans: "OrderedDict[Hashable, QueryPlan]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get_or_compile(
        self, key: Hashable, compile_fn: Callable[[], QueryPlan]
    ) -> QueryPlan:
        """The cached plan for ``key``, compiling (and timing) on a miss."""
        metrics = active_metrics()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                if metrics is not None:
                    metrics.inc("plan.cache.hit")
                return plan
            self.misses += 1
        if metrics is not None:
            metrics.inc("plan.cache.miss")
        started = time.perf_counter()
        plan = compile_fn()
        if metrics is not None:
            metrics.observe(
                "plan.compile.seconds", time.perf_counter() - started
            )
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                # Another thread compiled and inserted while we were
                # compiling; keep its plan canonical and drop ours.
                self._plans.move_to_end(key)
                return existing
            self._plans[key] = plan
            if len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
                if metrics is not None:
                    metrics.inc("plan.cache.eviction")
        return plan

    def peek(self, key: Hashable) -> "QueryPlan | None":
        """The cached plan for ``key`` without compiling, counting or
        reordering.

        A statistics-only probe for callers that must not pay compile
        time — the serving degradation policy predicts a request's cost
        from its plan only when the plan is already warm, and a peek must
        not perturb the hit/miss counters or the LRU order that the real
        evaluation path will exercise moments later.
        """
        with self._lock:
            return self._plans.get(key)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                # None (not 0.0) before any traffic: a cold cache has no
                # hit rate, and reporting zero would read as "all misses".
                "hit_rate": hit_rate(self.hits, self.misses),
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


_default_cache = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache engines share unless given their own."""
    return _default_cache
