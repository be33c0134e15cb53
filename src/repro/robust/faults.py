"""Deterministic fault injection for the robustness machinery.

The fallback cascade of :class:`~repro.robust.guard.RobustEvaluator` claims
to survive failures of its inner stages.  That claim is only testable if
failures can be *produced on demand*, deterministically, at the exact spots
where the real algorithms can go wrong.  This module provides that:

* a fixed registry of named **fault sites** — the instrumented spots in the
  production code (cover construction, removal surgery, memo inserts, the
  numerical-predicate oracle);
* a :class:`FaultInjector` that arms faults at chosen sites, either at an
  exact hit number (fully deterministic) or at a seeded random rate
  (deterministic given the seed);
* :func:`inject_faults`, a context manager installing an injector globally,
  and :func:`fault_check`, the near-free checkpoint the production code
  calls (a single ``is None`` test when no injector is installed).

Armed faults raise :class:`~repro.errors.FaultInjectedError`; they fire
*once* per (site, hit) so a fallback stage that retries the same machinery
is not re-broken — which is exactly how the cascade tests prove graceful
degradation rather than permanent corruption, and how per-shard retries
prove recovery: a retried shard registers a *new* hit number, so the same
armed fault cannot strike it twice.

Concurrency and determinism
---------------------------
Injectors may be shared by threads (the service runs quanta on several),
so all counter updates happen under a lock — hits are never lost to
races.  Rate-mode draws are a pure function of ``(seed, site, hit)``
(seeded with a *string*, which hashes deterministically across
processes): whether hit N of a site faults does not depend on thread
interleaving or on draws at other sites, so a seed gives one fault
schedule for a given worker count, run after run.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from ..errors import FaultInjectedError

__all__ = [
    "FAULT_SITES",
    "PARALLEL_FAULT_SITES",
    "FaultInjector",
    "fault_check",
    "inject_faults",
    "active_injector",
]

#: The registered fault sites.  Every ``fault_check(site)`` call in the
#: production code uses one of these names; injectors reject unknown names
#: so tests cannot silently arm a site that no longer exists.
FAULT_SITES = (
    "cover.construct",
    "removal.surgery",
    "memo.insert",
    "predicate.oracle",
    "worker.task",
    "worker.join",
    "shard.result",
    "checkpoint.save",
    "checkpoint.restore",
)

#: The parallel-layer sites, checked by :class:`~repro.parallel.WorkerPool`
#: once per shard *in the parent* — at submission (``worker.task``), when a
#: shard's outcome is collected (``worker.join``) and when its result is
#: accepted into the merge (``shard.result``).  Parent-side checking keeps
#: hit numbering deterministic (process children would otherwise each
#: start a fresh counter).
PARALLEL_FAULT_SITES = ("worker.task", "worker.join", "shard.result")


class FaultInjector:
    """A seeded, site-named fault plan plus its hit counters.

    Parameters
    ----------
    sites:
        Mapping ``site -> hit number`` (1-based): the fault fires exactly
        when that site is checked for the N-th time, once.
    rate:
        Additional probability of firing at *any* armed-by-rate check.
        ``rate_sites`` restricts which sites participate (default: all
        registered sites).  Each draw is seeded by ``(seed, site, hit)``,
        so a fixed seed gives a fixed fault schedule independent of thread
        interleaving and of draws at other sites.
    limit:
        Maximum number of rate-based faults to fire (``None`` = unlimited).

    All counter updates are lock-protected: injectors are safe to share
    across threads.
    """

    def __init__(
        self,
        sites: "Optional[Mapping[str, int]]" = None,
        *,
        seed: int = 0,
        rate: float = 0.0,
        rate_sites: "Optional[tuple]" = None,
        limit: "Optional[int]" = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.sites: Dict[str, int] = dict(sites or {})
        for site, hit in self.sites.items():
            if site not in FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; registered sites: "
                    f"{', '.join(FAULT_SITES)}"
                )
            if hit < 1:
                raise ValueError(f"hit numbers are 1-based, got {hit} for {site!r}")
        self.rate = rate
        self.rate_sites = tuple(rate_sites) if rate_sites is not None else FAULT_SITES
        for site in self.rate_sites:
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r}")
        self.limit = limit
        self.seed = seed
        self.hits: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fired: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._lock = threading.Lock()

    def check(self, site: str) -> None:
        """Register one hit of ``site``; raise if a fault is armed for it."""
        with self._lock:
            count = self.hits.get(site)
            if count is None:
                raise ValueError(
                    f"fault_check called with unregistered site {site!r}"
                )
            count += 1
            self.hits[site] = count
            fire = self.sites.get(site) == count
            if (
                not fire
                and self.rate > 0.0
                and site in self.rate_sites
                and (self.limit is None or sum(self.fired.values()) < self.limit)
                and random.Random(f"{self.seed}:{site}:{count}").random()
                < self.rate
            ):
                fire = True
            if fire:
                self.fired[site] += 1
        if fire:
            raise FaultInjectedError(site, count)

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def __repr__(self) -> str:
        return (
            f"FaultInjector(sites={self.sites!r}, seed={self.seed}, "
            f"rate={self.rate}, fired={self.total_fired()})"
        )


_ACTIVE: "Optional[FaultInjector]" = None


def fault_check(site: str) -> None:
    """Cooperative fault checkpoint — a no-op unless an injector is active."""
    if _ACTIVE is not None:
        _ACTIVE.check(site)


def active_injector() -> "Optional[FaultInjector]":
    """The currently installed injector, if any."""
    return _ACTIVE


@contextmanager
def inject_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of the ``with`` block.

    Injectors do not nest: installing a second one raises, because two
    overlapping fault schedules have no well-defined semantics.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultInjector is already active")
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
