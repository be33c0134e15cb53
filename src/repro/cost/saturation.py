"""Observed-load saturation signal for the serving layer.

This module measures how loaded the service *is*; that one signal
drives the :mod:`repro.serve` degradation policy: shed exactness (answer
counts and bare counting terms from the sampling tier) before shedding
tenants.

The tracker is deliberately clock-free: saturation is the exponentially
weighted ratio of demand (running quanta plus queued jobs) to capacity
(scheduler worker slots), updated at every dispatch and completion.
``level() >= 1.0`` means demand has met capacity — every worker busy and
nothing queued is exactly 1.0 — and sustained overload pushes the level
above 1.  Using scheduler events instead of wall time keeps the signal
deterministic for a deterministic submission schedule, which the serving
differential gates rely on.
"""

from __future__ import annotations

__all__ = ["SaturationTracker"]


class SaturationTracker:
    """EWMA of (running + queued) / capacity over scheduler events.

    Parameters
    ----------
    capacity:
        Number of concurrent quantum slots the scheduler can fill.
    alpha:
        EWMA smoothing factor in ``(0, 1]``; higher reacts faster.  The
        default 0.4 reaches ~92% of a step change within five events —
        fast enough to catch a burst before its queue drains, slow
        enough that a single enqueue spike does not flip the policy.
    """

    def __init__(self, capacity: int, alpha: float = 0.4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self._level = 0.0
        self._events = 0

    def update(self, running: int, queued: int) -> float:
        """Fold one scheduler event in; returns the new level."""
        instant = (running + queued) / self.capacity
        if self._events == 0:
            self._level = instant
        else:
            self._level += self.alpha * (instant - self._level)
        self._events += 1
        return self._level

    def level(self) -> float:
        """The smoothed saturation level (0.0 before any event)."""
        return self._level

    @property
    def events(self) -> int:
        return self._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SaturationTracker(capacity={self.capacity}, "
            f"level={self._level:.3f}, events={self._events})"
        )
