"""Observability for the evaluation engines: tracing, counters, histograms.

Two independent, zero-dependency instruments:

* :mod:`repro.obs.trace` — structured spans (enter/exit with wall time)
  around coarse pipeline regions, via the :func:`traced` decorator and
  the :func:`span` context manager;
* :mod:`repro.obs.metrics` — named counters and histograms fed from the
  engines' hot paths (memo hits/misses, guard selections, ball
  expansions, cover cluster sizes, budget ticks, fallback-stage
  transitions), via :func:`tick` / :func:`observe`.

Both are **off by default** and cost one module-global load plus an
``is None`` test per checkpoint when disabled; hot loops capture the
active registry once and branch on a local.  Enable them

* programmatically: ``with trace_spans() as t, collect_metrics() as m: ...``
* from the CLI: ``python -m repro count ... --trace --metrics``
* from the environment: ``REPRO_TRACE=1`` (both), ``REPRO_TRACE=trace``
  (spans only), ``REPRO_TRACE=metrics`` (counters only) — applied by
  :func:`configure_from_env`, which the CLI calls on startup.

See ``docs/OBSERVABILITY.md`` for the counter catalogue.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from .metrics import (
    Histogram,
    MetricsRegistry,
    active_metrics,
    collect_metrics,
    hit_rate,
    observe,
    reset_thread_metrics,
    set_metrics,
    set_thread_metrics,
    thread_metrics,
    tick,
)
from .trace import (
    Span,
    Tracer,
    active_tracer,
    set_tracer,
    span,
    trace_spans,
    traced,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_metrics",
    "active_tracer",
    "collect_metrics",
    "configure_from_env",
    "hit_rate",
    "observe",
    "reset_thread_metrics",
    "set_metrics",
    "set_thread_metrics",
    "set_tracer",
    "span",
    "thread_metrics",
    "tick",
    "trace_spans",
    "traced",
]

#: Environment variable consulted by :func:`configure_from_env`.
TRACE_ENV_VAR = "REPRO_TRACE"


def configure_from_env(
    environ: "Optional[dict]" = None,
) -> "Tuple[Optional[Tracer], Optional[MetricsRegistry]]":
    """Install tracer/metrics according to ``REPRO_TRACE``.

    Accepted values (case-insensitive): ``1``, ``true``, ``both`` — enable
    spans *and* counters; ``trace``/``spans`` — spans only;
    ``metrics``/``counters`` — counters only; anything else (including
    unset, ``0``, ``false``) — leave both off.  Returns the installed
    ``(tracer, registry)`` pair (``None`` where not enabled) without
    disturbing instruments that are already installed.
    """
    value = (environ if environ is not None else os.environ).get(
        TRACE_ENV_VAR, ""
    )
    value = value.strip().lower()
    want_trace = value in ("1", "true", "both", "trace", "spans")
    want_metrics = value in ("1", "true", "both", "metrics", "counters")
    tracer = None
    registry = None
    if want_trace and active_tracer() is None:
        tracer = Tracer()
        set_tracer(tracer)
    if want_metrics and active_metrics() is None:
        registry = MetricsRegistry()
        set_metrics(registry)
    return tracer, registry
