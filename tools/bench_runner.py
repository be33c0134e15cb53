"""Headless benchmark runner: execute the ``benchmarks/`` suites and emit
a machine-readable ``BENCH_pr10.json``.

The runner drives pytest-benchmark as a subprocess, harvests its raw JSON
plus the per-benchmark engine metrics that ``benchmarks/conftest.py``
attaches to ``extra_info`` (see ``REPRO_BENCH_METRICS``), and condenses
everything into a small, stable report::

    {
      "schema": "repro-bench/11",
      "quick": true,
      "benchmarks": [
        {"name": "...", "module": "bench_covers", "mean_s": ..., ...,
         "metrics": {"counters": {...}, "histograms": {...}},
         "memo_hit_rate": 0.93,
         "plan_cache_hit_rate": 0.98, "compile_s": 0.004},
        ...
      ],
      "totals": {"benchmarks": N, "wall_s": ..., "memo_hit_rate": ...,
                 "plan_cache_hit_rate": ..., "compile_s": ...,
                 "execute_s": ...},
      "parallel": {"cpu_count": C,
                   "groups": [{"group": "per_cluster/n=100",
                               "rows": [{"workers": 1, "mean_s": ...,
                                         "speedup": 1.0}, ...]}]},
      "retry_overhead": {"groups": [{"group": "per_cluster/n=100",
                                     "rows": [{"retries": 0, "mean_s": ...,
                                               "overhead": null},
                                              {"retries": 2, "mean_s": ...,
                                               "overhead": 1.01}]}]},
      "resume_overhead": {"groups": [{"group": "unary/n=100",
                                      "rows": [{"mode": "uninterrupted",
                                                "mean_s": ..., "steps": S,
                                                "overhead": null,
                                                "wall_overhead": null},
                                               {"mode": "resumed",
                                                "mean_s": ..., "steps": S2,
                                                "overhead": 1.002,
                                                "wall_overhead": 1.31}]}]},
      "kernels": {"groups": [{"group": "unary/n=100",
                              "rows": [{"impl": "reference", "mean_s": ...},
                                       {"impl": "columnar", "mean_s": ...,
                                        "vs_reference": 0.6,
                                        "peak_rss_kb": ...}],
                              "rss_delta_kb": ...}]},
      "approx": {"groups": [{"group": "dense/n=40",
                             "rows": [{"mode": "exact", "mean_s": ...},
                                      {"mode": "approx", "mean_s": ...,
                                       "vs_exact": 0.4,
                                       "relative_error": 0.03,
                                       "epsilon": 0.1,
                                       "samples": 1500}]}],
                 "max_relative_error": 0.03,
                 "within_epsilon": true},
      "service": {"schema": "repro-load/1", "quick": true,
                  "scenarios": [{"mix": "uniform", "offered": ...,
                                 "completed": ..., "shed": {...},
                                 "killed": 0, "resumes": ...,
                                 "degraded": ...,
                                 "latency_p50_s": ..., "latency_p99_s": ...,
                                 "throughput_rps": ...}, ...],
                  "totals": {...}},
      "baseline_delta": {"file": "BENCH_pr4.json", "common": M,
                         "speedup_geomean": ..., "rows": [...]}
    }

Schema 3 added the compile-once plan layer's split: per benchmark, the
plan-cache hit rate (``plan.cache.hit`` / ``plan.cache.miss`` counters)
and the time spent compiling plans (the ``plan.compile.seconds``
histogram's total); in the totals, ``execute_s`` is the measured wall
time minus the compile share.  When a baseline report (default:
``BENCH_pr3.json``) is present, the runner also emits a per-benchmark
delta table — baseline mean vs new mean — so regressions are visible in
the artifact itself.

Schema 4 adds the ``parallel`` section: benchmarks that tag themselves
with ``extra_info["parallel_group"]`` and ``extra_info["workers"]``
(``benchmarks/bench_parallel.py``) are grouped, and each row's *speedup*
is the group's workers=1 mean over this row's mean (>1.0 is faster).
``cpu_count`` is recorded alongside because thread-backend speedups are
bounded by the core count (and, on CPython, the GIL): a ~1.0x table on a
one-core runner is the expected honest result, not a defect.

Schema 5 adds the ``retry_overhead`` section: benchmarks tagged with
``extra_info["retry_group"]`` and ``extra_info["retries"]``
(``benchmarks/bench_retry.py``) are grouped, and each row's *overhead* is
this row's mean over the group's retries=0 mean — the cost of arming the
retry machinery on a fault-free run, with < 1.05 as the acceptance
target.

Schema 6 adds the ``resume_overhead`` section: benchmarks tagged with
``extra_info["preempt_group"]`` and ``extra_info["mode"]``
(``benchmarks/bench_preempt.py``) are grouped, and each ``resumed`` row's
*overhead* is its ``extra_info["steps"]`` (engine steps across both
quanta) over the group's ``uninterrupted`` steps — the evaluation work
re-done because of the suspension.  The target is <= 1.05x: restored
strata/memo state must make the second quantum skip what the first one
paid for.  ``wall_overhead`` (resumed mean over uninterrupted mean) is
reported alongside; it additionally includes the constant checkpoint
export/save/load/restore cost, so it exceeds the step ratio on small
workloads.

Schema 7 added a ``routing`` section (auto-routed vs fixed cascade);
schema 11 removes it together with the cost router it measured.

Schema 8 adds the ``kernels`` section: benchmarks tagged with
``extra_info["kernel_group"]`` and ``extra_info["impl"]``
(``benchmarks/bench_kernels.py``) are grouped, and each ``columnar``
row's *vs_reference* is its mean over the group's ``reference`` mean —
the ISSUE 8 acceptance target is <= 1.0 (the id-space kernels must not
be slower than the preserved element-space implementations they
replaced; both sides assert byte-identical answers in the bench itself).
Each row also carries ``peak_rss_kb`` (``resource.getrusage``'s
ru_maxrss after the row ran) and the group reports ``rss_delta_kb``
(columnar minus reference).  ru_maxrss is process-monotonic, so the
delta depends on execution order and is context, not a gate.

Schema 9 adds the ``approx`` section: benchmarks tagged with
``extra_info["approx_group"]`` and ``extra_info["engine_mode"]``
(``benchmarks/bench_approx.py``) are grouped, and each ``approx`` row's
*vs_exact* is its mean over the group's ``exact`` mean — the
approx-vs-exact latency ratio at a size where brute force still
terminates.  Approx rows additionally carry the observed
``relative_error`` of the sampled estimate against the exact count, the
``epsilon`` the run was planned for, and the ``samples`` drawn; the
section-level ``max_relative_error`` and ``within_epsilon`` flag feed the
ISSUE 9 acceptance gate (observed error <= epsilon on every
feasible-exact bench).

Schema 10 adds the ``service`` section: the runner invokes
``tools/load_runner.py`` (``--quick`` in quick mode) and embeds its
``repro-load/1`` report — per tenant-mix scenario (uniform, zipf, hot)
the offered/admitted/completed request counts, the typed shed breakdown
and shed rate, the killed count (must be 0: admitted work is suspended
and resumed, never killed), preemption resumes, degraded (approximate)
answer counts, latency p50/p99 and throughput.  The section is skipped
for ``-k``-filtered runs and with ``--no-service``; when present it must
gate-pass (zero killed, zero orphaned checkpoints, exact answers equal
to the unloaded serial run).

Usage::

    python tools/bench_runner.py --quick              # smoke pass (seconds)
    python tools/bench_runner.py                      # full pass (minutes)
    python tools/bench_runner.py --validate BENCH_pr3.json

``--quick`` selects the small parameter points (via ``REPRO_BENCH_QUICK``;
the ceilings live in ``benchmarks/conftest.py``) and caps rounds, so CI can
afford it on every push.  ``--validate`` checks an existing report against
the schema without running anything — the CI smoke job uses it to keep the
emitted artifact honest.  The schema validator is hand-rolled: no
``jsonschema`` dependency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_NAME = "repro-bench/11"

#: Extra pytest flags for --quick: one round per benchmark, warmup off.
QUICK_FLAGS = (
    "--benchmark-min-rounds=1",
    "--benchmark-max-time=0.25",
    "--benchmark-warmup=off",
)


def run_benchmarks(
    quick: bool,
    select: "Optional[str]" = None,
    extra_args: "Optional[List[str]]" = None,
) -> Dict:
    """Run the suites, return the condensed report dict.

    Raises :class:`RuntimeError` when pytest fails for a reason other than
    "no tests collected for this filter".
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        raw_path = Path(tmp) / "pytest-benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/",
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
            "-q",
            "-p",
            "no:cacheprovider",
        ]
        if quick:
            command.extend(QUICK_FLAGS)
        if select:
            command.extend(["-k", select])
        if extra_args:
            command.extend(extra_args)

        env = dict(os.environ)
        env["REPRO_BENCH_METRICS"] = "1"
        if quick:
            env["REPRO_BENCH_QUICK"] = "1"
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )

        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        # Exit code 5 is "no tests collected" (an over-narrow -k filter);
        # everything else non-zero is a genuine failure.
        if completed.returncode not in (0, 5):
            sys.stderr.write(completed.stdout)
            raise RuntimeError(
                f"pytest exited with code {completed.returncode}"
            )
        raw = (
            json.loads(raw_path.read_text())
            if raw_path.exists()
            else {"benchmarks": []}
        )
    return condense(raw, quick=quick)


def condense(raw: Dict, quick: bool) -> Dict:
    """Fold a pytest-benchmark JSON payload into the repro-bench schema."""
    benchmarks: List[Dict] = []
    total_wall = 0.0
    memo_hits = 0
    memo_misses = 0
    plan_hits = 0
    plan_misses = 0
    total_compile = 0.0
    for entry in raw.get("benchmarks", []):
        stats = entry.get("stats", {})
        extra = dict(entry.get("extra_info", {}))
        metrics = extra.pop("metrics", None)
        memo_hit_rate = extra.pop("memo_hit_rate", None)
        mean = float(stats.get("mean", 0.0))
        rounds = int(stats.get("rounds", 0))
        total_wall += mean * rounds
        plan_cache_hit_rate = None
        compile_s = None
        if metrics:
            counters = metrics.get("counters", {})
            memo_hits += sum(
                v for k, v in counters.items() if k.endswith(".memo.hit")
            )
            memo_misses += sum(
                v for k, v in counters.items() if k.endswith(".memo.miss")
            )
            hits = counters.get("plan.cache.hit", 0)
            misses = counters.get("plan.cache.miss", 0)
            plan_hits += hits
            plan_misses += misses
            if hits + misses:
                plan_cache_hit_rate = hits / (hits + misses)
            histogram = (metrics.get("histograms") or {}).get(
                "plan.compile.seconds"
            )
            if histogram is not None:
                compile_s = float(histogram.get("total", 0.0))
                total_compile += compile_s
        benchmarks.append(
            {
                "name": entry.get("name", ""),
                "module": Path(entry.get("fullname", "")).name.split("::")[0]
                .removesuffix(".py"),
                "group": entry.get("group"),
                "mean_s": mean,
                "stddev_s": float(stats.get("stddev", 0.0)),
                "min_s": float(stats.get("min", 0.0)),
                "rounds": rounds,
                "extra_info": extra,
                "metrics": metrics,
                "memo_hit_rate": memo_hit_rate,
                "plan_cache_hit_rate": plan_cache_hit_rate,
                "compile_s": compile_s,
            }
        )
    total = memo_hits + memo_misses
    plan_total = plan_hits + plan_misses
    parallel = parallel_section(benchmarks)
    retry_overhead = retry_section(benchmarks)
    resume_overhead = resume_section(benchmarks)
    kernels = kernel_section(benchmarks)
    approx = approx_section(benchmarks)
    report = {
        "schema": SCHEMA_NAME,
        "quick": quick,
        "machine_info": raw.get("machine_info", {}),
        "benchmarks": benchmarks,
        "totals": {
            "benchmarks": len(benchmarks),
            "wall_s": total_wall,
            "memo_hits": memo_hits,
            "memo_misses": memo_misses,
            "memo_hit_rate": (memo_hits / total) if total else None,
            "plan_cache_hits": plan_hits,
            "plan_cache_misses": plan_misses,
            "plan_cache_hit_rate": (
                (plan_hits / plan_total) if plan_total else None
            ),
            "compile_s": total_compile,
            "execute_s": max(total_wall - total_compile, 0.0),
        },
        "parallel": parallel,
        "retry_overhead": retry_overhead,
        "resume_overhead": resume_overhead,
        "kernels": kernels,
        "approx": approx,
    }
    return report


def parallel_section(benchmarks: List[Dict]) -> Dict:
    """Fold the worker-sweep benchmarks into a speedup table.

    Rows come from benchmarks that tagged ``extra_info`` with
    ``parallel_group`` and ``workers``; each group's workers=1 row is the
    denominator (speedup = serial mean / this mean, so >1.0 is faster).
    ``cpu_count`` contextualises the table: thread speedups cannot exceed
    the core count, so a flat table on a small runner is expected.
    """
    grouped: "Dict[str, List[Dict]]" = {}
    for bench in benchmarks:
        extra = bench.get("extra_info") or {}
        group = extra.get("parallel_group")
        workers = extra.get("workers")
        if not isinstance(group, str) or not isinstance(workers, int):
            continue
        grouped.setdefault(group, []).append(
            {"workers": workers, "mean_s": bench["mean_s"], "name": bench["name"]}
        )
    groups = []
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda row: row["workers"])
        serial = next(
            (row["mean_s"] for row in rows if row["workers"] == 1), None
        )
        for row in rows:
            row["speedup"] = (
                serial / row["mean_s"]
                if serial and row["mean_s"] > 0
                else None
            )
        groups.append({"group": group, "rows": rows})
    return {"cpu_count": os.cpu_count(), "groups": groups}


def parallel_table(parallel: Dict) -> List[str]:
    """A printable serial-vs-parallel speedup table."""
    lines = [f"parallel speedups (cpu_count={parallel.get('cpu_count')})"]
    for group in parallel.get("groups", []):
        cells = ", ".join(
            f"{row['workers']}w: "
            + (f"{row['speedup']:.2f}x" if row["speedup"] is not None else "n/a")
            for row in group["rows"]
        )
        lines.append(f"  {group['group']:<28} {cells}")
    if len(lines) == 1:
        lines.append("  (no worker-sweep benchmarks in this run)")
    return lines


def retry_section(benchmarks: List[Dict]) -> Dict:
    """Fold the retry-sweep benchmarks into an overhead table.

    Rows come from benchmarks that tagged ``extra_info`` with
    ``retry_group`` and ``retries``; each group's retries=0 row is the
    denominator (overhead = this mean / plain mean, so 1.0 is free and
    the PR 5 acceptance target is < 1.05 on fault-free runs).
    """
    grouped: "Dict[str, List[Dict]]" = {}
    for bench in benchmarks:
        extra = bench.get("extra_info") or {}
        group = extra.get("retry_group")
        retries = extra.get("retries")
        if not isinstance(group, str) or not isinstance(retries, int):
            continue
        grouped.setdefault(group, []).append(
            {"retries": retries, "mean_s": bench["mean_s"], "name": bench["name"]}
        )
    groups = []
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda row: row["retries"])
        plain = next(
            (row["mean_s"] for row in rows if row["retries"] == 0), None
        )
        for row in rows:
            row["overhead"] = (
                row["mean_s"] / plain
                if plain and row["mean_s"] > 0 and row["retries"] > 0
                else None
            )
        groups.append({"group": group, "rows": rows})
    return {"groups": groups}


def retry_table(retry_overhead: Dict) -> List[str]:
    """A printable retry-armed vs plain overhead table."""
    lines = ["retry overhead (armed vs plain, fault-free; target < 1.05x)"]
    for group in retry_overhead.get("groups", []):
        cells = ", ".join(
            f"r={row['retries']}: "
            + (
                f"{row['overhead']:.3f}x"
                if row["overhead"] is not None
                else f"{row['mean_s'] * 1e3:.3f}ms"
            )
            for row in group["rows"]
        )
        lines.append(f"  {group['group']:<28} {cells}")
    if len(lines) == 1:
        lines.append("  (no retry-sweep benchmarks in this run)")
    return lines


def resume_section(benchmarks: List[Dict]) -> Dict:
    """Fold the preemption benchmarks into a resume-overhead table.

    Rows come from benchmarks that tagged ``extra_info`` with
    ``preempt_group`` and ``mode`` (``"uninterrupted"`` or ``"resumed"``);
    each group's uninterrupted row is the denominator.  ``overhead`` is
    the step ratio (resumed steps / uninterrupted steps — the PR 6
    acceptance target is <= 1.05x); ``wall_overhead`` is the wall-clock
    ratio, which also carries the constant checkpoint I/O cost.
    """
    grouped: "Dict[str, List[Dict]]" = {}
    for bench in benchmarks:
        extra = bench.get("extra_info") or {}
        group = extra.get("preempt_group")
        mode = extra.get("mode")
        if not isinstance(group, str) or mode not in (
            "uninterrupted",
            "resumed",
        ):
            continue
        row = {"mode": mode, "mean_s": bench["mean_s"], "name": bench["name"]}
        steps = extra.get("steps")
        if isinstance(steps, int):
            row["steps"] = steps
        grouped.setdefault(group, []).append(row)
    groups = []
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda row: row["mode"], reverse=True)
        plain = next(
            (r for r in rows if r["mode"] == "uninterrupted"), None
        )
        for row in rows:
            row["overhead"] = None
            row["wall_overhead"] = None
            if row["mode"] != "resumed" or plain is None:
                continue
            base_steps = plain.get("steps")
            if base_steps and isinstance(row.get("steps"), int):
                row["overhead"] = row["steps"] / base_steps
            if plain["mean_s"] > 0 and row["mean_s"] > 0:
                row["wall_overhead"] = row["mean_s"] / plain["mean_s"]
        groups.append({"group": group, "rows": rows})
    return {"groups": groups}


def resume_table(resume_overhead: Dict) -> List[str]:
    """A printable resumed-vs-uninterrupted overhead table."""
    lines = ["resume overhead (re-done steps after suspend; target <= 1.05x)"]
    for group in resume_overhead.get("groups", []):
        cells = []
        for row in group["rows"]:
            if row.get("overhead") is not None:
                cell = f"{row['mode']}: {row['overhead']:.3f}x steps"
                if row.get("wall_overhead") is not None:
                    cell += f" ({row['wall_overhead']:.2f}x wall)"
            else:
                cell = f"{row['mode']}: {row['mean_s'] * 1e3:.3f}ms"
            cells.append(cell)
        lines.append(f"  {group['group']:<28} {', '.join(cells)}")
    if len(lines) == 1:
        lines.append("  (no preemption benchmarks in this run)")
    return lines


def kernel_section(benchmarks: List[Dict]) -> Dict:
    """Fold the kernel-parity benchmarks into a columnar-vs-reference table.

    Rows come from benchmarks that tagged ``extra_info`` with
    ``kernel_group`` and ``impl`` (``"columnar"`` or ``"reference"``);
    each group's reference row is the denominator (``vs_reference`` =
    columnar mean over reference mean — <= 1.0 means the id-space
    kernels pay for themselves).  ``peak_rss_kb`` is copied through per
    row and ``rss_delta_kb`` (columnar minus reference) is reported per
    group; ru_maxrss is process-monotonic, so the delta is
    ordering-dependent context, not a gate.
    """
    grouped: "Dict[str, List[Dict]]" = {}
    for bench in benchmarks:
        extra = bench.get("extra_info") or {}
        group = extra.get("kernel_group")
        impl = extra.get("impl")
        if not isinstance(group, str) or impl not in ("columnar", "reference"):
            continue
        row = {"impl": impl, "mean_s": bench["mean_s"], "name": bench["name"]}
        rss = extra.get("peak_rss_kb")
        if isinstance(rss, int):
            row["peak_rss_kb"] = rss
        grouped.setdefault(group, []).append(row)
    groups = []
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda row: row["impl"])
        reference = next(
            (row for row in rows if row["impl"] == "reference"), None
        )
        rss_delta = None
        for row in rows:
            row["vs_reference"] = None
            if row["impl"] != "columnar" or reference is None:
                continue
            if reference["mean_s"] > 0 and row["mean_s"] > 0:
                row["vs_reference"] = row["mean_s"] / reference["mean_s"]
            if "peak_rss_kb" in row and "peak_rss_kb" in reference:
                rss_delta = row["peak_rss_kb"] - reference["peak_rss_kb"]
        groups.append(
            {"group": group, "rows": rows, "rss_delta_kb": rss_delta}
        )
    return {"groups": groups}


def kernel_table(kernels: Dict) -> List[str]:
    """A printable columnar-vs-reference kernel table."""
    lines = ["kernels (columnar vs element-space reference; target <= 1.00x)"]
    for group in kernels.get("groups", []):
        cells = ", ".join(
            f"{row['impl']}: "
            + (
                f"{row['vs_reference']:.3f}x"
                if row.get("vs_reference") is not None
                else f"{row['mean_s'] * 1e3:.3f}ms"
            )
            for row in group["rows"]
        )
        delta = group.get("rss_delta_kb")
        if delta is not None:
            cells += f" (rss delta {delta:+d}kB)"
        lines.append(f"  {group['group']:<28} {cells}")
    if len(lines) == 1:
        lines.append("  (no kernel-parity benchmarks in this run)")
    return lines


def approx_section(benchmarks: List[Dict]) -> Dict:
    """Fold the sampling-tier benchmarks into an approx-vs-exact table.

    Rows come from benchmarks that tagged ``extra_info`` with
    ``approx_group`` and ``engine_mode`` (``"exact"`` or ``"approx"``);
    each group's exact row is the denominator (``vs_exact`` = approx mean
    over exact mean).  Approx rows copy through the observed
    ``relative_error`` against the exact count plus the planned
    ``epsilon`` and ``samples`` drawn; ``max_relative_error`` is the
    worst observed error across groups and ``within_epsilon`` is the
    acceptance flag — every observed error stayed at or below its row's
    epsilon (vacuously true with no approx rows, null when an approx row
    carried no measurable error).
    """
    grouped: "Dict[str, List[Dict]]" = {}
    for bench in benchmarks:
        extra = bench.get("extra_info") or {}
        group = extra.get("approx_group")
        mode = extra.get("engine_mode")
        if not isinstance(group, str) or mode not in ("exact", "approx"):
            continue
        row = {"mode": mode, "mean_s": bench["mean_s"], "name": bench["name"]}
        if mode == "approx":
            for key in ("relative_error", "epsilon"):
                value = extra.get(key)
                if isinstance(value, (int, float)):
                    row[key] = float(value)
            samples = extra.get("samples")
            if isinstance(samples, int):
                row["samples"] = samples
        grouped.setdefault(group, []).append(row)
    groups = []
    max_error: "Optional[float]" = None
    missing_error = False
    violated = False
    for group in sorted(grouped):
        rows = sorted(grouped[group], key=lambda row: row["mode"])
        exact = next(
            (row["mean_s"] for row in rows if row["mode"] == "exact"), None
        )
        for row in rows:
            row["vs_exact"] = (
                row["mean_s"] / exact
                if row["mode"] == "approx" and exact and row["mean_s"] > 0
                else None
            )
            if row["mode"] != "approx":
                continue
            error = row.get("relative_error")
            epsilon = row.get("epsilon")
            if error is None:
                missing_error = True
                continue
            if max_error is None or error > max_error:
                max_error = error
            if epsilon is not None and error > epsilon:
                violated = True
        groups.append({"group": group, "rows": rows})
    within: "Optional[bool]"
    if violated:
        within = False
    elif missing_error:
        within = None
    else:
        within = True
    return {
        "groups": groups,
        "max_relative_error": max_error,
        "within_epsilon": within,
    }


def approx_table(approx: Dict) -> List[str]:
    """A printable approx-vs-exact sampling-tier table."""
    lines = ["approx (sampling vs exact count; observed error target <= eps)"]
    for group in approx.get("groups", []):
        cells = []
        for row in group["rows"]:
            if row.get("vs_exact") is not None:
                cell = f"{row['mode']}: {row['vs_exact']:.3f}x"
            else:
                cell = f"{row['mode']}: {row['mean_s'] * 1e3:.3f}ms"
            error = row.get("relative_error")
            if error is not None:
                eps = row.get("epsilon")
                eps_text = f"{eps:g}" if eps is not None else "?"
                cell += f" (err {error:.1%} vs eps {eps_text})"
            cells.append(cell)
        lines.append(f"  {group['group']:<28} {', '.join(cells)}")
    if len(lines) == 1:
        lines.append("  (no sampling-tier benchmarks in this run)")
        return lines
    max_error = approx.get("max_relative_error")
    within = approx.get("within_epsilon")
    error_text = f"{max_error:.1%}" if max_error is not None else "n/a"
    within_text = (
        "yes" if within is True else "NO" if within is False else "n/a"
    )
    lines.append(
        f"  max relative error {error_text}, within epsilon: {within_text}"
    )
    return lines


def service_section(quick: bool) -> Dict:
    """Run ``tools/load_runner.py`` and return its ``repro-load/1`` report.

    The load harness is a separate process so its asyncio event loop,
    signal handling and metrics registry cannot leak into the benchmark
    process.  Gate failures (killed queries, orphaned checkpoints,
    mismatched answers) surface as a non-zero exit and raise here — a
    bench report must never embed a failing service run.
    """
    with tempfile.TemporaryDirectory(prefix="repro-load-") as tmp:
        out_path = Path(tmp) / "load.json"
        command = [
            sys.executable,
            str(REPO_ROOT / "tools" / "load_runner.py"),
            "--output",
            str(out_path),
        ]
        if quick:
            command.append("--quick")
        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout)
            raise RuntimeError(
                f"load_runner exited with code {completed.returncode}"
            )
        return json.loads(out_path.read_text())


def service_table(service: Dict) -> List[str]:
    """A printable multi-tenant load table (one row per mix scenario)."""
    lines = ["service (multi-tenant load; killed must be 0)"]
    for row in service.get("scenarios", []):
        shed = sum((row.get("shed") or {}).values())
        p50 = row.get("latency_p50_s")
        p99 = row.get("latency_p99_s")
        latency = (
            f"p50 {p50 * 1e3:.1f}ms p99 {p99 * 1e3:.1f}ms"
            if p50 is not None and p99 is not None
            else "no completions"
        )
        lines.append(
            f"  {row.get('mix', '?'):<10} offered {row.get('offered', 0):>4} "
            f"completed {row.get('completed', 0):>4} "
            f"shed {shed:>4} ({row.get('shed_rate', 0.0):.0%}) "
            f"killed {row.get('killed', 0)} "
            f"resumes {row.get('resumes', 0):>3} "
            f"degraded {row.get('degraded', 0):>3} {latency}"
        )
    if len(lines) == 1:
        lines.append("  (no load scenarios in this run)")
        return lines
    totals = service.get("totals") or {}
    lines.append(
        f"  totals: {totals.get('completed', 0)}/{totals.get('offered', 0)} "
        f"completed, {totals.get('shed', 0)} shed (typed), "
        f"{totals.get('killed', 0)} killed, "
        f"answers_ok={totals.get('answers_ok')}"
    )
    return lines


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def baseline_delta(report: Dict, baseline: Dict, filename: str) -> Dict:
    """Per-benchmark deltas against an earlier report (any schema version).

    Benchmarks are matched on ``(module, name)``; ``ratio`` is new mean
    over baseline mean, so values below 1.0 are speedups.
    """
    older = {
        (bench.get("module"), bench.get("name")): bench
        for bench in baseline.get("benchmarks", [])
    }
    rows: List[Dict] = []
    ratios: List[float] = []
    for bench in report.get("benchmarks", []):
        before = older.get((bench.get("module"), bench.get("name")))
        if before is None:
            continue
        base_mean = float(before.get("mean_s", 0.0))
        mean = float(bench.get("mean_s", 0.0))
        ratio = (mean / base_mean) if base_mean > 0 and mean > 0 else None
        if ratio is not None:
            ratios.append(ratio)
        rows.append(
            {
                "name": bench.get("name"),
                "module": bench.get("module"),
                "base_mean_s": base_mean,
                "mean_s": mean,
                "ratio": ratio,
            }
        )
    geomean = None
    if ratios:
        log_sum = sum(math.log(r) for r in ratios)
        geomean = math.exp(log_sum / len(ratios))
    return {
        "file": filename,
        "baseline_schema": baseline.get("schema"),
        "common": len(rows),
        "speedup_geomean": geomean,
        "rows": rows,
    }


def delta_table(delta: Dict, limit: int = 12) -> List[str]:
    """A printable table of the largest movers (both directions)."""
    rows = [row for row in delta["rows"] if row["ratio"] is not None]
    rows.sort(key=lambda row: abs(math.log(row["ratio"])), reverse=True)
    lines = [
        f"delta vs {delta['file']} ({delta['common']} shared benchmark(s), "
        + (
            f"geomean ratio {delta['speedup_geomean']:.3f})"
            if delta["speedup_geomean"] is not None
            else "no comparable timings)"
        ),
        f"  {'benchmark':<58} {'base_ms':>9} {'new_ms':>9} {'ratio':>7}",
    ]
    for row in rows[:limit]:
        name = f"{row['module']}::{row['name']}"
        if len(name) > 58:
            name = name[:55] + "..."
        lines.append(
            f"  {name:<58} {row['base_mean_s'] * 1e3:>9.3f} "
            f"{row['mean_s'] * 1e3:>9.3f} {row['ratio']:>7.3f}"
        )
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more in the report")
    return lines


# ---------------------------------------------------------------------------
# Schema validation (hand-rolled; no jsonschema dependency)
# ---------------------------------------------------------------------------


def validate_report(report: Dict) -> List[str]:
    """Return a list of schema violations (empty means valid)."""
    problems: List[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    check(isinstance(report, dict), "report must be an object")
    if not isinstance(report, dict):
        return problems
    check(report.get("schema") == SCHEMA_NAME, f"schema must be {SCHEMA_NAME!r}")
    check(isinstance(report.get("quick"), bool), "quick must be a boolean")
    benchmarks = report.get("benchmarks")
    check(isinstance(benchmarks, list), "benchmarks must be a list")
    for i, bench in enumerate(benchmarks or []):
        where = f"benchmarks[{i}]"
        if not isinstance(bench, dict):
            problems.append(f"{where} must be an object")
            continue
        check(
            isinstance(bench.get("name"), str) and bench["name"],
            f"{where}.name must be a non-empty string",
        )
        check(isinstance(bench.get("module"), str), f"{where}.module must be a string")
        for key in ("mean_s", "stddev_s", "min_s"):
            value = bench.get(key)
            check(
                isinstance(value, (int, float)) and value >= 0,
                f"{where}.{key} must be a non-negative number",
            )
        check(
            isinstance(bench.get("rounds"), int) and bench["rounds"] >= 1,
            f"{where}.rounds must be a positive integer",
        )
        for key in ("memo_hit_rate", "plan_cache_hit_rate"):
            rate = bench.get(key)
            check(
                rate is None
                or (isinstance(rate, (int, float)) and 0 <= rate <= 1),
                f"{where}.{key} must be null or in [0, 1]",
            )
        compile_s = bench.get("compile_s")
        check(
            compile_s is None
            or (isinstance(compile_s, (int, float)) and compile_s >= 0),
            f"{where}.compile_s must be null or a non-negative number",
        )
        metrics = bench.get("metrics")
        if metrics is not None:
            check(
                isinstance(metrics, dict)
                and isinstance(metrics.get("counters"), dict)
                and isinstance(metrics.get("histograms"), dict),
                f"{where}.metrics must have counters and histograms objects",
            )
            if isinstance(metrics, dict):
                for name, value in (metrics.get("counters") or {}).items():
                    check(
                        isinstance(value, int) and value >= 0,
                        f"{where}.metrics.counters[{name!r}] must be a "
                        "non-negative integer",
                    )
    totals = report.get("totals")
    check(isinstance(totals, dict), "totals must be an object")
    if isinstance(totals, dict):
        check(
            totals.get("benchmarks") == len(benchmarks or []),
            "totals.benchmarks must equal len(benchmarks)",
        )
        for key in ("wall_s", "compile_s", "execute_s"):
            value = totals.get(key)
            check(
                isinstance(value, (int, float)) and value >= 0,
                f"totals.{key} must be a non-negative number",
            )
        for key in ("memo_hit_rate", "plan_cache_hit_rate"):
            rate = totals.get(key)
            check(
                rate is None
                or (isinstance(rate, (int, float)) and 0 <= rate <= 1),
                f"totals.{key} must be null or in [0, 1]",
            )
    parallel = report.get("parallel")
    check(isinstance(parallel, dict), "parallel must be an object")
    if isinstance(parallel, dict):
        cpu_count = parallel.get("cpu_count")
        check(
            cpu_count is None or (isinstance(cpu_count, int) and cpu_count >= 1),
            "parallel.cpu_count must be null or a positive integer",
        )
        groups = parallel.get("groups")
        check(isinstance(groups, list), "parallel.groups must be a list")
        for i, group in enumerate(groups or []):
            where = f"parallel.groups[{i}]"
            if not isinstance(group, dict):
                problems.append(f"{where} must be an object")
                continue
            check(
                isinstance(group.get("group"), str) and group["group"],
                f"{where}.group must be a non-empty string",
            )
            rows = group.get("rows")
            check(isinstance(rows, list) and rows, f"{where}.rows must be a non-empty list")
            for j, row in enumerate(rows or []):
                where_row = f"{where}.rows[{j}]"
                if not isinstance(row, dict):
                    problems.append(f"{where_row} must be an object")
                    continue
                check(
                    isinstance(row.get("workers"), int) and row["workers"] >= 1,
                    f"{where_row}.workers must be a positive integer",
                )
                mean = row.get("mean_s")
                check(
                    isinstance(mean, (int, float)) and mean >= 0,
                    f"{where_row}.mean_s must be a non-negative number",
                )
                speedup = row.get("speedup")
                check(
                    speedup is None
                    or (isinstance(speedup, (int, float)) and speedup >= 0),
                    f"{where_row}.speedup must be null or non-negative",
                )
    retry_overhead = report.get("retry_overhead")
    check(isinstance(retry_overhead, dict), "retry_overhead must be an object")
    if isinstance(retry_overhead, dict):
        groups = retry_overhead.get("groups")
        check(isinstance(groups, list), "retry_overhead.groups must be a list")
        for i, group in enumerate(groups or []):
            where = f"retry_overhead.groups[{i}]"
            if not isinstance(group, dict):
                problems.append(f"{where} must be an object")
                continue
            check(
                isinstance(group.get("group"), str) and group["group"],
                f"{where}.group must be a non-empty string",
            )
            rows = group.get("rows")
            check(
                isinstance(rows, list) and rows,
                f"{where}.rows must be a non-empty list",
            )
            for j, row in enumerate(rows or []):
                where_row = f"{where}.rows[{j}]"
                if not isinstance(row, dict):
                    problems.append(f"{where_row} must be an object")
                    continue
                check(
                    isinstance(row.get("retries"), int) and row["retries"] >= 0,
                    f"{where_row}.retries must be a non-negative integer",
                )
                mean = row.get("mean_s")
                check(
                    isinstance(mean, (int, float)) and mean >= 0,
                    f"{where_row}.mean_s must be a non-negative number",
                )
                overhead = row.get("overhead")
                check(
                    overhead is None
                    or (isinstance(overhead, (int, float)) and overhead >= 0),
                    f"{where_row}.overhead must be null or non-negative",
                )
    resume_overhead = report.get("resume_overhead")
    check(isinstance(resume_overhead, dict), "resume_overhead must be an object")
    if isinstance(resume_overhead, dict):
        groups = resume_overhead.get("groups")
        check(isinstance(groups, list), "resume_overhead.groups must be a list")
        for i, group in enumerate(groups or []):
            where = f"resume_overhead.groups[{i}]"
            if not isinstance(group, dict):
                problems.append(f"{where} must be an object")
                continue
            check(
                isinstance(group.get("group"), str) and group["group"],
                f"{where}.group must be a non-empty string",
            )
            rows = group.get("rows")
            check(
                isinstance(rows, list) and rows,
                f"{where}.rows must be a non-empty list",
            )
            for j, row in enumerate(rows or []):
                where_row = f"{where}.rows[{j}]"
                if not isinstance(row, dict):
                    problems.append(f"{where_row} must be an object")
                    continue
                check(
                    row.get("mode") in ("uninterrupted", "resumed"),
                    f"{where_row}.mode must be 'uninterrupted' or 'resumed'",
                )
                mean = row.get("mean_s")
                check(
                    isinstance(mean, (int, float)) and mean >= 0,
                    f"{where_row}.mean_s must be a non-negative number",
                )
                overhead = row.get("overhead")
                check(
                    overhead is None
                    or (isinstance(overhead, (int, float)) and overhead >= 0),
                    f"{where_row}.overhead must be null or non-negative",
                )
                wall = row.get("wall_overhead")
                check(
                    wall is None
                    or (isinstance(wall, (int, float)) and wall >= 0),
                    f"{where_row}.wall_overhead must be null or non-negative",
                )
                steps = row.get("steps")
                check(
                    steps is None or (isinstance(steps, int) and steps >= 0),
                    f"{where_row}.steps must be null or a non-negative integer",
                )
    kernels = report.get("kernels")
    check(isinstance(kernels, dict), "kernels must be an object")
    if isinstance(kernels, dict):
        groups = kernels.get("groups")
        check(isinstance(groups, list), "kernels.groups must be a list")
        for i, group in enumerate(groups or []):
            where = f"kernels.groups[{i}]"
            if not isinstance(group, dict):
                problems.append(f"{where} must be an object")
                continue
            check(
                isinstance(group.get("group"), str) and group["group"],
                f"{where}.group must be a non-empty string",
            )
            rss_delta = group.get("rss_delta_kb")
            check(
                rss_delta is None or isinstance(rss_delta, int),
                f"{where}.rss_delta_kb must be null or an integer",
            )
            rows = group.get("rows")
            check(
                isinstance(rows, list) and rows,
                f"{where}.rows must be a non-empty list",
            )
            for j, row in enumerate(rows or []):
                where_row = f"{where}.rows[{j}]"
                if not isinstance(row, dict):
                    problems.append(f"{where_row} must be an object")
                    continue
                check(
                    row.get("impl") in ("columnar", "reference"),
                    f"{where_row}.impl must be 'columnar' or 'reference'",
                )
                mean = row.get("mean_s")
                check(
                    isinstance(mean, (int, float)) and mean >= 0,
                    f"{where_row}.mean_s must be a non-negative number",
                )
                ratio = row.get("vs_reference")
                check(
                    ratio is None
                    or (isinstance(ratio, (int, float)) and ratio >= 0),
                    f"{where_row}.vs_reference must be null or non-negative",
                )
                rss = row.get("peak_rss_kb")
                check(
                    rss is None or (isinstance(rss, int) and rss >= 0),
                    f"{where_row}.peak_rss_kb must be null or a "
                    "non-negative integer",
                )
    approx = report.get("approx")
    check(isinstance(approx, dict), "approx must be an object")
    if isinstance(approx, dict):
        groups = approx.get("groups")
        check(isinstance(groups, list), "approx.groups must be a list")
        for i, group in enumerate(groups or []):
            where = f"approx.groups[{i}]"
            if not isinstance(group, dict):
                problems.append(f"{where} must be an object")
                continue
            check(
                isinstance(group.get("group"), str) and group["group"],
                f"{where}.group must be a non-empty string",
            )
            rows = group.get("rows")
            check(
                isinstance(rows, list) and rows,
                f"{where}.rows must be a non-empty list",
            )
            for j, row in enumerate(rows or []):
                where_row = f"{where}.rows[{j}]"
                if not isinstance(row, dict):
                    problems.append(f"{where_row} must be an object")
                    continue
                check(
                    row.get("mode") in ("exact", "approx"),
                    f"{where_row}.mode must be 'exact' or 'approx'",
                )
                mean = row.get("mean_s")
                check(
                    isinstance(mean, (int, float)) and mean >= 0,
                    f"{where_row}.mean_s must be a non-negative number",
                )
                ratio = row.get("vs_exact")
                check(
                    ratio is None
                    or (isinstance(ratio, (int, float)) and ratio >= 0),
                    f"{where_row}.vs_exact must be null or non-negative",
                )
                error = row.get("relative_error")
                check(
                    error is None
                    or (isinstance(error, (int, float)) and error >= 0),
                    f"{where_row}.relative_error must be null or "
                    "non-negative",
                )
                epsilon = row.get("epsilon")
                check(
                    epsilon is None
                    or (isinstance(epsilon, (int, float)) and epsilon > 0),
                    f"{where_row}.epsilon must be null or positive",
                )
                samples = row.get("samples")
                check(
                    samples is None
                    or (isinstance(samples, int) and samples >= 0),
                    f"{where_row}.samples must be null or a "
                    "non-negative integer",
                )
        max_error = approx.get("max_relative_error")
        check(
            max_error is None
            or (isinstance(max_error, (int, float)) and max_error >= 0),
            "approx.max_relative_error must be null or non-negative",
        )
        within = approx.get("within_epsilon")
        check(
            within is None or isinstance(within, bool),
            "approx.within_epsilon must be null or a boolean",
        )
    service = report.get("service")
    if service is not None:
        check(isinstance(service, dict), "service must be an object")
        if isinstance(service, dict):
            check(
                service.get("schema") == "repro-load/1",
                "service.schema must be 'repro-load/1'",
            )
            scenarios = service.get("scenarios")
            check(
                isinstance(scenarios, list) and scenarios,
                "service.scenarios must be a non-empty list",
            )
            for i, row in enumerate(scenarios or []):
                where = f"service.scenarios[{i}]"
                if not isinstance(row, dict):
                    problems.append(f"{where} must be an object")
                    continue
                check(
                    isinstance(row.get("mix"), str) and row["mix"],
                    f"{where}.mix must be a non-empty string",
                )
                for key in (
                    "offered",
                    "admitted",
                    "completed",
                    "killed",
                    "errors",
                    "resumes",
                    "degraded",
                    "orphaned_checkpoints",
                ):
                    value = row.get(key)
                    check(
                        isinstance(value, int) and value >= 0,
                        f"{where}.{key} must be a non-negative integer",
                    )
                check(
                    row.get("killed") == 0,
                    f"{where}.killed must be 0 (suspend, never kill)",
                )
                shed = row.get("shed")
                check(isinstance(shed, dict), f"{where}.shed must be an object")
                if isinstance(shed, dict):
                    for reason, count in shed.items():
                        check(
                            isinstance(count, int) and count >= 0,
                            f"{where}.shed[{reason!r}] must be a "
                            "non-negative integer",
                        )
                rate = row.get("shed_rate")
                check(
                    isinstance(rate, (int, float)) and 0 <= rate <= 1,
                    f"{where}.shed_rate must be in [0, 1]",
                )
                for key in ("latency_p50_s", "latency_p99_s", "throughput_rps"):
                    value = row.get(key)
                    check(
                        value is None
                        or (isinstance(value, (int, float)) and value >= 0),
                        f"{where}.{key} must be null or non-negative",
                    )
            service_totals = service.get("totals")
            check(
                isinstance(service_totals, dict),
                "service.totals must be an object",
            )
            if isinstance(service_totals, dict):
                check(
                    service_totals.get("killed") == 0,
                    "service.totals.killed must be 0",
                )
                check(
                    service_totals.get("answers_ok") is True,
                    "service.totals.answers_ok must be true",
                )
    delta = report.get("baseline_delta")
    if delta is not None:
        check(isinstance(delta, dict), "baseline_delta must be an object")
        if isinstance(delta, dict):
            check(
                isinstance(delta.get("file"), str),
                "baseline_delta.file must be a string",
            )
            check(
                isinstance(delta.get("common"), int) and delta["common"] >= 0,
                "baseline_delta.common must be a non-negative integer",
            )
            check(
                isinstance(delta.get("rows"), list),
                "baseline_delta.rows must be a list",
            )
    return problems


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark suites and emit BENCH_pr10.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke pass: small parameter points only, one round each",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_pr10.json"),
        metavar="FILE",
        help="where to write the report (default: BENCH_pr10.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_pr9.json"),
        metavar="FILE",
        help="earlier report to diff against (default: BENCH_pr9.json; "
        "skipped silently when the file does not exist)",
    )
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the multi-tenant load harness (the 'service' section); "
        "-k filtered runs skip it automatically",
    )
    parser.add_argument(
        "-k",
        dest="select",
        metavar="EXPR",
        help="pytest -k selection forwarded to the suites",
    )
    parser.add_argument(
        "--validate",
        metavar="FILE",
        help="validate an existing report against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.validate:
        report = json.loads(Path(args.validate).read_text())
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(
            f"{args.validate}: valid {SCHEMA_NAME} report with "
            f"{report['totals']['benchmarks']} benchmark(s)"
        )
        return 0

    report = run_benchmarks(quick=args.quick, select=args.select)
    if not args.no_service and not args.select:
        report["service"] = service_section(quick=args.quick)
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        report["baseline_delta"] = baseline_delta(
            report, baseline, baseline_path.name
        )
    problems = validate_report(report)
    if problems:
        for problem in problems:
            print(f"internal schema violation: {problem}", file=sys.stderr)
        return 1
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    totals = report["totals"]
    rate = totals["memo_hit_rate"]
    rate_text = f"{rate:.1%}" if rate is not None else "n/a"
    plan_rate = totals["plan_cache_hit_rate"]
    plan_text = f"{plan_rate:.1%}" if plan_rate is not None else "n/a"
    print(
        f"wrote {output}: {totals['benchmarks']} benchmark(s), "
        f"{totals['wall_s']:.2f}s measured wall time "
        f"({totals['compile_s']:.3f}s compiling plans), "
        f"memo hit rate {rate_text}, plan cache hit rate {plan_text}"
    )
    for line in parallel_table(report["parallel"]):
        print(line)
    for line in retry_table(report["retry_overhead"]):
        print(line)
    for line in resume_table(report["resume_overhead"]):
        print(line)
    for line in kernel_table(report["kernels"]):
        print(line)
    for line in approx_table(report["approx"]):
        print(line)
    if "service" in report:
        for line in service_table(report["service"]):
            print(line)
    if "baseline_delta" in report:
        for line in delta_table(report["baseline_delta"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
