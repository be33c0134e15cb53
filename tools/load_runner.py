"""Load-test harness for the multi-tenant query service (ISSUE 10).

Drives :class:`repro.serve.QueryService` with seeded synthetic tenant
mixes at an offered load beyond saturation, then verifies the service's
overload contract:

* every rejection is a typed :class:`~repro.errors.AdmissionError`
  (counted per reason) — nothing is silently dropped;
* **zero admitted queries are killed**: each one completes, or is
  handed back as a ``suspended`` response with its checkpoint during a
  bounded drain;
* every completed exact answer is **byte-identical** to an unloaded
  serial run (expected values are precomputed with
  :class:`~repro.core.evaluator.Foc1Evaluator`);
* a scenario that enables degradation (the hot mix) really degrades: at
  least one of its answers comes from the sampling tier, flagged
  ``approximate=true``.

Three tenant mixes ship by default (``uniform``, ``zipf``, ``hot``) —
a flat mix, a zipf-skewed heavy-hitter mix, and a hot-query mix where
every tenant hammers one formula (exercising ``count_many`` batching).
All randomness flows through seeded :class:`random.Random` instances,
so a run is reproducible from its ``--seed``.

Usage::

    python tools/load_runner.py --quick --output LOAD.json
    python tools/load_runner.py --shed-bounds 0.05,0.95   # CI gate

Exit code 1 when any scenario kills a query, mismatches an expected
answer, enables degradation but degrades no request, or (with
``--shed-bounds``) sheds outside the given band.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.evaluator import Foc1Evaluator  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402
from repro.logic.parser import parse_formula, parse_term  # noqa: E402
from repro.serve import (  # noqa: E402
    QueryRequest,
    QueryService,
    TenantQuota,
)
from repro.structures.builders import graph_structure  # noqa: E402

SCHEMA_NAME = "repro-load/1"

#: The query catalogue: (operation, text, variables/variable).
QUERIES = (
    ("count", "E(x, y) & E(y, z)", ("x", "y", "z"), ""),
    ("count", "E(x, y)", ("x", "y"), ""),
    ("check", "forall x. @geq1(#(y). E(x, y))", (), ""),
    ("unary", "#(y). E(x, y)", (), "x"),
    ("term", "#(x, y). E(x, y)", (), ""),
)


def _random_graph(rng: random.Random, max_n: int = 10):
    n = rng.randint(4, max_n)
    vertices = list(range(1, n + 1))
    pairs = [(u, v) for u in vertices for v in vertices if u < v]
    edges = [pair for pair in pairs if rng.random() < 0.35]
    return graph_structure(vertices, edges)


def _zipf_index(rng: random.Random, n: int, alpha: float = 1.2) -> int:
    """A seeded zipf-ish draw in [0, n) via inverse CDF over 1/(k+1)^a."""
    weights = [1.0 / (k + 1) ** alpha for k in range(n)]
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for k, weight in enumerate(weights):
        acc += weight
        if point <= acc:
            return k
    return n - 1


def _expected_value(structure, operation: str, text: str, variables, variable):
    engine = Foc1Evaluator()
    if operation == "check":
        return engine.model_check(structure, parse_formula(text))
    if operation == "count":
        return engine.count(structure, parse_formula(text), list(variables))
    if operation == "term":
        return engine.ground_term_value(structure, parse_term(text))
    return dict(engine.unary_term_values(structure, parse_term(text), variable))


def build_workload(
    mix: str,
    seed: int,
    clients: int,
    rounds: int,
    tenants: int,
    structures: int,
) -> Tuple[List[QueryRequest], Dict[str, object]]:
    """Generate the scenario's requests plus an expected-answer table.

    Returns ``(requests, expected)`` where ``expected`` maps request_id
    to the serially computed exact answer.
    """
    rng = random.Random(seed)
    pool = [_random_graph(rng) for _ in range(structures)]
    expected_cache: Dict[Tuple[int, int], object] = {}
    requests: List[QueryRequest] = []
    expected: Dict[str, object] = {}
    for client in range(clients):
        for round_no in range(rounds):
            if mix == "uniform":
                tenant = f"t{rng.randrange(tenants)}"
                query_index = rng.randrange(len(QUERIES))
            elif mix == "zipf":
                tenant = f"t{_zipf_index(rng, tenants)}"
                query_index = _zipf_index(rng, len(QUERIES))
            elif mix == "hot":
                tenant = f"t{rng.randrange(tenants)}"
                query_index = 0  # everyone hammers the join count
            else:
                raise ValueError(f"unknown mix {mix!r}")
            structure_index = rng.randrange(len(pool))
            operation, text, variables, variable = QUERIES[query_index]
            request_id = f"{mix}-{client}-{round_no}"
            requests.append(
                QueryRequest(
                    tenant=tenant,
                    operation=operation,
                    structure=pool[structure_index],
                    expression=text,
                    variables=variables,
                    variable=variable,
                    request_id=request_id,
                    seed=seed,
                )
            )
            cache_key = (structure_index, query_index)
            if cache_key not in expected_cache:
                expected_cache[cache_key] = _expected_value(
                    pool[structure_index], operation, text, variables, variable
                )
            expected[request_id] = expected_cache[cache_key]
    return requests, expected


async def run_scenario(
    mix: str,
    requests: List[QueryRequest],
    expected: Dict[str, object],
    *,
    workers: int,
    clients: int,
    quantum_steps: int,
    quota: TenantQuota,
    degrade_saturation: "Optional[float]" = None,
    degrade_budget_factor: int = 8,
    epsilon: float = 0.1,
    delta: float = 0.05,
    drain_grace: "Optional[int]" = None,
) -> Dict[str, object]:
    """Replay one scenario closed-loop and fold the outcomes into a row."""
    service = QueryService(
        workers=workers,
        quantum_steps=quantum_steps,
        quota=quota,
        degrade_saturation=degrade_saturation,
        degrade_budget_factor=degrade_budget_factor,
        epsilon=epsilon,
        delta=delta,
    )
    results: List[object] = [None] * len(requests)
    cursor = 0

    async def client() -> None:
        # Closed loop with bounded retry: a shed request backs off and
        # retries a few times (deterministic exponential delays) before
        # counting as shed — sustained overload, not one burst.
        nonlocal cursor
        while cursor < len(requests):
            index = cursor
            cursor += 1
            for attempt in range(5):
                try:
                    results[index] = await service.submit(requests[index])
                    break
                except AdmissionError as error:
                    results[index] = error
                    if attempt < 4:
                        await asyncio.sleep(0.002 * (1 << attempt))

    started = time.perf_counter()
    await service.start()
    try:
        await asyncio.gather(
            *(client() for _ in range(min(clients, len(requests))))
        )
    finally:
        await service.drain(grace=drain_grace)
    wall_s = time.perf_counter() - started

    shed: Dict[str, int] = {}
    completed = degraded = suspended = errors = mismatches = 0
    resumes = batched = 0
    for request, outcome in zip(requests, results):
        if isinstance(outcome, AdmissionError):
            shed[outcome.reason] = shed.get(outcome.reason, 0) + 1
            continue
        if outcome is None or isinstance(outcome, Exception):
            errors += 1
            continue
        if outcome.status == "suspended":
            suspended += 1
            if outcome.checkpoint is None:
                errors += 1
            continue
        completed += 1
        resumes += outcome.resumes
        batched += 1 if outcome.batched else 0
        if outcome.approximate:
            degraded += 1
            continue  # estimates are flagged, not compared exactly
        if outcome.value != expected[request.request_id]:
            mismatches += 1
    admitted = len(requests) - sum(shed.values())
    killed = admitted - completed - suspended - errors
    stats = service.stats()
    latencies = sorted(
        outcome.latency_s
        for outcome in results
        if outcome is not None
        and not isinstance(outcome, Exception)
        and outcome.status == "ok"
    )

    def percentile(q: float) -> "Optional[float]":
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(round(q * (len(latencies) - 1))))
        return latencies[index]

    return {
        "mix": mix,
        "offered": len(requests),
        "admitted": admitted,
        "completed": completed,
        "shed": shed,
        "shed_rate": sum(shed.values()) / len(requests) if requests else 0.0,
        "killed": killed,
        "errors": errors,
        "mismatches": mismatches,
        "answers_ok": mismatches == 0,
        "degraded": degraded,
        "degrade_saturation": degrade_saturation,
        "drain_suspended": suspended,
        "resumes": resumes,
        "batched": batched,
        "orphaned_checkpoints": stats["orphaned_checkpoints"],
        "wall_s": wall_s,
        "throughput_rps": (completed / wall_s) if wall_s > 0 else None,
        "latency_p50_s": percentile(0.50),
        "latency_p99_s": percentile(0.99),
    }


def run_load(
    *,
    quick: bool,
    seed: int,
    workers: int,
) -> Dict[str, object]:
    """Run every scenario and assemble the ``repro-load/1`` report.

    The offered load is sized to at least 2x the service's concurrency
    (clients >> quantum slots), so the admission controller must shed —
    the point is proving the shedding is typed and the admitted work is
    never killed, not avoiding overload.
    """
    clients = 8 if quick else 32
    rounds = 3 if quick else 8
    tenants = 3 if quick else 5
    structures = 3 if quick else 5
    quantum_steps = 60
    quota = TenantQuota(max_inflight=6, max_queue=4)
    scenarios = []
    for index, mix in enumerate(("uniform", "zipf", "hot")):
        requests, expected = build_workload(
            mix,
            seed + index,
            clients,
            rounds,
            tenants,
            structures,
        )
        row = asyncio.run(
            run_scenario(
                mix,
                requests,
                expected,
                workers=workers,
                clients=clients,
                quantum_steps=quantum_steps,
                quota=quota,
                # The hot mix additionally exercises graceful
                # degradation: saturated count requests go to the
                # sampling tier (flagged approximate) instead of
                # queueing behind the exact path, and the gate fails
                # if none does.
                degrade_saturation=2.0 if mix == "hot" else None,
                # The quantum is deliberately tiny (to force preemptions),
                # so the sampler's budget needs a large factor on top of
                # it to actually fit an estimate; overload answers are
                # allowed to be crude (that is the degradation trade),
                # so the accuracy target is loose.
                degrade_budget_factor=600 if mix == "hot" else 8,
                epsilon=0.5 if mix == "hot" else 0.1,
                delta=0.2 if mix == "hot" else 0.05,
                drain_grace=None,
            )
        )
        scenarios.append(row)
    totals = {
        "offered": sum(row["offered"] for row in scenarios),
        "admitted": sum(row["admitted"] for row in scenarios),
        "completed": sum(row["completed"] for row in scenarios),
        "shed": sum(sum(row["shed"].values()) for row in scenarios),
        "killed": sum(row["killed"] for row in scenarios),
        "errors": sum(row["errors"] for row in scenarios),
        "mismatches": sum(row["mismatches"] for row in scenarios),
        "degraded": sum(row["degraded"] for row in scenarios),
        "resumes": sum(row["resumes"] for row in scenarios),
        "answers_ok": all(row["answers_ok"] for row in scenarios),
    }
    return {
        "schema": SCHEMA_NAME,
        "quick": quick,
        "seed": seed,
        "workers": workers,
        "clients": clients,
        "quantum_steps": quantum_steps,
        "scenarios": scenarios,
        "totals": totals,
    }


def gate(report: Dict, shed_bounds: "Optional[Tuple[float, float]]") -> List[str]:
    """Return the acceptance failures (empty means the run passed)."""
    failures: List[str] = []
    totals = report["totals"]
    if totals["killed"]:
        failures.append(f"{totals['killed']} admitted quer(y/ies) killed")
    if totals["errors"]:
        failures.append(f"{totals['errors']} request(s) errored")
    if not totals["answers_ok"]:
        failures.append(
            f"{totals['mismatches']} exact answer(s) differ from the "
            "unloaded serial run"
        )
    for row in report["scenarios"]:
        if row["orphaned_checkpoints"]:
            failures.append(
                f"{row['mix']}: {row['orphaned_checkpoints']} orphaned "
                "checkpoint(s) after drain"
            )
        if row["degrade_saturation"] is not None and not row["degraded"]:
            failures.append(
                f"{row['mix']}: degradation enabled at saturation "
                f"{row['degrade_saturation']} but no request degraded"
            )
    if shed_bounds is not None:
        low, high = shed_bounds
        for row in report["scenarios"]:
            if not (low <= row["shed_rate"] <= high):
                failures.append(
                    f"{row['mix']}: shed rate {row['shed_rate']:.1%} outside "
                    f"[{low:.1%}, {high:.1%}]"
                )
    return failures


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-test the multi-tenant query service"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller client/round counts (CI smoke scale)",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="service quantum slots (default: 2)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the JSON report here (default: stdout)",
    )
    parser.add_argument(
        "--shed-bounds",
        metavar="MIN,MAX",
        help="fail unless every scenario's shed rate is within [MIN, MAX] "
        "(fractions, e.g. 0.05,0.95)",
    )
    args = parser.parse_args(argv)

    shed_bounds: "Optional[Tuple[float, float]]" = None
    if args.shed_bounds is not None:
        try:
            low_text, high_text = args.shed_bounds.split(",")
            shed_bounds = (float(low_text), float(high_text))
        except ValueError:
            parser.error("--shed-bounds must be MIN,MAX (two fractions)")
        if not (0 <= shed_bounds[0] <= shed_bounds[1] <= 1):
            parser.error("--shed-bounds must satisfy 0 <= MIN <= MAX <= 1")

    report = run_load(quick=args.quick, seed=args.seed, workers=args.workers)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)

    for row in report["scenarios"]:
        p50 = row["latency_p50_s"]
        p99 = row["latency_p99_s"]
        print(
            f"{row['mix']:<8} offered={row['offered']} "
            f"completed={row['completed']} shed={sum(row['shed'].values())} "
            f"({row['shed_rate']:.0%}) killed={row['killed']} "
            f"resumes={row['resumes']} degraded={row['degraded']} "
            f"p50={p50 * 1e3:.1f}ms p99={p99 * 1e3:.1f}ms"
            if p50 is not None and p99 is not None
            else f"{row['mix']:<8} offered={row['offered']} (no completions)",
            file=sys.stderr,
        )
    failures = gate(report, shed_bounds)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("load gates passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
