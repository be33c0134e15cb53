"""Command-line interface: evaluate FOC1(P) queries from the shell.

Usage examples::

    # model-check a sentence against a graph given as an edge list
    python -m repro check graph.txt "forall x. @geq1(#(y). E(x, y))"

    # count the solutions of a formula
    python -m repro count graph.txt "E(x, y) & E(y, z)" --vars x y z

    # evaluate a ground counting term
    python -m repro term graph.txt "#(x, y). E(x, y)"

    # per-element values of a unary term
    python -m repro unary graph.txt "#(y). E(x, y)" --var x

    # inspect a structure / a formula
    python -m repro info graph.txt
    python -m repro formula "exists x. @even(#(y). E(x, y))"

    # render the compiled query plan (stratification stages, count DAG,
    # guard annotations) without evaluating anything
    python -m repro explain "exists x. @even(#(y). E(x, y))"
    python -m repro explain --structure graph.txt "#(x, y). E(x, y)"

Structures come from ``.json`` files (see :mod:`repro.io`) or edge lists.

Resource governance (see ``docs/ROBUSTNESS.md``): ``--timeout`` and
``--max-steps`` bound the evaluation; ``--engine robust`` runs the
fallback cascade (main algorithm → FOC1 engine → brute force) in its
fixed order.

Approximation (see ``docs/ENGINES.md``): ``--engine approx`` answers
``count``/``term`` with a seeded (1±ε, δ) sampling estimate —
``--epsilon/--delta/--seed`` control the target and reproducibility, the
estimate prints with an ``# approximate:`` stderr marker and
``--report-json`` emits ``"approximate": true``.  With ``--engine
robust``, ``--approx-fallback`` adds the sampler as a last exact-failure
fallback stage.

Preemption (see ``docs/ROBUSTNESS.md``): with ``--checkpoint PATH`` the
budget becomes a *quantum* — exhaustion suspends the evaluation, writes a
resumable checkpoint to PATH and exits with code 6 instead of killing the
run; ``--resume PATH`` restores a previous checkpoint (already-built
strata, memo contents and completed parallel shards are never recomputed)
and continues.  ``--report-json PATH`` (robust and approx engines) dumps
the structured cascade report as JSON.

Serving (see ``docs/SERVING.md``): ``python -m repro serve STRUCTURE
WORKLOAD.jsonl`` replays a JSONL workload of tenant-attributed requests
through the multi-tenant :class:`~repro.serve.QueryService` — admission
control, fair-share scheduling and preemptible quanta included — and
emits one JSON line per request plus a summary on stderr.

Exit codes: 0 on success (for ``check``: also when the answer is False —
the answer is printed, not encoded), 2 on bad input, 3 on an unexpected
internal error, 4 on budget exhaustion, 5 when a ``serve`` workload had a
request that errored, 6 on suspension (resumable via ``--resume``), 130
on interrupt (SIGINT / SIGTERM; with an active ``--checkpoint``/``--resume``
session the interrupt instead writes a final checkpoint and exits with 6 —
the interrupted work is resumable, not lost).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import obs
from .approx.evaluator import ApproxEvaluator
from .approx.result import ApproxResult
from .core.baseline import BruteForceEvaluator
from .core.evaluator import Foc1Evaluator
from .errors import (
    BudgetExceededError,
    CheckpointError,
    ReproError,
    SuspendedError,
)
from .io import load_structure
from .logic.foc1 import assert_foc1, fragment_summary
from .logic.parser import parse_formula, parse_term
from .logic.printer import pretty
from .logic.syntax import Expression, free_variables
from .plan import (
    PlanOptions,
    canonicalise,
    compile_plan,
    default_plan_cache,
    infer_signature,
)
from .robust import EvaluationBudget, RobustEvaluator
from .robust.checkpoint import (
    CheckpointSession,
    checkpoint_session,
    fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .sparse.measures import sparsity_report

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4
#: ``serve`` replayed its workload, but some request errored.
EXIT_PARTIAL = 5
EXIT_SUSPENDED = 6
#: The conventional "terminated by SIGINT" shell code (128 + 2).
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FOC1(P) query evaluation (Grohe & Schweikardt, PODS 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="model-check a sentence")
    check.add_argument("structure")
    check.add_argument("sentence")

    count = commands.add_parser("count", help="count solutions of a formula")
    count.add_argument("structure")
    count.add_argument("formula")
    count.add_argument("--vars", nargs="+", required=True)

    term = commands.add_parser("term", help="evaluate a ground counting term")
    term.add_argument("structure")
    term.add_argument("term")

    unary = commands.add_parser("unary", help="evaluate a unary term everywhere")
    unary.add_argument("structure")
    unary.add_argument("term")
    unary.add_argument("--var", required=True)

    info = commands.add_parser("info", help="summarise a structure")
    info.add_argument("structure")

    formula = commands.add_parser("formula", help="parse and analyse a formula")
    formula.add_argument("text")

    explain = commands.add_parser(
        "explain",
        help="compile an expression and render its query plan "
        "(stratification stages, count DAG, guards) without evaluating",
    )
    explain.add_argument("expression", help="a formula or a counting term")
    explain.add_argument(
        "--structure",
        help="take the signature from this structure file "
        "(default: infer it from the expression's relation atoms)",
    )
    explain.add_argument(
        "--vars",
        nargs="+",
        help="compile a count plan over these variables "
        "(default for a formula with free variables: all of them)",
    )
    explain.add_argument(
        "--no-fragment-check",
        action="store_true",
        help="allow full FOC(P) expressions",
    )
    explain.add_argument(
        "--no-factoring",
        action="store_true",
        help="compile without the Lemma 6.4 component factoring",
    )
    explain.add_argument(
        "--no-guards",
        action="store_true",
        help="compile without guard annotations (plain scans)",
    )

    serve = commands.add_parser(
        "serve",
        help="replay a JSONL workload through the multi-tenant "
        "preemptible query service (admission control, fair-share "
        "scheduling, optional degradation; see docs/SERVING.md)",
    )
    serve.add_argument("structure")
    serve.add_argument(
        "workload",
        help="JSONL file: one request object per line, e.g. "
        '{"tenant": "a", "op": "count", "query": "E(x, y)", '
        '"vars": ["x", "y"], "id": "r1"}',
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent quantum slots (default: 2)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="closed-loop client coroutines replaying the workload "
        "(default: 4; raise beyond the quotas to force load shedding)",
    )
    serve.add_argument(
        "--quantum-steps",
        type=int,
        default=20_000,
        metavar="N",
        help="preemptible budget quantum per dispatch (default: 20000)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=8,
        metavar="N",
        help="compatible count requests merged per dispatch "
        "(default: 8; 1 disables batching)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="per-tenant in-flight quota, queued + running (default: 8)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=6,
        metavar="N",
        help="per-tenant waiting-queue bound (default: 6)",
    )
    serve.add_argument(
        "--step-quota",
        type=int,
        metavar="N",
        help="per-tenant step quota per accounting window "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--max-total-inflight",
        type=int,
        metavar="N",
        help="global in-flight ceiling (default: serve workers x 8)",
    )
    serve.add_argument(
        "--degrade-cost",
        type=float,
        metavar="STEPS",
        help="predicted exact cost above which count-only requests "
        "degrade to the sampling tier (default: never)",
    )
    serve.add_argument(
        "--degrade-saturation",
        type=float,
        metavar="LEVEL",
        help="smoothed saturation level (1.0 = at capacity) above which "
        "count-only requests degrade to the sampling tier "
        "(default: never)",
    )
    serve.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        metavar="EPS",
        help="accuracy target for degraded answers (default: 0.1)",
    )
    serve.add_argument(
        "--delta",
        type=float,
        default=0.05,
        metavar="DELTA",
        help="failure probability for degraded answers (default: 0.05)",
    )
    serve.add_argument(
        "--drain-grace",
        type=int,
        metavar="QUANTA",
        help="on shutdown, grant each in-flight query at most this many "
        "further quanta before handing back a suspended response with "
        "its checkpoint (default: run everything to completion)",
    )
    serve.add_argument(
        "--no-fragment-check",
        action="store_true",
        help="allow full FOC(P) requests",
    )
    serve.add_argument(
        "--output",
        metavar="PATH",
        help="write per-request JSONL here instead of stdout",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="record serve.* counters and print a snapshot to stderr",
    )

    for sub in (check, count, term, unary):
        sub.add_argument(
            "--no-fragment-check",
            action="store_true",
            help="allow full FOC(P) (may be very slow; see Section 4)",
        )
        sub.add_argument(
            "--engine",
            choices=("foc1", "robust", "baseline", "approx"),
            default="foc1",
            help="evaluation engine: the FOC1 engine (default), the robust "
            "fallback cascade in fixed order, the brute-force baseline, or "
            "'approx' — seeded (1±eps, delta) sampling for count/term (the "
            "answer is an estimate, marked as such on stderr and in "
            "--report-json)",
        )
        sub.add_argument(
            "--epsilon",
            type=float,
            default=0.1,
            metavar="EPS",
            help="relative accuracy target for the approx engine/stage "
            "(default: 0.1)",
        )
        sub.add_argument(
            "--delta",
            type=float,
            default=0.05,
            metavar="DELTA",
            help="failure probability for the approx engine/stage "
            "(default: 0.05)",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=0,
            metavar="N",
            help="reproducibility seed for the approx engine/stage: "
            "identical (query, structure, seed, eps, delta) inputs give "
            "byte-identical estimates (default: 0)",
        )
        sub.add_argument(
            "--approx-fallback",
            action="store_true",
            help="with --engine robust: add the sampling tier as a last "
            "cascade stage for count/term; the report then carries "
            "approximate=true when it answers",
        )
        sub.add_argument(
            "--timeout",
            type=float,
            metavar="SECONDS",
            help="wall-clock budget; exhaustion exits with code 4",
        )
        sub.add_argument(
            "--max-steps",
            type=int,
            metavar="N",
            help="cooperative step budget; exhaustion exits with code 4",
        )
        sub.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="child processes for the sampler's blocks (--engine "
            "approx or --approx-fallback); the exact engines answer these "
            "commands inline (default: REPRO_WORKERS or 1 = serial; see "
            "docs/PARALLEL.md)",
        )
        sub.add_argument(
            "--checkpoint",
            metavar="PATH",
            help="preemptible mode: budget exhaustion suspends the "
            "evaluation, writes a resumable checkpoint to PATH and exits "
            "with code 6 instead of failing with code 4",
        )
        sub.add_argument(
            "--resume",
            metavar="PATH",
            help="resume from the checkpoint at PATH (must match this "
            "query and structure); implies preemptible mode — a further "
            "suspension rewrites PATH unless --checkpoint names another",
        )
        sub.add_argument(
            "--report-json",
            metavar="PATH",
            dest="report_json",
            help="write the structured cascade report (stages, breaker "
            "states, checkpoint info) as JSON to PATH; "
            "requires --engine robust or approx",
        )
        sub.add_argument(
            "--trace",
            action="store_true",
            help="record spans around the pipeline and print a timing "
            "report to stderr (see docs/OBSERVABILITY.md)",
        )
        sub.add_argument(
            "--metrics",
            action="store_true",
            help="record engine counters/histograms and print a snapshot "
            "to stderr",
        )
    return parser


def _install_sigterm_handler() -> None:
    """Make SIGTERM interrupt like SIGINT (same graceful-exit path).

    Service managers send SIGTERM; mapping it onto
    :class:`KeyboardInterrupt` routes both signals through one handler —
    checkpoint-and-exit-6 under an active session, one-line
    ``interrupted`` + 130 otherwise.  Only the main thread may install
    signal handlers; embedded callers (tests, servers) skip silently.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass


def main(argv: "Optional[List[str]]" = None) -> int:
    args = _build_parser().parse_args(argv)
    obs.configure_from_env()
    if getattr(args, "trace", False) and obs.active_tracer() is None:
        obs.set_tracer(obs.Tracer())
    if getattr(args, "metrics", False) and obs.active_metrics() is None:
        obs.set_metrics(obs.MetricsRegistry())
    _install_sigterm_handler()
    try:
        return _dispatch(args)
    except SuspendedError as error:
        # Normally handled (checkpointed) inside _run_eval; reaching this
        # handler means a preemptible budget suspended outside a
        # checkpointing context — still a resumable outcome, code 6.
        print(f"suspended: {error}", file=sys.stderr)
        return EXIT_SUSPENDED
    except BudgetExceededError as error:
        print(f"budget exhausted: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except (ReproError, FileNotFoundError, IsADirectoryError, PermissionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except KeyboardInterrupt:
        # Graceful interrupt: never a raw traceback.  (When a checkpoint
        # session is active, _run_eval already converted the interrupt
        # into a saved checkpoint and exit code 6 before we get here.)
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as error:  # noqa: BLE001 — last-resort CLI guard
        # Never a raw traceback: one line, distinct exit code, so shell
        # callers can tell "our bug" (3) from "your input" (2) or "too
        # expensive" (4).
        print(
            f"internal error: {type(error).__name__}: {error}", file=sys.stderr
        )
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "formula":
        phi = parse_formula(args.text)
        print(pretty(phi))
        for key, value in fragment_summary(phi).items():
            print(f"  {key}: {value}")
        return 0

    if args.command == "info":
        structure = load_structure(args.structure)
        report = sparsity_report(structure)
        print(json.dumps(report, indent=2, default=str))
        return 0

    if args.command == "explain":
        return _explain(args)

    if args.command == "serve":
        return _serve(args)

    return _run_eval(args)


def _query_key(args: argparse.Namespace, expression: Expression, structure) -> str:
    """The checkpoint fingerprint: operation + canonical text + structure."""
    text = pretty(canonicalise(expression))
    if args.command == "count":
        text += f" | vars={','.join(args.vars)}"
    elif args.command == "unary":
        text += f" | var={args.var}"
    return fingerprint(args.command, text, structure)


def _run_eval(args: argparse.Namespace) -> int:
    """The four evaluation subcommands, with optional suspend/resume."""
    structure = load_structure(args.structure)
    engine, budget = _make_engine(args)

    if args.command == "check":
        expression: Expression = parse_formula(args.sentence)
    elif args.command == "count":
        expression = parse_formula(args.formula)
    else:
        expression = parse_term(args.term)

    checkpoint_path = getattr(args, "checkpoint", None)
    resume_path = getattr(args, "resume", None)
    session: "Optional[CheckpointSession]" = None
    if checkpoint_path is not None or resume_path is not None:
        key = _query_key(args, expression, structure)
        if resume_path is not None:
            previous = load_checkpoint(resume_path)
            if previous.query_key != key:
                raise CheckpointError(
                    f"checkpoint {resume_path!r} was taken for a different "
                    "query or structure; refusing to resume"
                )
            session = CheckpointSession(resume=previous)
        else:
            session = CheckpointSession(
                operation=args.command, query_key=key
            )

    def evaluate() -> int:
        if args.command == "check":
            return _print_result(
                engine, engine.model_check(structure, expression), args
            )
        if args.command == "count":
            return _print_result(
                engine, engine.count(structure, expression, args.vars), args
            )
        if args.command == "term":
            return _print_result(
                engine, engine.ground_term_value(structure, expression), args
            )
        if args.command == "unary":
            values = engine.unary_term_values(structure, expression, args.var)
            for element in structure.universe_order:
                print(f"{element}\t{values[element]}")
            _emit_report(engine, args)
            return EXIT_OK
        raise AssertionError("unreachable")

    if session is None:
        return evaluate()
    with checkpoint_session(session):
        try:
            return evaluate()
        except SuspendedError as error:
            checkpoint = error.checkpoint
            if checkpoint is None:
                checkpoint = session.snapshot(
                    budget.steps if budget is not None else 0
                )
                error.checkpoint = checkpoint
            target = checkpoint_path if checkpoint_path is not None else resume_path
            save_checkpoint(checkpoint, target)
            print(f"# suspended: {error}", file=sys.stderr)
            print(
                f"# checkpoint written to {target} ({checkpoint.summary()}); "
                f"resume with --resume {target}",
                file=sys.stderr,
            )
            _emit_report(engine, args, checkpoint=checkpoint)
            return EXIT_SUSPENDED
        except KeyboardInterrupt:
            # SIGINT/SIGTERM with an active session: the operator asked
            # us to stop, not to lose the work — snapshot whatever the
            # session has recorded so far (restored state only ever
            # skips work) and exit resumable, like a suspension.
            checkpoint = session.snapshot(
                budget.steps if budget is not None else 0
            )
            target = checkpoint_path if checkpoint_path is not None else resume_path
            save_checkpoint(checkpoint, target)
            print("# interrupted: saving checkpoint", file=sys.stderr)
            print(
                f"# checkpoint written to {target} ({checkpoint.summary()}); "
                f"resume with --resume {target}",
                file=sys.stderr,
            )
            return EXIT_SUSPENDED


def _print_result(engine, result, args: argparse.Namespace) -> int:
    """Print one scalar answer."""
    if isinstance(result, ApproxResult):
        # An estimate never prints as a bare exact-looking count without
        # its marker: the rounded value goes to stdout, the interval and
        # reproducibility tuple to stderr.
        print(f"# approximate: {result.summary()}", file=sys.stderr)
        print(result.value)
        path = getattr(args, "report_json", None)
        if path is not None and not isinstance(engine, RobustEvaluator):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    result.to_dict(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        _emit_report(engine, args)
        return EXIT_OK
    print(result)
    _emit_report(engine, args)
    return EXIT_OK


def _parse_expression(text: str) -> Expression:
    """Parse ``text`` as a formula, falling back to a counting term."""
    try:
        return parse_formula(text)
    except ReproError as formula_error:
        try:
            return parse_term(text)
        except ReproError:
            raise formula_error from None


def _explain(args: argparse.Namespace) -> int:
    """Compile (or fetch) the plan for one expression and render it."""
    expression = _parse_expression(args.expression)
    if not args.no_fragment_check:
        assert_foc1(expression)
    free = sorted(free_variables(expression))
    # Pick the plan kind the way the engine facade would.
    from .logic.syntax import Add, CountTerm, IntTerm, Mul

    is_term = isinstance(expression, (CountTerm, IntTerm, Add, Mul))
    if is_term:
        if len(free) > 1:
            raise ReproError(
                f"term has free variables {free}; at most one is supported"
            )
        kind = "unary_term" if free else "ground_term"
        variables = tuple(free)
    elif args.vars:
        missing = set(free) - set(args.vars)
        if missing:
            raise ReproError(f"free variables {sorted(missing)} not in --vars")
        kind, variables = "count", tuple(args.vars)
    elif free:
        kind, variables = "count", tuple(free)
    else:
        kind, variables = "model_check", ()

    if args.structure is not None:
        signature = load_structure(args.structure).signature
    else:
        signature = infer_signature([expression])
    options = PlanOptions(
        factoring=not args.no_factoring, guards=not args.no_guards
    )
    cache = default_plan_cache()
    canon = canonicalise(expression)
    key = (kind, (canon,), variables, signature, options)
    plan = cache.get_or_compile(
        key, lambda: compile_plan(kind, (canon,), variables, signature, options)
    )
    print(plan.explain())
    stats = cache.stats()
    rate = stats["hit_rate"]
    rate_text = f"{rate:.2f}" if rate is not None else "n/a"
    print(
        "plan cache: "
        f"size={stats['size']}/{stats['capacity']} "
        f"hits={stats['hits']} misses={stats['misses']} "
        f"evictions={stats['evictions']} hit_rate={rate_text}"
    )
    return 0


def _load_workload(path: str, structure) -> list:
    """Parse a JSONL workload file into :class:`QueryRequest` objects."""
    from .serve import QueryRequest

    requests = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"workload line {lineno}: invalid JSON ({error})"
                ) from None
            if not isinstance(raw, dict) or "query" not in raw:
                raise ReproError(
                    f"workload line {lineno}: expected an object with a "
                    "'query' field"
                )
            requests.append(
                QueryRequest(
                    tenant=str(raw.get("tenant", "default")),
                    operation=str(raw.get("op", raw.get("operation", "count"))),
                    structure=structure,
                    expression=str(raw["query"]),
                    variables=tuple(raw.get("vars", ())),
                    variable=str(raw.get("var", "")),
                    request_id=str(raw.get("id", lineno)),
                    seed=int(raw.get("seed", 0)),
                )
            )
    if not requests:
        raise ReproError(f"workload {path!r} contains no requests")
    return requests


def _serve(args: argparse.Namespace) -> int:
    """Replay a JSONL workload through the multi-tenant query service."""
    import asyncio

    from .errors import AdmissionError
    from .serve import QueryService, TenantQuota

    structure = load_structure(args.structure)
    requests = _load_workload(args.workload, structure)
    try:
        quota = TenantQuota(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            step_quota=args.step_quota,
        )
        service = QueryService(
            workers=args.serve_workers,
            quantum_steps=args.quantum_steps,
            quota=quota,
            max_total_inflight=args.max_total_inflight,
            batch_max=args.batch_max,
            degrade_cost_threshold=args.degrade_cost,
            degrade_saturation=args.degrade_saturation,
            epsilon=args.epsilon,
            delta=args.delta,
            check_fragment=not args.no_fragment_check,
            metrics=obs.active_metrics(),
        )
    except ValueError as error:
        raise ReproError(str(error)) from None
    if args.clients < 1:
        raise ReproError("--clients must be a positive integer")

    async def run() -> list:
        results: list = [None] * len(requests)
        cursor = 0

        async def client() -> None:
            nonlocal cursor
            while cursor < len(requests):
                index = cursor
                cursor += 1
                try:
                    results[index] = await service.submit(requests[index])
                except (AdmissionError, ReproError) as error:
                    results[index] = error

        await service.start()
        try:
            await asyncio.gather(
                *(client() for _ in range(min(args.clients, len(requests))))
            )
        finally:
            await service.drain(grace=args.drain_grace)
        return results

    results = asyncio.run(run())

    lines = []
    shed = errors = 0
    for request, outcome in zip(requests, results):
        if isinstance(outcome, AdmissionError):
            shed += 1
            lines.append(
                {
                    "schema": "repro-serve-response/1",
                    "request_id": request.request_id,
                    "tenant": request.tenant,
                    "operation": request.operation,
                    "status": "shed",
                    "reason": outcome.reason,
                }
            )
        elif isinstance(outcome, Exception):
            errors += 1
            lines.append(
                {
                    "schema": "repro-serve-response/1",
                    "request_id": request.request_id,
                    "tenant": request.tenant,
                    "operation": request.operation,
                    "status": "error",
                    "error": str(outcome),
                }
            )
        else:
            lines.append(outcome.to_dict())
    payload = "\n".join(json.dumps(line, sort_keys=True) for line in lines)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)

    stats = service.stats()
    summary = {
        "requests": len(requests),
        "completed": stats["completed"],
        "shed": shed,
        "errors": errors,
        "resumes": stats["resumes"],
        "degraded": stats["degraded"],
        "drain_suspended": stats["drain_suspended"],
        "orphaned_checkpoints": stats["orphaned_checkpoints"],
    }
    print(f"# serve {json.dumps(summary, sort_keys=True)}", file=sys.stderr)
    _emit_instruments()
    return EXIT_PARTIAL if errors else EXIT_OK


def _emit_report(engine, args: argparse.Namespace, checkpoint=None) -> None:
    """For the robust engine, say on stderr which cascade stage answered
    (and dump the structured report when ``--report-json`` asks for it)."""
    if isinstance(engine, RobustEvaluator) and engine.last_report is not None:
        print(f"# {engine.last_report.summary()}", file=sys.stderr)
        path = getattr(args, "report_json", None)
        if path is not None:
            payload = engine.last_report.to_dict(
                breaker=engine.breaker,
                checkpoint=checkpoint.to_dict() if checkpoint is not None else None,
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True, default=str)
                handle.write("\n")
    _emit_instruments()


def _emit_instruments() -> None:
    """Print whatever tracer/metrics are active to stderr, then reset them."""
    tracer = obs.active_tracer()
    if tracer is not None:
        for line in tracer.report():
            print(f"# trace {line}", file=sys.stderr)
    registry = obs.active_metrics()
    if registry is not None:
        snapshot = registry.snapshot()
        print(f"# metrics {json.dumps(snapshot, sort_keys=True)}", file=sys.stderr)


def _make_engine(args: argparse.Namespace):
    """Build ``(engine, budget)`` after validating the resource flags.

    Nonsensical limits are the caller's mistake (exit 2), not ours: a
    zero or negative ``--timeout`` / ``--max-steps`` would silently
    produce a budget that is exhausted before the first step.
    """
    timeout = getattr(args, "timeout", None)
    max_steps = getattr(args, "max_steps", None)
    if timeout is not None and timeout < 0:
        raise ReproError(f"--timeout must be non-negative, got {timeout}")
    if timeout is not None and timeout == 0:
        raise ReproError(
            f"--timeout must be a positive number of seconds, got {timeout}"
        )
    if max_steps is not None and max_steps < 0:
        raise ReproError(f"--max-steps must be non-negative, got {max_steps}")
    if max_steps is not None and max_steps == 0:
        raise ReproError(
            f"--max-steps must be a positive integer, got {max_steps}"
        )
    preemptible = (
        getattr(args, "checkpoint", None) is not None
        or getattr(args, "resume", None) is not None
    )
    budget = None
    if timeout is not None or max_steps is not None:
        try:
            budget = EvaluationBudget(
                deadline=timeout, max_steps=max_steps, preemptible=preemptible
            )
        except ValueError as error:
            raise ReproError(str(error)) from None
    check_fragment = not args.no_fragment_check
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ReproError("--workers must be a positive integer")
    if (
        getattr(args, "report_json", None) is not None
        and args.engine not in ("robust", "approx")
    ):
        raise ReproError("--report-json requires --engine robust or approx")
    if args.engine == "approx" and args.command not in ("count", "term"):
        raise ReproError(
            "--engine approx evaluates counts and ground counting terms "
            "only (use --engine robust --approx-fallback elsewhere)"
        )
    if getattr(args, "approx_fallback", False) and args.engine != "robust":
        raise ReproError("--approx-fallback requires --engine robust")
    if args.engine == "robust":
        engine = RobustEvaluator(
            budget=budget,
            check_fragment=check_fragment,
            workers=workers,
            approx=getattr(args, "approx_fallback", False),
            epsilon=getattr(args, "epsilon", 0.1),
            delta=getattr(args, "delta", 0.05),
            approx_seed=getattr(args, "seed", 0),
        )
    elif args.engine == "approx":
        # Sampling works on all of FOC(P): no fragment check to apply.
        engine = ApproxEvaluator(
            budget=budget,
            epsilon=getattr(args, "epsilon", 0.1),
            delta=getattr(args, "delta", 0.05),
            seed=getattr(args, "seed", 0),
            workers=workers,
        )
    elif args.engine == "baseline":
        # The brute-force oracle stays deliberately serial.
        engine = BruteForceEvaluator(budget=budget, check_fragment=check_fragment)
    else:
        engine = Foc1Evaluator(check_fragment=check_fragment, budget=budget)
    return engine, budget


if __name__ == "__main__":
    sys.exit(main())
