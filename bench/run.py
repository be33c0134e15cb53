"""Run the benchmark: every workload (or one) in its own subprocess.

Usage, from the root of a checkout::

    python3 bench/run.py --workload scaling --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                   # all four workloads, untraced
    python3 bench/run.py --trace           # all four, per-layer metrics

Each workload process runs with ``REPRO_WORKERS=1``, ``REPRO_TRACE``
unset and ``src`` on ``PYTHONPATH``.  The script prints every metric by
name with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (with several
workloads, ``metrics`` maps each workload to its metrics).  It exits 1 when
any answer is wrong or a workload fails, and 2 when the ``repro`` sources
are missing.  ``--out DIR`` keeps every workload's full result file there
(default ``bench/out``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: int, trace: int, out_dir: str) -> dict:
    """One workload in a child interpreter; returns its result file's content."""
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["REPRO_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, os.path.join(BENCH, "workloads.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", result,
    ]
    started = time.time()
    completed = subprocess.run(command, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"workload {name} exited with code {completed.returncode}")
    with open(result) as handle:
        outcome = json.load(handle)
    outcome["started_at"] = started
    with open(result, "w") as handle:
        json.dump(outcome, handle, indent=1)
    return outcome


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the end-to-end benchmark.")
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(BENCH, "out"))
    args = parser.parse_args(argv)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    outcomes = {}
    for name in [args.workload] if args.workload else names:
        try:
            outcome = run_workload(name, args.seed, args.seconds, args.trace, args.out)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        missing = sorted(set(units) - set(outcome["metrics"]))
        if missing:
            print(f"bench: {name} did not report {missing}", file=sys.stderr)
            return 1
        outcomes[name] = outcome
        for metric, unit in units.items():
            print(f"{name}  {metric} = {outcome['metrics'][metric]:.6g} {unit}")
        for key, value in outcome["extras"].items():
            print(f"{name}  ({key}) = {value}")
        print(f"{name}  attempted = {outcome['attempted']}  failed = {outcome['failed']}")
        for note in outcome["failure_notes"]:
            print(f"{name}  FAILED: {note}", file=sys.stderr)

    def shaped(outcome):
        return {m: {"value": outcome["metrics"][m], "unit": u} for m, u in units.items()}

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    metrics = (
        shaped(outcomes[args.workload])
        if args.workload
        else {name: shaped(outcome) for name, outcome in outcomes.items()}
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
