"""Compare benchmark results of a parent and a change, pair by pair.

Usage::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` writes
(``<workload>-seed<N>-trace0.json``).  Runs of the two sides with the same
workload and seed form a pair; run at least ten pairs per workload and
alternate which side runs first (the files record when each run started,
and the report says how often the parent went first).

For every (end-to-end metric, workload) the verdict is:

* ``improved``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: fewer than ten pairs, or the parent's own spread
  (IQR / median) exceeds the bound, unless every change run beats every
  parent run;
* ``unchanged``: otherwise.

One row per workload.  Exits 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> Dict[Tuple[str, int], dict]:
    results = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as handle:
            outcome = json.load(handle)
        results[(outcome["workload"], outcome["seed"])] = outcome
    return results


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], higher: bool, bound: float) -> dict:
    """The pairwise rule above for one metric on one workload; ``parent[i]``
    and ``change[i]`` are one pair."""
    if not parent:
        return {"status": "unresolved", "pairs": 0}
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    gain = sign * (c2 - p2)
    spread = (p3 - p1) / abs(p2) if p2 else float("inf")
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(parent) < MIN_PAIRS:
        status = "unresolved"
    elif wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        status = "improved"
    elif spread > bound and not dominates:
        status = "unresolved"
    elif -gain > bound * abs(p2):
        status = "regressed"
    else:
        status = "unchanged"
    return {
        "status": status,
        "pairs": len(parent),
        "wins": wins,
        "parent": (p1, p2, p3),
        "change": (c1, c2, c3),
        "parent_spread": spread,
        "relative_change": (c2 - p2) / abs(p2) if p2 else float("inf"),
    }


def compare(parent_dir: str, change_dir: str, spec: dict) -> Dict[str, dict]:
    """Per workload: pair count, how often the parent ran first, and the
    verdict for every end-to-end metric."""
    parent, change = load(parent_dir), load(change_dir)
    table: Dict[str, dict] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        keys = sorted(k for k in parent if k[0] == workload and k in change)
        table[workload] = {
            "pairs": len(keys),
            "parent_first": sum(
                parent[k].get("started_at", 0) < change[k].get("started_at", 0) for k in keys
            ),
            "metrics": {
                m["name"]: verdict(
                    [parent[k]["metrics"][m["name"]] for k in keys],
                    [change[k]["metrics"][m["name"]] for k in keys],
                    m["better"] == "higher",
                    m["bound"],
                )
                for m in spec["end_to_end"]
            },
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paired parent/change comparison.")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(SPEC) as handle:
        spec = json.load(handle)
    regressed = False
    for workload, row in compare(args.parent_dir, args.change_dir, spec).items():
        cells = []
        for name, v in row["metrics"].items():
            regressed |= v["status"] == "regressed"
            if not v["pairs"]:
                cells.append(f"{name}: unresolved (no pairs)")
                continue
            cells.append(
                f"{name}: {v['status']} ({v['parent'][1]:.4g} -> {v['change'][1]:.4g}, "
                f"{100 * v['relative_change']:+.1f}%, wins {v['wins']}/{v['pairs']}, "
                f"parent IQR/median {v['parent_spread']:.3f})"
            )
        print(
            f"{workload} [{row['pairs']} pairs, parent first in {row['parent_first']}]: "
            + "; ".join(cells)
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
