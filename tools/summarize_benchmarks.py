"""Summarise a pytest-benchmark JSON export into the EXPERIMENTS.md tables.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python tools/summarize_benchmarks.py bench.json

Groups benchmarks by experiment module (bench_<name>.py), prints one
markdown table per experiment with the mean time and the qualitative
extra_info each benchmark recorded (order, counts, cover degrees, game
rounds, ...), so the EXPERIMENTS.md narrative can be regenerated from a
fresh run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List


def format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def summarise(data: Dict) -> str:
    groups: Dict[str, List[Dict]] = defaultdict(list)
    for bench in data.get("benchmarks", []):
        module = bench["fullname"].split("::")[0]
        module = Path(module).stem.replace("bench_", "")
        groups[module].append(bench)

    lines: List[str] = []
    for module in sorted(groups):
        lines.append(f"\n## {module}\n")
        extra_keys: List[str] = []
        for bench in groups[module]:
            for key in bench.get("extra_info", {}):
                if key not in extra_keys:
                    extra_keys.append(key)
        header = ["benchmark", "mean"] + extra_keys
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for bench in sorted(groups[module], key=lambda b: b["fullname"]):
            name = bench["fullname"].split("::")[-1]
            row = [name, format_seconds(bench["stats"]["mean"])]
            info = bench.get("extra_info", {})
            for key in extra_keys:
                row.append(str(info.get(key, "")))
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    path = Path(argv[1])
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    data = json.loads(path.read_text())
    print(summarise(data))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
