#!/usr/bin/env python3
"""Compare two sets of untraced benchmark results, e.g. a parent commit's
and a change's, each a directory of perfbench/out/results/*-trace0.json:

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

For every workload and end-to-end metric it prints each side's median and
quartiles and flags a change worse than the metric's bound in BENCHMARK.json.
Results measured on different kernel backends are not comparable: the
script refuses them (exit status 2). Exit status 1 means a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("compare: no *-trace0.json results in one of the directories", file=sys.stderr)
        return 64
    backends = {r["kernel_backend"] for r in before + after}
    if len(backends) > 1:
        print(f"compare: refusing to compare kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    pythons = {r["python"] for r in before + after}
    if len(pythons) > 1:
        print(f"compare: warning: mixed Python versions {sorted(pythons)}")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    regressed = False
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        print(f"{workload}: {sum(r['workload'] == workload for r in before)} runs before, "
              f"{sum(r['workload'] == workload for r in after)} after")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            b = quartiles([r["metrics"][name]["value"] for r in before if r["workload"] == workload])
            a = quartiles([r["metrics"][name]["value"] for r in after if r["workload"] == workload])
            change = (a[1] - b[1]) / b[1]
            worse = change if lower else -change
            spread = (b[2] - b[0]) / b[1]
            verdict = "ok"
            if worse > bound:
                verdict, regressed = "REGRESSION", True
            elif spread > bound:
                verdict = "unresolved (parent spread exceeds bound)"
            print(f"  {name:16} before {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                  f"after {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}]  {change:+.1%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
