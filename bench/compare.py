"""Compare two sets of benchmark runs under the bounds of
``BENCHMARK.json``.

    for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 bench/run.py --trace 0 --seed $s --out a.jsonl; done
    ... (the same for the other commit, or again for the same one) ...
    python3 bench/compare.py a.jsonl b.jsonl

One row per (workload, end-to-end metric): both medians with their
quartiles, the change of B against A as a share of A's median (positive
= worse), and a verdict.  ``worse`` means B's median is worse than A's
by more than the metric's bound; ``better`` the same in the other
direction; ``unresolved`` means the change is inside the bound but the
run-to-run spread of either side (quartile distance over median) is
wider than the bound, so ``same`` cannot be claimed -- unless every run
of one side beats every run of the other.  The exit code is 1 if any
row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from benchlib import spec


def load(path: str) -> dict:
    """``{(workload, metric): [values]}`` of the untraced records."""
    values = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, doc in record["metrics"].items():
                values[record["workload"], name].append(doc["value"])
    return values


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); needs two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(change of B against A as a share of A's median, positive =
    worse; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    change = sign * (b2 - a2) / a2
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    if spread > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return change, "better"
        if min(sign * v for v in b) > max(sign * v for v in a):
            return change, "worse"
        return change, "unresolved"
    return change, "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    definition = spec()
    print(
        f"{'workload':<13} {'metric':<17} {'A q1':>10} {'A median':>10} "
        f"{'A q3':>10} {'B q1':>10} {'B median':>10} {'B q3':>10} "
        f"{'change':>8} {'bound':>6}  verdict"
    )
    worse = 0
    for workload in (w["name"] for w in definition["workloads"]):
        for metric in definition["end_to_end"]:
            key = (workload, metric["name"])
            if len(a.get(key, ())) < 2 or len(b.get(key, ())) < 2:
                print(f"{workload:<13} {metric['name']:<17} needs two runs a side")
                continue
            change, word = verdict(
                a[key], b[key], metric["better"], metric["bound"]
            )
            worse += word == "worse"
            cells = "".join(f" {v:>10.4g}" for v in (*quartiles(a[key]), *quartiles(b[key])))
            print(
                f"{workload:<13} {metric['name']:<17}{cells} "
                f"{change:>+8.1%} {metric['bound']:>6.0%}  {word}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
