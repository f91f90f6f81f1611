"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py --out`` appends.  Results whose
hardware fingerprints differ are never compared: the script exits 2
instead of reporting false regressions.  Otherwise it prints, per
workload and end-to-end metric, both medians with their quartiles and
the change, and exits 1 if any median is worse than its bound allows.
It also prints both sets' median speed probe, which shows whether the
box itself ran slower for one set.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HARDWARE = ("nproc", "cpu", "python", "wal_fs")


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def hardware(record: dict) -> tuple:
    return tuple(record["fingerprint"].get(key) for key in HARDWARE)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    prints = {hardware(r) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare results from different hardware:", file=sys.stderr)
        for fp in sorted(prints, key=str):
            print("  " + json.dumps(dict(zip(HARDWARE, fp))), file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    probes = [[r["speed_probe_ms"] for r in side if "speed_probe_ms" in r]
              for side in (base, new)]
    if all(probes):
        b, n = (statistics.median(p) for p in probes)
        print(f"speed probe (fixed loop, higher is a slower box): base {b:.2f} ms, "
              f"new {n:.2f} ms ({100 * (n - b) / b:+.1f}%); a shift here moves "
              "every metric without a program change")
    regressed = False
    workloads = sorted({r["workload"] for r in base + new if r["trace"] == 0})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in side
                 if r["workload"] == workload and r["trace"] == 0]
                for side in (base, new)
            ]
            if not all(sides):
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(sides[0]), quartiles(sides[1])
            change = (n2 - b2) / b2 if b2 else 0.0
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSED" if worse > metric["bound"] else "ok"
            regressed |= flag == "REGRESSED"
            print(
                f"{workload:14s} {name:12s} base {b2:10.4f} [{b1:.4f}, {b3:.4f}] "
                f"new {n2:10.4f} [{n1:.4f}, {n3:.4f}] {metric['unit']:4s} "
                f"{100 * change:+7.2f}% (bound {100 * metric['bound']:.0f}%) {flag}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
