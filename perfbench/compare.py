"""Summarize benchmark result records, optionally against an earlier result file.

    python3 perfbench/compare.py                       # perfbench/results/runs.jsonl
    python3 perfbench/compare.py new.jsonl --base perfbench/baseline.jsonl

Each input is a JSON-lines file of the records run.py appends.  For every
workload, every mode (untraced end-to-end metrics, traced per-layer metrics)
and every metric, it prints the sample count, median, first and third
quartile (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median, the bound from BENCHMARK.json where the metric has one, and, with
``--base``, the base median and the ratio of the two medians.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(paths):
    """{(workload, mode): {metric: [values]}} plus op counts per group."""
    groups = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(lambda: [0, 0, 0, 0, 0])  # runs, attempted, not ok, failed, incorrect
    for path in paths:
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                mode = "per_layer" if rec["trace"] else "e2e"
                key = (rec["workload"], mode)
                for name, value in (rec[mode] or {}).items():
                    groups[key][name].append(value)
                c = counts[key]
                c[0] += 1
                c[1] += rec["attempted"]
                c[2] += rec["not_ok"]
                c[3] += rec["failed"]
                c[4] += not rec["correct"]
    return groups, counts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def bounds():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", default=[str(HERE / "results" / "runs.jsonl")])
    ap.add_argument("--base", action="append", default=[],
                    help="earlier result file(s) to take ratios against")
    args = ap.parse_args(argv)

    groups, counts = load(args.runs)
    base, _ = load(args.base) if args.base else ({}, None)
    limits = bounds()
    for key in sorted(groups):
        workload, mode = key
        runs, attempted, not_ok, failed, incorrect = counts[key]
        print(f"\n== {workload} [{mode}]: {runs} run(s), {not_ok}/{attempted} ops not ok, "
              f"{failed} failed, {incorrect} incorrect run(s)")
        head = f"{'metric':38} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
        print(head + (f" {'base':>12} {'ratio':>7}" if base else ""))
        for name, values in groups[key].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = limits.get(name) if mode == "e2e" else None
            line = (f"{name:38} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.3f} {'' if bound is None else f'{bound:.2f}':>6}")
            if base:
                old = base.get(key, {}).get(name)
                if old:
                    old_med = quartiles(old)[1]
                    ratio = f"{med / old_med:7.3f}" if old_med else "      -"
                    line += f" {old_med:12.6g} {ratio}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
