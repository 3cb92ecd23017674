"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload lq-table [--workload ...]
                                 [--pairs 5] [--label LABEL]

PARENT and CHANGE are two checkouts of the repository (a clean copy of the
parent commit and the tree under review).  Pair k, k = 1..pairs, runs

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

once in each checkout, one after the other; the parent runs first in odd
pairs and the change first in even ones.  S is the change's BENCHMARK.json
`run_seconds` (30).  The 1-min load average is read just before each run,
and each run's result is the last JSON line it prints.

The output is the `workloads` section of a BENCH_<label>.json file: per
workload the seeds, the side that ran first, the load averages, `failed` and
`attempted`, and per end-to-end metric of the change's BENCHMARK.json the
medians and inclusive quartiles of both sides, the pairs the change wins
(ties count for neither side), whether the gap between the medians exceeds
the parent's interquartile range, and whether the change stays within the
metric's bound.  It is printed, and with --label written into
BENCH_<label>.json in the current directory (workloads already in that file
are kept unless run again).  The exit status is 1 when a run is not
`correct`.  Standard library only; the checkouts' tracked files are not
touched (run.py appends to its ignored results directory).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of `values`, the quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def compare(parent, change, better, bound):
    """One metric's entry for the runs `parent` and `change` (equal length,
    pair by pair) of a metric that is better `lower` or `higher`, whose
    median may be worse than the parent's by at most the fraction `bound`."""
    sign = 1.0 if better == "lower" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (cm - pm)                             # > 0: the change is worse
    if pm:
        worse_by = gap / abs(pm)
    else:
        worse_by = 0.0 if gap == 0 else math.copysign(math.inf, gap)
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "ratio": cm / pm if pm else None,
        "change_better_pairs": sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0),
        "median_gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1,
        "worse_by": worse_by,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def section(pairs, end_to_end):
    """The workload's entry for `pairs`, each {"seed", "first", "parent",
    "change"} with a run per side as {"loadavg": float, "result": run.py's
    JSON result}, and the `end_to_end` list of BENCHMARK.json."""
    def per_side(read):
        return {side: [read(pair[side]) for pair in pairs] for side in SIDES}

    results = per_side(lambda run: run["result"])
    return {
        "pairs": len(pairs),
        "seeds": [pair["seed"] for pair in pairs],
        "first_in_pair": [pair["first"] for pair in pairs],
        "loadavg_1min": per_side(lambda run: run["loadavg"]),
        "all_correct": all(res["correct"] for side in SIDES for res in results[side]),
        "failed": per_side(lambda run: run["result"]["failed"]),
        "attempted": per_side(lambda run: run["result"]["attempted"]),
        "metrics": {
            m["name"]: compare(*([res["metrics"][m["name"]]["value"] for res in results[side]]
                                 for side in SIDES), m["better"], m["bound"])
            for m in end_to_end},
    }


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its load average before and its result."""
    loadavg = round(os.getloadavg()[0], 2)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    return {"loadavg": loadavg, "result": json.loads(proc.stdout.splitlines()[-1])}


def run_pairs(checkouts, workload, pairs, seconds):
    """`pairs` alternating pairs of runs of `workload` in the two checkouts."""
    records = []
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        record = {"seed": seed, "first": order[0]}
        for side in order:
            record[side] = run = run_once(checkouts[side], workload, seed, seconds)
            print(f"# {workload} pair {seed} {side}: correct={run['result']['correct']} "
                  f"loadavg={run['loadavg']}", file=sys.stderr)
        records.append(record)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {w: section(run_pairs(checkouts, w, args.pairs, seconds), benchmark["end_to_end"])
                 for w in args.workload}
    print(json.dumps({"workloads": workloads}, indent=1))
    if args.label:
        path = Path(f"BENCH_{args.label}.json")
        bench = json.loads(path.read_text()) if path.exists() else {
            "label": args.label,
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                       "--trace 0",
            "protocol": "tools/bench_pairs.py: alternating parent/change pairs per workload "
                        "(the side that runs first alternates by pair), seed N = pair number, "
                        "quartiles by the inclusive method, 1-min load average read before "
                        "each run",
            "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "workloads": {}}
        bench["workloads"].update(workloads)
        path.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if all(w["all_correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
