"""dgocp benchmark: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload lq-table --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports dgocp from ``src/``.  The load
is a closed loop with one caller in one process: each op starts after the
previous one returned, with BLAS/OpenMP pinned to one thread.  The run
repeats whole units of work (a table, or a round of box solves) while the
next one still fits in ``--seconds``, and always runs at least one.

The result's ``failed`` counts ops that failed as operations: a wrong
result or an untyped exception (see workloads.py).  A solver that reports
non-convergence honestly is not ok but has not failed; ``ok_ratio`` counts it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
units twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Timings are given in wall seconds and in reference
seconds (``ref_s``, see speed.py); the JSON result carries the reference ones.  Human-readable lines come first; the last line of
standard output is the JSON result.  Each run also appends a record to
``perfbench/results/runs.jsonl`` (see compare.py); a traced run writes its
spans to ``perfbench/results/trace-<workload>-seed<seed>.jsonl``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedSampler, probe, to_ref  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# fresh-process set-ups per run; setup_s is the median of their reference
# seconds, each converted with probes the set-up process takes of its own speed
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# warm-up before timing: a few outer iterations per problem on a tiny mesh
WARMUP_N, WARMUP_ITERS = 2, 3

E2E_UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "table_ref_s": "ref_s", "table_s": "s",
    "solve_ref_s_p50": "ref_s", "solve_ref_s_p90": "ref_s",
    "solve_s_p50": "s", "solve_s_p90": "s",
    "converged_per_ref_s": "1/ref_s", "converged_per_s": "1/s",
    "ok_ratio": "ratio", "failed_ratio": "ratio", "peak_rss_mb": "MB",
}
# The JSON result carries these; the rest are printed and recorded.  Wall
# times swing with the shared host's speed (see speed.py), so the result
# carries reference seconds; setup_s is in reference seconds too, under the
# name and unit "s" the benchmark format fixes for it.  failed_ratio is 0 on
# both tables while a bounded metric must never be 0 (ok_ratio is its
# complement).
RESULT_METRICS = ("setup_s", "table_ref_s", "solve_ref_s_p50", "solve_ref_s_p90",
                  "converged_per_ref_s", "ok_ratio", "peak_rss_mb")


def per_layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "ref_s"
    if name.endswith("_us"):
        return "ref_us"
    if name.endswith("_ratio") or "_per_" in name:
        return "ratio"
    return "count"


def import_dgocp():
    """Import dgocp from this checkout's src/, or exit with an error and no result."""
    src = ROOT / "src"
    if not (src / "dgocp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dgocp sources under {src}")
    sys.path.insert(0, str(src))
    import dgocp
    import dgocp.convergence  # noqa: F401  (the record-only wrapper patches it)

    if not Path(dgocp.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported dgocp from {dgocp.__file__}, not from {src}")
    return dgocp


def set_up(dgocp, name, seed):
    """Generate the inputs and warm the code paths; returns the workload."""
    wl = workloads.make(dgocp, name, seed)
    for problem in wl.problems():
        part = dgocp.make_uniform_partition(problem.T, WARMUP_N)
        opts = dgocp.OptimizeOptions(grad_tol=1e-8, max_outer=WARMUP_ITERS)
        try:
            dgocp.minimize(problem, None, part, 1, 1, opts)
        except RuntimeError:  # a stalled warm-up has still warmed the paths
            pass
    return wl


def time_set_ups(name, seed):
    """(wall, reference) seconds of complete set-ups in fresh processes.

    The wall time includes interpreter start; each process probes its own
    speed after importing numpy and again at its end, and prints the probes.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
        probes = json.loads(proc.stdout.splitlines()[-1])["probe_s"]
        samples.append((wall, to_ref(wall, probes)))
    return samples


def measure(wl, seconds, n_units=None, tracer=None):
    """Run units until the next would not fit in `seconds` (or exactly n_units).

    Returns the units as (ops, start, seconds) and the speed samples taken.
    """
    units = []
    with SpeedSampler() as speed:
        t_start = perf_counter()
        while True:
            k = len(units)
            handle = tracer.begin_unit(str(k)) if tracer is not None else None
            start = perf_counter()
            ops, dt = wl.run_unit(k)
            if tracer is not None:
                tracer.end_unit(handle)
            units.append((ops, start, dt))
            if n_units is not None:
                if len(units) >= n_units:
                    break
                continue
            elapsed = perf_counter() - t_start
            typical = statistics.median(d for _, _, d in units)
            if elapsed + typical > seconds:
                break
    return units, speed


def ref_total(units, speed):
    return sum(speed.ref_seconds(start, dt) for _, start, dt in units)


def e2e_metrics(units, speed, setup_samples):
    ops = [op for unit_ops, _, _ in units for op in unit_ops]
    timed = [op for op in ops if op.seconds > 0.0]
    wall = [op.seconds for op in timed]
    ref = [speed.ref_seconds(op.start, op.seconds) for op in timed]
    ok = sum(1 for op in ops if not op.failure)

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "setup_s": statistics.median(ref for _, ref in setup_samples),
        "setup_wall_s": statistics.median(wall for wall, _ in setup_samples),
        "table_ref_s": statistics.median(speed.ref_seconds(s, d) for _, s, d in units),
        "table_s": statistics.median(d for _, _, d in units),
        "solve_ref_s_p50": pct(ref, 50),
        "solve_ref_s_p90": pct(ref, 90),
        "solve_s_p50": pct(wall, 50),
        "solve_s_p90": pct(wall, 90),
        "converged_per_ref_s": ok / ref_total(units, speed),
        "converged_per_s": ok / sum(d for _, _, d in units),
        "ok_ratio": ok / len(ops),
        "failed_ratio": (len(ops) - ok) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def loadavg():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def summarize_failures(ops, limit=5):
    """Failure counts by op group and failure kind."""
    kinds = Counter(("/".join(op.label.split("/")[:2]), op.failure.split(":")[0])
                    for op in ops if op.failure)
    lines = [f"  {n} x {group}: {kind}" for (group, kind), n in kinds.most_common(limit)]
    if len(kinds) > limit:
        lines.append(f"  ... and {len(kinds) - limit} more kinds")
    return lines


def report_lines(name, units, metrics, samples):
    ops = [op for unit_ops, _, _ in units for op in unit_ops]
    not_ok = sum(1 for op in ops if op.failure)
    wrong = sum(1 for op in ops if op.wrong)
    n_times = sum(1 for op in ops if op.seconds > 0.0)
    unit_word = "round" if name == "box-starts" else "table"
    note = {
        "setup": f"median of {len(samples)} fresh-process set-ups",
        "table": f"median over {len(units)} {unit_word}(s)",
        "solve": f"one minimize, n={n_times}",
        "converged": f"{len(ops) - not_ok} ok ops over the measured time",
        "ok_ratio": f"{len(ops) - not_ok} of {len(ops)}",
        "failed_ratio": f"{not_ok} of {len(ops)} not ok, {wrong} of them wrong",
        "peak_rss_mb": "ru_maxrss of the run",
    }
    out = [f"# untraced: {len(units)} unit(s), {len(ops)} ops"]
    for key, value in metrics.items():
        why = note.get(key) or note[key.split("_")[0]]
        out.append(f"{key} = {value:.6g} {E2E_UNITS[key]}  ({why})")
    if not_ok:
        out.append("not ok:")
        out += summarize_failures(ops)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (used to time set-up)")
    args = ap.parse_args(argv)

    dgocp = import_dgocp()
    if args.setup_only:
        first = probe()
        set_up(dgocp, args.workload, args.seed)
        print(json.dumps({"probe_s": [first, probe()]}))
        return 0

    meta = {
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "loadavg_before": loadavg(),
    }
    samples = time_set_ups(args.workload, args.seed)
    wl = set_up(dgocp, args.workload, args.seed)
    units, speed = measure(wl, args.seconds)
    meta["probe_ms"] = speed.summary_ms()
    metrics = e2e_metrics(units, speed, samples)
    all_units = list(units)
    lines = report_lines(args.workload, units, metrics, samples)

    RESULTS.mkdir(parents=True, exist_ok=True)
    per_layer = None
    if args.trace:
        with Tracer() as tracer:
            for problem in wl.problems():
                tracer.wrap_problem(problem)
            traced, traced_speed = measure(wl, args.seconds, n_units=len(units),
                                           tracer=tracer)
        # counts and times per unit of work, so that runs which fit a
        # different number of units in --seconds compare; times in reference
        # seconds at the traced pass's mean speed
        to_ref_factor = ref_total(traced, traced_speed) / sum(d for _, _, d in traced)
        scale = {"count": 1.0 / len(traced), "ref_s": to_ref_factor / len(traced),
                 "ref_us": to_ref_factor}
        per_layer = {k: v * scale.get(per_layer_unit(k), 1.0)
                     for k, v in tracer.metrics().items()}
        per_layer["trace.overhead_ratio"] = (ref_total(traced, traced_speed)
                                             / ref_total(units, speed))
        all_units += traced
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        lines.append(f"# traced: same {len(traced)} unit(s); spans in {trace_path.relative_to(ROOT)}")
        if tracer.absent:
            lines.append("absent layers (reported as 0): " + ", ".join(tracer.absent))
        for key, value in per_layer.items():
            lines.append(f"{key} = {value:.6g} {per_layer_unit(key)}")
    meta["loadavg_after"] = loadavg()

    ops = [op for unit_ops, _, _ in all_units for op in unit_ops]
    failed = sum(1 for op in ops if op.wrong)
    correct = not failed
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "correct": correct,
              "attempted": len(ops), "failed": failed,
              "not_ok": sum(1 for op in ops if op.failure), "e2e": metrics,
              "per_layer": per_layer,
              "ops": [[op.label, round(op.seconds, 6), op.failure.split(":")[0]]
                      for op in ops]}
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    if args.trace:
        shown, unit_of = per_layer, per_layer_unit
    else:
        shown = {k: metrics[k] for k in RESULT_METRICS}
        unit_of = E2E_UNITS.get
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
