"""Smoke test of the benchmark at tiny sizes (about 15 s).

    python3 perfbench/smoke.py

Checks that a tiny table and one box-starts round run and pass their output
checks, that a wrong table value is caught without aborting the run, that the
tracer counts every layer, restores what it patched and survives a missing
name, and that the printed metrics are exactly those BENCHMARK.json lists.
Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import sys

import run
import workloads
from tracer import Tracer


def check(cond, what):
    if not cond:
        print(f"smoke: FAIL {what}")
        sys.exit(1)
    print(f"smoke: ok   {what}")


def last_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    check(code == 0, f"run.py {' '.join(argv)} exits 0")
    return json.loads(buf.getvalue().splitlines()[-1])


def main():
    dgocp = run.import_dgocp()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.RESULTS = run.HERE / "results" / "smoke"

    wl = workloads.TableWorkload(dgocp, "linear-lq", orders=(1,), levels=2)
    units, _ = run.measure(wl, 0.0)
    ops = units[0][0]
    check(len(units) == 1 and len(ops) == 2, "a tiny table is one unit of two ops")
    check(not any(op.failure for op in ops), "tiny table matches recorded and closed-form values")

    original = dgocp.minimize
    with Tracer() as tracer:
        tracer.wrap_problem(wl.builtin.problem)
        tracer._patch("mesh", "NoSuchClass.method", lambda fn: fn)
        run.measure(wl, 0.0, n_units=1, tracer=tracer)
    m = tracer.metrics()
    check(dgocp.minimize is original and dgocp.convergence.minimize is original,
          "tracer restores the patched names")
    check("mesh.NoSuchClass.method" in tracer.absent, "a missing name is reported absent")
    check(all(m[k] > 0 for k in ("basis.legendre_table.calls", "mesh.eval_many.points",
                                 "ivp.state.intervals", "ivp.adjoint.intervals",
                                 "problems.callbacks.calls", "optimize.outer_iters",
                                 "mesh.l2_error.self_s", "convergence.levels_s")),
          "every layer of the table is counted")
    check(m["convergence.reference_s"] == 0.0, "the linear table has no reference solve")

    key = (1, 0.1)
    wl.recorded[key] = dict(wl.recorded[key], err_u=wl.recorded[key]["err_u"] * 1.001)
    ops, _ = wl.run_unit(0)
    check(ops[0].wrong and "table mismatch" in ops[0].failure and not ops[1].failure,
          "a wrong table value fails its op and the run goes on")

    e2e = last_json(["--workload", "box-starts", "--seed", "3", "--seconds", "1"])
    check(set(e2e) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(e2e["correct"] and e2e["attempted"] == 8, "one box round of eight checked ops")
    check({k: v["unit"] for k, v in e2e["metrics"].items()}
          == {m["name"]: m["unit"] for m in spec["end_to_end"]},
          "end-to-end metrics and units are those of BENCHMARK.json")
    traced = last_json(["--workload", "box-starts", "--seed", "3", "--seconds", "1",
                        "--trace", "1"])
    check({k: v["unit"] for k, v in traced["metrics"].items()}
          == {m["name"]: m["unit"] for m in spec["per_layer"]},
          "per-layer metrics and units are those of BENCHMARK.json")
    check(e2e["failed"] == traced["failed"] == 0, "no op failed as an operation")
    with open(run.RESULTS / "runs.jsonl") as fh:
        outcomes = [kind for _, _, kind in json.loads(fh.readlines()[-1])["ops"]]
    half = len(outcomes) // 2
    check(half == 8 and outcomes[:half] == outcomes[half:],
          "the traced pass repeats the same starts")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
