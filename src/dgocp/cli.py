"""Command-line front end: solve, convergence, verify."""

import argparse
import os
import sys

import numpy as np

from .convergence import (DEFAULT_LEVELS, DEFAULT_OPTS, DEFAULT_ORDERS, ConvergenceReport,
                          run_convergence)
from .ivp import SolverFailure
from .mesh import l2_error, make_uniform_partition, save_dg
from .ocp import adjoint_residual, solve_adjoint, solve_state
from .optimize import METHODS, OptimizeOptions, StallError, minimize
from .oracles import (gradient_discrepancy, hessian_discrepancy, hessian_vector_discrepancy,
                      random_dg, tangent_discrepancy, time_reversal_discrepancy,
                      worst_discrepancy)
from .problems import get_builtin

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3  # stall, the iteration cap reached, or a failed state solve

N_PLOT_SAMPLES = 401


def _write_columns(path, ts, vals, names):
    """CSV with a header row: the times ts, then one column of vals per name."""
    np.savetxt(path, np.column_stack((ts, vals)), fmt=["%.12g"] + ["%.12e"] * len(names),
               delimiter=",", header=",".join(["t"] + names), comments="")


def _write_samples(F, path, names):
    ts = np.linspace(0.0, F.partition.T, N_PLOT_SAMPLES)
    _write_columns(path, ts, F.eval_many(ts, side="left"), names)


def _write_jumps(F, path, names):
    _write_columns(path, F.partition.nodes[1:-1], F.jumps(), ["jump_" + n for n in names])


def _positive(kind):
    """argparse type: a finite value of `kind` that is > 0 (so an int is >= 1;
    NaN and inf fail)."""
    def parse(text):
        value = kind(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _nonnegative(text):
    """argparse type: an int >= 0 (a polynomial degree, an iteration cap)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _degrees(text):
    """argparse type: comma-separated polynomial degrees."""
    return tuple(_nonnegative(v) for v in text.split(","))


def _not_converged(err):
    """Report a StallError or SolverFailure on one stderr line."""
    kind = "stalled" if isinstance(err, StallError) else "failed"
    print(f"solver {kind}: {err}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def cmd_solve(args):
    builtin = get_builtin(args.problem)
    p = builtin.problem
    N = args.intervals or (int(round(p.T / args.h)) if args.h else 10)
    if N < 1:
        print(f"dgocp solve: error: --h {args.h} leaves no interval on [0, {p.T}]",
              file=sys.stderr)
        return EXIT_USAGE
    part = make_uniform_partition(p.T, N)
    opts = OptimizeOptions(
        method=args.method,
        grad_tol=args.grad_tol,
        max_outer=args.max_iter,
    )
    try:
        report = minimize(p, None, part, args.order, args.order, opts)
    except (StallError, SolverFailure) as err:
        return _not_converged(err)

    os.makedirs(args.out, exist_ok=True)
    u_dg = report.u_star
    xnames = [f"x_{i+1}" for i in range(p.d)]
    unames = [f"u_{i+1}" for i in range(p.m)]
    save_dg(u_dg, os.path.join(args.out, "u.csv"))
    save_dg(report.x_star, os.path.join(args.out, "x.csv"))
    save_dg(report.lambda_star, os.path.join(args.out, "lambda.csv"))
    _write_samples(report.x_star, os.path.join(args.out, "x_samples.csv"), xnames)
    _write_samples(u_dg, os.path.join(args.out, "u_samples.csv"), unames)
    _write_samples(report.lambda_star, os.path.join(args.out, "lambda_samples.csv"), xnames)
    _write_jumps(report.x_star, os.path.join(args.out, "x_jumps.csv"), xnames)
    _write_jumps(u_dg, os.path.join(args.out, "u_jumps.csv"), unames)

    summary = {
        "problem": args.problem,
        "order": args.order,
        "intervals": N,
        "h": part.h,
        "method": args.method,
        "iterations": report.iterations,
        "converged": report.converged,
        "cost": repr(report.cost),
        "stationarity": repr(report.stationarity),
        "tv_u": repr(report.tv_u),
    }
    if builtin.exact_state is not None:
        summary["err_x"] = f"{l2_error(report.x_star, builtin.exact_state):.4e}"
        summary["err_u"] = f"{l2_error(u_dg, builtin.exact_control):.4e}"
    lines = [f"{k}={v}" for k, v in summary.items()]
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_convergence(args):
    builtin = get_builtin(args.problem)
    opts = OptimizeOptions(method=args.method, grad_tol=args.grad_tol)
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    try:
        report = run_convergence(builtin, orders=args.orders, levels=args.levels,
                                 opts=opts, progress=progress)
    except (StallError, SolverFailure) as err:
        if args.out:
            ConvergenceReport().to_csv(args.out)
        return _not_converged(err)
    text = report.to_csv(args.out)
    print(text, end="")
    return EXIT_OK


def _corrupted(problem, which):
    """Return the problem with one derivative callable shifted by 1e-3, which
    changes every value (1.001 a + 1e-3 rounds back to a at a = -1)."""
    orig = getattr(problem, which)
    setattr(problem, which, lambda t, x, u: orig(t, x, u) + 1e-3)
    return problem


def run_verification(problem_name, order, intervals, seed, corrupt=None, echo=print):
    """The finite-difference and structural oracle battery; returns overall pass."""
    p = get_builtin(problem_name).problem
    if corrupt:
        p = _corrupted(p, corrupt)
    part = make_uniform_partition(p.T, intervals)
    rng = np.random.default_rng(seed)
    ok = True

    def check(name, value, tol):
        nonlocal ok
        good = value < tol
        ok = ok and good
        echo(f"{name}: {'PASS' if good else 'FAIL'} (discrepancy {value:.3e}, tol {tol:.0e})")

    check("gradient-check", worst_discrepancy(gradient_discrepancy, rng, p, part, order, 5), 1e-6)
    check("tangent-check", worst_discrepancy(tangent_discrepancy, rng, p, part, order, 5), 1e-6)
    check("hessian-check", worst_discrepancy(hessian_discrepancy, rng, p, part, order, 3), 1e-4)
    check("hessian-vector-check",
          worst_discrepancy(hessian_vector_discrepancy, rng, p, part, order, 3), 1e-6)

    # discrete adjoint weak-form residual over a full test basis
    u = random_dg(rng, part, order, p.m)
    x = solve_state(p, u, order)
    lam = solve_adjoint(p, u, x)
    check("adjoint-residual", adjoint_residual(p, u, x, lam), 1e-10)

    check("time-reversal", time_reversal_discrepancy(rng, p.d, part, order), 1e-10)
    return ok


def cmd_verify(args):
    ok = run_verification(args.problem, args.order, args.intervals, args.seed,
                          corrupt=args.corrupt)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(prog="dgocp",
                                     description="DG time-stepping optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = OptimizeOptions()
    ps = sub.add_parser("solve", help="optimize one problem instance")
    ps.add_argument("--problem", required=True, choices=["linear-lq", "nonlinear-quadratic"])
    ps.add_argument("--order", type=_nonnegative, default=1)
    mesh = ps.add_mutually_exclusive_group()
    mesh.add_argument("--intervals", type=_positive(int))
    mesh.add_argument("--h", type=_positive(float))
    ps.add_argument("--method", choices=METHODS, default=defaults.method)
    ps.add_argument("--out", default="out")
    ps.add_argument("--grad-tol", type=_positive(float), default=defaults.grad_tol)
    ps.add_argument("--max-iter", type=_nonnegative, default=defaults.max_outer)
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("convergence", help="mesh-refinement error table")
    pc.add_argument("--problem", required=True, choices=["linear-lq", "nonlinear-quadratic"])
    pc.add_argument("--orders", type=_degrees, default=DEFAULT_ORDERS)
    pc.add_argument("--levels", type=_positive(int), default=DEFAULT_LEVELS)
    pc.add_argument("--method", choices=METHODS, default=DEFAULT_OPTS.method)
    pc.add_argument("--grad-tol", type=_positive(float), default=DEFAULT_OPTS.grad_tol)
    pc.add_argument("--out")
    pc.add_argument("--verbose", action="store_true")
    pc.set_defaults(func=cmd_convergence)

    pv = sub.add_parser("verify", help="gradient/tangent/Hessian/adjoint oracles")
    pv.add_argument("--problem", required=True, choices=["linear-lq", "nonlinear-quadratic"])
    pv.add_argument("--order", type=_nonnegative, default=1)
    pv.add_argument("--intervals", type=_positive(int), default=8)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--corrupt", choices=["fx", "fu", "gx", "gu"])
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
