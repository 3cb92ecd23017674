"""Mesh-refinement convergence studies mirroring the benchmark error tables."""

import io
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import numpy as np

from .mesh import check_int, check_positive, l2_error, make_uniform_partition
from .optimize import OptimizeOptions, StallError, minimize

__all__ = ["ConvergenceRow", "ConvergenceReport", "run_convergence"]

BASE_H = 0.1
# the default table; its finest levels sit near round-off, so its options drive
# the optimizer well below the default stationarity tolerance to resolve them
DEFAULT_ORDERS = (1, 2, 3)
DEFAULT_LEVELS = 6
DEFAULT_OPTS = OptimizeOptions(method="newton", grad_tol=1e-14)


@dataclass
class ConvergenceRow:
    r: int
    h: float
    err_x: float
    err_u: float
    rate_x: Optional[float] = None
    rate_u: Optional[float] = None


@dataclass
class ConvergenceReport:
    rows: List[ConvergenceRow] = field(default_factory=list)

    def to_csv(self, path=None):
        buf = io.StringIO()
        buf.write("r,h,err_x,err_u,rate_x,rate_u\n")
        for row in self.rows:
            rx = "" if row.rate_x is None else f"{row.rate_x:.2f}"
            ru = "" if row.rate_u is None else f"{row.rate_u:.2f}"
            buf.write(f"{row.r},{row.h:.10g},{row.err_x:.4e},{row.err_u:.4e},{rx},{ru}\n")
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def run_convergence(builtin, orders=DEFAULT_ORDERS, levels=DEFAULT_LEVELS, opts=DEFAULT_OPTS,
                    progress=None):
    """Optimize on h = BASE_H * 2^-k for k = 0..levels-1 and tabulate L2 errors.

    Errors are measured against the closed-form optimum when available,
    otherwise against a self-computed reference of degree max(orders) + 2 on
    the builtin's mesh of width reference_h.
    The default options solve each level by Newton-CG to stationarity 1e-14;
    a problem with a control box needs opts with method "pgd".
    The levels are solved first, degree by degree and coarse to fine: the
    first from zero, every later one from the optimal control of the level
    before it (nested iteration), across degrees too.  The reference, when
    there is one, is solved last, from the optimum of the finest level of
    degree max(orders).  progress, when given, receives one line before each
    solve and one after it with its iterations and wall seconds.  Raises
    ValueError, before any solve, on no orders, an order that is not an
    integer >= 0, levels that is not an integer >= 1, or a builtin with
    neither both closed-form callables (exact_state and exact_control) nor a
    positive, finite reference_h, and StallError when a
    level or the reference is not solved to opts.grad_tol; a reference that
    stalls does so only after every level was solved.
    """
    orders = tuple(orders)
    if not orders:
        raise ValueError("orders must name at least one degree")
    for i, r in enumerate(orders):
        check_int(f"orders[{i}]", r, 0)
    check_int("levels", levels, 1)
    closed_form = callable(builtin.exact_state) and callable(builtin.exact_control)
    if not closed_form:
        check_positive("reference_h of a builtin without exact_state and exact_control",
                       builtin.reference_h)
    p = builtin.problem

    def solve(r, N, label, u0):
        """The optimum at degree r on N intervals, started from u0;
        StallError when it is not reached."""
        if progress:
            progress(label)
        t0 = perf_counter()
        report = minimize(p, u0, make_uniform_partition(p.T, N), r, r, opts)
        if not report.converged:
            raise StallError(report.iterations, report.cost, report.stationarity,
                             f"level r={r}, N={N} not converged after {report.iterations} "
                             f"iterations: stationarity {report.stationarity:.3e}")
        if progress:
            progress(f"{label}: {report.iterations} iterations, {perf_counter() - t0:.3f} s")
        return report

    solved, u0 = [], None  # (r, k, h, report), r-major, k-minor
    for r in orders:
        for k in range(levels):
            h = BASE_H * 2.0**-k
            N = int(round(p.T / h))
            res = solve(r, N, f"r={r}, k={k}, N={N}", u0)
            solved.append((r, k, h, res))
            u0 = res.u_star

    if closed_form:
        ref_x, ref_u = builtin.exact_state, builtin.exact_control
    else:
        # DG of degree r converges at h^(r+1), so on a smooth optimum two
        # degrees more reach round-off on far fewer intervals than the table's
        # highest degree would (p- against h-refinement; Schotzau and Schwab,
        # SIAM J. Numer. Anal. 38, 2000).  The gain stops where the march's
        # absolute 1e-12 residual per interval takes over: on
        # nonlinear-quadratic, degrees 6 to 8 on N = 32 all miss a shooting
        # solve by 4.8e-13 in x, and degrees 7 and 9 on N = 16 by 5.3e-12, so
        # its reference_h stops at N = 64.  Its closest start is the finest
        # level of the highest degree, which need not be the last one solved
        # (orders may not ascend)
        r_max = max(orders)
        r_ref, N_ref = r_max + 2, int(round(p.T / builtin.reference_h))
        finest = [res for r, _, _, res in solved if r == r_max][-1]
        ref = solve(r_ref, N_ref, f"reference solve: r={r_ref}, N={N_ref}", finest.u_star)
        ref_x, ref_u = ref.x_star, ref.u_star

    report = ConvergenceReport()
    for r, k, h, res in solved:
        row = ConvergenceRow(r=r, h=h, err_x=l2_error(res.x_star, ref_x),
                             err_u=l2_error(res.u_star, ref_u))
        if k > 0:
            prev = report.rows[-1]
            row.rate_x = float(np.log2(prev.err_x / row.err_x))
            row.rate_u = float(np.log2(prev.err_u / row.err_u))
        report.rows.append(row)
    return report
