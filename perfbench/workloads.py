"""The benchmark's workloads: their inputs, one unit of work, and its output checks.

An op is one ``minimize`` call.  A unit is the smallest piece of work the run
repeats: one whole ``run_convergence`` table on the table workloads, and one
round of box-constrained solves on ``box-starts``.  Every op ends as

* ok: converged and every output check passed;
* not ok (``op.failure`` set): raised, returned ``converged=False``, or failed
  an output check.  ``ok_ratio`` and ``failed_ratio`` count these;
* wrong (``op.wrong``, also not ok): the op itself failed -- it returned an
  incorrect result (claims convergence above ``grad_tol``, leaves the box at
  a control node, misses the recorded table) or raised something other than
  the solver's typed failures (which derive from RuntimeError).  On the
  tables every op that is not ok is wrong, since the seed code solves every
  table op.  The result's ``failed`` counts wrong ops.

A run is ``correct`` when no op is wrong.  A box solve that ends at its
iteration cap with ``converged=False`` or raises ``StallError`` has reported
its outcome honestly: it is not ok, so the known non-converging box solves
lower ``ok_ratio`` on every run, but it is not a failed operation.
"""

import json
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# run_convergence's default stationarity tolerance, which the tables use
TABLE_GRAD_TOL = 1e-14
TABLE_ORDERS = (1, 2, 3)
TABLE_LEVELS = 6
# Table entries are compared with the values recorded from the seed code
# (seed_tables.json) in absolute terms.  Each table solve stops at
# stationarity 1e-14 with a reduced Hessian of norm ~1 (criterion 6 measures
# its minimum at ~1.004), so any correct solver lands within ~1e-14 of the
# same discrete optimum, and round-off over at most 1024 intervals adds
# ~1e-14 more.  1e-12 leaves a 30-100x margin and is still 3e-11 relative to
# the largest entry; entries at round-off level (r=3, N=320: err_u ~9.5e-14)
# are thereby compared absolutely, as they must be.
TABLE_ATOL = 1e-12
# The independent closed-form recomputation of the linear table evaluates the
# same discrete error through different code, so only evaluation round-off
# separates the two.
CLOSED_FORM_RTOL, CLOSED_FORM_ATOL = 1e-9, 1e-15

BOX_N, BOX_R, BOX_GRAD_TOL, BOX_CAP = 8, 1, 1e-8, 50
# Both boxes are active at the optimum: linear-lq's unconstrained optimal
# control reaches -0.47 at t=0 (the box of test_box_feasibility), and
# nonlinear-quadratic's reaches -0.82 at the first control node for N=8, r=1.
BOXES = {"linear-lq": (-0.3, 0.0), "nonlinear-quadratic": (-0.6, 0.0)}
# One round: one linear-lq start and three nonlinear-quadratic starts, each
# solved with both methods (8 ops).  The solve times form four clusters, from
# fast to slow nonlinear FBS, nonlinear PGD, linear FBS, linear PGD (3:3:1:1),
# so the median solve time falls inside the nonlinear PGD cluster and the 90th
# percentile inside the linear PGD one, not in a gap between clusters.  Three
# nonlinear starts per round also put enough nonlinear PGD solves (whose
# outcome depends on the start) into a run for a steady ok_ratio.
ROUND = (("linear-lq", 1), ("nonlinear-quadratic", 3))
METHODS = ("fbs", "pgd")
# a converged box solve touches the bound it was given
ACTIVE_TOL = 1e-6
FEASIBLE_TOL = 1e-12


@dataclass
class Op:
    label: str
    seconds: float
    start: float = 0.0  # perf_counter() when the op began
    converged: bool = False
    failure: str = ""  # empty when ok
    wrong: bool = False


def _fail(op, reason, wrong=False):
    op.failure = op.failure or reason  # "<kind>: <detail>"
    op.wrong = op.wrong or wrong


def _exception(op, exc):
    # the solver's typed failures (StallError, SolverFailure) are RuntimeErrors
    _fail(op, f"raised {type(exc).__name__}: {exc}", wrong=not isinstance(exc, RuntimeError))


def _nodal_values(coeffs, xi):
    """Values of modal Legendre coefficients (N, r+1, m) at reference points xi."""
    V = np.polynomial.legendre.legvander(np.asarray(xi, dtype=float), coeffs.shape[1] - 1)
    return np.einsum("ik,nkm->nim", V, coeffs)


def _coeffs(fn):
    """Modal coefficients of a DG result (a DGFunction, or a control wrapping one)."""
    dg = getattr(fn, "dg", None)
    return np.asarray((dg if dg is not None else fn).coeffs, dtype=float)


# ---------------------------------------------------------------------------
# convergence tables


def _closed_form_lq(t):
    """Optimal state and control of linear-lq (x' = -x + u, x(0) = 1, T = 1)."""
    s = np.sqrt(2.0) * (t - 1.0)
    denom = np.sqrt(2.0) * np.cosh(np.sqrt(2.0)) + np.sinh(np.sqrt(2.0))
    return (np.sqrt(2.0) * np.cosh(s) - np.sinh(s)) / denom, np.sinh(s) / denom


def _discrete_error(coeffs, nodes, values):
    """sqrt(sum_n h_n sum_i |e|^2) at the r+1 equidistant points of each interval."""
    r = coeffs.shape[1] - 1
    xi = np.linspace(-1.0, 1.0, r + 1) if r > 0 else np.zeros(1)
    widths = np.diff(nodes)
    diff = _nodal_values(coeffs, xi)[..., 0] - values
    return float(np.sqrt(np.sum(widths * np.sum(diff**2, axis=1))))


def _check_closed_form(op, report, row):
    nodes = report.x_star.partition.nodes
    r = report.x_star.degree
    xi = np.linspace(-1.0, 1.0, r + 1) if r > 0 else np.zeros(1)
    ts = 0.5 * (nodes[:-1] + nodes[1:])[:, None] + 0.5 * np.diff(nodes)[:, None] * xi
    x_ex, u_ex = _closed_form_lq(ts)
    for col, coeffs, exact in (("err_x", _coeffs(report.x_star), x_ex),
                               ("err_u", _coeffs(report.u_star), u_ex)):
        got, mine = getattr(row, col), _discrete_error(coeffs, nodes, exact)
        if abs(got - mine) > CLOSED_FORM_ATOL + CLOSED_FORM_RTOL * abs(mine):
            _fail(op, f"closed-form mismatch: {col} {got:.6e} vs {mine:.6e}", wrong=True)


class TableWorkload:
    """One run_convergence table per unit, with its default options."""

    def __init__(self, dgocp, problem, orders=TABLE_ORDERS, levels=TABLE_LEVELS):
        self.dgocp = dgocp
        self.builtin = dgocp.get_builtin(problem)
        self.problem = problem
        self.orders, self.levels = tuple(orders), levels
        self.has_reference = self.builtin.exact_state is None
        with open(os.path.join(HERE, "seed_tables.json")) as fh:
            recorded = json.load(fh)[problem]
        self.recorded = {(row["r"], round(row["h"], 12)): row for row in recorded}

    def problems(self):
        return [self.builtin.problem]

    def labels(self):
        out = ["reference"] if self.has_reference else []
        for r in self.orders:
            out += [f"r={r},k={k}" for k in range(self.levels)]
        return out

    def run_unit(self, k):
        """One table; returns (ops, seconds)."""
        conv = self.dgocp.convergence
        inner = conv.minimize
        calls = []

        def record(*args, **kwargs):
            t0 = perf_counter()
            try:
                report = inner(*args, **kwargs)
            except Exception as exc:
                calls.append((t0, perf_counter() - t0, None, exc))
                raise
            calls.append((t0, perf_counter() - t0, report, None))
            return report

        conv.minimize = record  # record-only: the report is returned unchanged
        table, table_exc = None, None
        t0 = perf_counter()
        try:
            table = self.dgocp.run_convergence(self.builtin, orders=self.orders,
                                               levels=self.levels)
        except Exception as exc:
            table_exc = exc
        finally:
            seconds = perf_counter() - t0
            conv.minimize = inner

        ops = []
        rows = list(table.rows) if table is not None else []
        for i, label in enumerate(self.labels()):
            t0, dt, report, exc = calls[i] if i < len(calls) else (0.0, 0.0, None, table_exc)
            op = Op(label, dt, t0)
            ops.append(op)
            if exc is not None:
                _exception(op, exc)
            elif report is None:
                _fail(op, "minimize call not observed")
            else:
                op.converged = bool(report.converged)
                if not op.converged:
                    _fail(op, f"not converged: stationarity {report.stationarity:.3e}")
                elif not report.stationarity <= TABLE_GRAD_TOL:
                    _fail(op, f"false convergence claim: stationarity "
                              f"{report.stationarity:.3e}", wrong=True)
            j = i - self.has_reference
            if 0 <= j < len(rows):
                self._check_row(op, rows[j], report)
            elif j >= 0:
                _fail(op, "no table row")
            # the seed code solves every op of both tables, and the table is
            # the product: any failure there leaves the table wrong
            op.wrong = op.wrong or bool(op.failure)
        return ops, seconds

    def _check_row(self, op, row, report):
        want = self.recorded.get((row.r, round(row.h, 12)))
        if want is None:
            _fail(op, f"table mismatch: unexpected row r={row.r} h={row.h}", wrong=True)
            return
        for col in ("err_x", "err_u"):
            got = getattr(row, col)
            if not abs(got - want[col]) <= TABLE_ATOL:
                _fail(op, f"table mismatch: {col} {got:.6e} vs {want[col]:.6e}", wrong=True)
        if self.problem == "linear-lq" and report is not None:
            _check_closed_form(op, report, row)


# ---------------------------------------------------------------------------
# box-constrained multi-start solves


class BoxStartsWorkload:
    """Rounds of feasible random starts, each solved with FBS and PGD."""

    def __init__(self, dgocp, seed):
        self.dgocp = dgocp
        self.seed = seed
        self.nodal = dgocp.gauss_rule(BOX_R + 1)
        self.cases = {}
        for name, (lo, hi) in BOXES.items():
            base = dgocp.get_builtin(name).problem
            problem = replace(base, u_lo=np.array([lo]), u_hi=np.array([hi]))
            part = dgocp.make_uniform_partition(problem.T, BOX_N)
            self.cases[name] = (problem, part, lo, hi)

    def starts(self, k):
        """Round k's start controls: values uniform in the box at the control
        Gauss nodes, drawn from (seed, k), so a re-run of round k repeats them."""
        rng = np.random.default_rng([self.seed, k])
        out = []
        for name, count in ROUND:
            problem, part, lo, hi = self.cases[name]
            for _ in range(count):
                vals = rng.uniform(lo, hi, size=(BOX_N, BOX_R + 1, problem.m))
                out.append((name, self.dgocp.modal_from_values(vals, part, BOX_R, self.nodal)))
        return out

    def problems(self):
        return [case[0] for case in self.cases.values()]

    def run_unit(self, k):
        """Round k; returns (ops, seconds)."""
        ops = []
        starts = self.starts(k)
        t_unit = perf_counter()
        for i, (name, u0) in enumerate(starts):
            problem, part, lo, hi = self.cases[name]
            for method in METHODS:
                opts = self.dgocp.OptimizeOptions(method=method, grad_tol=BOX_GRAD_TOL,
                                                  max_outer=BOX_CAP)
                t0 = perf_counter()
                try:
                    report = self.dgocp.minimize(problem, u0, part, BOX_R, BOX_R, opts)
                except Exception as exc:
                    report, error = None, exc
                op = Op(f"{name}/{method}/{k}.{i}", perf_counter() - t0, t0)
                ops.append(op)
                if report is None:
                    _exception(op, error)
                else:
                    self._check(op, report, lo, hi)
        return ops, perf_counter() - t_unit

    def _check(self, op, report, lo, hi):
        op.converged = bool(report.converged)
        vals = _nodal_values(_coeffs(report.u_star), self.nodal.points)
        if np.any(vals < lo - FEASIBLE_TOL) or np.any(vals > hi + FEASIBLE_TOL):
            _fail(op, f"infeasible control: range [{vals.min():.6g}, {vals.max():.6g}]",
                  wrong=True)
        if not op.converged:
            _fail(op, f"not converged: {report.iterations} iterations, "
                      f"stationarity {report.stationarity:.3e}")
        elif not report.stationarity <= BOX_GRAD_TOL:
            _fail(op, f"false convergence claim: stationarity {report.stationarity:.3e}",
                  wrong=True)
        elif vals.min() > lo + ACTIVE_TOL:
            _fail(op, f"inactive bound: lower bound {lo}, min {vals.min():.6g}", wrong=True)


def make(dgocp, name, seed):
    if name == "lq-table":
        return TableWorkload(dgocp, "linear-lq")
    if name == "nq-table":
        return TableWorkload(dgocp, "nonlinear-quadratic")
    if name == "box-starts":
        return BoxStartsWorkload(dgocp, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("lq-table", "nq-table", "box-starts")
