"""Box-constrained minimization of the reduced cost over discretized controls.

Two methods: projected gradient descent with Armijo backtracking, and the
forward-backward sweep (state solve, adjoint solve, pointwise control update
from the stationarity condition).  Controls live in the DG space of degree
r_control, represented nodally at the (r_control + 1)-point Gauss nodes for
box projection and converted back to modal coefficients; the stationarity is
measured at the same nodes.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import default_rule, gauss_rule, legendre_table
from .ivp import SolverFailure
from .mesh import DGFunction, modal_from_values, project_l2, sample_values, total_variation
from .ocp import cost, reduced_gradient, solve_adjoint, solve_state

__all__ = [
    "OptimizeOptions",
    "OptimizeReport",
    "StallError",
    "minimize",
    "stationarity",
]

ARMIJO_C = 1e-4
RELAX_FLOOR = 2.0**-10
STEP_FLOOR = 2.0**-30
# slack for "non-increasing cost": near the optimum cost differences fall below
# the resolution of the cost value itself
COST_SLACK = 1e-13


@dataclass
class OptimizeOptions:
    method: str = "fbs"
    grad_tol: float = 1e-10
    max_outer: int = 10000
    log_path: Optional[str] = None

    def __post_init__(self):
        if self.method not in ("pgd", "fbs"):
            raise ValueError("method must be 'pgd' or 'fbs'")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass
class OptimizeReport:
    u_star: DGFunction
    x_star: DGFunction
    lambda_star: DGFunction
    cost_history: list
    stationarity_history: list
    iterations: int
    converged: bool
    tv_u: float

    @property
    def cost(self):
        return self.cost_history[-1]

    @property
    def stationarity(self):
        return self.stationarity_history[-1]


class StallError(RuntimeError):
    """No descent after exhausting backtracking / relaxation."""

    def __init__(self, iteration, cost, stationarity):
        self.iteration = iteration
        self.cost = cost
        self.stationarity = stationarity
        super().__init__(
            f"optimizer stalled at iteration {iteration}: "
            f"cost {cost:.6e}, stationarity {stationarity:.3e}"
        )


def _control_to_dg(p, u0, partition, r_control):
    """Initial control as a DGFunction of degree r_control, box-clipped nodally."""
    def clipped(ts):
        vals = np.zeros((ts.size, p.m)) if u0 is None else sample_values(u0, ts, p.m)
        return p.clip_box(vals)

    return project_l2(clipped, partition, r_control, gauss_rule(r_control + 1), p.m)


def _nodal(dg, nodal_P):
    """Values of a DG function at the control Gauss nodes, (N, r_control + 1, m)."""
    return np.einsum("qk,nkd->nqd", nodal_P, dg.coeffs)


def _project_box_nodal(p, dg, rule, nodal_P):
    """Clip a DG control at its Gauss nodes and re-interpolate (exact in degree)."""
    vals = _nodal(dg, nodal_P)
    clipped = p.clip_box(vals)
    if np.array_equal(clipped, vals):
        return dg
    return modal_from_values(clipped, dg.partition, dg.degree, rule)


def _residual(p, u, x, lam, rule, nodal_P):
    """Projected-gradient residual max |U - clip(U - G)| at the control nodes.

    G is the reduced gradient, sampled once on the state's quadrature rule and
    L2-projected onto u's DG space; it is returned as the descent direction.
    """
    ts = u.partition.quad_times(rule)
    gvals = reduced_gradient(p, u, x, lam)(ts.ravel()).reshape(ts.shape + (p.m,))
    g = modal_from_values(gvals, u.partition, u.degree, rule)
    U, G = _nodal(u, nodal_P), _nodal(g, nodal_P)
    return float(np.max(np.abs(U - p.clip_box(U - G)))), g


def _fbs_target(p, u_dg, x_h, lam, nodal_ts):
    """Pointwise stationary control at the control nodes: solve gu = fu^T lam."""
    X = x_h.eval_many(nodal_ts)
    L = lam.eval_many(nodal_ts)
    if p.stationary_control is not None:
        return np.asarray(p.stationary_control(nodal_ts, X, L), dtype=float)
    if not p.has_second_partials:
        return None
    # guarded scalar Newton per point on  gu(t, x, u) - fu(t, x, u)^T lam = 0
    U = u_dg.eval_many(nodal_ts)
    for _ in range(50):
        res = p.gu(nodal_ts, X, U) - np.einsum("qdm,qd->qm", p.fu(nodal_ts, X, U), L)
        if np.max(np.abs(res)) <= 1e-12:
            return U
        J = p.guu(nodal_ts, X, U) - np.einsum(
            "qdmn,qd->qmn", p.fuu(nodal_ts, X, U), L
        )
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        U = U - np.clip(step, -1.0, 1.0)
    return None


def minimize(p, u0, partition, r_state, r_control=None, opts=None):
    """Minimize j_h over box-feasible DG controls of degree r_control.

    Returns an OptimizeReport.  Raises StallError when the line search finds
    no acceptable trial before reaching stationarity, and SolverFailure when
    the state solve at the start control fails; a failed trial solve is a
    rejected trial.
    """
    opts = opts or OptimizeOptions()
    r_control = r_state if r_control is None else r_control
    if r_control > r_state:
        raise ValueError("r_control must not exceed r_state")

    rule = default_rule(r_state)
    nodal_rule = gauss_rule(r_control + 1)
    nodal_P = legendre_table(r_control, nodal_rule.points)
    nodal_ts = partition.quad_times(nodal_rule).ravel()

    u = _control_to_dg(p, u0, partition, r_control)
    x = solve_state(p, u, partition, r_state)
    c = cost(p, u, x)

    cost_hist, stat_hist, log_rows = [], [], []
    step = theta = 1.0  # PGD step and FBS relaxation start at full length
    # pass max_outer + 1 only measures the final iterate
    for it in range(1, opts.max_outer + 2):
        lam = solve_adjoint(p, u, x, partition, r_state)
        stat, g = _residual(p, u, x, lam, rule, nodal_P)
        cost_hist.append(c)
        stat_hist.append(stat)
        log_rows.append((it, c, stat, step if opts.method == "pgd" else theta))
        if stat <= opts.grad_tol or it > opts.max_outer:
            break

        target = _fbs_target(p, u, x, lam, nodal_ts) if opts.method == "fbs" else None
        relax = target is not None
        if relax:
            target = p.clip_box(target).reshape(partition.N, r_control + 1, p.m)
            u_hat = modal_from_values(target, partition, r_control, nodal_rule)
            s, floor = theta, RELAX_FLOOR
        else:
            # projected gradient step (also the FBS fallback without a
            # pointwise update) along the L2-projected gradient
            s, floor = step, STEP_FLOOR
        while True:
            if relax:
                u_try = u_hat if s == 1.0 else (1.0 - s) * u + s * u_hat
                bound = c + COST_SLACK * (1.0 + abs(c))
            else:
                cand = DGFunction(partition, r_control, p.m, u.coeffs - s * g.coeffs)
                u_try = _project_box_nodal(p, cand, nodal_rule, nodal_P)
                bound = c - (ARMIJO_C / s) * (u_try - u).l2_norm_sq()
            try:
                x_try = solve_state(p, u_try, partition, r_state)
                c_try = cost(p, u_try, x_try)
            except SolverFailure:
                c_try = np.inf
            if c_try <= bound:
                break
            if s <= floor:
                raise StallError(it, c, stat)
            s *= 0.5
        u, x, c = u_try, x_try, c_try
        if relax:
            theta = s
        else:
            step = min(s * 2.0, 1e6)

    if opts.log_path:
        with open(opts.log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "cost", "stationarity", "step"])
            writer.writerows(log_rows)

    return OptimizeReport(
        u_star=u,
        x_star=x,
        lambda_star=lam,
        cost_history=cost_hist,
        stationarity_history=stat_hist,
        iterations=min(it, opts.max_outer),
        converged=stat <= opts.grad_tol,
        tv_u=total_variation(u),
    )


def stationarity(p, u, partition, r):
    """Projected-gradient residual at the control nodes of the DGFunction u
    (fresh state and adjoint solves of degree r); the measure `minimize` stops on."""
    x = solve_state(p, u, partition, r)
    lam = solve_adjoint(p, u, x, partition, r)
    nodal_P = legendre_table(u.degree, gauss_rule(u.degree + 1).points)
    return _residual(p, u, x, lam, default_rule(r), nodal_P)[0]
