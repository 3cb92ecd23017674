"""Box-constrained minimization of the reduced cost over discretized controls.

Two methods: projected gradient descent with Armijo backtracking, and the
forward-backward sweep (state solve, adjoint solve, pointwise control update
from the stationarity condition).  Controls live in the DG space of degree
r_control, represented nodally at the (r_control + 1)-point Gauss nodes for
box projection and converted back to modal coefficients.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import default_rule, gauss_rule, legendre_table
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


def _project_box_nodal(p, dg, rule, nodal_P):
    """Clip a DG control at its Gauss nodes and re-interpolate (exact in degree)."""
    vals = np.einsum("qk,nkd->nqd", nodal_P, dg.coeffs)
    clipped = p.clip_box(vals)
    if np.array_equal(clipped, vals):
        return dg
    return modal_from_values(clipped, dg.partition, dg.degree, rule)


def _stationarity_sup(p, u, grad_fn, quad_ts):
    """sup over quadrature points of |u - clip(u - grad)|."""
    U = sample_values(u, quad_ts, p.m)
    G = grad_fn(quad_ts)
    return float(np.max(np.abs(U - p.clip_box(U - G))))


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

    Returns an OptimizeReport; raises StallError when neither backtracking nor
    relaxation produces descent before reaching stationarity.
    """
    opts = opts or OptimizeOptions()
    r_control = r_state if r_control is None else r_control
    if r_control > r_state:
        raise ValueError("r_control must not exceed r_state")

    rule = default_rule(r_state)
    quad_ts = partition.quad_times(rule).ravel()
    nodal_rule = gauss_rule(r_control + 1)
    nodal_P = legendre_table(r_control, nodal_rule.points)
    nodal_ts = partition.quad_times(nodal_rule).ravel()

    u = _control_to_dg(p, u0, partition, r_control)
    x = solve_state(p, u, partition, r_state)
    c = cost(p, u, x)

    cost_hist, stat_hist = [], []
    step = theta = 1.0  # PGD step and FBS relaxation start at full length
    converged = False
    it = 0
    log_rows = []

    for it in range(1, opts.max_outer + 1):
        lam = solve_adjoint(p, u, x, partition, r_state)
        grad_fn = reduced_gradient(p, u, x, lam)
        stat = _stationarity_sup(p, u, grad_fn, quad_ts)
        cost_hist.append(c)
        stat_hist.append(stat)
        log_rows.append((it, c, stat, step if opts.method == "pgd" else theta))
        if stat <= opts.grad_tol:
            converged = True
            break

        if opts.method == "fbs":
            target = _fbs_target(p, u, x, lam, nodal_ts)
        else:
            target = None

        if target is not None:
            target = p.clip_box(target).reshape(partition.N, r_control + 1, p.m)
            u_hat = modal_from_values(target, partition, r_control, nodal_rule)
            accepted = False
            while True:
                u_try = u_hat if theta == 1.0 else (1.0 - theta) * u + theta * u_hat
                x_try = solve_state(p, u_try, partition, r_state)
                c_try = cost(p, u_try, x_try)
                if c_try <= c + COST_SLACK * (1.0 + abs(c)):
                    accepted = True
                    break
                if theta <= RELAX_FLOOR:
                    break
                theta *= 0.5
            if not accepted:
                raise StallError(it, c, stat)
            u, x, c = u_try, x_try, c_try
        else:
            # projected gradient step (also the FBS fallback without a
            # pointwise update): direction = L2 projection of the gradient
            gvals = grad_fn(quad_ts).reshape(partition.N, rule.q, p.m)
            g_dg = modal_from_values(gvals, partition, r_control, rule)
            accepted = False
            while True:
                cand = DGFunction(partition, r_control, p.m, u.coeffs - step * g_dg.coeffs)
                u_try = _project_box_nodal(p, cand, nodal_rule, nodal_P)
                diff_sq = (u_try - u).l2_norm_sq()
                x_try = solve_state(p, u_try, partition, r_state)
                c_try = cost(p, u_try, x_try)
                if c_try <= c - (ARMIJO_C / step) * diff_sq:
                    accepted = True
                    break
                if step <= STEP_FLOOR:
                    break
                step *= 0.5
            if not accepted:
                raise StallError(it, c, stat)
            u, x, c = u_try, x_try, c_try
            step = min(step * 2.0, 1e6)

    lam = solve_adjoint(p, u, x, partition, r_state)
    if not converged:
        grad_fn = reduced_gradient(p, u, x, lam)
        cost_hist.append(c)
        stat_hist.append(_stationarity_sup(p, u, grad_fn, quad_ts))
        converged = stat_hist[-1] <= opts.grad_tol

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
        iterations=it,
        converged=converged,
        tv_u=total_variation(u),
    )


def stationarity(p, u, partition, r):
    """Projected-gradient sup norm at u (fresh state and adjoint solves)."""
    x = solve_state(p, u, partition, r)
    lam = solve_adjoint(p, u, x, partition, r)
    grad_fn = reduced_gradient(p, u, x, lam)
    return _stationarity_sup(p, u, grad_fn, partition.quad_times(default_rule(r)).ravel())
