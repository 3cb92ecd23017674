"""Box-constrained minimization of the reduced cost over discretized controls.

Controls live in the DG space of degree r_control and are box-clipped at the
(r_control + 1)-point Gauss nodes, where the stationarity is measured too.
Each iteration picks a target control and relaxes toward it: the trial
u + theta (u_hat - u), from theta = 1, is accepted when the cost does not
rise beyond round-off, and otherwise theta is halved.  The two methods differ
only in the target:

* pgd (spectral projected gradient; Barzilai and Borwein, IMA J. Numer.
  Anal. 8, 1988; Birgin, Martinez and Raydan, SIAM J. Optim. 10, 2000):
  clip(U - sigma G) at the control nodes, with sigma = <s, s> / <s, y> for
  the last accepted step s and its change of the projected gradient y (L2
  inner products), and sigma = 1 on the first iteration and wherever
  <s, y> <= 0.  sigma is the inverse curvature along the last step, so the
  step fits the control curvature: from zero at the default grad_tol and
  r = 1 the builtins take 6-9 iterations, with or without a box, on N = 8,
  64 and 320 alike;
* newton (no box): u + d, with d from truncated conjugate gradients on the
  discrete reduced Hessian, H d = -g, in the control L2 inner product.  The
  tangent and second-order adjoint systems are the factored system of the
  step's adjoint solve and its transpose, and each Hessian-vector product
  applies them, so a step costs one nonlinear state solve.
"""

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule
from .ivp import SolverFailure
from .mesh import (DGFunction, check_int, check_positive, modal_from_values, project_l2,
                   sample_values, total_variation)
from .ocp import cost, hessian_vector, projected_gradient, solve_adjoint, solve_state

__all__ = [
    "OptimizeOptions",
    "OptimizeReport",
    "StallError",
    "minimize",
    "stationarity",
]

RELAX_FLOOR = 2.0**-10
# slack for "non-increasing cost": near the optimum cost differences fall below
# the resolution of the cost value itself
COST_SLACK = 1e-13
METHODS = ("pgd", "newton")
# CG stops at the relative residual min(CG_FORCING, ||g||)^2, a forcing term of
# order ||g||^2 (alpha = 2 in Eisenstat and Walker, SIAM J. Sci. Comput. 17,
# 1996): quadratic convergence near the optimum (Nocedal and Wright, Numerical
# Optimization, section 7.1), and fewer outer iterations, each a nonlinear
# state solve, for longer CG runs, whose H v products are two affine solves
# each on a factored system; it stops already at the absolute residual
# CG_FORCING * grad_tol, below which the stop test cannot tell iterates apart
CG_FORCING = 0.1


@dataclass(frozen=True)
class OptimizeOptions:
    method: str = "pgd"
    grad_tol: float = 1e-10
    max_outer: int = 10000

    def __post_init__(self):
        # the deleted forward-backward sweep "fbs" ran the pgd iterates on every
        # builtin; its only caller is perfbench's box-starts workload, and this
        # line goes with the benchmark change that drops those ops (ROADMAP
        # item 1b, "box-starts' fbs ops", and item 3)
        if self.method == "fbs":
            object.__setattr__(self, "method", "pgd")
        if self.method not in METHODS:
            raise ValueError("method must be 'pgd' or 'newton'")
        check_positive("grad_tol", self.grad_tol)
        check_int("max_outer", self.max_outer, 0)


@dataclass
class OptimizeReport:
    u_star: DGFunction
    x_star: DGFunction
    lambda_star: DGFunction
    cost_history: list
    stationarity_history: list
    iterations: int
    converged: bool

    @property
    def cost(self):
        return self.cost_history[-1]

    @property
    def stationarity(self):
        return self.stationarity_history[-1]

    @property
    def tv_u(self):
        return total_variation(self.u_star)


class StallError(RuntimeError):
    """The optimizer ended short of stationarity: no descent after relaxing to
    RELAX_FLOOR, a start control whose cost is not finite (iteration 0), or
    (raised by callers that need an optimum) the iteration cap."""

    def __init__(self, iteration, cost, stationarity, message=None):
        self.iteration = iteration
        self.cost = cost
        self.stationarity = stationarity
        super().__init__(
            message
            or f"optimizer stalled at iteration {iteration}: "
            f"cost {cost:.6e}, stationarity {stationarity:.3e}"
        )


def _control_to_dg(p, u0, partition, r_control):
    """Initial control as a DGFunction of degree r_control, box-clipped nodally."""
    def clipped(ts):
        vals = np.zeros((ts.size, p.m)) if u0 is None else sample_values(u0, ts, p.m)
        return p.clip_box(vals)

    return project_l2(clipped, partition, r_control, gauss_rule(r_control + 1), p.m)


def _residual(p, u, x, lam, nodal_rule):
    """Projected-gradient residual max |U - clip(U - G)| at the control nodes,
    the values U and G there, (N, r_control + 1, m), and the projected
    gradient g, whose values at the control nodes are G.
    """
    g = projected_gradient(p, u, x, lam)
    U = u.values_on_quad(nodal_rule)
    G = g.values_on_quad(nodal_rule)
    return float(np.max(np.abs(U - p.clip_box(U - G)))), U, G, g


def _newton_direction(hess, g, grad_tol):
    """Truncated (Steihaug) CG for H d = -g in the control L2 inner product.

    It stops at the residual max(min(CG_FORCING, ||g||)^2 ||g||,
    CG_FORCING grad_tol), after as many steps as g has coefficients, or on a
    direction whose curvature is not positive: then it returns the iterate so
    far, or -g when that happens on the first step.
    """
    gnorm = g.l2_norm()
    tol = max(min(CG_FORCING, gnorm) ** 2 * gnorm, CG_FORCING * grad_tol)
    d, res = 0.0 * g, -1.0 * g
    direction, rr = res, gnorm**2
    for step in range(g.coeffs.size):
        Hp = hess(direction)
        curvature = direction.inner(Hp)
        if not curvature > 0.0:  # a NaN curvature stops too
            return res if step == 0 else d
        alpha = rr / curvature
        d = d + alpha * direction
        res = res - alpha * Hp
        rr, rr_old = res.l2_norm_sq(), rr
        if np.sqrt(rr) <= tol:
            break
        direction = res + (rr / rr_old) * direction
    return d


def minimize(p, u0, partition, r_state, r_control=None, opts=None):
    """Minimize j_h over box-feasible DG controls of degree r_control.

    Returns an OptimizeReport.  Raises StallError when no relaxation down to
    RELAX_FLOOR is accepted before reaching stationarity, or before the first
    iteration when the cost at the start control is not finite (every trial
    would pass the accept bound), and SolverFailure when the state solve at
    the start control fails; a failed trial solve is a rejected trial.
    Raises ValueError, before any solve, for a degree that is not an integer
    >= 0, for a partition that does not end at p.T, and for method "newton"
    on a problem without a hessian (OCProblem.require_hessian) or with a
    finite control bound.
    """
    opts = opts or OptimizeOptions()
    check_int("r_state", r_state, 0)
    r_control = r_state if r_control is None else r_control
    check_int("r_control", r_control, 0)
    if r_control > r_state:
        raise ValueError("r_control must not exceed r_state")
    p.check_horizon(partition)
    newton = opts.method == "newton"
    if newton:
        p.require_hessian("method 'newton'")
    if newton and np.any(np.isfinite(np.concatenate((p.u_lo, p.u_hi)))):
        raise ValueError("method 'newton' does not handle a control box")

    nodal_rule = gauss_rule(r_control + 1)

    u = _control_to_dg(p, u0, partition, r_control)
    x = solve_state(p, u, r_state)
    c = cost(p, u, x)
    if not np.isfinite(c):
        raise StallError(0, c, np.nan, f"cost {c} at the start control is not finite")

    cost_hist, stat_hist = [], []
    u_prev = g_prev = None
    # pass max_outer + 1 only measures the final iterate
    for it in range(1, opts.max_outer + 2):
        lam = solve_adjoint(p, u, x)
        stat, U, G, g = _residual(p, u, x, lam, nodal_rule)
        cost_hist.append(c)
        stat_hist.append(stat)
        if stat <= opts.grad_tol or it > opts.max_outer:
            break

        if newton:
            hess = hessian_vector(p, u, x, lam)
            u_hat = u + _newton_direction(hess, g, opts.grad_tol)
        else:
            sigma = 1.0
            if u_prev is not None:
                s, y = u - u_prev, g - g_prev
                sy = s.inner(y)
                if sy > 0.0:  # a NaN curvature keeps the unit step too
                    sigma = s.l2_norm_sq() / sy
            u_prev, g_prev = u, g
            target = p.clip_box(U - sigma * G)
            u_hat = modal_from_values(target, partition, r_control, nodal_rule)
        bound = c + COST_SLACK * (1.0 + abs(c))
        theta = 1.0
        while True:
            u_try = u_hat if theta == 1.0 else (1.0 - theta) * u + theta * u_hat
            try:
                x_try = solve_state(p, u_try, r_state)
                c_try = cost(p, u_try, x_try)
            except SolverFailure:
                c_try = np.inf
            if c_try <= bound:
                break
            if theta <= RELAX_FLOOR:
                raise StallError(it, c, stat)
            theta *= 0.5
        u, x, c = u_try, x_try, c_try

    return OptimizeReport(
        u_star=u,
        x_star=x,
        lambda_star=lam,
        cost_history=cost_hist,
        stationarity_history=stat_hist,
        iterations=min(it, opts.max_outer),
        converged=stat <= opts.grad_tol,
    )


def stationarity(p, u, r):
    """Projected-gradient residual at the control nodes of the DGFunction u
    (fresh state and adjoint solves of degree r); the measure `minimize` stops on."""
    x = solve_state(p, u, r)
    lam = solve_adjoint(p, u, x)
    return _residual(p, u, x, lam, gauss_rule(u.degree + 1))[0]
