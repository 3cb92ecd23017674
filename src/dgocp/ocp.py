"""Optimal control problem definition and the reduced-space primitives.

The reduced pipeline: state solve x_h = G_h(u), discrete adjoint lambda_h,
reduced gradient g_u - f_u^T lambda_h, tangent solve y_h = G_h'(u) v, the
Hessian quadratic form j_h''(u)(v, v), and the Hessian-vector product H v
from a tangent and a second-order adjoint system.  The adjoint systems are
the transposes of the linearized state system, and every affine solve at one
(u, x_h) shares one factorization of fx (ivp.factored).  Both Hessians read
the second partials of the Lagrangian L = g - lambda_h . f from the problem's
one callback, OCProblem.hessian.

Every primitive takes DG functions only and reads the partition and the
state degree from them; solve_state and hessian_form take the degree r of the
state they solve for.  Inputs are sampled on the quadrature grid from their
coefficients (mesh.sample_on_quad), the state, the control and the width-d
functions lambda_h and y_h by one sampler, _along: one on another partition
raises ValueError.

A problem is its callables, its control box and x0, whose size is the state
dimension d: no closed-form solution enters, and the optimizer reads only
the reduced gradient and, for Newton, the Lagrangian's Hessian, whose
absence OCProblem.require_hessian reports.  All problem
callables are vectorized over time batches; the primitives call them once on
the flattened (N*q) quadrature grid and pass their samples on in that layout,
which the affine solves (ivp.AffineSystem) and mesh.modal_from_values read:
    t: (q,), x: (q, d), u: (q, m), lam: (q, d)
    f -> (q, d); g -> (q,)
    fx -> (q, d, d); fu -> (q, d, m); gx -> (q, d); gu -> (q, m)
    hessian(t, x, u, lam) -> (Lxx (q, d, d), Lxu (q, d, m), Luu (q, m, m))
hessian's three arrays are the second partials of L = g - lam . f, with lam
the adjoint in solve_adjoint's convention, lam' = -fx^T lam + gx.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import apply_table, default_rule, deriv_inner_matrix, rule_table
from .ivp import factored, solve_forward
from .mesh import DGFunction, check_int, check_positive, modal_from_values, sample_on_quad

__all__ = [
    "OCProblem",
    "solve_state",
    "solve_adjoint",
    "projected_gradient",
    "cost",
    "tangent_solve",
    "hessian_form",
    "hessian_vector",
    "adjoint_residual",
]


@dataclass
class OCProblem:
    """Dynamics f, running cost g, their first partials, the Hessian of the
    Lagrangian g - lam . f, x0 and the control box."""

    m: int
    T: float
    x0: np.ndarray
    f: Callable
    g: Callable
    fx: Callable
    fu: Callable
    gx: Callable
    gu: Callable
    hessian: Optional[Callable] = None
    u_lo: Optional[np.ndarray] = None
    u_hi: Optional[np.ndarray] = None

    def __post_init__(self):
        self.T = check_positive("T", self.T)
        check_int("m", self.m, 1)
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.ndim != 1 or self.x0.size == 0 or not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be a 1-D, non-empty, finite vector")
        self.u_lo = self._bound(self.u_lo, -np.inf)
        self.u_hi = self._bound(self.u_hi, np.inf)
        if not np.all(self.u_lo <= self.u_hi):          # a NaN bound fails too
            raise ValueError("lower bound exceeds upper bound")

    def _bound(self, b, fill):
        if b is None:
            return np.full(self.m, fill)
        return np.broadcast_to(np.asarray(b, dtype=float), (self.m,)).copy()

    @property
    def d(self):
        return self.x0.size

    def require_hessian(self, caller):
        """ValueError naming the caller unless the problem has its hessian."""
        if self.hessian is None:
            raise ValueError(f"{caller} requires OCProblem.hessian")

    def clip_box(self, u_vals):
        return np.clip(u_vals, self.u_lo, self.u_hi)

    def check_horizon(self, partition):
        """ValueError unless the partition ends at T, up to the relative 1e-12
        slack that Partition.locate allows."""
        if not abs(partition.T - self.T) <= 1e-12 * self.T:
            raise ValueError(f"the partition ends at {partition.T!r}, not at T = {self.T!r}")


def _along(p, x_h, u, rule, *extra):
    """The flattened quadrature times of x_h's partition under the rule, and
    the state x_h (N*q, d), the control u (N*q, m) and each width-d DG
    function in extra (lambda_h, y_h) as (N*q, d), sampled there."""
    part = x_h.partition
    ts = part.quad_times(rule).ravel()
    return (ts, sample_on_quad(x_h, part, rule, p.d), sample_on_quad(u, part, rule, p.m),
            *(sample_on_quad(fn, part, rule, p.d) for fn in extra))


def solve_state(p, u, r):
    """x_h = G_h(u): forward DG solve of degree r of x' = f(t, x, u(t)) on u's partition.

    f and fx go to the solver as they are, with u as its datum: the solver
    samples u once, at all quadrature times of the solve.  Raises ValueError
    when u's partition does not end at p.T (OCProblem.check_horizon).
    """
    if not isinstance(u, DGFunction):
        raise TypeError("the control must be a DGFunction")
    check_int("r", r, 0)
    if u.dim != p.m:
        raise ValueError(f"the control has {u.dim} columns, expected {p.m}")
    p.check_horizon(u.partition)
    return solve_forward(p.f, p.fx, p.x0, u.partition, r, (u,))


def solve_adjoint(p, u, x_h):
    """Discrete adjoint: backward DG solve of lam' = -fx^T lam + gx, lam(T) = 0.

    The system is affine in lam: fx and gx along (t, x_h, u) are sampled
    once, on x_h's forward quadrature grid, and lam, of x_h's degree, solves
    the transpose of the DG system of fx (AffineSystem.solve_transposed).
    """
    ts, X, U = _along(p, x_h, u, default_rule(x_h.degree))
    system = factored(p.fx(ts, X, U), x_h.partition, x_h.degree)
    return DGFunction(x_h.partition, system.solve_transposed(p.gx(ts, X, U), np.zeros(p.d)))


def projected_gradient(p, u, x_h, lambda_h):
    """The reduced gradient as a DGFunction of u's degree: its integrand,
    sampled once on the state's default rule, L2-projected onto u's DG space.
    Its L2 inner product with any direction of that degree is j_h'(u) there."""
    part, rule = u.partition, default_rule(x_h.degree)
    ts, X, U, L = _along(p, x_h, u, rule, lambda_h)
    gvals = p.gu(ts, X, U) - np.einsum("qdm,qd->qm", p.fu(ts, X, U), L)
    return modal_from_values(gvals, part, u.degree, rule)


def _integrate(values, partition, rule):
    """Quadrature over [0, T] of values sampled at the flattened (N, q) rule times."""
    per = values.reshape(partition.N, rule.q) @ rule.weights
    return float(np.sum(0.5 * partition.widths * per))


def cost(p, u, x_h):
    """j_h(u) = quadrature of g(t, x_h, u) over [0, T], on the state's default rule."""
    part, rule = x_h.partition, default_rule(x_h.degree)
    return _integrate(p.g(*_along(p, x_h, u, rule)), part, rule)


def tangent_solve(p, u, x_h, v):
    """y_h = G_h'(u) v: forward DG solve of the linearized dynamics, y(0) = 0.

    The system is affine in y: fx and fu v along (t, x_h, u) are sampled
    once, at all quadrature times of the solve, of x_h's degree and grid.
    """
    partition, r = x_h.partition, x_h.degree
    rule = default_rule(r)
    ts, X, U = _along(p, x_h, u, rule)
    fu_v = np.einsum("qam,qm->qa", p.fu(ts, X, U), sample_on_quad(v, partition, rule, p.m))
    return DGFunction(partition, factored(p.fx(ts, X, U), partition, r).solve(fu_v, np.zeros(p.d)))


def hessian_form(p, u, v, r):
    """j_h''(u)(v, v) assembled from x_h, lambda_h, y_h and the Lagrangian's Hessian.

    The integral of the Lagrangian's second derivative form in (y_h, v),
    Y.Lxx Y + 2 Y.Lxu V + V.Luu V, with y_h the tangent G_h'(u) v.
    """
    p.require_hessian("hessian_form")
    check_int("r", r, 0)
    partition, rule = u.partition, default_rule(r)
    V = sample_on_quad(v, partition, rule, p.m)
    x_h = solve_state(p, u, r)
    lam = solve_adjoint(p, u, x_h)
    y_h = tangent_solve(p, u, x_h, v)

    ts, X, U, L, Y = _along(p, x_h, u, rule, lam, y_h)
    Lxx, Lxu, Luu = p.hessian(ts, X, U, L)
    form = (np.einsum("qab,qa,qb->q", Lxx, Y, Y) + 2.0 * np.einsum("qam,qa,qm->q", Lxu, Y, V)
            + np.einsum("qmn,qm,qn->q", Luu, V, V))
    return _integrate(form, partition, rule)


def hessian_vector(p, u, x_h, lambda_h):
    """The discrete reduced Hessian j_h''(u) as an operator v -> H v.

    u and v are DGFunctions; H v is the DGFunction of u's degree whose L2
    inner product with any w of that degree is j_h''(u)(v, w): the L2
    projection of the integrand below, as projected_gradient projects the
    gradient.  x_h and lambda_h are the state and the adjoint at u.  The data
    along (t, x_h, u, lambda_h) and the Lagrangian's Hessian are sampled once, on
    the state's quadrature grid.  A product solves two affine systems, the
    tangent y = G_h'(u) v and the second-order adjoint mu,

        y' = fx y + fu v,                    y(0) = 0,
        mu' = -fx^T mu + Lxx y + Lxu v,      mu(T) = 0,
        H v = Luu v + Lxu^T y - fu^T mu,

    with (Lxx, Lxu, Luu) = p.hessian(t, x_h, u, lambda_h), the second partials
    of L = g - lambda_h . f.  The
    second is the transpose of the first, so both use the one factorization
    of fx, which solve_adjoint at the same (u, x_h) has already built; a
    product samples v on the grid and makes no further factorization.
    """
    p.require_hessian("hessian_vector")
    partition, rule = x_h.partition, default_rule(x_h.degree)
    ts, X, U, L = _along(p, x_h, u, rule, lambda_h)
    fx, fu = p.fx(ts, X, U), p.fu(ts, X, U)
    Lxx, Lxu, Luu = p.hessian(ts, X, U, L)
    system = factored(fx, partition, x_h.degree)
    P, zeros = rule_table(x_h.degree, rule), np.zeros(p.d)

    def apply(v):
        V = sample_on_quad(v, partition, rule, p.m)
        y = system.solve(np.einsum("qam,qm->qa", fu, V), zeros)
        Y = apply_table(P, y).reshape(ts.size, p.d)
        b = np.einsum("qab,qb->qa", Lxx, Y) + np.einsum("qam,qm->qa", Lxu, V)
        M = apply_table(P, system.solve_transposed(b, zeros)).reshape(ts.size, p.d)
        hv = (np.einsum("qmn,qn->qm", Luu, V) + np.einsum("qam,qa->qm", Lxu, Y)
              - np.einsum("qam,qa->qm", fu, M))
        return modal_from_values(hv, partition, u.degree, rule)

    return apply


def adjoint_residual(p, u, x_h, lambda_h):
    """Max-norm residual of the discrete adjoint weak form over a full DG basis.

    For each interval n and basis function phi = P_j e_a supported on I_n:

        B(phi, lam) - (phi, fx^T lam - gx)_I
          = int P_j' lam_a dxi + (-1)^j lam^+_{n-1,a} - [n < N] P_j(1) lam^+_{n,a}
            - (h/2) sum_q w_q P_j(xi_q) rhs_a(t_q).
    """
    r = lambda_h.degree
    rule = default_rule(r)
    part = x_h.partition
    N = part.N

    ts, X, U, L = _along(p, x_h, u, rule, lambda_h)
    rhs = np.einsum("qab,qa->qb", p.fx(ts, X, U), L) - p.gx(ts, X, U)
    rhs = rhs.reshape(N, rule.q, p.d)

    P = rule_table(r, rule)
    D = deriv_inner_matrix(r)  # D[j,k] = int P_k' P_j
    # int P_j' lam dxi = sum_k (int P_j' P_k) c_k = (D^T C)_j
    dterm = np.einsum("jk,nkd->njd", D.T, lambda_h.coeffs)
    sign = (-1.0) ** np.arange(r + 1)

    res = dterm - 0.5 * np.einsum("n,qj,q,nqd->njd", part.widths, P, rule.weights, rhs)
    plus = sign @ lambda_h.coeffs                           # lam^+ at node n, (N, d)
    res += sign[:, None] * plus[:, None, :]
    res[:-1] -= plus[1:, None, :]
    return float(np.max(np.abs(res)))
