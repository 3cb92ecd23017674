"""DG solver for x' = F(t, x), x(0) = x0, and backward solves.

The weak DG equation couples intervals only through the upwind trace.  A
right-hand side comes in one of two forms, and each has its solve:

* closures F(ts, X) and dF_dx(ts, X), for a nonlinear system: the solve
  marches interval by interval, and on each interval a damped Newton
  iteration drives the (r+1)*d modal residual below tolerance;
* affine, x' = A(t) x + b(t), with A and b sampled once on the solve's
  quadrature grid: all N interval blocks are solved in one batched
  np.linalg.solve, for their response to the incoming trace and to the
  forcing, and only a d x d trace recurrence runs interval by interval.

Both forms assemble their interval blocks with one helper.  Backward
(terminal-value) solves are forward solves of the time-reversed system on the
reversed partition, followed by a coefficient-level reversal.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import default_rule, deriv_inner_matrix, legendre_table
from .mesh import DGFunction

__all__ = [
    "IVPRight",
    "SolverFailure",
    "solve_forward",
    "solve_backward",
    "reverse_dg",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DAMPING_FLOOR = 2.0**-10


def _time_rows(times):
    return times


@dataclass
class IVPRight:
    """Right-hand side F(t, x) of an IVP, in closure or in affine form.

    Closure form: F(ts, X) maps (q,), (q, d) -> (q, d); dF_dx maps to
    (q, d, d), both vectorized over time batches.  On interval n the solvers
    pass F and dF_dx, as first argument, entry n of `inputs(times)`, where
    `times` holds the (N, q) quadrature times of the partition.  The default
    hands over row n of the times, so F sees (ts, X).  A right-hand side built
    on time-dependent data (a control, a state) can instead sample that data
    once on the whole grid and hand each interval its slice.

    Affine form: F(t, x) = A(t) x + b(t), given as `affine(times) -> (A, b)`
    with A of shape (N, q, d, d) and b of shape (N, q, d), sampled at the
    (N, q) quadrature times.  F, dF_dx and inputs are then not used.
    """

    F: Optional[Callable] = None
    dF_dx: Optional[Callable] = None
    inputs: Callable = _time_rows
    affine: Optional[Callable] = None

    def __post_init__(self):
        if self.affine is None and (self.F is None or self.dF_dx is None):
            raise ValueError("IVPRight needs F and dF_dx, or affine")


class SolverFailure(RuntimeError):
    """A solve failed on some interval: its residual stayed above NEWTON_TOL,
    or its block was singular (residual inf)."""

    def __init__(self, interval, residual, message=None):
        self.interval = interval
        self.residual = residual
        super().__init__(
            message
            or f"Newton failed on interval {interval} (last residual {residual:.3e})"
        )


def _singular(n):
    return SolverFailure(n, np.inf, f"singular DG block on interval {n}")


class _Scheme:
    """Reference-interval tables of the degree-r DG scheme for a system of size d.

    On interval n the modal coefficients C (r+1, d) satisfy

        lin @ C - s x_in^T = (h/2) PtW @ F(t_q, P @ C),   lin = D + s s^T,

    with s_j = P_j(-1) = (-1)^j: the weak DG equation tested against the local
    Legendre basis, on the default_rule(r) quadrature.
    """

    def __init__(self, r, d):
        self.rule = default_rule(r)
        self.P = legendre_table(r, self.rule.points)      # (q, r+1)
        self.PtW = self.P.T * self.rule.weights            # (r+1, q)
        self.s = (-1.0) ** np.arange(r + 1)                # traces at xi = -1
        self.lin = deriv_inner_matrix(r) + np.outer(self.s, self.s)
        self.J_base = np.kron(self.lin, np.eye(d))         # state-independent block part
        # WPP[(q, a', b'), (j, a, k, b)] = w_q P_qj P_qk [a = a'] [b = b']: a block's
        # A-dependent part is the flattened A = dF/dx at the quadrature points times WPP
        eye = np.eye(d)
        self.WPP = np.einsum("jq,kq,ac,bd->qcdjakb", self.PtW, self.P.T, eye, eye).reshape(
            self.rule.q * d * d, self.J_base.size)

    def blocks(self, half_h, A):
        """Blocks lin (x) I - (h/2) sum_q w_q P_qj P_qk A_q: A (..., q, d, d) ->
        (..., nd, nd), nd = (r+1) d; half_h = h/2 broadcasts against the blocks."""
        lead, nd = A.shape[:-3], self.J_base.shape[0]
        K = (A.reshape(lead + (-1,)) @ self.WPP).reshape(lead + (nd, nd))
        return self.J_base - half_h * K


def solve_forward(rhs, x0, partition, r):
    """DG approximation of x' = F(t, x), x(0) = x0, in X_h^r.

    A closure right-hand side is solved by damped Newton, interval by
    interval; an affine one by a batched block solve and a trace recurrence.
    Either raises SolverFailure naming an interval when its residual stays
    above NEWTON_TOL or its block is singular.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    scheme = _Scheme(r, x0.size)
    solve = _solve_affine if rhs.affine is not None else _solve_newton
    return DGFunction(partition, r, x0.size, solve(rhs, x0, partition, scheme))


def _solve_newton(rhs, x0, partition, sch):
    """Coefficients (N, r+1, d) by damped Newton, marching interval by interval."""
    P, PtW, lin = sch.P, sch.PtW, sch.lin
    r1, d = sch.s.size, x0.size
    nd = r1 * d
    coeffs = np.empty((partition.N, r1, d))
    x_in = x0
    widths = partition.widths
    inputs = rhs.inputs(partition.quad_times(sch.rule))

    for n in range(partition.N):
        h = widths[n]
        a = inputs[n]
        C = np.zeros((r1, d))
        C[0] = x_in  # constant extension of the incoming trace
        trace_in = np.outer(sch.s, x_in)

        def residual(C):
            X = P @ C
            Fv = rhs.F(a, X)
            return lin @ C - trace_in - 0.5 * h * (PtW @ Fv), X

        R, X = residual(C)
        rnorm = np.max(np.abs(R))
        converged = rnorm <= NEWTON_TOL
        for _ in range(NEWTON_MAX_ITER):
            if converged:
                break
            J = sch.blocks(0.5 * h, rhs.dF_dx(a, X))
            try:
                delta = np.linalg.solve(J, -R.reshape(nd)).reshape(r1, d)
            except np.linalg.LinAlgError:
                raise _singular(n) from None
            alpha = 1.0
            while True:
                Rn, Xn = residual(C + alpha * delta)
                rn = np.max(np.abs(Rn))
                if rn < rnorm or alpha <= DAMPING_FLOOR:
                    break
                alpha *= 0.5
            C = C + alpha * delta
            R, X, rnorm = Rn, Xn, rn
            converged = rnorm <= NEWTON_TOL
        if not converged:
            raise SolverFailure(n, rnorm)
        coeffs[n] = C
        x_in = C.sum(axis=0)                       # left trace at t_n

    return coeffs


def _solve_blocks(J, B):
    """np.linalg.solve on the stacked interval blocks; a singular block raises
    SolverFailure naming its interval."""
    try:
        return np.linalg.solve(J, B)
    except np.linalg.LinAlgError:
        raise _singular(int(np.argmin(np.abs(np.linalg.det(J))))) from None


def _solve_affine(rhs, x0, partition, sch):
    """Coefficients (N, r+1, d) of the affine system x' = A x + b.

    Block n solves J_n C_n = (s (x) I) x_n + f_n, so C_n = G_n x_n + g_n, and
    the outgoing trace x_{n+1} = sum_j C_nj = M_n x_n + m_n.  The blocks, the
    forcing and the residual check are batched over all intervals; only the
    recurrence for the incoming traces x_n runs interval by interval.  A
    residual above NEWTON_TOL is corrected by the same solve applied to it.
    """
    N, r1, d = partition.N, sch.s.size, x0.size
    nd = r1 * d
    A, b = rhs.affine(partition.quad_times(sch.rule))
    half_h = 0.5 * partition.widths[:, None, None]
    J = sch.blocks(half_h, A)                           # (N, nd, nd)
    f = (half_h * (sch.PtW @ b)).reshape(N, nd)
    S = np.kron(sch.s[:, None], np.eye(d))              # (nd, d): takes x_n into block n
    Z = _solve_blocks(J, np.concatenate((np.broadcast_to(S, (N, nd, d)), f[:, :, None]), axis=2))
    G = Z[:, :, :d]
    M = G.reshape(N, r1, d, d).sum(axis=1)

    def sweep(g, x):
        """Coefficients (N, nd) for particular responses g and x_0 = x."""
        m = g.reshape(N, r1, d).sum(axis=1)
        xs = np.empty((N, d))
        for n in range(N):
            xs[n] = x
            x = M[n] @ x + m[n]
        return (G @ xs[:, :, None])[:, :, 0] + g

    def residual(C):
        x_out = C.reshape(N, r1, d).sum(axis=1)
        xs = np.concatenate((x0[None], x_out[:-1]))
        return (J @ C[:, :, None])[:, :, 0] - xs @ S.T - f

    C = sweep(Z[:, :, d], x0)
    R = residual(C)
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(R)) <= NEWTON_TOL:
            break
        C = C + sweep(_solve_blocks(J, -R[:, :, None])[:, :, 0], np.zeros(d))
        R = residual(C)
    rnorm = np.max(np.abs(R), axis=1)
    if not np.max(rnorm) <= NEWTON_TOL:
        raise SolverFailure(int(np.argmax(rnorm)), float(np.max(rnorm)))
    return C.reshape(N, r1, d)


def reverse_dg(F):
    """The time-reversed function t -> F(T - t) on the reversed partition."""
    signs = (-1.0) ** np.arange(F.degree + 1)
    coeffs = F.coeffs[::-1] * signs[None, :, None]
    return DGFunction(F.partition.reversed(), F.degree, F.dim, coeffs)


def solve_backward(rhs, xT, partition, r):
    """DG solve of the terminal-value problem x' = F(t, x), x(T) = xT.

    Realized as a forward solve of W'(s) = -F(T - s, W), W(0) = xT on the
    reversed partition, then reversed back; the result is the discrete
    upwind-adjoint solution tested against X_h^r.  An affine (A, b) becomes
    (-A, -b) sampled at T - s.
    """
    T = partition.T
    if rhs.affine is not None:
        def affine(times):
            A, b = rhs.affine(T - times)
            return -A, -b

        rev = IVPRight(affine=affine)
    else:
        rev = IVPRight(
            F=lambda a, X: -rhs.F(a, X),
            dF_dx=lambda a, X: -rhs.dF_dx(a, X),
            inputs=lambda times: rhs.inputs(T - times),
        )
    W = solve_forward(rev, xT, partition.reversed(), r)
    lam = reverse_dg(W)
    lam.partition = partition  # avoid accumulating float error in T - (T - t)
    return lam
