"""Nonlinear DG solver for x' = F(t, x), x(0) = x0, and backward solves.

The weak DG equation couples intervals only through the upwind jump term, so
the solve marches interval by interval; on each interval a damped Newton
iteration drives the (r+1)*d modal residual below tolerance.  Backward
(terminal-value) solves are forward solves of the time-reversed system on the
reversed partition, followed by a coefficient-level reversal.
"""

from dataclasses import dataclass
from typing import Callable

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
    """Right-hand side F and its state Jacobian, vectorized over time batches.

    F(ts, X) maps (q,), (q, d) -> (q, d); dF_dx maps to (q, d, d).

    On interval n the solvers pass F and dF_dx, as first argument, entry n of
    `inputs(times)`, where `times` holds the (N, q) quadrature times of the
    partition.  The default hands over row n of the times, so F sees (ts, X).
    A right-hand side built on time-dependent data (a control, a state) can
    instead sample that data once on the whole grid and hand each interval
    its slice.
    """

    F: Callable
    dF_dx: Callable
    inputs: Callable = _time_rows


class SolverFailure(RuntimeError):
    """Newton failed to converge on some interval."""

    def __init__(self, interval, residual, message=None):
        self.interval = interval
        self.residual = residual
        super().__init__(
            message
            or f"Newton failed on interval {interval} (last residual {residual:.3e})"
        )


def solve_forward(rhs, x0, partition, r):
    """DG approximation of x' = F(t, x), x(0) = x0, in X_h^r.

    On each interval the modal coefficients satisfy

        D @ C + s (s @ C - x_in) = (h/2) P^T diag(w) F(t_q, P C)

    with s_j = P_j(-1) = (-1)^j, which is the weak DG equation tested against
    the local Legendre basis, on the default_rule(r) quadrature.
    """
    rule = default_rule(r)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size

    P = legendre_table(r, rule.points)            # (q, r+1)
    w = rule.weights
    s = (-1.0) ** np.arange(r + 1)                # traces at xi = -1
    D = deriv_inner_matrix(r)
    # state-independent part of the Jacobian: (D[j,k] + s_j s_k) * I_d
    lin = D + np.outer(s, s)
    J_base = np.einsum("jk,ab->jakb", lin, np.eye(d))
    PtW = P.T * w                                  # (r+1, q)

    sol = DGFunction(partition, r, d)
    x_in = x0
    nd = (r + 1) * d
    widths = partition.widths
    inputs = rhs.inputs(partition.quad_times(rule))

    for n in range(partition.N):
        h = widths[n]
        a = inputs[n]
        C = np.zeros((r + 1, d))
        C[0] = x_in  # constant extension of the incoming trace

        def residual(C):
            X = P @ C
            Fv = rhs.F(a, X)
            return lin @ C - np.outer(s, x_in) - 0.5 * h * (PtW @ Fv), X

        R, X = residual(C)
        rnorm = np.max(np.abs(R))
        converged = rnorm <= NEWTON_TOL
        for _ in range(NEWTON_MAX_ITER):
            if converged:
                break
            A = rhs.dF_dx(a, X)                   # (q, d, d)
            J = J_base - 0.5 * h * np.einsum("q,qj,qk,qab->jakb", w, P, P, A)
            delta = np.linalg.solve(J.reshape(nd, nd), -R.reshape(nd)).reshape(r + 1, d)
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
        sol.coeffs[n] = C
        x_in = C.sum(axis=0)                       # left trace at t_n

    return sol


def reverse_dg(F):
    """The time-reversed function t -> F(T - t) on the reversed partition."""
    signs = (-1.0) ** np.arange(F.degree + 1)
    coeffs = F.coeffs[::-1] * signs[None, :, None]
    return DGFunction(F.partition.reversed(), F.degree, F.dim, coeffs)


def solve_backward(rhs, xT, partition, r):
    """DG solve of the terminal-value problem x' = F(t, x), x(T) = xT.

    Realized as a forward solve of W'(s) = -F(T - s, W), W(0) = xT on the
    reversed partition, then reversed back; the result is the discrete
    upwind-adjoint solution tested against X_h^r.
    """
    T = partition.T
    rev = IVPRight(
        F=lambda a, X: -rhs.F(a, X),
        dF_dx=lambda a, X: -rhs.dF_dx(a, X),
        inputs=lambda times: rhs.inputs(T - times),
    )
    W = solve_forward(rev, xT, partition.reversed(), r)
    lam = reverse_dg(W)
    lam.partition = partition  # avoid accumulating float error in T - (T - t)
    return lam
