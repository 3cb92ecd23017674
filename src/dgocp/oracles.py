"""Finite-difference and structural oracles for the discrete derivatives.

Each discrepancy function runs one trial and returns a number; callers choose
the trials, seeds and tolerances.  The pointwise partial-derivative checks
raise ValueError instead.  `dgocp verify` and the test suite share these;
the package namespace does not import them.
"""

import numpy as np

from .basis import default_rule
from .ivp import AffineSystem, reverse_dg, solve_backward, solve_forward
from .mesh import DGFunction
from .ocp import (cost, hessian_form, hessian_vector, projected_gradient, solve_adjoint,
                  solve_state, tangent_solve)

__all__ = [
    "random_dg", "worst_discrepancy", "gradient_discrepancy", "tangent_discrepancy",
    "hessian_discrepancy", "hessian_vector_discrepancy", "time_reversal_discrepancy",
    "check_derivatives",
]

FD_EPS = 1e-5        # central first differences of j_h and G_h
FD2_EPS = 1e-4       # second central difference of j_h
POINT_EPS = 1e-6     # pointwise partial-derivative checks ...
POINT_TOL = 1e-5     # ... and their tolerance relative to max(1, max |deriv|)
POINT_PROBES = 5


def random_dg(rng, partition, r, dim=1):
    """Random DG function with decaying mode amplitudes (tame derivatives)."""
    coeffs = rng.uniform(-0.5, 0.5, size=(partition.N, r + 1, dim))
    coeffs *= 1.0 / (1.0 + np.arange(r + 1))[None, :, None]
    return DGFunction(partition, coeffs)


def worst_discrepancy(oracle, rng, p, partition, r, trials):
    """Largest oracle(p, u, v, r) over random pairs on the partition, u drawn before v.

    A NaN discrepancy propagates, so it fails any tolerance test.
    """
    values = []
    for _ in range(trials):
        u = random_dg(rng, partition, r, p.m)
        v = random_dg(rng, partition, r, p.m)
        values.append(oracle(p, u, v, r))
    return float(np.max(values))


def _reduced_cost(p, u, r):
    return cost(p, u, solve_state(p, u, r))


def _projected_gradient(p, u, r):
    x = solve_state(p, u, r)
    return projected_gradient(p, u, x, solve_adjoint(p, u, x))


def gradient_discrepancy(p, u, v, r):
    """|<j_h'(u), v> - fd| / max(1e-10, |fd|), fd the central difference of j_h,
    with j_h'(u) the projected gradient that minimize uses."""
    lhs = _projected_gradient(p, u, r).inner(v)
    jp = _reduced_cost(p, u + FD_EPS * v, r)
    jm = _reduced_cost(p, u - FD_EPS * v, r)
    fd = (jp - jm) / (2.0 * FD_EPS)
    return abs(lhs - fd) / max(1e-10, abs(fd))


def tangent_discrepancy(p, u, v, r):
    """Relative L2 gap between y_h = G_h'(u) v and the central quotient of G_h."""
    x = solve_state(p, u, r)
    y = tangent_solve(p, u, x, v)
    xp = solve_state(p, u + FD_EPS * v, r)
    xm = solve_state(p, u - FD_EPS * v, r)
    fd = (1.0 / (2.0 * FD_EPS)) * (xp - xm)
    return (y - fd).l2_norm() / max(1e-12, fd.l2_norm())


def hessian_discrepancy(p, u, v, r):
    """|j_h''(u)(v, v) - fd| / max(1, |fd|), fd the second central difference of j_h."""
    quad = hessian_form(p, u, v, r)
    j0 = _reduced_cost(p, u, r)
    jp = _reduced_cost(p, u + FD2_EPS * v, r)
    jm = _reduced_cost(p, u - FD2_EPS * v, r)
    fd = (jp - 2.0 * j0 + jm) / FD2_EPS**2
    return abs(quad - fd) / max(1.0, abs(fd))


def hessian_vector_discrepancy(p, u, v, r):
    """Largest of three relative gaps of the Hessian-vector product H at u:

    * H v against the central quotient of the projected gradient along v,
      in the control L2 norm (truncation and round-off, about 1e-10);
    * symmetry, <H v, u> against <v, H u>, with u as the second direction;
    * <v, H v> against hessian_form(v, v).

    The last two hold to round-off.  Each gap is relative, with a 1e-10 floor.
    """
    x = solve_state(p, u, r)
    hess = hessian_vector(p, u, x, solve_adjoint(p, u, x))
    Hv, Hu = hess(v), hess(u)
    fd = (1.0 / (2.0 * FD_EPS)) * (_projected_gradient(p, u + FD_EPS * v, r)
                                    - _projected_gradient(p, u - FD_EPS * v, r))
    vHv = v.inner(Hv)
    gaps = (
        (Hv - fd).l2_norm() / max(1e-10, fd.l2_norm()),
        abs(Hv.inner(u) - v.inner(Hu)) / max(1e-10, abs(Hv.inner(u))),
        abs(vHv - hessian_form(p, u, v, r)) / max(1e-10, abs(vHv)),
    )
    return float(max(gaps))


def time_reversal_discrepancy(rng, d, partition, r):
    """Max coefficient gap between the backward solve, on `partition`, of the
    time-reversed system and reverse_dg of a forward solve, on the reversed
    partition, of x' = A(t) x + b(t), x(0) = x0, with A(t) = A0 + t A1,
    b(t) = b0 + t b1 and x0 drawn from rng.  Both sides live on the same mesh,
    and the data vary in time, so a wrong reversal of the grid shows.

    The system runs both as closures (solve_forward, solve_backward) and as
    arrays on the quadrature grid: AffineSystem.solve on the reversed
    partition, and on `partition` the transposed solve that the adjoint
    solves use, of the AffineSystem of -A^T for the backward system's A.  The
    gap between the two forward solves counts as well.  The closures take
    the batched solve too: their dF_dx is the same at the linearity probe's
    two states, so their (A, b) come from dF_dx and F, and the closure
    residual confirms the result.
    """
    A0, A1 = rng.uniform(-1.0, 1.0, size=(2, d, d))
    b0, b1 = rng.uniform(-1.0, 1.0, size=(2, d))
    x0 = rng.uniform(-1.0, 1.0, size=d)
    T, rev, rule = partition.T, partition.reversed(), default_rule(r)

    def forward(ts):
        return A0 + ts[..., None, None] * A1, b0 + ts[..., None] * b1

    def backward(ts):
        return tuple(-a for a in forward(T - ts))

    def closures(data):
        return (lambda ts, X: np.einsum("qab,qb->qa", data(ts)[0], X) + data(ts)[1],
                lambda ts, X: data(ts)[0])

    fwd = solve_forward(*closures(forward), x0, rev, r)
    A, b = forward(rev.quad_times(rule))
    fwd_arrays = DGFunction(rev, AffineSystem(A, rev, r).solve(b, x0))
    back = solve_backward(*closures(backward), x0, partition, r).coeffs
    A, b = backward(partition.quad_times(rule))
    back_arrays = AffineSystem(-np.swapaxes(A, -1, -2), partition, r).solve_transposed(b, x0)
    gaps = (back - reverse_dg(fwd).coeffs, back_arrays - reverse_dg(fwd_arrays).coeffs,
            fwd.coeffs - fwd_arrays.coeffs)
    return float(max(np.max(np.abs(gap)) for gap in gaps))


def _check_columns(name, deriv, fn, z):
    """Compare column j of deriv, the derivative of fn at the (1, k) point z,
    with the central difference of fn along e_j; raise ValueError on a mismatch."""
    scale = max(1.0, float(np.max(np.abs(deriv))))
    for j in range(z.shape[1]):
        dz = np.zeros_like(z)
        dz[0, j] = POINT_EPS
        col = (np.asarray(fn(z + dz))[0] - np.asarray(fn(z - dz))[0]) / (2 * POINT_EPS)
        if np.max(np.abs(col - deriv[..., j])) > POINT_TOL * scale:
            raise ValueError(f"{name} disagrees with finite differences")


def check_derivatives(p, rng):
    """Central-difference check at random probes of an OCProblem's fx, fu, gx
    and gu against f and g, and, when the problem has one, of its hessian at a
    random lam: Lxx and Lxu against gx - fx^T lam in x and in u, and Luu
    against gu - fu^T lam in u."""
    for _ in range(POINT_PROBES):
        t = rng.uniform(0.0, p.T, size=1)
        x = rng.standard_normal((1, p.d))
        u = rng.standard_normal((1, p.m))
        u = np.clip(u, np.maximum(p.u_lo, -2.0), np.minimum(p.u_hi, 2.0))
        for name in ("fx", "fu", "gx", "gu"):
            deriv, base = getattr(p, name), getattr(p, name[:-1])
            if name.endswith("x"):
                _check_columns(name, np.asarray(deriv(t, x, u))[0], lambda z: base(t, z, u), x)
            else:
                _check_columns(name, np.asarray(deriv(t, x, u))[0], lambda z: base(t, x, z), u)
        if p.hessian is None:
            continue
        lam = rng.standard_normal((1, p.d))
        Lx = lambda xs, us: p.gx(t, xs, us) - np.einsum("qab,qa->qb", p.fx(t, xs, us), lam)
        Lu = lambda xs, us: p.gu(t, xs, us) - np.einsum("qam,qa->qm", p.fu(t, xs, us), lam)
        Lxx, Lxu, Luu = (np.asarray(block)[0] for block in p.hessian(t, x, u, lam))
        _check_columns("hessian", Lxx, lambda z: Lx(z, u), x)
        _check_columns("hessian", Lxu, lambda z: Lx(x, z), u)
        _check_columns("hessian", Luu, lambda z: Lu(x, z), u)
