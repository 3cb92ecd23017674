"""DG solver for x' = F(t, x), x(0) = x0, and backward solves.

The weak DG equation couples intervals only through the upwind trace.  A
system comes in one of two forms:

* arrays: x' = A(t) x + b(t) with A and b sampled on the quadrature grid,
  as (N, q, ...) or flattened to (N*q, ...), the tangent and adjoint systems
  of ocp in the latter.  An AffineSystem inverts all N interval blocks at
  once and builds the doubling tables of the d x d trace recurrence; a
  solve is then a few batched products, with the
  recurrence run as a scan of ceil(log2 N) steps; its forcing is one product
  of the scheme's table with the samples of all intervals
  (basis.apply_table).  The same factors solve the
  transposed system, lam' = -A^T lam + b with lam(T) = lamT: upwind DG in
  time is adjoint-consistent, so that is the discrete adjoint.  factored()
  keeps the last system it built, while its partition lives, and returns it
  while its data repeat, so the state, adjoint, tangent and second-order
  adjoint solves of one linearization share one factorization;
* closures F(t, X, *D) and dF_dx(t, X, *D), an IVPRight whose data D are DG
  functions on the solve's partition, sampled once on the quadrature grid
  (OCProblem's f(t, x, u) convention), solved by solve_forward.
  dF_dx is sampled on the whole grid at two states, x = 0 and
  x = PROBE_SHIFT.  When the samples are identical, A = dF_dx and b = F at
  x = 0 go to factored(), and the result is kept when the closure's own
  residual, with F evaluated at that result, passes on every interval.
  Otherwise (a nonlinear system, or a failed check) the solve marches
  interval by interval, and on each interval a damped Newton iteration
  drives the (r+1)*d modal residual below tolerance.  It starts from the
  constant extension of the incoming trace x_in, read without a table
  product: the state is x_in at every quadrature point (P_0 = 1), and the
  trace terms cancel, so the first residual is the forcing term alone.  A
  step assembles the interval's block from dF_dx, solves it and halves the
  step until the residual falls.  The half widths, the data rows and the
  scheme's tables are fetched once per solve.

The tables of the scheme of degree r for a system of size d are built once
and shared read-only (basis.shared), as are the rule and Legendre tables they
come from.  Its key is typed: a degree 1.0 or True misses the entry of 1, and
the degree check of basis.default_rule rejects it, at every entry point
(solve_forward, solve_backward, AffineSystem, factored).

The block solve of a Newton step and the block inverses of an AffineSystem
call the LAPACK gufuncs solve1 and inv of numpy.linalg._umath_linalg, the
ones np.linalg.solve and np.linalg.inv wrap: on blocks of a few rows the
wrappers cost several times the call.  The module is private to numpy, but
numpy.linalg loads it anyway, and the march is tested bit for bit against
np.linalg.solve.  Both are wrapped once, at import, in np.errstate's
decorator form with the state np.linalg sets, so each call runs under it
without building an errstate object: a singular block raises
FloatingPointError, which becomes SolverFailure, and nothing else in the
call warns.  The user's F and dF_dx run outside it, under the caller's state.

An interval's residual passes when its max-norm is at most NEWTON_TOL, or at
most ROUNDOFF times the largest entry of the residual's terms when that is
larger: a large solution has a round-off floor above any absolute tolerance.
Both solvers stop at the first residual that is not finite.  The closure
backward (terminal-value) solve, solve_backward, is a forward solve of the
time-reversed system on the reversed partition, followed by a
coefficient-level reversal; its data are reversed with reverse_dg.
"""

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .basis import apply_table, default_rule, deriv_inner_matrix, rule_table, shared
from .mesh import DGFunction, sample_on_quad

__all__ = [
    "AffineSystem",
    "IVPRight",
    "SolverFailure",
    "factored",
    "solve_forward",
    "solve_backward",
    "reverse_dg",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DAMPING_FLOOR = 2.0**-10
ROUNDOFF = 16.0 * np.finfo(float).eps
PROBE_SHIFT = 1.0


@dataclass
class IVPRight:
    """Right-hand side F(t, x, *data) of an IVP, as closures.

    F(ts, X, *D) maps (q,), (q, d) -> (q, d); dF_dx maps to (q, d, d), both
    vectorized over time batches.  `data` is a tuple of DGFunctions on the
    solve's partition, such as the control of a state solve; each is
    sampled once on the quadrature grid, and D holds the samples at the
    times ts, (q, dim) each.  The batched route passes the whole grid
    flattened, ts (N*q,); the march passes one interval's rows, ts (q,).
    An affine system already sampled on the grid goes to an AffineSystem.
    """

    F: Callable
    dF_dx: Callable
    data: tuple = ()


class SolverFailure(RuntimeError):
    """A solve failed on some interval: its residual stayed above its
    tolerance, or its block was singular (residual inf)."""

    def __init__(self, interval, residual, message=None):
        self.interval = interval
        self.residual = residual
        super().__init__(
            message
            or f"residual {residual:.3e} above its tolerance on interval {interval}"
        )


def _singular(n):
    return SolverFailure(n, np.inf, f"singular DG block on interval {n}")


# the LAPACK gufuncs under the errstate np.linalg sets: a singular matrix
# raises FloatingPointError, and nothing else warns.  The decorator form sets
# that state for each call without building an errstate object per call
_solve1, _inv = (
    np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")(gufunc)
    for gufunc in (_umath_linalg.solve1, _umath_linalg.inv))


def _tolerance(scale):
    """Residual tolerance for residual terms whose largest entry is `scale`:
    NEWTON_TOL, or the round-off floor ROUNDOFF * scale when that is larger."""
    return np.maximum(NEWTON_TOL, ROUNDOFF * scale)


def _row_max(A):
    """Largest entry of each row of A (N, k); NaN propagates.  One np.maximum
    per column: np.max over a short trailing axis runs an inner loop per row,
    about four times slower than this on (320, 4)."""
    cols = A.T
    out = np.maximum(cols[0], cols[-1])
    for c in cols[1:-1]:
        np.maximum(out, c, out=out)
    return out


def _batched_residual(terms):
    """Residual R = T0 - T1 - T2 of the (N, r+1, d) terms (T0, T1, T2), its
    max-norm and its tolerance, each per interval.  T1 may be (N, 1, d), the
    same on every block row."""
    R = terms[0] - terms[1] - terms[2]
    N = len(R)
    largest = _row_max(np.abs(np.concatenate(terms, axis=1)).reshape(N, -1))
    return R, _row_max(np.abs(R).reshape(N, -1)), _tolerance(largest)


class _Scheme:
    """Reference-interval tables of the degree-r DG scheme for a system of size d.

    On interval n the modal coefficients C (r+1, d) satisfy

        lin @ C - s x_in^T = (h/2) PtW @ F(t_q, P @ C),   lin = D + s s^T,

    with s_j = P_j(-1) = (-1)^j: the weak DG equation tested against the local
    Legendre basis, on the default_rule(r) quadrature.
    """

    def __init__(self, r, d):
        self.r = r
        self.rule = default_rule(r)
        self.P = rule_table(r, self.rule)                  # (q, r+1)
        self.PtW = self.P.T * self.rule.weights            # (r+1, q)
        self.s = (-1.0) ** np.arange(r + 1)                # traces at xi = -1
        self.S = np.kron(self.s[:, None], np.eye(d))       # (nd, d): takes x_in into a block
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


@shared
def _scheme(r, d):
    return _Scheme(r, d)


def solve_forward(rhs, x0, partition, r):
    """DG approximation of x' = F(t, x, *data), x(0) = x0, in X_h^r, for closures rhs.

    Each datum is sampled on the solve's grid first: one on another partition
    raises ValueError before any call of F or dF_dx.  Closures of a linear
    system (dF_dx the same at two probe states, and the closure's own
    residual passing at the result) are solved by the AffineSystem of
    factored(); others by damped Newton, interval by interval.  Either
    raises SolverFailure naming an interval when its residual stays above
    its tolerance or is not finite, or its block is singular.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sch = _scheme(r, x0.size)
    times = partition.quad_times(sch.rule)
    ts, D = times.ravel(), [sample_on_quad(a, partition, sch.rule, a.dim) for a in rhs.data]
    X = np.zeros((ts.size, x0.size))
    with np.errstate(all="ignore"):             # probe states, not the solution
        A = np.asarray(rhs.dF_dx(ts, X, *D))
        linear = np.array_equal(A, rhs.dF_dx(ts, X + PROBE_SHIFT, *D))
    if linear:
        try:
            C = factored(A, partition, r).solve(rhs.F(ts, X, *D), x0)
            if _closure_residual_passes(rhs, ts, D, C, x0, partition, sch):
                return DGFunction(partition, C)
        except SolverFailure:
            pass
    grid = (times, *(a.reshape(times.shape + a.shape[1:]) for a in D))
    return DGFunction(partition, _solve_newton(rhs, grid, x0, partition, sch))


def _closure_residual_passes(rhs, ts, D, C, x0, partition, sch):
    """Whether the closure residual of coefficients C (N, r+1, d), with F
    evaluated at C, passes on every interval."""
    X = apply_table(sch.P, C)                                      # (N, q, d)
    x_in = np.concatenate((x0[None], C[:-1].sum(axis=1)))
    LC, trace = apply_table(sch.lin, C), sch.s[:, None] * x_in[:, None, :]
    FX = np.reshape(rhs.F(ts, X.reshape(-1, x0.size), *D), X.shape)
    HF = 0.5 * partition.widths[:, None, None] * apply_table(sch.PtW, FX)
    _, rnorm, tol = _batched_residual((LC, trace, HF))
    return bool(np.all(rnorm <= tol))


def _solve_newton(rhs, grid, x0, partition, sch):
    """Coefficients (N, r+1, d) by damped Newton, marching interval by interval;
    `grid` holds the (N, q) quadrature times and the data samples (N, q, dim),
    and interval n gets their rows n and its half width h/2.

    A Newton step solves the interval's block J delta = R, then tries
    C - alpha delta for alpha = 1, 1/2, ... until the residual's max-norm falls
    below the previous one or alpha reaches DAMPING_FLOOR.
    """
    F, dF_dx = rhs.F, rhs.dF_dx
    P, PtW, lin, J_base, WPP = sch.P, sch.PtW, sch.lin, sch.J_base, sch.WPP
    ones, s = P[:, :1], sch.s[:, None]                  # P_0 = 1 at every point
    coeffs = np.zeros((partition.N, s.size, x0.size))
    nd = coeffs[0].size
    absmax = np.maximum.reduce                          # with axis=None; NaN propagates
    x_in = x0
    for n, (half, (t, *a)) in enumerate(zip((0.5 * partition.widths).tolist(), zip(*grid))):
        # start from the constant extension C = (x_in, 0, ..., 0) of the
        # incoming trace: X is x_in at every point, and lin @ C equals the
        # trace term, so R is the forcing term alone; x_in and R, the
        # residual's terms, set the interval's tolerance
        C = coeffs[n]
        C[0] = x_in
        X = ones * x_in
        R = -(half * (PtW @ F(t, X, *a)))
        rnorm = absmax(np.abs(R), axis=None)
        tol = max(NEWTON_TOL, ROUNDOFF * max(rnorm, absmax(np.abs(x_in), axis=None)))
        trace_in = s * x_in
        for _ in range(NEWTON_MAX_ITER):
            if rnorm <= tol or not math.isfinite(rnorm):
                break
            J = J_base - half * (dF_dx(t, X, *a).reshape(-1) @ WPP).reshape(nd, nd)
            try:
                delta = _solve1(J, R.reshape(nd)).reshape(C.shape)
            except FloatingPointError:
                raise _singular(n) from None
            alpha, last, C_try = 1.0, rnorm, C - delta
            while True:
                X = P @ C_try
                R = lin @ C_try - trace_in - half * (PtW @ F(t, X, *a))
                rnorm = absmax(np.abs(R), axis=None)
                if rnorm < last or alpha <= DAMPING_FLOOR:
                    break
                alpha *= 0.5
                C_try = C - alpha * delta
            C = C_try
        if not (rnorm <= tol and math.isfinite(rnorm)):  # tol is inf when rnorm is
            raise SolverFailure(n, rnorm)
        coeffs[n] = C
        x_in = C.sum(axis=0)                       # left trace at t_n
    return coeffs


class AffineSystem:
    """The DG system of x' = A x + b for a fixed A, factored once for any b.

    A is sampled on the (N, q) quadrature grid of `partition`, as (N, q, d, d)
    or flattened to (N*q, d, d), and a forcing b as (N, q, d) or (N*q, d).
    Block n solves J_n C_n = (s (x) I) x_n + f_n, so C_n = G_n x_n + g_n with
    G_n = J_n^{-1} (s (x) I), and the outgoing trace is the recurrence

        x_{n+1} = sum_j C_nj = M_n x_n + m_n.

    The factor step (the constructor) inverts all N blocks at once, forms G
    and M, and builds the ceil(log2 N) doubling tables of the recurrence: the
    table of window w = 2^k holds, for every i <= N - w, the product
    M_{i+w-1} ... M_i that maps x_i to x_{i+w} (a Hillis-Steele scan;
    Blelloch 1990, "Prefix sums and their applications").  Each
    solve(b, x0) is then one batched product for the forcing response, one
    scan step per table, C = G x + g, and one batched residual check;
    solve_transposed runs the transposed recurrence on the same tables.  A
    singular block raises SolverFailure(n, inf).
    """

    def __init__(self, A, partition, r):
        N, d = partition.N, A.shape[-1]
        self.sch = sch = _scheme(r, d)
        self.shape = (N, r + 1, d)
        self.half_h = 0.5 * partition.widths[:, None, None]
        self.J = sch.blocks(self.half_h, np.reshape(A, (N, sch.rule.q, d, d)))  # (N, nd, nd)
        try:
            self.Jinv = _inv(self.J)
        except FloatingPointError:
            raise _singular(int(np.argmin(np.abs(np.linalg.det(self.J))))) from None
        self.G = self.Jinv @ sch.S                              # (N, nd, d)
        M = self.G.reshape(N, r + 1, d, d).sum(axis=1)
        # entry i of the table of window w is M_{i+w-1} ... M_i, i = 0..N-w;
        # a table of window 2w multiplies two of window w
        self.tables, table, w = [], M, 1
        while w < N:
            self.tables.append(table)
            if 2 * w < N:
                table = table[w:] @ table[:-w]
            w *= 2

    def solve(self, b, x0):
        """Coefficients (N, r+1, d) for the forcing b and x(0) = x0.

        A residual above its tolerance is corrected by the same factored
        solve applied to it; SolverFailure names the interval whose residual
        exceeds it most, at once when a residual is not finite.
        """
        return self._corrected(self._forcing(b), x0, False)

    def solve_transposed(self, b, lamT):
        """Coefficients (N, r+1, d), on the same partition, of the discrete
        adjoint lam' = -A^T lam + b, lam(T) = lamT: the transposed system

            J_n^T L_n = E^T w_n - f_n,   w_{N-1} = lamT,   w_{n-1} = (s (x) I)^T L_n,

        with E = 1^T (x) I, so w_{n-1} = M_n^T w_n - G_n^T f_n.  It is checked
        and corrected as solve is, and its SolverFailure names the forward
        interval.
        """
        return self._corrected(-self._forcing(b), lamT, True)

    def _forcing(self, b):
        N, d = self.shape[0], self.shape[2]
        return self.half_h * apply_table(self.sch.PtW, np.reshape(b, (N, self.sch.rule.q, d)))

    def _corrected(self, f, x0, transposed):
        C = self._sweep(f, x0, transposed)
        R, rnorm, tol = self._residual(C, f, x0, transposed)
        passed = rnorm <= tol
        for _ in range(NEWTON_MAX_ITER):
            if passed.all() or not np.isfinite(rnorm).all():
                break
            C = C + self._sweep(-R, np.zeros_like(x0), transposed)
            R, rnorm, tol = self._residual(C, f, x0, transposed)
            passed = rnorm <= tol
        if not passed.all():
            n = int(np.argmax(rnorm - tol))
            raise SolverFailure(n, float(rnorm[n]))
        return C

    def _traces(self, m, x0, transposed=False):
        """Incoming traces x_n, (N, d, 1), for the forcing traces m (N, d) and
        x_0 = x0.  Entry n starts as m_{n-1}; after the scan step of window w
        it is x_n when n < 2w, and otherwise the sum over the last 2w steps.
        Transposed, the maps are M_{N-1}^T, ..., M_1^T, so entry n is w_{N-1-n}."""
        xs = np.empty(m.shape + (1,))
        xs[0, :, 0], xs[1:, :, 0] = x0, m[:-1]
        w = 1
        for table in self.tables:
            xs[w:] += (table[:0:-1].swapaxes(1, 2) if transposed else table[:-1]) @ xs[:-w]
            w *= 2
        return xs

    def _sweep(self, f, x0, transposed):
        """Coefficients (N, r+1, d) for the block right-hand sides f (N, r+1, d)
        and x_0 = x0; transposed, of J_n^T L_n = E^T w_n + f_n with w_{N-1} = x0,
        where E^T w_n puts w_n on every block row."""
        N, nd = self.shape[0], self.J.shape[1]
        if not transposed:
            g = self.Jinv @ f.reshape(N, nd, 1)
            xs = self._traces(g.reshape(self.shape).sum(axis=1), x0)
            return (self.G @ xs + g).reshape(self.shape)
        m = (self.G.swapaxes(1, 2) @ f.reshape(N, nd, 1))[::-1, :, 0]  # G_n^T f_n, n = N-1..0
        ws = self._traces(m, x0, True)[::-1].swapaxes(1, 2)             # (N, 1, d)
        return (self.Jinv.swapaxes(1, 2) @ (ws + f).reshape(N, nd, 1)).reshape(self.shape)

    def _residual(self, C, f, x0, transposed):
        N, nd = self.shape[0], self.J.shape[1]
        if transposed:
            ws = np.concatenate((self.sch.s @ C[1:], x0[None]))[:, None, :]
            T0, T1 = self.J.swapaxes(1, 2) @ C.reshape(N, nd, 1), ws
        else:
            xs = np.concatenate((x0[None], C.sum(axis=1)[:-1]))
            T0, T1 = self.J @ C.reshape(N, nd, 1), (xs @ self.sch.S.T).reshape(self.shape)
        return _batched_residual((T0.reshape(self.shape), T1, f))


_memo = weakref.WeakKeyDictionary()  # at most one entry, partition -> (r, copy of A, system)


def factored(A, partition, r):
    """AffineSystem(A, partition, r), or the last system built here while the
    partition object, r and A equal those it was built from.  r is compared
    by type too, as basis.shared compares its keys, so 1.0 and True reach the
    degree check; A is compared with a copy, so an array changed in place
    builds a new system.  A failed factorization raises and keeps the
    previous one."""
    r0, A0, system = _memo.get(partition, (None, None, None))
    if r0 == r and type(r0) is type(r) and np.array_equal(A0, A):
        return system
    system = AffineSystem(A, partition, r)
    _memo.clear()
    _memo[partition] = (r, np.array(A), system)
    return system


def _reversed_coeffs(coeffs):
    """Coefficients (N, r+1, d) of t -> F(T - t) on the reversed partition."""
    return coeffs[::-1] * ((-1.0) ** np.arange(coeffs.shape[1]))[:, None]


def reverse_dg(F):
    """The time-reversed function t -> F(T - t) on the reversed partition."""
    return DGFunction(F.partition.reversed(), _reversed_coeffs(F.coeffs))


def solve_backward(rhs, xT, partition, r):
    """DG solve of the terminal-value problem x' = F(t, x, *data), x(T) = xT,
    for closures rhs.

    Realized as a forward solve of W'(s) = -F(T - s, W, *data(T - s)),
    W(0) = xT on the reversed partition, with each datum reversed by
    reverse_dg, then reversed back; the result is the discrete
    upwind-adjoint solution tested against X_h^r.  For an affine system
    sampled on the grid, AffineSystem.solve_transposed gives the same
    coefficients from the forward factors.
    """
    T = partition.T
    rev = IVPRight(F=lambda s, W, *D: -rhs.F(T - s, W, *D),
                   dF_dx=lambda s, W, *D: -rhs.dF_dx(T - s, W, *D),
                   data=tuple(map(reverse_dg, rhs.data)))
    W = solve_forward(rev, xT, partition.reversed(), r)
    # on `partition` itself: T - (T - t) would accumulate float error in the nodes
    return DGFunction(partition, _reversed_coeffs(W.coeffs))
