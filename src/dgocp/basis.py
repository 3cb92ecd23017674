"""Legendre polynomials and Gauss quadrature on the reference interval [-1, 1].

Everything downstream (DG containers, solvers, norms) works in modal Legendre
coordinates, so this module is the single place where basis values, derivative
inner products and quadrature rules are produced, and where a reference table
is applied to the data of all intervals at once (apply_table).
"""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

__all__ = [
    "QuadratureRule",
    "legendre_table",
    "gauss_rule",
    "default_rule",
    "rule_table",
    "projection_table",
    "apply_table",
    "deriv_inner_matrix",
    "mass_diagonal",
]

#: extra quadrature points beyond the polynomial degree (q = r + 3)
DEFAULT_EXTRA_POINTS = 3


def check_int(name, value, minimum):
    """ValueError naming the argument `name` unless value is an integer >= minimum.

    numpy integers pass; bools and floats (1.0 too) do not.  A plain int
    skips the (slower) abstract-class check.
    """
    if (type(value) is not int and (not isinstance(value, Integral) or isinstance(value, bool))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_domain(xi):
    if np.any(xi < -1.0 - 1e-12) or np.any(xi > 1.0 + 1e-12):
        raise ValueError("evaluation point outside the reference interval [-1, 1]")


def legendre_table(r, xi):
    """Values of P_0..P_r at the points xi, shape (len(xi), r+1)."""
    check_int("r", r, 0)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    _check_domain(xi)
    out = np.empty((xi.size, r + 1))
    out[:, 0] = 1.0
    if r >= 1:
        out[:, 1] = xi
    for k in range(1, r):
        # (k+1) P_{k+1} = (2k+1) xi P_k - k P_{k-1}
        out[:, k + 1] = ((2 * k + 1) * xi * out[:, k] - k * out[:, k - 1]) / (k + 1)
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]; compared and hashed by
    identity, so that a rule can key a cache."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def q(self):
        return self.points.size


@lru_cache(maxsize=32, typed=True)
def gauss_rule(q):
    """q-point Gauss-Legendre rule; exact for polynomials of degree <= 2q-1.

    Shared per q (building one is an eigenvalue solve): its arrays are read-only.
    q must be an integer >= 1.  It is checked on a cache miss only; the cache
    is typed, so that True and 1.0 miss the entry of 1, and a numpy integer
    gets the rule of the equal int.
    """
    check_int("q", q, 1)
    if type(q) is not int:
        return gauss_rule(int(q))
    pts, wts = np.polynomial.legendre.leggauss(q)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts)


def default_rule(r):
    """Module-wide default rule for degree-r DG computations (q = r + 3)."""
    check_int("r", r, 0)
    return gauss_rule(r + DEFAULT_EXTRA_POINTS)


@lru_cache(maxsize=64)
def rule_table(r, rule):
    """legendre_table(r, rule.points), shared per (r, rule): read-only."""
    P = legendre_table(r, rule.points)
    P.flags.writeable = False
    return P


@lru_cache(maxsize=64)
def projection_table(r, rule):
    """(2k+1)/2 w_q P_k(xi_q), (r+1, q): maps values at the rule's points to the
    modal coefficients of their L2 projection onto P_0..P_r.  Shared per
    (r, rule): read-only."""
    scale = (2.0 * np.arange(r + 1) + 1.0) / 2.0
    Q = scale[:, None] * rule_table(r, rule).T * rule.weights
    Q.flags.writeable = False
    return Q


def apply_table(T, A):
    """T @ A_n for every n: the table T (a, b) applied to A (N, b, d), as (N, a, d).

    One GEMM, (N*d, b) @ (b, a), in place of N small products; the result is
    a view of it, contiguous when d = 1.
    """
    N, b, d = A.shape
    out = A.swapaxes(1, 2).reshape(N * d, b) @ T.T
    return out.reshape(N, d, -1).swapaxes(1, 2)


def deriv_inner_matrix(r):
    """D[j, k] = integral of P_k' P_j over [-1, 1]: 2 when k > j with k+j odd."""
    D = np.zeros((r + 1, r + 1))
    for j in range(r + 1):
        for k in range(j + 1, r + 1):
            if (j + k) % 2 == 1:
                D[j, k] = 2.0
    return D


@lru_cache(maxsize=64)
def mass_diagonal(r):
    """Diagonal of the reference mass matrix: integral of P_k^2 = 2/(2k+1).
    Shared per r: read-only."""
    M = 2.0 / (2.0 * np.arange(r + 1) + 1.0)
    M.flags.writeable = False
    return M
