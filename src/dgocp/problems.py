"""Built-in benchmark problems.

Both are one family: minimize 1/2 int_0^T x^2 + u^2 subject to
x' = f(x) + u, x(0) = x0, with d = m = 1.  Only T, x0, f and its first two
derivatives differ.

linear-lq:  T = 1, x0 = 1, f(x) = -x.  Closed-form optimal pair (and the
            adjoint, which equals the optimal control in the convention
            lam' = -fx^T lam + gx).

nonlinear-quadratic:  T = 0.2, x0 = 2, f(x) = x^2.  No closed form;
            convergence studies use a self-computed reference, two degrees
            above the table's highest on N = 64 intervals.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ocp import OCProblem

__all__ = ["BuiltinProblem", "linear_lq", "nonlinear_quadratic", "get_builtin", "BUILTINS"]

SQRT2 = np.sqrt(2.0)
_DENOM = SQRT2 * np.cosh(SQRT2) + np.sinh(SQRT2)


@dataclass
class BuiltinProblem:
    problem: OCProblem
    exact_state: Optional[Callable] = None
    exact_control: Optional[Callable] = None
    # mesh width of the self-computed reference, for a problem without a closed
    # form; run_convergence solves it at two degrees above the table's highest
    reference_h: Optional[float] = None


def _tracking(T, x0, f, fx, fxx):
    """The builtin family with x' = f(x) + u; f, fx and fxx map a state batch
    (q, 1) to (q, 1), (q, 1, 1) and (q, 1, 1).  The Lagrangian's Hessian is
    (1 - lam fxx(x), 0, 1)."""
    ones = lambda t, x, u: np.ones((t.size, 1, 1))
    return OCProblem(
        m=1, T=T, x0=[x0],
        f=lambda t, x, u: f(x) + u,
        g=lambda t, x, u: 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2),
        fx=lambda t, x, u: fx(x),
        fu=ones,
        gx=lambda t, x, u: x.copy(),
        gu=lambda t, x, u: u.copy(),
        hessian=lambda t, x, u, lam: (1.0 - lam[:, :, None] * fxx(x),
                                      np.zeros((t.size, 1, 1)), ones(t, x, u)),
    )


def linear_lq():
    problem = _tracking(
        T=1.0, x0=1.0,
        f=lambda x: -x,
        fx=lambda x: np.full((x.shape[0], 1, 1), -1.0),
        fxx=lambda x: np.zeros((x.shape[0], 1, 1)),
    )

    def exact_state(t):
        s = SQRT2 * (np.asarray(t, dtype=float) - 1.0)
        return (SQRT2 * np.cosh(s) - np.sinh(s)) / _DENOM

    def exact_control(t):
        s = SQRT2 * (np.asarray(t, dtype=float) - 1.0)
        return np.sinh(s) / _DENOM

    return BuiltinProblem(
        problem=problem,
        exact_state=exact_state,
        exact_control=exact_control,
    )


def nonlinear_quadratic():
    problem = _tracking(
        T=0.2, x0=2.0,
        f=lambda x: x**2,
        fx=lambda x: (2.0 * x)[:, :, None],
        fxx=lambda x: np.full((x.shape[0], 1, 1), 2.0),
    )
    return BuiltinProblem(
        problem=problem,
        # N = 64: at degree max(orders) + 2 = 5 this matches an RK4 shooting
        # solve as closely as degree 3 on N = 1024 does (p- against
        # h-refinement); fewer intervals stop gaining from the degree (see
        # run_convergence)
        reference_h=0.1 * 2.0**-5,
    )


BUILTINS = {
    "linear-lq": linear_lq,
    "nonlinear-quadratic": nonlinear_quadratic,
}


def get_builtin(name):
    try:
        return BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; choose from {sorted(BUILTINS)}")
