"""Built-in benchmark problems.

linear-lq:  minimize 1/2 int_0^1 x^2 + u^2 subject to x' = -x + u, x(0) = 1.
            Closed-form optimal pair (and the adjoint, which equals the
            optimal control in the convention lam' = -fx^T lam + gx).

nonlinear-quadratic:  minimize 1/2 int_0^0.2 x^2 + u^2 subject to
            x' = x^2 + u, x(0) = 2.  No closed form; convergence studies use
            a self-computed fine reference.
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
    name: str
    problem: OCProblem
    exact_state: Optional[Callable] = None
    exact_control: Optional[Callable] = None
    # mesh width of the self-computed reference, for a problem without a closed form
    reference_h: Optional[float] = None


def linear_lq():
    d = m = 1

    def f(t, x, u):
        return u - x

    def g(t, x, u):
        return 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2)

    def fx(t, x, u):
        return np.full((t.size, 1, 1), -1.0)

    def fu(t, x, u):
        return np.ones((t.size, 1, 1))

    def gx(t, x, u):
        return x.copy()

    def gu(t, x, u):
        return u.copy()

    zeros3 = lambda t: np.zeros((t.size, 1, 1))
    zeros4 = lambda t: np.zeros((t.size, 1, 1, 1))

    problem = OCProblem(
        d=d, m=m, T=1.0, x0=[1.0],
        f=f, g=g, fx=fx, fu=fu, gx=gx, gu=gu,
        fxx=lambda t, x, u: zeros4(t),
        fxu=lambda t, x, u: zeros4(t),
        fuu=lambda t, x, u: zeros4(t),
        gxx=lambda t, x, u: np.ones((t.size, 1, 1)),
        gxu=lambda t, x, u: zeros3(t),
        guu=lambda t, x, u: np.ones((t.size, 1, 1)),
        stationary_control=lambda t, x, lam: lam.copy(),
    )

    def exact_state(t):
        s = SQRT2 * (np.asarray(t, dtype=float) - 1.0)
        return (SQRT2 * np.cosh(s) - np.sinh(s)) / _DENOM

    def exact_control(t):
        s = SQRT2 * (np.asarray(t, dtype=float) - 1.0)
        return np.sinh(s) / _DENOM

    return BuiltinProblem(
        name="linear-lq",
        problem=problem,
        exact_state=exact_state,
        exact_control=exact_control,
    )


def nonlinear_quadratic():
    d = m = 1

    def f(t, x, u):
        return x**2 + u

    def g(t, x, u):
        return 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2)

    def fx(t, x, u):
        return (2.0 * x)[:, :, None]

    def fu(t, x, u):
        return np.ones((t.size, 1, 1))

    def gx(t, x, u):
        return x.copy()

    def gu(t, x, u):
        return u.copy()

    problem = OCProblem(
        d=d, m=m, T=0.2, x0=[2.0],
        f=f, g=g, fx=fx, fu=fu, gx=gx, gu=gu,
        fxx=lambda t, x, u: np.full((t.size, 1, 1, 1), 2.0),
        fxu=lambda t, x, u: np.zeros((t.size, 1, 1, 1)),
        fuu=lambda t, x, u: np.zeros((t.size, 1, 1, 1)),
        gxx=lambda t, x, u: np.ones((t.size, 1, 1)),
        gxu=lambda t, x, u: np.zeros((t.size, 1, 1)),
        guu=lambda t, x, u: np.ones((t.size, 1, 1)),
        stationary_control=lambda t, x, lam: lam.copy(),
    )

    return BuiltinProblem(
        name="nonlinear-quadratic",
        problem=problem,
        reference_h=0.1 * 2.0**-9,
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
