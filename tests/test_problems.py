"""Built-in benchmark problems and their closed forms."""

import numpy as np
import pytest

from dgocp.oracles import check_derivatives
from dgocp.problems import BUILTINS, get_builtin, linear_lq, nonlinear_quadratic


def _central_diff(fn, t, eps=1e-6):
    return (fn(t + eps) - fn(t - eps)) / (2.0 * eps)


def test_registry():
    assert set(BUILTINS) == {"linear-lq", "nonlinear-quadratic"}
    with pytest.raises(KeyError):
        get_builtin("no-such-problem")


def test_linear_lq_closed_forms_satisfy_optimality_system():
    builtin = linear_lq()
    xbar, ubar = builtin.exact_state, builtin.exact_control
    ts = np.linspace(0.02, 0.98, 41)

    # state equation x' = -x + u and initial condition
    assert np.max(np.abs(_central_diff(xbar, ts) - (-xbar(ts) + ubar(ts)))) < 1e-8
    assert abs(xbar(0.0) - 1.0) < 1e-14

    # the optimal control doubles as the adjoint in the convention
    # lam' = -fx^T lam + gx = lam + x, lam(T) = 0
    assert np.max(np.abs(_central_diff(ubar, ts) - (ubar(ts) + xbar(ts)))) < 1e-8
    assert abs(ubar(1.0)) < 1e-14


def test_linear_lq_problem_definition(rng):
    builtin = linear_lq()
    p = builtin.problem
    assert (p.d, p.m, p.T) == (1, 1, 1.0)
    assert p.x0 == pytest.approx([1.0])
    check_derivatives(p, rng)
    p.require_hessian("the builtin")


def test_nonlinear_quadratic_problem_definition(rng):
    builtin = nonlinear_quadratic()
    p = builtin.problem
    assert (p.d, p.m, p.T) == (1, 1, 0.2)
    assert p.x0 == pytest.approx([2.0])
    check_derivatives(p, rng)
    p.require_hessian("the builtin")
    assert builtin.exact_state is None
    assert builtin.reference_h == pytest.approx(0.1 * 2.0**-5)


def test_builtin_instances_are_independent():
    a = linear_lq()
    b = linear_lq()
    a.problem.u_lo[:] = 0.0
    assert np.isneginf(b.problem.u_lo[0])
