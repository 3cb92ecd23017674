"""Reduced-space primitives: state, adjoint, gradient, tangent, Hessian."""

import dataclasses
import weakref

import numpy as np
import pytest

from dgocp import (
    DGFunction,
    OCProblem,
    Partition,
    adjoint_residual,
    cost,
    default_rule,
    hessian_form,
    hessian_vector,
    l2_error,
    make_uniform_partition,
    modal_from_values,
    project_l2,
    projected_gradient,
    solve_adjoint,
    solve_backward,
    solve_forward,
    solve_state,
    tangent_solve,
)
import dgocp.oracles
from dgocp.oracles import (check_derivatives, gradient_discrepancy, hessian_vector_discrepancy,
                          random_dg)
from dgocp.problems import get_builtin, linear_lq, nonlinear_quadratic

from conftest import coupled_problem, simpson


def _zero_control(partition, r=1, m=1):
    return DGFunction(partition, np.zeros((partition.N, r + 1, m)))


def _exact_control(builtin, partition, r):
    """The builtin's exact control as its degree-8 L2 projection, whose
    samples at the quadrature points of a degree-r solve match the callable's."""
    u = project_l2(builtin.exact_control, partition, 8)
    rule = default_rule(r)
    exact = builtin.exact_control(partition.quad_times(rule).ravel())
    assert np.max(np.abs(u.values_on_quad(rule).ravel() - exact)) <= 1e-14
    return u


# -- state solves -------------------------------------------------------------


def test_state_zero_dynamics():
    p = OCProblem(
        m=1, T=1.0, x0=[4.0],
        f=lambda t, x, u: np.zeros_like(x),
        g=lambda t, x, u: np.zeros(t.size),
        fx=lambda t, x, u: np.zeros((t.size, 1, 1)),
        fu=lambda t, x, u: np.zeros((t.size, 1, 1)),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: np.zeros((t.size, 1)),
    )
    part = make_uniform_partition(1.0, 5)
    x = solve_state(p, _zero_control(part), 2)
    assert np.max(np.abs(x.coeffs[:, 0, 0] - 4.0)) < 1e-14
    assert np.max(np.abs(x.coeffs[:, 1:, :])) < 1e-14


def test_state_table_entry_high_order():
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 80)  # h = 0.1 * 2^-3
    x = solve_state(builtin.problem, _exact_control(builtin, part, 3), 3)
    err = l2_error(x, builtin.exact_state)
    assert 2e-11 < err < 2e-10  # reproduces the 7.1152e-11 magnitude


def test_state_riccati_value():
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 64)
    x = solve_state(p, _zero_control(part, r=3), 3)
    # x' = x^2, x(0) = 2 has x(T) = 2 / (1 - 2T) = 10/3 at T = 0.2
    assert abs(x.eval(p.T, side="left")[0] - 10.0 / 3.0) < 1e-6


def test_state_callable_control_width():
    # a control of another width raises ValueError, a callable TypeError
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 4)
    with pytest.raises(ValueError, match="expected 1"):
        solve_state(p, _zero_control(part, m=2), 1)
    with pytest.raises(TypeError):
        solve_state(p, lambda t: 0.3 * np.sin(5.0 * t), 2)


@pytest.mark.parametrize("builtin, route", [(linear_lq, "batched"),
                                            (nonlinear_quadratic, "march")])
def test_state_solve_calls_the_problem_with_the_control_on_the_grid(monkeypatch, rng,
                                                                    builtin, route):
    # solve_state hands f and fx to the solver as they are, with u as its
    # datum: every call gets times of the solver's quadrature grid and u's
    # values there, the whole flattened grid on the batched route and one
    # interval's rows on the march
    import dgocp.ocp as ocp

    base, calls, solves = builtin().problem, [], []

    def recorded(fn):
        def wrapper(t, x, u):
            calls.append((t, u))
            return fn(t, x, u)
        return wrapper

    def spy(F, dF_dx, x0, partition, r, data):
        solves.append((F, dF_dx, data))
        return solve_forward(F, dF_dx, x0, partition, r, data)

    monkeypatch.setattr(ocp, "solve_forward", spy)
    p = dataclasses.replace(base, f=recorded(base.f), fx=recorded(base.fx))
    part, r = Partition(p.T * np.linspace(0.0, 1.0, 7) ** 1.5), 2
    u = random_dg(rng, part, 2)
    solve_state(p, u, r)
    ((F, dF_dx, data),) = solves
    assert F is p.f and dF_dx is p.fx and data == (u,)
    rule = default_rule(r)
    ts = part.quad_times(rule).ravel()
    U = u.values_on_quad(rule).reshape(-1, 1)
    for t, u_t in calls:
        at = np.searchsorted(ts, t)
        assert np.array_equal(ts[at], t) and np.array_equal(u_t, U[at])
    sizes = {t.size for t, _ in calls}
    assert sizes == ({ts.size} if route == "batched" else {ts.size, rule.q})


def test_state_rejects_a_negative_degree():
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 4)
    with pytest.raises(ValueError, match="r must be an integer >= 0, got -1"):
        solve_state(p, _zero_control(part), -1)


# -- adjoint solves -----------------------------------------------------------


def test_adjoint_zero_when_cost_ignores_state():
    p = OCProblem(
        m=1, T=1.0, x0=[1.0],
        f=lambda t, x, u: -x + u,
        g=lambda t, x, u: 0.5 * u[:, 0] ** 2,
        fx=lambda t, x, u: np.full((t.size, 1, 1), -1.0),
        fu=lambda t, x, u: np.ones((t.size, 1, 1)),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: u.copy(),
    )
    part = make_uniform_partition(1.0, 6)
    u = _zero_control(part)
    x = solve_state(p, u, 2)
    lam = solve_adjoint(p, u, x)
    assert np.max(np.abs(lam.coeffs)) < 1e-13


def test_adjoint_table_entry():
    builtin = linear_lq()
    p = builtin.problem
    part = make_uniform_partition(1.0, 320)  # h = 0.1 * 2^-5
    u = _exact_control(builtin, part, 2)
    x = solve_state(p, u, 2)
    lam = solve_adjoint(p, u, x)
    # with lam' = -fx^T lam + gx the discrete adjoint approximates the
    # optimal control itself for this problem
    err = l2_error(lam, builtin.exact_control)
    assert 3e-10 < err < 6e-10  # reproduces the 4.1672e-10 magnitude


def test_adjoint_terminal_trace(rng):
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 10)
    u = random_dg(rng, part, 3)
    x = solve_state(builtin.problem, u, 3)
    lam = solve_adjoint(builtin.problem, u, x)
    # terminal value is imposed weakly, so the left trace at T is only
    # approximately zero; a rough random control limits its accuracy
    assert abs(lam.eval(1.0, side="left")[0]) < 1e-4


def test_adjoint_lipschitz_in_control(rng):
    builtin = linear_lq()
    p = builtin.problem
    part = make_uniform_partition(1.0, 8)
    r = 2
    ratios = []
    for _ in range(8):
        u1 = random_dg(rng, part, r)
        u2 = random_dg(rng, part, r)
        lam1 = solve_adjoint(p, u1, solve_state(p, u1, r))
        lam2 = solve_adjoint(p, u2, solve_state(p, u2, r))
        du = l2_error(u1, u2)
        if du > 1e-12:
            ratios.append(l2_error(lam1, lam2) / du)
    assert max(ratios) < 2.0


# -- gradient and cost --------------------------------------------------------


def test_gradient_zero_when_cost_and_dynamics_ignore_control():
    p = OCProblem(
        m=1, T=1.0, x0=[1.0],
        f=lambda t, x, u: -x,
        g=lambda t, x, u: 0.5 * x[:, 0] ** 2,
        fx=lambda t, x, u: np.full((t.size, 1, 1), -1.0),
        fu=lambda t, x, u: np.zeros((t.size, 1, 1)),
        gx=lambda t, x, u: x.copy(),
        gu=lambda t, x, u: np.zeros((t.size, 1)),
    )
    part = make_uniform_partition(1.0, 6)
    u = _zero_control(part)
    x = solve_state(p, u, 2)
    lam = solve_adjoint(p, u, x)
    assert np.max(np.abs(projected_gradient(p, u, x, lam).coeffs)) < 1e-13


def test_cost_trivial_values():
    pc = OCProblem(
        m=1, T=1.0, x0=[0.0],
        f=lambda t, x, u: np.zeros_like(x),
        g=lambda t, x, u: np.ones(t.size),
        fx=lambda t, x, u: np.zeros((t.size, 1, 1)),
        fu=lambda t, x, u: np.zeros((t.size, 1, 1)),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: np.zeros((t.size, 1)),
    )
    part = make_uniform_partition(1.0, 4)
    u = _zero_control(part)
    x = solve_state(pc, u, 1)
    assert cost(pc, u, x) == pytest.approx(1.0, abs=1e-13)
    pc.g = lambda t, x, u: np.zeros(t.size)
    assert cost(pc, u, x) == pytest.approx(0.0, abs=1e-14)


def test_cost_against_simpson_oracle():
    builtin = linear_lq()
    p = builtin.problem
    xbar, ubar = builtin.exact_state, builtin.exact_control
    oracle = simpson(lambda t: 0.5 * (xbar(t) ** 2 + ubar(t) ** 2), 0.0, 1.0)
    part = make_uniform_partition(1.0, 64)
    u = _exact_control(builtin, part, 2)
    x = solve_state(p, u, 2)
    assert cost(p, u, x) == pytest.approx(oracle, abs=1e-8)


# -- tangent solves -----------------------------------------------------------


def test_tangent_zero_direction(rng):
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 6)
    u = random_dg(rng, part, 1)
    x = solve_state(p, u, 1)
    y = tangent_solve(p, u, x, _zero_control(part))
    assert np.max(np.abs(y.coeffs)) < 1e-13


def test_tangent_superposition_for_linear_dynamics(rng):
    p = linear_lq().problem
    part = make_uniform_partition(1.0, 8)
    v = random_dg(rng, part, 2)
    u1 = random_dg(rng, part, 2)
    u2 = random_dg(rng, part, 2)
    x1 = solve_state(p, u1, 2)
    x2 = solve_state(p, u2, 2)
    y1 = tangent_solve(p, u1, x1, v)
    y2 = tangent_solve(p, u2, x2, v)
    assert np.max(np.abs(y1.coeffs - y2.coeffs)) < 1e-12


def test_primitives_reject_inputs_on_another_partition(rng, monkeypatch):
    # a control, direction or adjoint on other nodes than x_h raises
    # ValueError before any solve; equal nodes in another Partition are fine
    import dgocp.ocp as ocp

    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 6)
    other = Partition(p.T * np.linspace(0.0, 1.0, 7) ** 2)
    u, v = random_dg(rng, part, 2), random_dg(rng, part, 2)
    x = solve_state(p, u, 2)
    lam = solve_adjoint(p, u, x)
    same = DGFunction(Partition(part.nodes), u.coeffs)
    assert np.array_equal(solve_adjoint(p, same, x).coeffs, lam.coeffs)
    u2, v2, lam2 = (random_dg(rng, other, 2) for _ in range(3))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(ocp, "factored", no_solve)
    monkeypatch.setattr(ocp, "solve_forward", no_solve)
    for call in (lambda: solve_adjoint(p, u2, x), lambda: tangent_solve(p, u2, x, v),
                 lambda: tangent_solve(p, u, x, v2), lambda: hessian_vector(p, u2, x, lam),
                 lambda: hessian_vector(p, u, x, lam2), lambda: hessian_form(p, u, v2, 2),
                 lambda: projected_gradient(p, u2, x, lam), lambda: cost(p, u2, x),
                 lambda: adjoint_residual(p, u, x, lam2)):
        with pytest.raises(ValueError, match="another partition"):
            call()


def _closure_solves(p, u, v, partition, r):
    """State, adjoint and tangent through plain F(ts, X) closures that evaluate
    the control and the state at the given times on every call."""
    x = solve_forward(lambda ts, X: p.f(ts, X, u(ts)), lambda ts, X: p.fx(ts, X, u(ts)),
                      p.x0, partition, r)

    def adj_F(ts, L):
        X, U = x.eval_many(ts), u(ts)
        return -np.einsum("qab,qa->qb", p.fx(ts, X, U), L) + p.gx(ts, X, U)

    def adj_dF(ts, L):
        return -np.transpose(p.fx(ts, x.eval_many(ts), u(ts)), (0, 2, 1))

    lam = solve_backward(adj_F, adj_dF, np.zeros(p.d), partition, r)

    def tan_F(ts, Y):
        X, U = x.eval_many(ts), u(ts)
        return np.einsum("qab,qb->qa", p.fx(ts, X, U), Y) + np.einsum(
            "qam,qm->qa", p.fu(ts, X, U), v(ts)
        )

    def tan_dF(ts, Y):
        return p.fx(ts, x.eval_many(ts), u(ts))

    y = solve_forward(tan_F, tan_dF, np.zeros(p.d), partition, r)
    return x, lam, y


def test_solves_match_pointwise_closures_on_graded_partition(rng):
    # the solves sample u, x_h and v once on the quadrature grid; on a graded
    # partition a mix-up of interval order or widths between the state's
    # forward recurrence and the adjoint's transposed, backward one would
    # show as a coefficient mismatch
    for name in ("linear-lq", "nonlinear-quadratic"):
        p = get_builtin(name).problem
        part = Partition(p.T * np.linspace(0.0, 1.0, 10) ** 2)
        for r in range(4):
            v = random_dg(rng, part, r)
            u = random_dg(rng, part, r)
            x, lam, y = _closure_solves(p, u, v, part, r)
            x_h = solve_state(p, u, r)
            assert np.max(np.abs(x_h.coeffs - x.coeffs)) <= 1e-13
            lam_h = solve_adjoint(p, u, x_h)
            assert np.max(np.abs(lam_h.coeffs - lam.coeffs)) <= 1e-13
            y_h = tangent_solve(p, u, x_h, v)
            assert np.max(np.abs(y_h.coeffs - y.coeffs)) <= 1e-13


def test_adjoint_reverses_the_forward_grid_data(rng):
    # solve_adjoint samples fx and gx on the forward grid and solves the
    # transposed system there, interval N-1 first; the reference is a closure
    # solve_backward that samples x_h and u at the times T - s it is given.
    # On a graded partition a wrong ordering would move the coefficients far
    # beyond 1e-14.
    for name in ("linear-lq", "nonlinear-quadratic"):
        p = get_builtin(name).problem
        part = Partition(p.T * np.linspace(0.0, 1.0, 10) ** 2)
        for r in range(4):
            u = random_dg(rng, part, r)
            x = solve_state(p, u, r)

            def F(ts, L):
                X, U = x.eval_many(ts), u.eval_many(ts)
                return p.gx(ts, X, U) - np.einsum("qba,qb->qa", p.fx(ts, X, U), L)

            def dF_dx(ts, L):
                return -np.transpose(p.fx(ts, x.eval_many(ts), u.eval_many(ts)), (0, 2, 1))

            ref = solve_backward(F, dF_dx, np.zeros(p.d), part, r)
            lam = solve_adjoint(p, u, x)
            assert np.max(np.abs(lam.coeffs - ref.coeffs)) <= 1e-14


def test_adjoint_gradient_consistency(rng):
    # pairing the gradient with v equals the tangent-based derivative
    for name in ("linear-lq", "nonlinear-quadratic"):
        p = get_builtin(name).problem
        part = make_uniform_partition(p.T, 8)
        r = 2
        rule = default_rule(r)
        u = random_dg(rng, part, r)
        v = random_dg(rng, part, r)
        x = solve_state(p, u, r)
        lam = solve_adjoint(p, u, x)
        y = tangent_solve(p, u, x, v)
        lhs = projected_gradient(p, u, x, lam).inner(v)

        ts = part.quad_times(rule).ravel()
        X, U, Y, V = x.eval_many(ts), u.eval_many(ts), y.eval_many(ts), v.eval_many(ts)
        integrand = np.einsum("qd,qd->q", p.gx(ts, X, U), Y) + np.einsum(
            "qm,qm->q", p.gu(ts, X, U), V
        )
        per = integrand.reshape(part.N, rule.q) @ rule.weights
        rhs = float(np.sum(0.5 * part.widths * per))
        assert abs(lhs - rhs) < 1e-9


def test_gradient_oracle_checks_the_projected_gradient(rng, monkeypatch):
    # the oracle pairs the gradient minimize uses with v: scaling it by 1.001
    # must show
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 8)
    u, v = random_dg(rng, part, 2), random_dg(rng, part, 2)
    assert gradient_discrepancy(p, u, v, 2) <= 1e-6
    scaled = lambda *args: 1.001 * projected_gradient(*args)
    monkeypatch.setattr(dgocp.oracles, "projected_gradient", scaled)
    assert gradient_discrepancy(p, u, v, 2) > 1e-6


# -- Hessian ------------------------------------------------------------------


def test_hessian_zero_direction():
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 4)
    u = _zero_control(part)
    assert hessian_form(p, u, _zero_control(part), 1) == pytest.approx(0.0, abs=1e-14)


def test_hessian_closed_form_linear_quadratic(rng):
    # f linear, g = (x^2 + u^2)/2: j''(v, v) = int y^2 + v^2 >= ||v||^2
    p = linear_lq().problem
    part = make_uniform_partition(1.0, 8)
    for _ in range(5):
        u = random_dg(rng, part, 2)
        v = random_dg(rng, part, 2)
        quad = hessian_form(p, u, v, 2)
        x = solve_state(p, u, 2)
        y = tangent_solve(p, u, x, v)
        expected = y.l2_norm() ** 2 + v.l2_norm() ** 2
        assert quad == pytest.approx(expected, abs=1e-10)
        assert quad >= v.l2_norm() ** 2 - 1e-8


@pytest.mark.parametrize("caller", ["hessian_form", "hessian_vector"])
def test_hessian_requires_second_partials(caller):
    # both Hessians refuse a problem without a hessian, and say which
    p = OCProblem(
        m=1, T=1.0, x0=[1.0],
        f=lambda t, x, u: -x + u,
        g=lambda t, x, u: 0.5 * u[:, 0] ** 2,
        fx=lambda t, x, u: np.full((t.size, 1, 1), -1.0),
        fu=lambda t, x, u: np.ones((t.size, 1, 1)),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: u.copy(),
    )
    part = make_uniform_partition(1.0, 4)
    u = _zero_control(part)
    x = solve_state(p, u, 1)
    call = {"hessian_form": lambda: hessian_form(p, u, u, 1),
            "hessian_vector": lambda: hessian_vector(p, u, x, solve_adjoint(p, u, x))}[caller]
    with pytest.raises(ValueError, match=f"^{caller} requires OCProblem.hessian$"):
        call()


@pytest.mark.parametrize("name", ["linear-lq", "nonlinear-quadratic", "coupled"])
def test_hessian_vector_oracle_on_graded_partition(rng, name):
    # H v against central differences of the projected gradient, by symmetry
    # and against hessian_form, for r = 0..3; <v, H v> and hessian_form(v, v)
    # read one Lagrangian Hessian, so they agree to round-off
    p = coupled_problem() if name == "coupled" else get_builtin(name).problem
    part = Partition(p.T * np.array([0.0, 0.04, 0.1, 0.25, 0.3, 0.55, 0.8, 1.0]))
    check_derivatives(p, rng)
    for r in range(4):
        for _ in range(2):
            u, v = random_dg(rng, part, r, p.m), random_dg(rng, part, r, p.m)
            assert hessian_vector_discrepancy(p, u, v, r) < 1e-7
            x = solve_state(p, u, r)
            vHv = v.inner(hessian_vector(p, u, x, solve_adjoint(p, u, x))(v))
            assert abs(vHv - hessian_form(p, u, v, r)) <= 1e-13 * abs(vHv)


def test_hessian_vector_is_linear_and_projected(rng):
    # H(a v + w) = a H v + H w to round-off, and H v lives in the control space
    # of u's degree even when the state has a higher degree
    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 6)
    u, v, w = (random_dg(rng, part, 1) for _ in range(3))
    x = solve_state(p, u, 3)
    hess = hessian_vector(p, u, x, solve_adjoint(p, u, x))
    Hv, Hw, Hsum = hess(v), hess(w), hess(2.5 * v + w)
    assert Hv.degree == 1 and Hv.dim == 1
    assert np.max(np.abs(Hsum.coeffs - (2.5 * Hv + Hw).coeffs)) < 1e-13
    with pytest.raises(ValueError):
        p.hessian = None
        hessian_vector(p, u, x, solve_adjoint(p, u, x))


def _hessian_vector_by_solves(p, u, x, lam, v):
    """H v from a tangent_solve and a solve_backward for the second-order
    adjoint, each sampling its own data at the times it is given."""
    def second(ts):
        X, U = x.eval_many(ts), u.eval_many(ts)
        return (X, U, *p.hessian(ts, X, U, lam.eval_many(ts)))

    partition, r = x.partition, x.degree
    y = tangent_solve(p, u, x, v)

    def F(ts, M):
        X, U, Lxx, Lxu, _ = second(ts)
        return (np.einsum("qab,qb->qa", Lxx, y.eval_many(ts))
                + np.einsum("qam,qm->qa", Lxu, v.eval_many(ts))
                - np.einsum("qba,qb->qa", p.fx(ts, X, U), M))

    def dF_dx(ts, M):
        return -np.transpose(p.fx(ts, x.eval_many(ts), u.eval_many(ts)), (0, 2, 1))

    mu = solve_backward(F, dF_dx, np.zeros(p.d), partition, r)
    rule = default_rule(r)
    ts = partition.quad_times(rule).ravel()
    X, U, _, Lxu, Luu = second(ts)
    V, Y, M = v.eval_many(ts), y.eval_many(ts), mu.eval_many(ts)
    hv = (np.einsum("qmn,qn->qm", Luu, V) + np.einsum("qam,qa->qm", Lxu, Y)
          - np.einsum("qam,qa->qm", p.fu(ts, X, U), M))
    return modal_from_values(hv.reshape(partition.N, rule.q, p.m), partition, u.degree, rule)


def test_hessian_vector_matches_the_solves(rng):
    # the factored tangent and second-order adjoint systems against a
    # solve_forward and a solve_backward per product
    p = coupled_problem()
    part = Partition(p.T * np.array([0.0, 0.04, 0.1, 0.25, 0.3, 0.55, 0.8, 1.0]))
    for r in range(4):
        u = random_dg(rng, part, r, p.m)
        x = solve_state(p, u, r)
        lam = solve_adjoint(p, u, x)
        hess = hessian_vector(p, u, x, lam)
        for _ in range(2):
            v = random_dg(rng, part, r, p.m)
            ref = _hessian_vector_by_solves(p, u, x, lam, v).coeffs
            assert np.max(np.abs(hess(v).coeffs - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_hessian_vector_factors_one_system_per_call(rng, monkeypatch):
    # the tangent and the second-order adjoint system are one factored system
    # and its transpose: built once when the operator is built cold, and not
    # at all right after solve_adjoint at the same (u, x); a product makes no
    # solve of its own
    import dgocp.ivp as ivp
    import dgocp.ocp as ocp

    factored = []
    init = ivp.AffineSystem.__init__

    def counting(self, *args):
        factored.append(1)
        init(self, *args)

    def no_solve(*args, **kwargs):
        raise AssertionError("a product made a solve")

    p = nonlinear_quadratic().problem
    part = make_uniform_partition(p.T, 6)
    u = random_dg(rng, part, 2)
    x = solve_state(p, u, 2)
    lam = solve_adjoint(p, u, x)
    monkeypatch.setattr(ivp.AffineSystem, "__init__", counting)
    monkeypatch.setattr(ocp, "solve_forward", no_solve)
    monkeypatch.setattr(ivp, "solve_backward", no_solve)
    for products in (0, 1, 5):
        for after_adjoint in (False, True):
            monkeypatch.setattr(ivp, "_memo", weakref.WeakKeyDictionary())
            if after_adjoint:
                solve_adjoint(p, u, x)
            factored.clear()
            hess = hessian_vector(p, u, x, lam)
            for _ in range(products):
                hess(random_dg(rng, part, 2))
            assert len(factored) == (0 if after_adjoint else 1)


# -- problem validation -------------------------------------------------------


def test_check_derivatives_catches_corruption(rng):
    # a first partial, and each block of the hessian in turn: Lxx as if the
    # builtin's fxx were 2.002, Lxu shifted by 1e-3 and Luu scaled by 0.99
    check_derivatives(nonlinear_quadratic().problem, rng)
    p = nonlinear_quadratic().problem
    p.fu = lambda t, x, u: 1.01 * np.ones((t.size, 1, 1))
    with pytest.raises(ValueError, match="fu disagrees"):
        check_derivatives(p, rng)
    corrupt = (lambda Lxx, Lxu, Luu, lam: (Lxx - 0.002 * lam[:, :, None], Lxu, Luu),
               lambda Lxx, Lxu, Luu, lam: (Lxx, Lxu + 1e-3, Luu),
               lambda Lxx, Lxu, Luu, lam: (Lxx, Lxu, 0.99 * Luu))
    for shift in corrupt:
        p = nonlinear_quadratic().problem
        p.hessian = lambda t, x, u, lam, exact=p.hessian, shift=shift: shift(*exact(t, x, u, lam), lam)
        with pytest.raises(ValueError, match="hessian disagrees"):
            check_derivatives(p, rng)


def test_a_transposed_lxu_is_caught(rng):
    # on the coupled problem Lxu (2 x 2) is not symmetric, so a hessian that
    # returns its transpose fails the pointwise check and the H v oracle
    p = coupled_problem()
    check_derivatives(p, rng)
    exact = p.hessian

    def transposed(t, x, u, lam):
        Lxx, Lxu, Luu = exact(t, x, u, lam)
        return Lxx, np.swapaxes(Lxu, 1, 2), Luu

    p.hessian = transposed
    with pytest.raises(ValueError, match="hessian disagrees"):
        check_derivatives(p, rng)
    part = make_uniform_partition(p.T, 6)
    u, v = random_dg(rng, part, 1, p.m), random_dg(rng, part, 1, p.m)
    assert hessian_vector_discrepancy(p, u, v, 1) > 1e-3


def test_problem_validation():
    kwargs = dict(
        f=lambda t, x, u: -x,
        g=lambda t, x, u: np.zeros(t.size),
        fx=lambda t, x, u: np.zeros((t.size, 1, 1)),
        fu=lambda t, x, u: np.zeros((t.size, 1, 1)),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: np.zeros((t.size, 1)),
    )
    assert OCProblem(m=1, T=1.0, x0=[1.0, 2.0], **kwargs).d == 2
    with pytest.raises(ValueError):
        OCProblem(m=1, T=1.0, x0=[1.0], u_lo=1.0, u_hi=-1.0, **kwargs)
    for x0 in ([], [[1.0]]):
        with pytest.raises(ValueError, match="x0 must be a 1-D, non-empty, finite vector"):
            OCProblem(m=1, T=1.0, x0=x0, **kwargs)
    for bad in (dict(T=np.nan), dict(T=0.0), dict(T=-1.0), dict(T=np.inf), dict(T=True),
                dict(T=np.True_), dict(x0=[np.nan]), dict(x0=[np.inf]), dict(u_lo=np.nan),
                dict(u_hi=np.nan)):
        with pytest.raises(ValueError):
            OCProblem(**{"m": 1, "T": 1.0, "x0": [1.0], **bad}, **kwargs)
    # the control width is checked before the bounds are built from it
    for m in (0, -1, 1.0, 2.5, True, None):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            OCProblem(m=m, T=1.0, x0=[1.0], **kwargs)
    assert OCProblem(m=np.int64(2), T=1.0, x0=[1.0], **kwargs).u_lo.shape == (2,)
    for T in (1, np.int64(1), np.float32(0.5)):
        assert type(OCProblem(m=1, T=T, x0=[1.0], **kwargs).T) is float
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        dataclasses.replace(linear_lq().problem, m=0)
