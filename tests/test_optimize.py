"""Minimization: projected gradient and Newton-CG."""

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import dgocp.convergence
import dgocp.ivp
import dgocp.mesh
import dgocp.ocp
import dgocp.optimize
from dgocp import (
    DGFunction,
    OCProblem,
    OptimizeOptions,
    Partition,
    SolverFailure,
    StallError,
    gauss_rule,
    l2_error,
    make_uniform_partition,
    minimize,
    modal_from_values,
    project_l2,
    run_convergence,
    solve_adjoint,
    solve_state,
    stationarity,
)
from dgocp.problems import get_builtin, linear_lq

from dgocp.oracles import random_dg


def _decoupled_problem(c, lo=None, hi=None, weight=1.0):
    """f ignores u; g = weight (u - c)^2 / 2, so for a positive weight the
    optimum is u == c pointwise, and the control curvature is the weight."""
    z3 = lambda t: np.zeros((t.size, 1, 1))
    return OCProblem(
        m=1, T=1.0, x0=[0.0],
        f=lambda t, x, u: np.zeros_like(x),
        g=lambda t, x, u: 0.5 * weight * (u[:, 0] - c) ** 2,
        fx=lambda t, x, u: z3(t),
        fu=lambda t, x, u: z3(t),
        gx=lambda t, x, u: np.zeros((t.size, 1)),
        gu=lambda t, x, u: weight * (u - c),
        hessian=lambda t, x, u, lam: (z3(t), z3(t), np.full((t.size, 1, 1), weight)),
        u_lo=lo, u_hi=hi,
    )


def test_decoupled_quadratic_pgd_one_step():
    # the first step is the unit step; the second takes sigma = 1 / weight
    # from its secant, the exact curvature, and lands on the optimum.  The
    # unit step alone needs about 75 iterations at weight 1/4 and spins at
    # weight 4, where theta = 1/2 maps u - c to c - u at equal cost
    part = make_uniform_partition(1.0, 4)
    for weight in (1.0, 0.25, 4.0):
        p = _decoupled_problem(0.7, lo=0.0, hi=1.0, weight=weight)
        report = minimize(p, None, part, 1, opts=OptimizeOptions(method="pgd", max_outer=50))
        assert report.converged, weight
        assert report.iterations <= 3, weight
        assert np.max(np.abs(report.u_star.coeffs[:, 0, 0] - 0.7)) < 1e-12
        assert np.max(np.abs(report.u_star.coeffs[:, 1:, :])) < 1e-12


def test_concave_pgd_keeps_the_unit_step():
    # g = -(u - c)^2 / 2 on [0, 1]: every secant has <s, y> < 0, so each step
    # is the unit step clip(u - g'(u)) = clip(2u - c), from 0.5 to 0.6, 0.8
    # and the bound 1; the secant step sigma = -1 would go uphill and stall
    c = 0.4
    p = _decoupled_problem(c, lo=0.0, hi=1.0, weight=-1.0)
    part = make_uniform_partition(1.0, 4)
    report = minimize(p, lambda t: np.full(np.size(t), 0.5), part, 1,
                      opts=OptimizeOptions(method="pgd", max_outer=50))
    assert report.converged and report.iterations == 4
    expected = [-0.5 * (u - c) ** 2 for u in (0.5, 0.6, 0.8, 1.0)]
    assert report.cost_history == pytest.approx(expected, abs=1e-14)
    assert np.max(np.abs(report.u_star.coeffs[:, 0, 0] - 1.0)) < 1e-14


def test_linear_lq_table_entry():
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 10)
    report = minimize(builtin.problem, None, part, 1)
    err = l2_error(report.u_star, builtin.exact_control)
    assert err == pytest.approx(6.2543e-04, rel=1e-2)
    assert report.converged


def test_stationarity_at_optimum_and_closed_form(rng):
    builtin = linear_lq()
    p = builtin.problem
    part = make_uniform_partition(1.0, 8)
    opts = OptimizeOptions(grad_tol=1e-11)
    report = minimize(p, None, part, 2, opts=opts)
    assert report.stationarity <= opts.grad_tol
    # the public measure is the one minimize stops on
    assert stationarity(p, report.u_star, 2) == report.stationarity

    # away from the optimum (box inactive) the residual is max |u - lam| over
    # the control Gauss nodes, where the box is imposed
    u = random_dg(rng, part, 2)
    r = 2
    x = solve_state(p, u, r)
    lam = solve_adjoint(p, u, x)
    ts = part.quad_times(gauss_rule(r + 1)).ravel()
    manual = float(np.max(np.abs(u.eval_many(ts) - lam.eval_many(ts))))
    assert stationarity(p, u, r) == pytest.approx(manual, abs=1e-12)


def test_stationarity_zero_on_active_bound():
    # positive gradient at the lower bound is projected away entirely
    p = _decoupled_problem(-2.0, lo=0.0, hi=5.0)  # unconstrained optimum below box
    part = make_uniform_partition(1.0, 4)
    report = minimize(p, None, part, 1)
    assert report.converged
    assert np.max(np.abs(report.u_star.coeffs)) < 1e-12  # clamped at 0
    assert stationarity(p, report.u_star, 1) < 1e-12


def test_monotone_descent_pgd():
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 8)
    report = minimize(builtin.problem, None, part, 1, opts=OptimizeOptions(method="pgd"))
    costs = np.array(report.cost_history)
    slack = 1e-12 * (1.0 + np.abs(costs[:-1]))
    assert np.all(np.diff(costs) <= slack)


def test_box_feasibility():
    builtin = linear_lq()
    p = builtin.problem
    p.u_lo[:] = -0.3
    p.u_hi[:] = 0.0
    part = make_uniform_partition(1.0, 8)
    report = minimize(p, None, part, 1, opts=OptimizeOptions(method="pgd"))
    nodal = np.polynomial.legendre.leggauss(2)[0]
    for n in range(part.N):
        ts = part.nodes[n] + 0.5 * part.widths[n] * (nodal + 1.0)
        vals = report.u_star.eval_many(ts)
        assert np.all(vals >= -0.3 - 1e-12) and np.all(vals <= 1e-12)
    # the bound is genuinely active for this problem
    assert np.min(report.u_star.eval_many(np.linspace(0, 1, 101))) < -0.29


def test_box_optimum_converges():
    # stationarity is measured at the control nodes, where the box is imposed;
    # between the nodes the optimal control dips below the bound
    part = make_uniform_partition(1.0, 8)
    p = linear_lq().problem
    p.u_lo[:] = -0.3
    p.u_hi[:] = 0.0
    opts = OptimizeOptions(method="pgd", grad_tol=1e-8, max_outer=50)
    report = minimize(p, None, part, 1, opts=opts)
    assert report.converged and report.iterations <= 10
    nodal = np.polynomial.legendre.legvander(gauss_rule(2).points, 1)
    assert np.min(nodal @ report.u_star.coeffs[..., 0].T) == pytest.approx(-0.3, abs=1e-12)


def test_trial_solver_failure_is_a_rejection():
    builtin = get_builtin("nonlinear-quadratic")
    p = builtin.problem
    part = make_uniform_partition(p.T, 8)
    u0 = lambda t: np.full(np.size(t), 33.0)
    # a far start converges with both methods; no trial solve of this run
    # fails (see test_failed_trial_backtracks for a rejected trial)
    rep = minimize(p, u0, part, 1, opts=OptimizeOptions(method="pgd", grad_tol=1e-8,
                                                         max_outer=100))
    ref = minimize(p, u0, part, 1, opts=OptimizeOptions(method="newton", grad_tol=1e-8))
    assert rep.converged and ref.converged
    assert rep.cost == pytest.approx(ref.cost, abs=1e-12)
    # a start control whose state solve fails is not a trial: it raises
    with pytest.raises(SolverFailure):
        minimize(p, lambda t: np.full(np.size(t), 40.0), make_uniform_partition(p.T, 4), 1)


def test_failed_trial_backtracks(monkeypatch):
    p = linear_lq().problem
    part = make_uniform_partition(1.0, 8)
    opts = OptimizeOptions(method="pgd")
    ref = minimize(p, None, part, 1, opts=opts)

    controls = []

    def failing_first_trial(p, u, *args):
        controls.append(u.coeffs.copy())
        if len(controls) == 2:  # call 1 is the start control, call 2 the first trial
            raise SolverFailure(0, 1.0)
        return solve_state(p, u, *args)

    monkeypatch.setattr(dgocp.optimize, "solve_state", failing_first_trial)
    rep = minimize(p, None, part, 1, opts=opts)
    # the rejected trial is followed by the half step toward the same target
    assert np.allclose(controls[2], 0.5 * (controls[0] + controls[1]), rtol=0, atol=1e-15)
    assert rep.converged
    assert rep.cost == pytest.approx(ref.cost, abs=1e-12)


@pytest.mark.parametrize("method", ["pgd", "newton"])
def test_no_descent_raises_stall_error(method):
    # gu and fu with the wrong sign: every target lies uphill, so no
    # relaxation down to RELAX_FLOOR lowers the cost, and the first iteration
    # raises with the start's cost and stationarity
    p = replace(linear_lq().problem,
                gu=lambda t, x, u: -u,
                fu=lambda t, x, u: -np.ones((t.size, 1, 1)))
    part = make_uniform_partition(1.0, 8)
    start = minimize(p, None, part, 1, opts=OptimizeOptions(method=method, max_outer=0))
    with pytest.raises(StallError) as err:
        minimize(p, None, part, 1, opts=OptimizeOptions(method=method))
    assert err.value.iteration == 1
    assert err.value.cost == start.cost
    assert err.value.stationarity == start.stationarity > 0.4


@pytest.mark.parametrize("method", ["pgd", "newton"])
def test_an_infinite_start_cost_raises_before_the_first_iteration(monkeypatch, method):
    # x' = u, g = (x^2 + u^2) / 2 from u0 = 1e200: the start cost overflows to
    # inf, and the accept bound inf would take every trial, so pgd would spin
    # to max_outer and newton fail inside CG; the run ends before any
    # iteration, with no adjoint solve
    one = lambda t, x, u: np.ones((t.size, 1, 1))
    zero = lambda t, x, u: np.zeros((t.size, 1, 1))
    p = OCProblem(m=1, T=1.0, x0=[0.0], f=lambda t, x, u: u,
                  g=lambda t, x, u: 0.5 * (x[:, 0] ** 2 + u[:, 0] ** 2),
                  fx=zero, fu=one, gx=lambda t, x, u: x, gu=lambda t, x, u: u,
                  hessian=lambda t, x, u, lam: (one(t, x, u), zero(t, x, u), one(t, x, u)))

    def no_iteration(*args):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(dgocp.optimize, "solve_adjoint", no_iteration)
    part, u0 = make_uniform_partition(1.0, 4), lambda t: np.full(np.size(t), 1e200)
    with np.errstate(over="ignore"), pytest.raises(StallError) as err:
        minimize(p, u0, part, 1, opts=OptimizeOptions(method=method))
    assert str(err.value) == "cost inf at the start control is not finite"
    assert err.value.iteration == 0 and err.value.cost == np.inf


@pytest.mark.parametrize("box", [None, (-0.3, 0.0)])
def test_pgd_reaches_default_tolerance(box):
    p = linear_lq().problem
    if box is not None:
        p.u_lo[:], p.u_hi[:] = box
    part = make_uniform_partition(1.0, 8)
    report = minimize(p, None, part, 1, opts=OptimizeOptions(method="pgd", max_outer=100))
    assert report.converged and report.iterations <= 10


def test_one_adjoint_solve_per_measured_iterate(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_adjoint(*args, **kwargs)

    monkeypatch.setattr(dgocp.optimize, "solve_adjoint", counting)
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 8)
    for opts in (OptimizeOptions(), OptimizeOptions(method="pgd", max_outer=3)):
        calls.clear()
        report = minimize(builtin.problem, None, part, 1, opts=opts)
        assert len(calls) == len(report.stationarity_history)


def test_minimize_samples_on_its_own_grid(monkeypatch):
    # every DG function of a run lives on the run's partition, so no primitive
    # has to search for the interval of a time
    calls = []
    locate = dgocp.mesh.Partition.locate

    def counting(self, *args, **kwargs):
        calls.append(1)
        return locate(self, *args, **kwargs)

    monkeypatch.setattr(dgocp.mesh.Partition, "locate", counting)
    p = get_builtin("nonlinear-quadratic").problem
    report = minimize(p, None, make_uniform_partition(p.T, 8), 2,
                      opts=OptimizeOptions(method="newton"))
    assert report.converged and calls == []
    boxed = linear_lq().problem
    boxed.u_lo[:], boxed.u_hi[:] = -0.3, 0.0
    report = minimize(boxed, None, make_uniform_partition(1.0, 8), 1,
                      opts=OptimizeOptions(method="pgd"))
    assert report.converged and calls == []


def test_minimize_rejects_a_start_of_another_width(rng):
    # a callable or DG start is sampled with the problem's control width
    p, part = linear_lq().problem, make_uniform_partition(1.0, 4)
    for u0 in (lambda t: np.ones((np.size(t), 2)), random_dg(rng, part, 1, dim=2)):
        with pytest.raises(ValueError, match="expected 1"):
            minimize(p, u0, part, 1)


def test_minimize_rejects_a_scalar_start(monkeypatch):
    # a callable start gives one value per time, checked before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(dgocp.optimize, "solve_state", no_solve)
    p, part = linear_lq().problem, make_uniform_partition(1.0, 4)
    with pytest.raises(ValueError, match=r"shape \(\), expected \(8, 1\)"):
        minimize(p, lambda t: 0.0, part, 1)


def test_a_partition_on_another_horizon_is_rejected_before_any_solve(monkeypatch):
    # on [0, 2] linear-lq would be optimized on another horizon and reported
    # converged (cost 0.2061 against 0.1929 on [0, 1])
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(dgocp.optimize, "solve_state", no_solve)
    monkeypatch.setattr(dgocp.ocp, "solve_forward", no_solve)
    p = linear_lq().problem
    for T in (2.0, 0.5, 1.0 + 1e-9):
        part = make_uniform_partition(T, 8)
        for call in (lambda: minimize(p, None, part, 1),
                     lambda: solve_state(p, DGFunction(part, np.zeros((8, 2, 1))), 1)):
            with pytest.raises(ValueError, match=f"ends at {T!r}, not at T = 1.0"):
                call()
    # within the relative 1e-12 slack of Partition.locate the run proceeds
    monkeypatch.undo()
    part = Partition(np.linspace(0.0, 1.0 + 1e-13, 9))
    assert minimize(p, None, part, 1, opts=OptimizeOptions(max_outer=1)).iterations == 2


@pytest.mark.parametrize("name, route", [("linear-lq", "batched"),
                                         ("nonlinear-quadratic", "march")])
def test_state_solve_route(monkeypatch, name, route):
    # every state solve of a run takes one route: the batched one for the
    # state-affine linear-lq, the march for nonlinear-quadratic
    calls = {"batched": 0, "march": 0}
    per_solve = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def state(*args, **kwargs):
        before = dict(calls)
        out = solve_state(*args, **kwargs)
        per_solve.append({k: calls[k] - before[k] for k in calls})
        return out

    monkeypatch.setattr(dgocp.ivp.AffineSystem, "_sweep",
                        counted("batched", dgocp.ivp.AffineSystem._sweep))
    monkeypatch.setattr(dgocp.ivp, "_solve_newton", counted("march", dgocp.ivp._solve_newton))
    monkeypatch.setattr(dgocp.optimize, "solve_state", state)
    builtin = get_builtin(name)
    for r in (0, 2):
        part = make_uniform_partition(builtin.problem.T, 8)
        assert minimize(builtin.problem, None, part, r).converged
    other = "march" if route == "batched" else "batched"
    assert len(per_solve) > 10
    assert all(c == {route: 1, other: 0} for c in per_solve)


def test_methods_agree():
    for name, N in (("linear-lq", 8), ("nonlinear-quadratic", 4)):
        builtin = get_builtin(name)
        part = make_uniform_partition(builtin.problem.T, N)
        opts_pgd = OptimizeOptions(method="pgd", grad_tol=1e-8, max_outer=200)
        opts_newton = OptimizeOptions(method="newton", grad_tol=1e-8, max_outer=200)
        rep_pgd = minimize(builtin.problem, None, part, 2, opts=opts_pgd)
        rep_newton = minimize(builtin.problem, None, part, 2, opts=opts_newton)
        assert rep_pgd.converged and rep_newton.converged
        assert l2_error(rep_pgd.u_star, rep_newton.u_star) <= 10 * 1e-8


def test_control_refinement_rate():
    builtin = linear_lq()
    errs = []
    for N in (10, 20, 40):
        part = make_uniform_partition(1.0, N)
        report = minimize(builtin.problem, None, part, 1)
        errs.append(l2_error(report.u_star, builtin.exact_control))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 2.0) < 0.1)


def test_nodal_superconvergence_linear_lq():
    # DG time stepping converges at order 2r+1 at the mesh nodes (Lesaint and
    # Raviart 1974): the state's left traces x_h(t_n^-) and the control's right
    # traces u_h(t_n^+), which equal the adjoint's upwind traces at the optimum
    builtin = linear_lq()
    opts = OptimizeOptions(method="newton", grad_tol=1e-14)
    for r in range(3):
        errs = []
        for N in (10, 20, 40, 80, 160):
            part = make_uniform_partition(1.0, N)
            report = minimize(builtin.problem, None, part, r, opts=opts)
            x_left = report.x_star.coeffs.sum(axis=1)[:, 0]
            u_right = ((-1.0) ** np.arange(r + 1)) @ report.u_star.coeffs[:, :, 0].T
            errs.append((np.max(np.abs(x_left - builtin.exact_state(part.nodes[1:]))),
                         np.max(np.abs(u_right - builtin.exact_control(part.nodes[:-1])))))
        for col in range(2):
            e = np.array([pair[col] for pair in errs])
            e = e[e > 1e-13]
            assert e.size >= 3
            rates = np.log2(e[:-1] / e[1:])
            assert np.all(np.abs(rates - (2 * r + 1)) <= 0.1), (r, col, rates)


@pytest.mark.parametrize("name", ["linear-lq", "nonlinear-quadratic"])
def test_newton_reaches_the_pgd_optimum(name):
    builtin = get_builtin(name)
    part = make_uniform_partition(builtin.problem.T, 8)
    for r in range(4):
        reports = [minimize(builtin.problem, None, part, r,
                            opts=OptimizeOptions(method=method, grad_tol=1e-14))
                   for method in ("pgd", "newton")]
        assert all(rep.converged for rep in reports)
        pgd, newton = reports
        assert np.max(np.abs(newton.u_star.coeffs - pgd.u_star.coeffs)) <= 1e-12
        assert np.max(np.abs(newton.x_star.coeffs - pgd.x_star.coeffs)) <= 1e-12


@pytest.mark.parametrize("name", ["linear-lq", "nonlinear-quadratic"])
def test_newton_outer_iterations(name):
    # at most 5 measured iterates to stationarity 1e-14, on the coarsest and
    # the finest level of the convergence tables
    builtin = get_builtin(name)
    opts = OptimizeOptions(method="newton", grad_tol=1e-14)
    for r in (1, 2, 3):
        for h in (0.1, 0.1 * 2.0**-5):
            part = make_uniform_partition(builtin.problem.T, int(round(builtin.problem.T / h)))
            report = minimize(builtin.problem, None, part, r, opts=opts)
            assert report.converged and report.iterations <= 5, (r, h, report.iterations)


@pytest.mark.parametrize("name, most", [("linear-lq", 3), ("nonlinear-quadratic", 4)])
def test_newton_iterations_from_zero(name, most):
    # CG solves each Newton system to a residual of order ||g||^2, so on the
    # linear-quadratic problem one step from zero comes near the optimum
    builtin = get_builtin(name)
    opts = OptimizeOptions(method="newton", grad_tol=1e-12)
    for N, r in ((64, 2), (256, 3)):
        part = make_uniform_partition(builtin.problem.T, N)
        report = minimize(builtin.problem, None, part, r, opts=opts)
        assert report.converged and report.iterations <= most, (N, r, report.iterations)


def test_newton_state_solves(monkeypatch):
    # the Hessian-vector products take affine solves only: one nonlinear state
    # solve at the start and one per accepted or rejected trial
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_state(*args, **kwargs)

    monkeypatch.setattr(dgocp.optimize, "solve_state", counting)
    builtin = get_builtin("nonlinear-quadratic")
    opts = OptimizeOptions(method="newton", grad_tol=1e-14)
    for r in range(4):
        for N in (4, 64):  # the r = 0 state at the zero control does not exist for N = 2
            calls.clear()
            report = minimize(builtin.problem, None, make_uniform_partition(0.2, N), r, opts=opts)
            assert report.converged
            assert len(calls) <= 6, (r, N, len(calls))


def test_newton_takes_the_full_step_after_a_backtrack(monkeypatch):
    # g = sqrt(1 + (u - c)^2) is convex, but the full Newton step from
    # u - c = 2 lands at -8 and is rejected down to a quarter step (-0.5).
    # Every later iteration starts from the full step again, where Newton maps
    # u - c to -(u - c)^3: stationarity 1e-12 at the sixth iterate
    c = 0.7
    p = replace(_decoupled_problem(c),
                g=lambda t, x, u: np.sqrt(1.0 + (u[:, 0] - c) ** 2),
                gu=lambda t, x, u: (u - c) / np.sqrt(1.0 + (u - c) ** 2),
                hessian=lambda t, x, u, lam: (np.zeros((t.size, 1, 1)), np.zeros((t.size, 1, 1)),
                                              (1.0 + (u - c) ** 2)[:, :, None] ** -1.5))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_state(*args, **kwargs)

    monkeypatch.setattr(dgocp.optimize, "solve_state", counting)
    part = make_uniform_partition(1.0, 4)
    opts = OptimizeOptions(method="newton", grad_tol=1e-12, max_outer=20)
    report = minimize(p, lambda t: np.full(np.size(t), c + 2.0), part, 1, opts=opts)
    assert report.converged and report.iterations == 6
    assert len(calls) == report.iterations + 2  # two rejected trials in the first step
    assert np.max(np.abs(report.u_star.coeffs[:, 0, 0] - c)) < 1e-12


def test_newton_rejects_unsupported_problems(monkeypatch):
    # typed errors before any solve: no box handling, and H v needs the
    # problem's hessian
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating")

    monkeypatch.setattr(dgocp.optimize, "solve_state", no_solve)
    part = make_uniform_partition(1.0, 4)
    opts = OptimizeOptions(method="newton")
    for box in ((0.0, None), (None, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="box"):
            minimize(_decoupled_problem(0.7, *box), None, part, 1, opts=opts)
    p = replace(_decoupled_problem(0.7), hessian=None)
    with pytest.raises(ValueError, match="^method 'newton' requires OCProblem.hessian$"):
        minimize(p, None, part, 1, opts=opts)
    with pytest.raises(ValueError, match="'pgd' or 'newton'"):
        OptimizeOptions(method="Newton")


def test_truthful_convergence_flag():
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 8)
    report = minimize(builtin.problem, None, part, 1,
                      opts=OptimizeOptions(method="pgd", max_outer=1, grad_tol=1e-14))
    assert not report.converged
    assert report.iterations == 2 == len(report.stationarity_history)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizeOptions(method="bfgs")
    # an infinite tolerance would let the first iterate claim convergence, a
    # fractional cap would fail inside minimize instead of here, and a bool is
    # an Integral that would run as a cap of 1 or 0, and a real that would run
    # as a tolerance of 1
    for bad in ({"grad_tol": 0.0}, {"grad_tol": -1e-10}, {"grad_tol": float("nan")},
                {"grad_tol": float("inf")}, {"grad_tol": True}, {"grad_tol": np.True_},
                {"max_outer": -1}, {"max_outer": 2.5}, {"max_outer": True}, {"max_outer": False}):
        with pytest.raises(ValueError):
            OptimizeOptions(**bad)
    assert OptimizeOptions(max_outer=0).max_outer == 0
    assert OptimizeOptions(max_outer=np.int64(3)).max_outer == 3
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 4)
    with pytest.raises(ValueError):
        minimize(builtin.problem, None, part, 1, r_control=2)


def test_negative_degree_is_rejected_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a state solve ran")

    monkeypatch.setattr(dgocp.optimize, "solve_state", no_solve)
    p = linear_lq().problem
    part = make_uniform_partition(1.0, 4)
    for degrees in ((-1,), (1, -1), (-1, -1)):
        with pytest.raises(ValueError, match="r_(state|control) must be an integer >= 0, got -1"):
            minimize(p, None, part, *degrees)


# entry point -> (call with the bad value, the argument's name, its minimum)
_INTEGER_ARGUMENTS = {
    "minimize-r_state": (lambda p, u, bad: minimize(p, None, u.partition, bad), "r_state", 0),
    "minimize-r_control": (lambda p, u, bad: minimize(p, None, u.partition, 1, bad),
                           "r_control", 0),
    "run_convergence-orders": (lambda p, u, bad: run_convergence(linear_lq(), orders=(1, bad)),
                               "orders[1]", 0),
    "run_convergence-levels": (lambda p, u, bad: run_convergence(linear_lq(), levels=bad),
                               "levels", 1),
    "solve_state": (lambda p, u, bad: solve_state(p, u, bad), "r", 0),
    "project_l2": (lambda p, u, bad: project_l2(np.sin, u.partition, bad), "r", 0),
    "make_uniform_partition": (lambda p, u, bad: make_uniform_partition(1.0, bad), "N", 1),
}


@pytest.mark.parametrize("bad", [1.5, 1.0, True, -1])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENTS))
def test_degrees_and_counts_must_be_integers(monkeypatch, entry, bad):
    # a float, even 1.0, and a bool are rejected as a negative value is, with a
    # ValueError naming the argument, before any sampling or solve
    def no_call(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    for owner, name in ((dgocp.ocp, "solve_forward"), (dgocp.ivp.AffineSystem, "__init__"),
                        (dgocp.convergence, "minimize"), (dgocp.mesh, "sample_values")):
        monkeypatch.setattr(owner, name, no_call)
    call, name, minimum = _INTEGER_ARGUMENTS[entry]
    p, part = linear_lq().problem, make_uniform_partition(1.0, 4)
    u = DGFunction(part, np.zeros((4, 2, 1)))
    message = f"^{re.escape(name)} must be an integer >= {minimum}, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(p, u, bad)


def test_numpy_integers_pass_as_degrees_and_counts():
    part = make_uniform_partition(1.0, np.int64(4))
    assert part.N == 4
    assert project_l2(np.sin, part, np.int64(2)).degree == 2
    p = linear_lq().problem
    report = minimize(p, None, part, np.int64(1), np.int64(0),
                      OptimizeOptions(method="pgd", max_outer=2))
    assert (report.x_star.degree, report.u_star.degree) == (1, 0)


def test_fbs_spelling_runs_pgd():
    # the deleted forward-backward sweep ran the pgd iterates; its spelling
    # is kept for the benchmark's box-starts ops only
    assert OptimizeOptions(method="fbs").method == "pgd"
    p = linear_lq().problem
    p.u_lo[:], p.u_hi[:] = -0.3, 0.0
    part = make_uniform_partition(1.0, 8)
    vals = np.random.default_rng(1).uniform(-0.3, 0.0, size=(part.N, 2, 1))
    u0 = modal_from_values(vals, part, 1, gauss_rule(2))
    reports = [minimize(p, u0, part, 1, 1, OptimizeOptions(method=method, grad_tol=1e-8,
                                                             max_outer=50))
               for method in ("fbs", "pgd")]
    assert all(rep.converged for rep in reports)
    assert np.array_equal(reports[0].u_star.coeffs, reports[1].u_star.coeffs)


@pytest.mark.parametrize("name", ["linear-lq", "nonlinear-quadratic"])
@pytest.mark.parametrize("method", ["pgd", "newton"])
@pytest.mark.parametrize("r_state, r_control", [(3, 1), (2, 0)])
def test_control_degree_below_state_degree(name, method, r_state, r_control):
    # the control nodes have fewer points than the adjoint has degrees of
    # freedom: both methods stop on the discrete, projected condition there
    p = get_builtin(name).problem
    opts = OptimizeOptions(method=method, grad_tol=1e-10)
    report = minimize(p, None, make_uniform_partition(p.T, 8), r_state, r_control, opts)
    assert report.converged and report.u_star.degree == r_control
    assert stationarity(p, report.u_star, r_state) <= opts.grad_tol


def test_options_are_frozen():
    # options are validated once, in __post_init__: assigning afterwards would
    # skip that check
    opts = OptimizeOptions()
    with pytest.raises(FrozenInstanceError):
        opts.max_outer = -1
    assert opts.max_outer == 10000


def test_report_extras(monkeypatch):
    # the report's total variation is computed when read, not by minimize
    calls = []
    total_variation = dgocp.optimize.total_variation

    def counting(u):
        calls.append(u)
        return total_variation(u)

    monkeypatch.setattr(dgocp.optimize, "total_variation", counting)
    builtin = linear_lq()
    part = make_uniform_partition(1.0, 8)
    report = minimize(builtin.problem, None, part, 1)
    assert calls == []
    assert report.tv_u == total_variation(report.u_star) >= 0.0
    assert report.lambda_star.partition.N == part.N
    assert len(report.cost_history) == len(report.stationarity_history)


def _cg_path(hess, g):
    """Plain CG for H d = -g in the control L2 inner product: the iterate, the
    residual norm and the curvature of the step's direction, for each step."""
    d, res = 0.0 * g, -1.0 * g
    direction, rr = res, g.l2_norm() ** 2  # rounded as _newton_direction rounds it
    path = []
    for _ in range(g.coeffs.size):
        Hp = hess(direction)
        curvature = direction.inner(Hp)
        alpha = rr / curvature
        d, res = d + alpha * direction, res - alpha * Hp
        rr, rr_old = res.l2_norm_sq(), rr
        path.append((d, np.sqrt(rr), curvature))
        direction = res + (rr / rr_old) * direction
    return path


def _spd_hessian(g, products):
    """H scaling the modal coefficients by eigenvalues spread over [1, 100],
    which is self-adjoint in L2 (the Legendre modes are orthogonal); each
    product appends to `products`."""
    eig = np.geomspace(1.0, 100.0, g.coeffs.size).reshape(g.coeffs.shape)

    def hess(v):
        products.append(1)
        return DGFunction(v.partition, eig * v.coeffs)
    return hess


def test_newton_direction_stops_at_the_cg_floor():
    # with ||g|| = 1e-3 the forcing term alone asks for a residual of 1e-9,
    # the floor CG_FORCING * grad_tol for 1e-4
    g = random_dg(np.random.default_rng(7), make_uniform_partition(1.0, 8), 2)
    g = (1e-3 / g.l2_norm()) * g
    products = []
    hess = _spd_hessian(g, products)
    grad_tol = 1e-3
    floor = dgocp.optimize.CG_FORCING * grad_tol
    path = _cg_path(hess, g)
    stop = next(k for k, (_, res, _) in enumerate(path) if res <= floor)
    assert stop >= 1 and path[stop][1] > 1e-6  # the forcing term alone goes on
    products.clear()
    d = dgocp.optimize._newton_direction(hess, g, grad_tol)
    assert len(products) == stop + 1
    assert np.array_equal(d.coeffs, path[stop][0].coeffs)


def test_newton_direction_stops_at_the_forcing_term():
    # with ||g|| = 1e-2 the forcing term min(CG_FORCING, ||g||)^2 ||g|| asks
    # for a residual of 1e-6, far above the floor CG_FORCING * grad_tol = 1e-13;
    # 96 coefficients, so the step cap does not end CG either
    g = random_dg(np.random.default_rng(7), make_uniform_partition(1.0, 32), 2)
    g = (1e-2 / g.l2_norm()) * g
    products = []
    hess = _spd_hessian(g, products)
    path = _cg_path(hess, g)
    stop = next(k for k, (_, res, _) in enumerate(path) if res <= 1e-6)
    assert 1 <= stop < g.coeffs.size - 1
    products.clear()
    d = dgocp.optimize._newton_direction(hess, g, 1e-12)
    assert len(products) == stop + 1  # the first residual <= 1e-6, not before
    assert np.array_equal(d.coeffs, path[stop][0].coeffs)


def test_newton_direction_stops_on_curvature():
    # a direction of non-positive curvature ends CG: on the first step it
    # returns the steepest descent direction -g, later the iterate so far
    g = random_dg(np.random.default_rng(7), make_uniform_partition(1.0, 8), 2)
    d = dgocp.optimize._newton_direction(lambda v: -1.0 * v, g, 1e-10)
    assert np.array_equal(d.coeffs, -g.coeffs)

    # one negative eigenvalue among [1, 100]: the first directions still have
    # positive curvature
    eig = np.geomspace(1.0, 100.0, g.coeffs.size)
    eig[0] = -1.0
    eig = eig.reshape(g.coeffs.shape)
    products = []

    def hess(v):
        products.append(1)
        return DGFunction(v.partition, eig * v.coeffs)

    path = _cg_path(hess, g)
    stop = next(k for k, (_, _, curvature) in enumerate(path) if not curvature > 0.0)
    assert stop >= 2
    products.clear()
    d = dgocp.optimize._newton_direction(hess, g, 1e-10)
    assert len(products) == stop + 1
    reached = path[stop - 1][0].coeffs
    assert np.array_equal(d.coeffs, reached)
