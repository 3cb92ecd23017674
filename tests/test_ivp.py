"""Forward/backward DG initial value solves."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import dgocp.ivp as ivp
from dgocp import (
    DGFunction,
    Partition,
    SolverFailure,
    default_rule,
    make_uniform_partition,
    l2_error,
    reverse_dg,
    solve_backward,
    solve_forward,
)
from dgocp.ocp import hessian_vector, solve_adjoint, solve_state
from dgocp.oracles import random_dg, time_reversal_discrepancy
from dgocp.problems import linear_lq

from conftest import project_callable, rk4_at


def test_zero_rhs_constant():
    part = make_uniform_partition(1.0, 7)
    F, dF_dx = lambda ts, X: np.zeros_like(X), lambda ts, X: np.zeros((ts.size, 1, 1))
    for r in range(4):
        sol = solve_forward(F, dF_dx, np.array([5.0]), part, r)
        assert np.max(np.abs(sol.coeffs[:, 0, 0] - 5.0)) < 1e-14
        if r > 0:
            assert np.max(np.abs(sol.coeffs[:, 1:, :])) < 1e-14


def test_controlled_state_table_entry():
    # x' = -x + u with the benchmark's optimal control: r = 1, h = 0.1 / 4
    builtin = linear_lq()
    u = builtin.exact_control
    F = lambda ts, X: u(ts)[:, None] - X
    dF_dx = lambda ts, X: np.full((ts.size, 1, 1), -1.0)
    part = make_uniform_partition(1.0, 40)
    sol = solve_forward(F, dF_dx, np.array([1.0]), part, 1)
    err = l2_error(sol, builtin.exact_state)
    assert err == pytest.approx(1.2240e-04, rel=5e-3)


def test_exponential_at_the_nodes():
    F, dF_dx = lambda ts, X: X, lambda ts, X: np.ones((ts.size, 1, 1))
    part = make_uniform_partition(1.0, 20)
    sol = solve_forward(F, dF_dx, np.array([1.0]), part, 2)
    node_vals = sol.eval_many(part.nodes[1:], side="left")
    assert np.max(np.abs(node_vals[:, 0] - np.exp(part.nodes[1:]))) < 1e-6


def test_backward_constant():
    part = make_uniform_partition(1.0, 4)
    F, dF_dx = lambda ts, X: np.zeros_like(X), lambda ts, X: np.zeros((ts.size, 1, 1))
    lam = solve_backward(F, dF_dx, np.array([3.0]), part, 2)
    assert np.max(np.abs(lam.coeffs[:, 0, 0] - 3.0)) < 1e-14


def test_backward_adjoint_table_entry():
    # lam' = lam - x_bar(t), lam(1) = 0: matches the benchmark control column
    builtin = linear_lq()
    xbar = builtin.exact_state
    F = lambda ts, X: X - xbar(ts)[:, None]
    dF_dx = lambda ts, X: np.ones((ts.size, 1, 1))
    part = make_uniform_partition(1.0, 10)
    lam = solve_backward(F, dF_dx, np.array([0.0]), part, 2)
    # the benchmark column reports the error of the coupled optimum, so the
    # decoupled adjoint solve only matches it to a couple of percent
    err = l2_error(lam, lambda t: -builtin.exact_control(t))
    assert err == pytest.approx(1.3269e-05, rel=5e-2)


def test_a_datum_on_another_partition_raises_before_any_call(rng):
    part = make_uniform_partition(1.0, 4)

    def no_call(*args):
        raise AssertionError("a callback ran")

    for other in (make_uniform_partition(1.0, 3), Partition(np.linspace(0.0, 1.0, 5) ** 2)):
        data = (random_dg(rng, other, 1),)
        for solve in (solve_forward, solve_backward):
            with pytest.raises(ValueError, match="another partition"):
                solve(no_call, no_call, [1.0], part, 2, data)


@pytest.mark.parametrize("linear", [True, False])
def test_backward_datum_matches_the_closure_form(rng, linear):
    # solve_backward reverses a DG datum with reverse_dg; the closure form
    # reads the datum with eval_many at the times T - s it is given
    part = Partition(np.linspace(0.0, 1.0, 9) ** 1.5)
    w = random_dg(rng, part, 3)
    if linear:
        F = lambda t, X, w: -X * w + t[:, None]
        dF_dx = lambda t, X, w: -w[:, :, None]
    else:
        F = lambda t, X, w: np.sin(X) * w + t[:, None]
        dF_dx = lambda t, X, w: (np.cos(X) * w)[:, :, None]
    closure = (lambda t, X: F(t, X, w.eval_many(t)), lambda t, X: dF_dx(t, X, w.eval_many(t)))
    for r in range(4):
        a = solve_backward(F, dF_dx, [0.4], part, r, (w,)).coeffs
        b = solve_backward(*closure, [0.4], part, r).coeffs
        assert np.max(np.abs(a - b)) <= 1e-13


def test_reverse_dg_involution(rng):
    part = make_uniform_partition(1.0, 5)
    F = random_dg(rng, part, 3, dim=2)
    G = reverse_dg(reverse_dg(F))
    assert np.max(np.abs(G.coeffs - F.coeffs)) < 1e-15
    # pointwise: reverse evaluates the original at T - t
    R = reverse_dg(F)
    ts = np.array([0.13, 0.48, 0.77])
    assert np.allclose(R.eval_many(ts), F.eval_many(1.0 - ts), atol=1e-13)


def test_polynomial_reproduction():
    # exact solution t^3 - t + 2 with state-independent polynomial rhs
    part = make_uniform_partition(1.0, 3)
    F = lambda ts, X: (3.0 * ts**2 - 1.0)[:, None]
    dF_dx = lambda ts, X: np.zeros((ts.size, 1, 1))
    sol = solve_forward(F, dF_dx, np.array([2.0]), part, 3)
    ts = np.linspace(0.0, 1.0, 101)
    exact = ts**3 - ts + 2.0
    assert np.max(np.abs(sol.eval_many(ts)[:, 0] - exact)) < 1e-12


def test_convergence_order():
    F = lambda t, x: -x + np.cos(3.0 * t)
    rhs = (lambda ts, X: -X + np.cos(3.0 * ts)[:, None],
           lambda ts, X: np.full((ts.size, 1, 1), -1.0))
    sample_xi = np.linspace(0.05, 0.95, 7)
    # the sample times depend on N only, so one RK4 reference serves every r
    refs = {}
    for N in (16, 32, 64):
        part = make_uniform_partition(1.0, N)
        ts = (part.nodes[:-1, None] + part.widths[:, None] * sample_xi).ravel()
        refs[N] = part, ts, rk4_at(F, [1.0], ts, dt=1e-4)
    for r in (1, 2):
        errs = []
        for part, ts, ref in refs.values():
            sol = solve_forward(*rhs, np.array([1.0]), part, r)
            errs.append(np.max(np.abs(sol.eval_many(ts) - ref)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - (r + 1)) < 0.1)


def test_sequential_causality(rng):
    # perturbing the rhs on later intervals leaves earlier coefficients alone
    part = make_uniform_partition(1.0, 8)
    base = lambda ts, X: np.sin(X) + ts[:, None]
    bump = lambda ts, X: np.sin(X) + ts[:, None] + 5.0 * (ts > 0.5)[:, None]
    dF_dx = lambda ts, X: np.cos(X)[:, :, None]
    x0 = np.array([0.3])
    a = solve_forward(base, dF_dx, x0, part, 2)
    b = solve_forward(bump, dF_dx, x0, part, 2)
    assert np.array_equal(a.coeffs[:4], b.coeffs[:4])
    assert not np.allclose(a.coeffs[4:], b.coeffs[4:])


def test_discrete_stability(rng):
    # x' = -x + u, x(0) = 0: sup |x_h| <= C ||u||_L2, C stable under refinement
    freqs = rng.uniform(1.0, 10.0, size=(100, 3))
    amps = rng.uniform(-1.0, 1.0, size=(100, 3))
    constants = []
    for N in (16, 32):
        part = make_uniform_partition(1.0, N)
        worst = 0.0
        for fr, am in zip(freqs, amps):
            u = lambda t: np.sum(am[:, None] * np.sin(np.outer(fr, t)), axis=0)
            u_dg = project_callable(u, part, 1)
            F = lambda ts, X: u_dg.eval_many(ts) - X
            dF_dx = lambda ts, X: np.full((ts.size, 1, 1), -1.0)
            sol = solve_forward(F, dF_dx, np.array([0.0]), part, 1)
            ts = np.linspace(0.0, 1.0, 201)
            sup = np.max(np.abs(sol.eval_many(ts)))
            norm = u_dg.l2_norm()
            if norm > 1e-12:
                worst = max(worst, sup / norm)
        constants.append(worst)
    assert constants[0] < 1.5 and constants[1] < 1.5
    assert abs(constants[1] - constants[0]) < 0.25 * constants[0]


def test_solver_failure_blowup():
    # x' = x^2 from x0 = 2 blows up at t = 0.5, inside the single interval
    part = make_uniform_partition(1.0, 1)
    F, dF_dx = lambda ts, X: X**2, lambda ts, X: 2.0 * X[:, :, None]
    with pytest.raises(SolverFailure) as err:
        solve_forward(F, dF_dx, np.array([2.0]), part, 2)
    assert err.value.interval == 0


def _scalar_solve(a, route, part, r, F=None):
    """Solve x' = a(t) x, x(0) = 1 (d = 1): with an AffineSystem on a(t) sampled
    on the quadrature grid (route "affine"), or from closures (F, when given,
    in place of a(t) x) by solve_forward ("closures") or by the march alone
    ("march")."""
    x0 = np.array([1.0])
    if route == "affine":
        times = part.quad_times(default_rule(r))
        return ivp.AffineSystem(a(times)[..., None, None], part, r).solve(
            np.zeros(times.shape + (1,)), x0)
    F = F or (lambda ts, X: a(ts)[:, None] * X)
    solve = solve_forward if route == "closures" else _march
    return solve(F, lambda ts, X: a(ts)[:, None, None], x0, part, r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("affine", [False, True])
def test_singular_block_names_its_interval(affine):
    # r = 0: the block of x' = 10 x on interval n is 1 - 10 h_n, which rounds to
    # exactly 0 on the width-0.1 interval 2 of this graded partition only; the
    # closures of this linear system take the affine route, so the march is
    # run on its own
    part = Partition(np.array([0.0, 0.3, 0.5, 0.6, 0.8, 1.0]))
    with pytest.raises(SolverFailure) as err:
        _scalar_solve(lambda t: np.full_like(t, 10.0), "affine" if affine else "march", part, 0)
    assert err.value.interval == 2 and err.value.residual == np.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("affine", [False, True])
def test_non_finite_data_names_its_interval(affine):
    # NaN data on interval 3 of 8 leaves a NaN residual there and on every later
    # interval; the failure names the first of them.  The closures' dF_dx has
    # NaN samples, so the probes differ and they are marched
    part = make_uniform_partition(1.0, 8)
    a = lambda t: np.where((t > 0.375) & (t < 0.5), np.nan, -1.0)
    for r in (0, 2):
        with pytest.raises(SolverFailure) as err:
            _scalar_solve(a, "affine" if affine else "closures", part, r)
        assert err.value.interval == 3 and np.isnan(err.value.residual)


@pytest.mark.parametrize("affine", [False, True])
def test_solves_leave_the_callers_errstate_alone(affine):
    # the LAPACK calls raise on a singular block under their own errstate;
    # the caller's (here not numpy's default) is the same after a solve, and
    # after a singular block on the march and on the affine route
    part = Partition(np.array([0.0, 0.3, 0.5, 0.6, 0.8, 1.0]))
    with np.errstate(all="ignore"):
        state = np.geterr()
        if affine:
            _scalar_solve(lambda t: -np.ones_like(t), "affine", part, 2)
        else:
            solve_forward(lambda ts, X: np.sin(X), lambda ts, X: np.cos(X)[:, :, None],
                          np.array([0.3]), part, 2)             # nonlinear: marched
        assert np.geterr() == state
        with pytest.raises(SolverFailure, match="singular"):
            _scalar_solve(lambda t: np.full_like(t, 10.0), "affine" if affine else "march",
                          part, 0)
        assert np.geterr() == state


def test_march_closures_keep_their_own_warnings():
    # the errstate of the LAPACK call covers that call only: a closure that
    # divides by zero warns on every call, also next to a Newton step
    calls = [0]

    def warning(value):
        calls[0] += 1
        np.log(np.zeros(1))
        return value

    with pytest.warns(RuntimeWarning, match="divide by zero") as record:
        solve_forward(lambda ts, X: warning(np.sin(X)),
                      lambda ts, X: warning(np.cos(X)[:, :, None]),
                      np.array([0.3]), make_uniform_partition(1.0, 4), 2)
    # the two probe samples of dF_dx run with every warning ignored
    assert calls[0] > 6 and len(record) == calls[0] - 2


def test_an_infinite_first_residual_fails():
    # at r = 0 the first residual on interval 1 is the forcing term alone, inf,
    # and so is the tolerance scaled from it: the march must not keep the
    # constant extension
    F = lambda ts, X: np.where(((ts > 0.25) & (ts < 0.5))[:, None], np.inf, np.sin(X))
    with pytest.raises(SolverFailure) as err:
        solve_forward(F, lambda ts, X: np.cos(X)[:, :, None], np.array([0.3]),
                      make_uniform_partition(1.0, 4), 0)
    assert err.value.interval == 1 and err.value.residual == np.inf


@pytest.mark.parametrize("affine", [False, True])
def test_non_finite_residual_stops_at_once(monkeypatch, affine):
    # the NaN residual of interval 3 ends the solve: one factorization and no
    # correction on the affine route, one F call on that interval on the march
    part = make_uniform_partition(1.0, 8)
    a = lambda t: np.where((t > 0.375) & (t < 0.5), np.nan, -1.0)
    counts = {"factor": 0, "sweep": 0, "F_failing": 0, "F_later": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def F(ts, X):
        counts["F_failing"] += bool(np.all((ts > 0.375) & (ts < 0.5)))
        counts["F_later"] += bool(np.all(ts > 0.5))
        return a(ts)[:, None] * X

    monkeypatch.setattr(ivp.AffineSystem, "__init__", counted("factor", ivp.AffineSystem.__init__))
    monkeypatch.setattr(ivp.AffineSystem, "_sweep", counted("sweep", ivp.AffineSystem._sweep))
    for r in (0, 2):
        with pytest.raises(SolverFailure) as err:
            _scalar_solve(a, "affine" if affine else "closures", part, r, F)
        assert err.value.interval == 3 and np.isnan(err.value.residual)
    if affine:
        assert counts["factor"] == 2 and counts["sweep"] == 2
    else:
        assert counts["factor"] == 0 and counts["F_failing"] == 2 and counts["F_later"] == 0


@pytest.mark.parametrize("N", [1, 7, 320])
def test_residual_norms_equal_the_whole_block_reduction(rng, N):
    # the check's verdict, interval and residual, in both solve orders, against
    # np.max over the trailing axes of the residual and of the concatenated
    # terms; the trace term T1 is (N, 1, d), and the scales put the tolerance
    # on either side of NEWTON_TOL
    for r in range(6):
        for d in (1, 2, 3):
            scale = 10.0 ** rng.integers(-3, 15, (N, 1, 1))
            terms = (scale * rng.standard_normal((N, r + 1, d)),
                     scale * rng.standard_normal((N, 1, d)),
                     scale * rng.standard_normal((N, r + 1, d)))
            R = terms[0] - terms[1] - terms[2]
            rnorm = np.max(np.abs(R), axis=(1, 2))
            tol = ivp._tolerance(np.max(np.abs(np.concatenate(terms, axis=1)), axis=(1, 2)))
            failed = np.flatnonzero(rnorm > tol)
            for transposed in (False, True):
                failure = ivp._failure(R, terms, transposed)
                if not failed.size:
                    assert failure is None
                    continue
                n = failed[-1] if transposed else failed[0]
                assert (failure.interval, failure.residual) == (n, rnorm[n])
    # one NaN entry: its interval fails too, and the check raises the first
    # failure in the order of the solve, whichever interval that is
    terms[2][N // 2, r, d - 1] = np.nan
    R = terms[0] - terms[1] - terms[2]
    failed = np.union1d(failed, [N // 2])
    for n, transposed in ((failed[0], False), (failed[-1], True)):
        with pytest.raises(SolverFailure) as err:
            ivp._failure(R, terms, transposed)
        assert err.value.interval == n
        assert np.array_equal(err.value.residual, np.nan if n == N // 2 else rnorm[n],
                              equal_nan=True)


def _rotating_A(times):
    """A time-dependent 2 x 2 A(t) on the quadrature grid; A(t) and A(s) do not
    commute for t != s."""
    c, s = np.cos(3.0 * times), np.sin(3.0 * times)
    return np.stack((np.stack((-1.0 + s, 2.0 * c), -1), np.stack((-1.5 + c, 0.4 * s), -1)), -2)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 33])
def test_scan_matches_the_sequential_recurrence(rng, N):
    # the doubling scan for x_{n+1} = M_n x_n + m_n against the plain loop
    part = Partition(np.linspace(0.0, 1.0, N + 1) ** 1.5)   # graded
    for r in range(4):
        sch = ivp._scheme(r, 2)
        system = ivp.AffineSystem(_rotating_A(part.quad_times(sch.rule)), part, r)
        M = system.G.reshape(N, r + 1, 2, 2).sum(axis=1)
        m, x0 = rng.standard_normal((N, 2)), rng.standard_normal(2)
        ref, x = np.empty((N, 2)), x0
        for n in range(N):
            ref[n] = x
            x = M[n] @ x + m[n]
        xs = system._traces(m, x0)[:, :, 0]
        assert np.max(np.abs(xs - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the whole solve against the march on the same system as closures
        b = lambda ts: np.stack((np.sin(ts), ts), -1)
        rhs = (lambda ts, X: (_rotating_A(ts) @ X[:, :, None])[:, :, 0] + b(ts),
               lambda ts, X: _rotating_A(ts))
        C = system.solve(b(part.quad_times(sch.rule)), x0)
        assert np.max(np.abs(C - _march(*rhs, x0, part, r))) <= 1e-13 * np.max(np.abs(C))


def test_affine_system_reads_either_grid_layout(rng):
    # A and b as (N, q, ...) and flattened to (N*q, ...), as the problem
    # callables return them: the same coefficients, bit for bit
    part = Partition(np.linspace(0.0, 1.0, 8) ** 1.5)
    r = 2
    times = part.quad_times(default_rule(r))
    A, b = _rotating_A(times), rng.standard_normal(times.shape + (2,))
    flat_A, flat_b = A.reshape(-1, 2, 2), b.reshape(-1, 2)
    systems = (ivp.AffineSystem(A, part, r), ivp.AffineSystem(flat_A, part, r))
    x0 = rng.standard_normal(2)
    for name in ("solve", "solve_transposed"):
        runs = [getattr(s, name)(forcing, x0) for s in systems for forcing in (b, flat_b)]
        assert all(np.array_equal(runs[0], C) for C in runs[1:]), name


def test_transposed_solve_reverses_a_forward_solve(rng):
    # x' = A(t) x + b(t), x(T) = xT, d = 2, on graded partitions, by the
    # transposed solve of the AffineSystem of -A^T: the same coefficients as
    # reverse_dg of the forward solve of W' = -A(T - s) W - b(T - s), W(0) = xT
    # on the reversed partition, and as solve_backward, both from closures
    # evaluated at the times they are given.  N = 1 has no scan step.
    b = lambda ts: np.stack((np.sin(ts), ts), -1)
    forward = (lambda ts, X: (_rotating_A(ts) @ X[:, :, None])[:, :, 0] + b(ts),
               lambda ts, X: _rotating_A(ts))
    reversed_rhs = (lambda ts, W: -forward[0](1.0 - ts, W), lambda ts, W: -_rotating_A(1.0 - ts))
    for N in (1, 2, 3, 7, 8, 11, 33):
        part = Partition(np.linspace(0.0, 1.0, N + 1) ** 1.5)
        for r in range(4):
            xT = rng.standard_normal(2)
            times = part.quad_times(default_rule(r))
            system = ivp.AffineSystem(-np.swapaxes(_rotating_A(times), -1, -2), part, r)
            C = system.solve_transposed(b(times), xT)
            for ref in (reverse_dg(solve_forward(*reversed_rhs, xT, part.reversed(), r)).coeffs,
                        solve_backward(*forward, xT, part, r).coeffs):
                assert np.max(np.abs(C - ref)) <= 1e-13 * np.max(np.abs(ref)), (N, r)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["singular", "nan"])
def test_a_backward_failure_names_the_forward_interval(case):
    # solve_backward solves on the reversed partition, where forward interval
    # n is N-1-n; its failure names n, as solve_transposed of the same system
    # does, on both closure routes (linear: affine; nonlinear: the march), with
    # the message of its kind
    if case == "singular":
        # r = 0, x' = -10 x: the reversed block 1 - 10 h rounds to exactly 0
        # on the width-0.1 forward interval 1 (reversed index 2) only
        part, r, n, a, data = Partition(np.array([0.0, 0.5, 0.6, 0.8, 1.0])), 0, 1, -10.0, ()
        closures = [(lambda ts, X: a * X, lambda ts, X: np.full((ts.size, 1, 1), a))]
        message, forcing = r"^singular DG block on interval 1$", None
    else:
        # a DG datum b that is NaN on forward interval 5 of 8 (reversed index 2)
        part, r, n, a = make_uniform_partition(1.0, 8), 1, 5, -1.0
        coeffs = np.ones((8, 2, 1))
        coeffs[n] = np.nan
        data = (DGFunction(part, coeffs),)
        closures = [(lambda ts, X, b: a * X + b, lambda ts, X, b: np.full((ts.size, 1, 1), a)),
                    (lambda ts, X, b: np.sin(X) + b, lambda ts, X, b: np.cos(X)[:, :, None])]
        message, forcing = r"^residual nan above its tolerance on interval 5$", data[0]
    for F, dF_dx in closures:
        with pytest.raises(SolverFailure, match=message) as err:
            solve_backward(F, dF_dx, [1.0], part, r, data)
        assert err.value.interval == n
    rule = default_rule(r)
    times = part.quad_times(rule)
    b = np.zeros(times.shape + (1,)) if forcing is None else forcing.values_on_quad(rule)
    with pytest.raises(SolverFailure, match=message) as err:
        ivp.AffineSystem(np.full(times.shape + (1, 1), -a), part, r).solve_transposed(
            b, np.array([1.0]))
    assert err.value.interval == n


def _injected(monkeypatch, entries):
    """Make AffineSystem._residual return its residual with entry (0, 0) of
    interval n set to entries[n], in every solve and correction."""
    residual = ivp.AffineSystem._residual

    def above(self, C, f, x0, transposed):
        R, terms = residual(self, C, f, x0, transposed)
        R = R.copy()
        for n, value in entries.items():
            R[n, 0, 0] = value
        return R, terms

    monkeypatch.setattr(ivp.AffineSystem, "_residual", above)


def test_an_affine_failure_reports_its_residual(monkeypatch):
    # no Newton iteration runs on the affine route: the message says only that
    # the residual stays above its tolerance, on the interval that exceeds it
    part = make_uniform_partition(1.0, 4)
    times = part.quad_times(default_rule(1))
    system = ivp.AffineSystem(_rotating_A(times), part, 1)
    b, x0 = np.stack((np.sin(times), times), -1), np.array([1.0, -0.5])
    _injected(monkeypatch, {2: 1.0})
    message = r"^residual 1\.000e\+00 above its tolerance on interval 2$"
    for solve in (system.solve, system.solve_transposed):
        with pytest.raises(SolverFailure, match=message) as err:
            solve(b, x0)
        assert (err.value.interval, err.value.residual) == (2, 1.0)


def test_an_affine_failure_names_the_first_interval_in_solve_order(monkeypatch):
    # intervals 1 and 2 stay above their tolerance, interval 2 by more: the
    # forward solve names interval 1, the transposed one, which runs from T
    # back, interval 2
    part = make_uniform_partition(1.0, 4)
    times = part.quad_times(default_rule(1))
    system = ivp.AffineSystem(_rotating_A(times), part, 1)
    b, x0 = np.stack((np.sin(times), times), -1), np.array([1.0, -0.5])
    _injected(monkeypatch, {1: 1.0, 2: 2.0})
    for solve, first in ((system.solve, 1), (system.solve_transposed, 2)):
        with pytest.raises(SolverFailure) as err:
            solve(b, x0)
        assert (err.value.interval, err.value.residual) == (first, first)
    # NaN forcing on interval 3 of 8 leaves NaN residuals on intervals 0..3 of
    # the transposed solve: the first from T back is 3
    monkeypatch.undo()
    part = make_uniform_partition(1.0, 8)
    times = part.quad_times(default_rule(2))
    b = np.where(((times > 0.375) & (times < 0.5))[..., None], np.nan, 1.0)
    system = ivp.AffineSystem(np.full(times.shape + (1, 1), -1.0), part, 2)
    with pytest.raises(SolverFailure) as err:
        system.solve_transposed(b, np.array([1.0]))
    assert err.value.interval == 3 and np.isnan(err.value.residual)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["singular", "nan"])
def test_a_linear_closure_fails_as_the_march_does(monkeypatch, case):
    # one failure rule: the affine route of a linear closure names the same
    # first interval as the march on that closure, and its failure is raised
    # as it is, with no march after it
    if case == "singular":
        # the r = 0 block of x' = 10 x is singular on interval 2 only (see above)
        part, r, data = Partition(np.array([0.0, 0.3, 0.5, 0.6, 0.8, 1.0])), 0, ()
        F, dF_dx = lambda ts, X: 10.0 * X, lambda ts, X: np.full((ts.size, 1, 1), 10.0)
        first = 2
    else:
        # x' = b - x with a DG datum b that is NaN on interval 3 of 8: dF_dx is
        # finite, so the probes agree, and the residual is NaN from interval 3 on
        part, r, first = make_uniform_partition(1.0, 8), 2, 3
        coeffs = np.ones((8, 3, 1))
        coeffs[first] = np.nan
        data = (DGFunction(part, coeffs),)
        F, dF_dx = lambda ts, X, b: b - X, lambda ts, X, b: np.full((ts.size, 1, 1), -1.0)
    with pytest.raises(SolverFailure) as marched:
        _march(F, dF_dx, [1.0], part, r, data)
    calls = _count_routes(monkeypatch)
    with pytest.raises(SolverFailure) as err:
        solve_forward(F, dF_dx, [1.0], part, r, data)
    assert calls == {"batched": int(case == "nan"), "march": 0}
    assert err.value.interval == marched.value.interval == first
    assert np.array_equal(err.value.residual, marched.value.residual, equal_nan=True)


def test_a_residual_above_tolerance_is_corrected(monkeypatch):
    # a sweep off by 1e-9 leaves a residual above the tolerance: one more sweep,
    # of that residual, restores the coefficients to round-off, forward and
    # transposed; when every sweep is off, no correction passes and it raises
    part = Partition(np.linspace(0.0, 1.0, 9) ** 1.5)
    r = 2
    times = part.quad_times(default_rule(r))
    system = ivp.AffineSystem(_rotating_A(times), part, r)
    b, x0 = np.stack((np.sin(times), times), -1), np.array([1.0, -0.5])
    sweep = ivp.AffineSystem._sweep
    calls = []

    def perturbed(every):
        def wrapper(self, f, x0, transposed):
            calls.append(1)
            C = sweep(self, f, x0, transposed)
            return C + 1e-9 if every or len(calls) == 1 else C
        return wrapper

    solves = (system.solve, system.solve_transposed)
    for solve, exact in zip(solves, [solve(b, x0) for solve in solves]):
        calls.clear()
        monkeypatch.setattr(ivp.AffineSystem, "_sweep", perturbed(False))
        C = solve(b, x0)
        assert len(calls) == 2
        assert np.max(np.abs(C - exact)) <= 1e-14 * np.max(np.abs(exact))
        calls.clear()
        monkeypatch.setattr(ivp.AffineSystem, "_sweep", perturbed(True))
        with pytest.raises(SolverFailure) as err:
            solve(b, x0)
        assert len(calls) == 1 + ivp.NEWTON_MAX_ITER and err.value.residual > ivp.NEWTON_TOL


@pytest.mark.parametrize("A0, T, r, sweeps", [
    ([[10.0, 3.0], [2.0, -10.0]], 2.0, 3, {"solve": 17, "solve_transposed": 5}),
    ([[-1.0, 1e4], [0.0, -1.0]], 1.0, 2, {"solve_transposed": 2}),
])
def test_unperturbed_solves_are_corrected(monkeypatch, A0, T, r, sweeps):
    # x' = A0 x + cos(7t) (1, 1), x(0) = (1, 1), N = 4: a saddle and a large
    # coupling leave a first sweep above its tolerance with nothing injected.
    # The corrections pass, and the forward result is the march's to round-off
    A0 = np.array(A0)
    part = make_uniform_partition(T, 4)
    times = part.quad_times(default_rule(r))
    system = ivp.AffineSystem(np.broadcast_to(A0, times.shape + (2, 2)), part, r)
    b, x0 = np.cos(7.0 * times)[..., None] * np.ones(2), np.ones(2)
    calls = _count_routes(monkeypatch)
    for name, expected in sweeps.items():
        calls["batched"] = 0
        getattr(system, name)(b, x0)
        assert calls["batched"] == expected > 1, name
    monkeypatch.undo()
    rhs = (lambda ts, X: X @ A0.T + np.cos(7.0 * ts)[:, None],
           lambda ts, X: np.broadcast_to(A0, (ts.size, 2, 2)))
    marched = _march(*rhs, x0, part, r)
    assert np.max(np.abs(system.solve(b, x0) - marched)) <= 1e-14 * np.max(np.abs(marched))


def test_a_mixed_failure_raises_after_one_sweep(monkeypatch):
    # interval 1 stays above its tolerance and interval 3 is NaN: the first
    # failure in the order of the solve is raised at once, a finite one
    # forward and the NaN one transposed, from T back
    part = make_uniform_partition(1.0, 4)
    times = part.quad_times(default_rule(1))
    system = ivp.AffineSystem(_rotating_A(times), part, 1)
    b, x0 = np.stack((np.sin(times), times), -1), np.array([1.0, -0.5])
    _injected(monkeypatch, {1: 1.0, 3: np.nan})
    calls = _count_routes(monkeypatch)
    for solve, first, message in ((system.solve, 1, r"1\.000e\+00"),
                                  (system.solve_transposed, 3, "nan")):
        calls["batched"] = 0
        with pytest.raises(SolverFailure, match=rf"^residual {message} above its tolerance "
                                                rf"on interval {first}$") as err:
            solve(b, x0)
        assert calls["batched"] == 1 and err.value.interval == first
        assert np.array_equal(err.value.residual, 1.0 if first == 1 else np.nan, equal_nan=True)


def test_a_linear_closure_above_tolerance_is_marched(monkeypatch):
    # a sweep off by 1e-9 leaves the closure's residual finite and above its
    # tolerance: the linear closure is not corrected but marched, and its
    # result is the march's, bit for bit
    part = Partition(np.linspace(0.0, 1.0, 9) ** 1.5)
    A0 = np.array([[-1.0, 2.0], [-0.5, 0.3]])
    rhs = (lambda ts, X: (1.0 + ts)[:, None] * X @ A0.T + np.sin(ts)[:, None],
           lambda ts, X: (1.0 + ts)[:, None, None] * A0)
    sweep = ivp.AffineSystem._sweep
    monkeypatch.setattr(ivp.AffineSystem, "_sweep", lambda *args: sweep(*args) + 1e-9)
    calls = _count_routes(monkeypatch)
    for r in range(4):
        sol = solve_forward(*rhs, [1.0, -0.5], part, r)
        assert np.array_equal(sol.coeffs, _march(*rhs, [1.0, -0.5], part, r))
    assert calls == {"batched": 4, "march": 8}   # the march's second call is the reference


def test_factored_returns_the_last_system_while_its_data_repeat(monkeypatch):
    # one entry: equal r, nodes and A return it; A changed in place after it
    # was factored, or the same N and A on other nodes, build a new system
    monkeypatch.setattr(ivp, "_memo", weakref.WeakKeyDictionary())
    graded = Partition(np.linspace(0.0, 1.0, 9) ** 1.5)
    uniform = make_uniform_partition(1.0, 8)
    A = _rotating_A(graded.quad_times(default_rule(2)))
    first = ivp.factored(A, graded, 2)
    assert ivp.factored(A.copy(), graded, 2) is first
    A[3, 1, 0, 1] += 1e-9
    changed = ivp.factored(A, graded, 2)
    assert changed is not first
    assert np.array_equal(changed.J, ivp.AffineSystem(A, graded, 2).J)
    assert ivp.factored(A, graded, 2) is changed
    other = ivp.factored(A, uniform, 2)
    assert other is not changed and ivp.factored(A, uniform, 2) is other


def test_factored_drops_its_entry_with_the_partition(monkeypatch):
    # the entry is keyed weakly by the partition object: once the last
    # reference to the partition is gone, so is the system built on it
    monkeypatch.setattr(ivp, "_memo", type(ivp._memo)())  # empty, of the memo's own type
    part = make_uniform_partition(1.0, 64)
    ivp.factored(_rotating_A(part.quad_times(default_rule(3))), part, 3)
    assert len(ivp._memo) == 1
    del part
    assert len(ivp._memo) == 0


def test_factored_keeps_its_entry_when_a_block_is_singular(monkeypatch):
    # the r = 0 block of x' = 10 x is singular on interval 2 (see above): the
    # failure stores nothing, and the previous system is still returned
    monkeypatch.setattr(ivp, "_memo", weakref.WeakKeyDictionary())
    part = Partition(np.array([0.0, 0.3, 0.5, 0.6, 0.8, 1.0]))
    shape = part.quad_times(default_rule(0)).shape + (1, 1)
    stable = ivp.factored(np.full(shape, -1.0), part, 0)
    with pytest.raises(SolverFailure) as err:
        ivp.factored(np.full(shape, 10.0), part, 0)
    assert err.value.interval == 2 and err.value.residual == np.inf
    assert ivp.factored(np.full(shape, -1.0), part, 0) is stable


@pytest.mark.filterwarnings("error")
def test_a_block_singular_up_to_roundoff_fails(monkeypatch):
    # r = 0: the block of x' = 10 x on the width-0.1 interval 0 of these nodes
    # is 1 - 10 h = -2.2e-16, not 0, so LAPACK inverts it to about -4.5e15;
    # every affine route fails at factorization naming interval 0, and
    # factored keeps its previous entry
    monkeypatch.setattr(ivp, "_memo", weakref.WeakKeyDictionary())
    part = Partition(np.array([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]))
    times = part.quad_times(default_rule(0))
    A, b, x0 = np.full(times.shape + (1, 1), 10.0), np.zeros(times.shape + (1,)), np.array([1.0])
    stable = ivp.factored(-A, part, 0)
    routes = (lambda: ivp.AffineSystem(A, part, 0).solve(b, x0),
              lambda: ivp.AffineSystem(A, part, 0).solve_transposed(b, x0),
              lambda: ivp.factored(A, part, 0),
              lambda: solve_forward(lambda ts, X: 10.0 * X,
                                    lambda ts, X: np.full((ts.size, 1, 1), 10.0), x0, part, 0))
    for route in routes:
        with pytest.raises(SolverFailure, match=r"^singular DG block on interval 0$") as err:
            route()
        assert err.value.interval == 0 and err.value.residual == np.inf
    assert ivp.factored(-A, part, 0) is stable


def test_a_stiff_regular_block_still_solves():
    # x' = -1000 x on h = 0.1: |J^-1| is at most 0.07 at r <= 3, far from the
    # round-off singular rule; the affine route solves as the march does (to
    # the march's absolute tolerance, which keeps x_in once x is about 1e-14),
    # and at r = 0 gives the DG recurrence x_{n+1} = x_n / 101
    part = make_uniform_partition(1.0, 10)
    stiff = lambda t: np.full_like(t, -1000.0)
    for r in range(4):
        C = _scalar_solve(stiff, "affine", part, r)
        assert np.max(np.abs(C - _scalar_solve(stiff, "march", part, r))) <= 1e-13
    C = _scalar_solve(stiff, "affine", part, 0)
    assert np.allclose(C[:, 0, 0], 101.0 ** -np.arange(1.0, 11.0), rtol=1e-13, atol=0.0)


def test_time_reversal_oracle_on_graded_partition():
    # the oracle's two sides live on the same mesh when the partition is not
    # symmetric about T/2, and its time-dependent data show a wrong grid reversal
    part = Partition(np.linspace(0.0, 1.0, 9) ** 1.5)
    rng = np.random.default_rng(7)
    for d in (1, 2):
        for r in range(4):
            assert time_reversal_discrepancy(rng, d, part, r) <= 1e-12


def _count_routes(monkeypatch):
    """Count the sweeps of AffineSystem (a linear closure's batched route makes
    one) and the calls of the march."""
    calls = {"batched": 0, "march": 0}

    def counted(route, fn):
        def wrapper(*args):
            calls[route] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ivp.AffineSystem, "_sweep", counted("batched", ivp.AffineSystem._sweep))
    monkeypatch.setattr(ivp, "_solve_newton", counted("march", ivp._solve_newton))
    return calls


def _count_interval_norms(monkeypatch):
    """Count the calls of ivp._tolerance, which only the residual check's
    per-interval path makes; returns a one-element list."""
    calls, tolerance = [0], ivp._tolerance

    def counted(*args):
        calls[0] += 1
        return tolerance(*args)

    monkeypatch.setattr(ivp, "_tolerance", counted)
    return calls


def test_a_passing_check_takes_one_reduction(monkeypatch, rng):
    # linear-lq at r = 3 on 320 intervals: the checks of a state solve (the
    # closure's own residual, with F called once at the result), an adjoint
    # and both solves of an H v product pass on one reduction each, with no
    # per-interval norm
    p, r = linear_lq().problem, 3
    part = make_uniform_partition(p.T, 320)
    u, v = random_dg(rng, part, r), random_dg(rng, part, r)
    checks, failure = [0], ivp._failure

    def counted(*args):
        checks[0] += 1
        return failure(*args)

    monkeypatch.setattr(ivp, "_failure", counted)
    norms = _count_interval_norms(monkeypatch)
    f_calls, f = [], p.f
    state = replace(p, f=lambda *args: f_calls.append(1) or f(*args))
    x = solve_state(state, u, r)
    assert checks[0] == 1 and len(f_calls) == 2     # b = F at x = 0, then F at the result
    lam = solve_adjoint(p, u, x)
    hessian_vector(p, u, x, lam)(v)
    assert checks[0] == 4 and norms[0] == 0
    # a NaN datum fails both affine directions through the per-interval path,
    # each naming its interval: the control in the state solve, the state in
    # the adjoint (fx = -1 stays finite)
    n, u_nan, x_nan = 100, u.coeffs.copy(), x.coeffs.copy()
    u_nan[n] = x_nan[n] = np.nan
    for solve in (lambda: solve_state(p, DGFunction(part, u_nan), r),
                  lambda: solve_adjoint(p, u, DGFunction(part, x_nan))):
        with pytest.raises(SolverFailure, match="^residual nan above its tolerance") as err:
            solve()
        assert err.value.interval == n and np.isnan(err.value.residual)
    assert norms[0] == 2


def _grid(data, part, sch):
    """The march's grid: the (N, q) quadrature times and the rows of each datum."""
    return (part.quad_times(sch.rule), *(a.values_on_quad(sch.rule) for a in data))


def _march(F, dF_dx, x0, part, r, data=()):
    """The marching route alone, as the reference for the batched one."""
    sch = ivp._scheme(r, len(x0))
    return ivp._solve_newton(F, dF_dx, _grid(data, part, sch), np.asarray(x0, dtype=float),
                             part, sch)


def test_linear_closures_take_the_batched_route(monkeypatch):
    # x' = A(t) x + b(t), d = 2, with b a DG datum
    part = Partition(np.array([0.0, 0.05, 0.2, 0.3, 0.55, 0.6, 0.9, 1.0]))
    A0 = np.array([[-1.0, 2.0], [-0.5, 0.3]])
    b = project_callable(lambda t: np.cos(3.0 * t) * np.sin(t), part, 3)
    rhs = (lambda t, X, b: (1.0 + t)[:, None] * X @ A0.T + b,
           lambda t, X, b: (1.0 + t)[:, None, None] * A0)
    x0 = [1.0, -0.5]
    calls = _count_routes(monkeypatch)
    for r in range(4):
        sol = solve_forward(*rhs, x0, part, r, (b,))
        assert np.max(np.abs(sol.coeffs - _march(*rhs, x0, part, r, (b,)))) <= 1e-13
    assert calls == {"batched": 4, "march": 4}   # the march runs only as the reference


def test_nonlinear_closure_with_matching_probes_falls_back(monkeypatch):
    # dF/dx = 0.6 pi cos(2 pi x) is identical at the probe states 0 and PROBE_SHIFT,
    # but F is not affine: the batched result fails the closure residual
    k = 2.0 * np.pi / ivp.PROBE_SHIFT
    rhs = (lambda ts, X: 0.3 * np.sin(k * X) + ts[:, None],
           lambda ts, X: (0.3 * k * np.cos(k * X))[:, :, None])
    part = make_uniform_partition(1.0, 6)
    calls = _count_routes(monkeypatch)
    for r in range(4):
        sol = solve_forward(*rhs, [0.3], part, r)
        assert np.array_equal(sol.coeffs, _march(*rhs, [0.3], part, r))
    assert calls == {"batched": 4, "march": 8}


def _reference_march(F, dF_dx, grid, x0, partition, sch, backtracks):
    """The march in its plain form (a residual closure per interval, numpy
    reductions, the scheme's block helper): the reference that
    ivp._solve_newton must repeat bit for bit.  backtracks[0] counts the
    halvings of the Newton step."""
    P, PtW, lin = sch.P, sch.PtW, sch.lin
    r1, d = sch.s.size, x0.size
    nd = r1 * d
    coeffs = np.empty((partition.N, r1, d))
    x_in = x0
    widths = partition.widths

    for n in range(partition.N):
        h = widths[n]
        t, *a = (v[n] for v in grid)
        C = np.zeros((r1, d))
        C[0] = x_in
        trace_in = np.outer(sch.s, x_in)

        def residual(C):
            X = P @ C
            Fv = F(t, X, *a)
            return lin @ C - trace_in - 0.5 * h * (PtW @ Fv), X

        R, X = residual(C)
        rnorm = np.max(np.abs(R))
        tol = ivp._tolerance(max(rnorm, np.max(np.abs(x_in))))
        converged = rnorm <= tol
        for _ in range(ivp.NEWTON_MAX_ITER):
            if converged or not math.isfinite(rnorm):
                break
            J = sch.blocks(0.5 * h, dF_dx(t, X, *a))
            try:
                delta = np.linalg.solve(J, -R.reshape(nd)).reshape(r1, d)
            except np.linalg.LinAlgError:
                raise ivp._singular(n) from None
            alpha = 1.0
            while True:
                Rn, Xn = residual(C + alpha * delta)
                rn = np.max(np.abs(Rn))
                if rn < rnorm or alpha <= ivp.DAMPING_FLOOR:
                    break
                alpha *= 0.5
                backtracks[0] += 1
            C = C + alpha * delta
            R, X, rnorm = Rn, Xn, rn
            converged = rnorm <= tol
        if not (converged and math.isfinite(rnorm)):
            raise SolverFailure(n, rnorm)
        coeffs[n] = C
        x_in = C.sum(axis=0)

    return coeffs


def _counted(F, dF_dx):
    """F and dF_dx counting their calls in [F calls, dF_dx calls], and that list."""
    counts = [0, 0]

    def counted_F(t, X, *a):
        counts[0] += 1
        return F(t, X, *a)

    def counted_dF_dx(t, X, *a):
        counts[1] += 1
        return dF_dx(t, X, *a)

    return counted_F, counted_dF_dx, counts


def _march_against_reference(F, dF_dx, x0, part, r, data=()):
    """Run the march and the reference on the same data: equal coefficients
    (or the same failure) and equal F and dF_dx counts.  Returns the
    reference's backtracks."""
    x0 = np.asarray(x0, dtype=float)
    sch = ivp._scheme(r, x0.size)
    grid = _grid(data, part, sch)
    *fast, fast_counts = _counted(F, dF_dx)
    *ref, ref_counts = _counted(F, dF_dx)
    backtracks = [0]
    try:
        C_ref = _reference_march(*ref, grid, x0, part, sch, backtracks)
    except SolverFailure as failure:
        with pytest.raises(SolverFailure) as err:
            ivp._solve_newton(*fast, grid, x0, part, sch)
        assert err.value.interval == failure.interval
        assert np.array_equal(err.value.residual, failure.residual, equal_nan=True)
    else:
        assert np.array_equal(ivp._solve_newton(*fast, grid, x0, part, sch), C_ref)
    assert fast_counts == ref_counts and ref_counts[1] > 0
    return backtracks[0]


def test_march_repeats_the_reference_iterates():
    # a scalar right-hand side with a DG weight w, r = 0..3 on a graded partition
    part = Partition(np.linspace(0.0, 1.0, 13) ** 1.7)
    weight = project_callable(lambda t: 1.0 + 0.5 * np.cos(5.0 * t), part, 3)
    scalar = (lambda t, X, w: np.sin(3.0 * X) * w + t[:, None],
              lambda t, X, w: (3.0 * np.cos(3.0 * X) * w)[:, :, None])
    for r in range(4):
        _march_against_reference(*scalar, [0.7], part, r, (weight,))
    # a coupled d = 2 system: x1' = -x2 + x1 x2, x2' = x1 - x2^3
    coupled = (
        lambda ts, X: np.stack((-X[:, 1] + X[:, 0] * X[:, 1], X[:, 0] - X[:, 1] ** 3), -1),
        lambda ts, X: np.stack((np.stack((X[:, 1], X[:, 0] - 1.0), -1),
                                np.stack((np.ones(ts.size), -3.0 * X[:, 1] ** 2), -1)), -2),
    )
    _march_against_reference(*coupled, [0.5, -1.2], part, 2)


def test_march_repeats_the_reference_backtracking():
    # x' = -8 atan(4 x) on two wide intervals: the full Newton step overshoots,
    # and the damped steps are taken as the reference takes them
    rhs = (lambda ts, X: -8.0 * np.arctan(4.0 * X),
           lambda ts, X: (-32.0 / (1.0 + 16.0 * X**2))[:, :, None])
    part = make_uniform_partition(1.0, 2)
    backtracks = [_march_against_reference(*rhs, [1.0], part, r) for r in range(4)]
    assert all(b > 0 for b in backtracks)
    # x' = x^2 from 2 blows up: the damping floor is reached, then the same failure
    blowup = (lambda ts, X: X**2, lambda ts, X: 2.0 * X[:, :, None])
    assert _march_against_reference(*blowup, [2.0], make_uniform_partition(1.0, 1), 2) > 0


def _decay_solve(route, x0, part, r):
    """Coefficients of x' = -x, x(0) = x0, with an AffineSystem on the data
    sampled on the quadrature grid, as linear closures, or (route "march") of
    the nonlinear x' = -x + sin x."""
    if route == "affine":
        times = part.quad_times(default_rule(r))
        return ivp.AffineSystem(np.full(times.shape + (1, 1), -1.0), part, r).solve(
            np.zeros(times.shape + (1,)), np.array([x0]))
    if route == "closures":
        rhs = (lambda ts, X: -X, lambda ts, X: np.full((ts.size, 1, 1), -1.0))
    else:
        rhs = (lambda ts, X: np.sin(X) - X, lambda ts, X: (np.cos(X) - 1.0)[:, :, None])
    return solve_forward(*rhs, [x0], part, r).coeffs


@pytest.mark.parametrize("route", ["affine", "closures", "march"])
def test_large_solutions_pass_the_roundoff_floor(monkeypatch, route):
    # an absolute 1e-12 is below the round-off of a residual whose terms are
    # ~1e4 or more; every route solves these, and the linear ones scale with x0.
    # At x0 = 1e6 the affine residuals have entries above NEWTON_TOL, so they
    # pass on the per-interval round-off floors
    part = make_uniform_partition(1.0, 8)
    calls, norms = _count_routes(monkeypatch), _count_interval_norms(monkeypatch)
    for r in range(4):
        unit = _decay_solve(route, 1.0, part, r)
        for x0 in (1e3, 1e4, 1e5, 1e6):
            before = norms[0]
            coeffs = _decay_solve(route, x0, part, r)
            if route != "march":
                assert np.max(np.abs(coeffs / x0 - unit)) <= 1e-13
            if x0 == 1e6:
                assert (norms[0] > before) == (route != "march"), r
    assert calls["march" if route == "march" else "batched"] == 20
    assert calls["batched" if route == "march" else "march"] == 0


def test_scheme_tables_are_shared_and_read_only():
    sch = ivp._scheme(2, 3)
    assert ivp._scheme(2, 3) is sch
    with pytest.raises(ValueError):
        sch.J_base[0, 0] = 1.0
    assert not sch.S.flags.writeable and sch.S.shape == (9, 3)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocks_match_their_definition(rng, r, d):
    # kron(lin, I) - (h/2) sum_q w_q P_qj P_qk A_q, rows (j, a) and columns
    # (k, b), for a stack of blocks with their own half widths and for one block
    sch, N, nd = ivp._scheme(r, d), 5, (r + 1) * d
    A = rng.standard_normal((N, sch.rule.q, d, d))
    half_h = rng.uniform(0.01, 1.0, N)
    K = np.einsum("q,qj,qk,nqab->njakb", sch.rule.weights, sch.P, sch.P, A)
    ref = np.kron(sch.lin, np.eye(d)) - half_h[:, None, None] * K.reshape(N, nd, nd)
    scale = np.max(np.abs(ref))
    J = sch.blocks(half_h[:, None, None], A)
    assert J.shape == (N, nd, nd) and np.max(np.abs(J - ref)) <= 1e-15 * scale
    for n in range(N):
        J = sch.blocks(half_h[n], A[n])
        assert J.shape == (nd, nd) and np.max(np.abs(J - ref[n])) <= 1e-15 * scale


def test_scheme_tables_do_not_grow_as_d4():
    # a table of q (r+1)^2 d^4 floats would be 50 MB here
    r, d = 3, 16
    arrays = [a for a in vars(ivp._scheme(r, d)).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 1e6
    assert max(a.size for a in arrays) <= (r + 1) ** 2 * d**2


def test_stiff_method_of_lines_system_at_d64(monkeypatch):
    # x' = L x, L the second-difference Laplacian on (0, 1) times (d+1)^2, whose
    # eigenvalues reach 4 (d+1)^2 in magnitude; x0 = sin(pi x) is the eigenvector
    # of the slowest mode.  Blocks of (r+1) d = 256 rows, N = 16, T = 0.5
    d, r, T = 64, 3, 0.5
    off = np.ones(d - 1)
    L = (d + 1) ** 2 * (np.diag(off, -1) - 2.0 * np.eye(d) + np.diag(off, 1))
    x0 = np.sin(np.pi * np.arange(1, d + 1) / (d + 1))
    part = make_uniform_partition(T, 16)
    forward = (lambda ts, X: X @ L.T, lambda ts, X: np.broadcast_to(L, (ts.size, d, d)))
    calls = _count_routes(monkeypatch)
    C = solve_forward(*forward, x0, part, r).coeffs
    assert calls == {"batched": 1, "march": 0}
    ref = _march(*forward, x0, part, r)
    assert np.max(np.abs(C - ref)) <= 1e-13 * np.max(np.abs(ref))
    mu = 4.0 * (d + 1) ** 2 * np.sin(np.pi / (2 * (d + 1))) ** 2
    assert np.max(np.abs(C[-1].sum(axis=0) - np.exp(-mu * T) * x0)) <= 1e-10
    # the discrete adjoint lam' = -L^T lam, lam(T) = x0, and solve_backward of
    # the same system, stable from T back
    times = part.quad_times(default_rule(r))
    system = ivp.AffineSystem(np.broadcast_to(L, times.shape + (d, d)), part, r)
    lam = system.solve_transposed(np.zeros(times.shape + (d,)), x0)
    backward = (lambda ts, X: -X @ L, lambda ts, X: np.broadcast_to(-L.T, (ts.size, d, d)))
    ref = solve_backward(*backward, x0, part, r).coeffs
    assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(np.abs(ref))
