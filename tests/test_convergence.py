"""Convergence tables: nested-iteration warm starts, work per table, call
order, arguments, and the rows the benchmark records."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dgocp.convergence
import dgocp.ivp
import dgocp.optimize
from dgocp import SolverFailure, run_convergence
from dgocp.problems import BuiltinProblem, get_builtin, linear_lq

from conftest import coupled_problem


def record_table(builtin, **kwargs):
    """run_convergence(builtin, **kwargs) with every minimize call, state solve,
    H v product and AffineSystem factorization recorded; returns (calls as
    (r, N, u0, report), counts, table)."""
    calls, counts = [], {"state": 0, "products": 0, "factorizations": 0}
    minimize, solve_state = dgocp.convergence.minimize, dgocp.optimize.solve_state
    hessian_vector, factor = dgocp.optimize.hessian_vector, dgocp.ivp.AffineSystem.__init__

    def recording(p, u0, partition, r_state, *args, **kwargs):
        report = minimize(p, u0, partition, r_state, *args, **kwargs)
        calls.append((r_state, partition.N, u0, report))
        return report

    def counting_state(*args, **kwargs):
        counts["state"] += 1
        return solve_state(*args, **kwargs)

    def counting_hessian(*args, **kwargs):
        apply = hessian_vector(*args, **kwargs)

        def product(v):
            counts["products"] += 1
            return apply(v)
        return product

    def counting_factor(*args):
        counts["factorizations"] += 1
        factor(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dgocp.convergence, "minimize", recording)
        mp.setattr(dgocp.optimize, "solve_state", counting_state)
        mp.setattr(dgocp.optimize, "hessian_vector", counting_hessian)
        mp.setattr(dgocp.ivp.AffineSystem, "__init__", counting_factor)
        table = run_convergence(builtin, **kwargs)
    return calls, counts, table


@pytest.fixture(scope="module", params=["linear-lq", "nonlinear-quadratic"])
def recorded_table(request):
    """One default table, recorded; returns (name, calls, counts, table)."""
    return (request.param, *record_table(get_builtin(request.param)))


def _reference_size(builtin, orders):
    """(r, N) of the reference run_convergence solves for builtin at these orders."""
    return max(orders) + 2, round(builtin.problem.T / builtin.reference_h)


def test_each_solve_starts_from_the_previous_optimum(recorded_table):
    name, calls, _, _ = recorded_table
    # the levels r-major, k-minor, then the reference (nonlinear-quadratic only)
    builtin = get_builtin(name)
    T = builtin.problem.T
    expected = [(r, round(T / (0.1 * 2.0**-k))) for r in (1, 2, 3) for k in range(6)]
    expected += [_reference_size(builtin, (1, 2, 3))] if name == "nonlinear-quadratic" else []
    assert [(r, N) for r, N, _, _ in calls] == expected
    levels = calls[:18]
    assert levels[0][2] is None
    for (_, _, _, before), (r, N, u0, _) in zip(levels, levels[1:]):
        assert u0 is before.u_star, (r, N)
    if name == "nonlinear-quadratic":
        # from the finest r=3 level, which here is also the last one solved
        assert calls[-1][2] is levels[-1][3].u_star


def test_reference_starts_from_the_finest_level_of_the_highest_degree():
    # orders not ascending: the reference (r=4) starts from the finest r=2
    # level, which is not the last one solved
    builtin = get_builtin("nonlinear-quadratic")
    calls, _, _ = record_table(builtin, orders=(2, 1), levels=1)
    assert [(r, N) for r, N, _, _ in calls] == [(2, 2), (1, 2), _reference_size(builtin, (2, 1))]
    assert calls[0][2] is None and calls[1][2] is calls[0][3].u_star
    assert calls[2][2] is calls[0][3].u_star


def test_work_per_table(recorded_table):
    # cold starts took 90 state solves and 234 products (linear-lq), 76 and
    # 131 (nonlinear-quadratic); warm levels with a cold reference took 47 and
    # 74 (linear-lq), 51 and 74 (nonlinear-quadratic); with the reference last
    # the counts are 47 and 74, 50 and 70.  With a system factored per affine
    # solve a table took 152 (linear-lq) and 112 (nonlinear-quadratic)
    # factorizations; with one per linearization, 18 (one per level: fx is
    # constant) and 50 (one per iterate's adjoint and H v products).  With CG
    # forced to a residual of order ||g||^2 instead of ||g||, 39 state solves
    # and 69 products (linear-lq), 45, 71 and 45 factorizations
    # (nonlinear-quadratic).
    name, calls, counts, _ = recorded_table
    most = {"linear-lq": (39, 69, 18), "nonlinear-quadratic": (45, 71, 45)}[name]
    assert counts["state"] <= most[0] and counts["products"] <= most[1], counts
    assert counts["factorizations"] <= most[2], counts
    if name == "nonlinear-quadratic":
        # the reference, started from the finest r=3 level, takes 4 iterations
        # cold (r=3 on N=1024, r=5 on N=128 and r=5 on N=64 alike)
        assert calls[-1][:2] == _reference_size(get_builtin(name), (1, 2, 3))
        assert calls[-1][3].iterations <= 2


def test_tables_match_the_benchmark_rows(recorded_table):
    # the benchmark fails a table whose rows leave perfbench/seed_tables.json
    # by more than its TABLE_ATOL; a change that moves a row that far fails here
    name, _, _, table = recorded_table
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seed = json.loads((perfbench / "seed_tables.json").read_text())[name]
    recorded = {(row["r"], round(row["h"], 12)): row for row in seed}
    assert sorted((row.r, round(row.h, 12)) for row in table.rows) == sorted(recorded)
    for row in table.rows:
        want = recorded[(row.r, round(row.h, 12))]
        for col in ("err_x", "err_u"):
            assert abs(getattr(row, col) - want[col]) <= workloads.TABLE_ATOL, (row.r, row.h, col)


def test_progress_lines_before_and_after_each_level():
    lines = []
    run_convergence(linear_lq(), orders=(1,), levels=2, progress=lines.append)
    assert lines[0::2] == ["r=1, k=0, N=10", "r=1, k=1, N=20"]
    for before, after in zip(lines[0::2], lines[1::2]):
        assert re.fullmatch(re.escape(before) + r": \d+ iterations, \d+\.\d{3} s", after), after


def test_progress_lines_put_the_reference_last():
    lines = []
    builtin = get_builtin("nonlinear-quadratic")
    run_convergence(builtin, orders=(1,), levels=1, progress=lines.append)
    r_ref, N_ref = _reference_size(builtin, (1,))
    assert lines[0::2] == ["r=1, k=0, N=2", f"reference solve: r={r_ref}, N={N_ref}"]
    for before, after in zip(lines[0::2], lines[1::2]):
        assert re.fullmatch(re.escape(before) + r": \d+ iterations, \d+\.\d{3} s", after), after


def test_a_failing_level_fails_before_the_reference(monkeypatch):
    # DG(0) has no discrete state at the start control on interval 1 of N=2
    Ns = []
    minimize = dgocp.convergence.minimize

    def recording(p, u0, partition, *args, **kwargs):
        Ns.append(partition.N)
        return minimize(p, u0, partition, *args, **kwargs)

    monkeypatch.setattr(dgocp.convergence, "minimize", recording)
    with pytest.raises(SolverFailure) as failure:
        run_convergence(get_builtin("nonlinear-quadratic"), orders=(0,), levels=1)
    assert failure.value.interval == 1
    assert Ns == [2]


@pytest.mark.parametrize("kwargs, match", [
    ({"orders": ()}, "at least one"),
    ({"orders": (1, -1)}, ">= 0"),
    ({"levels": 0}, ">= 1"),
])
def test_bad_arguments_raise_before_any_solve(monkeypatch, kwargs, match):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(dgocp.convergence, "minimize", no_solve)
    for name in ("linear-lq", "nonlinear-quadratic"):
        with pytest.raises(ValueError, match=match):
            run_convergence(get_builtin(name), **kwargs)


@pytest.mark.parametrize("fields", [
    {}, {"exact_state": np.cos}, {"exact_control": np.cos},
    {"reference_h": 0.0}, {"reference_h": -0.1}, {"reference_h": np.inf},
    {"reference_h": np.nan}, {"reference_h": True}, {"exact_state": np.cos, "reference_h": 0.0},
], ids=lambda fields: "-".join(k if callable(v) else f"{k}={v!r}" for k, v in fields.items())
   or "none")
def test_a_builtin_without_a_reference_raises_before_any_solve(monkeypatch, fields):
    # neither both closed-form callables nor a positive, finite reference_h:
    # the errors could not be measured after the levels were solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the reference was checked")

    monkeypatch.setattr(dgocp.convergence, "minimize", no_solve)
    builtin = BuiltinProblem(problem=get_builtin("nonlinear-quadratic").problem, **fields)
    with pytest.raises(ValueError, match="^reference_h of a builtin without exact_state and "
                                         "exact_control must be positive and finite"):
        run_convergence(builtin, orders=(1,), levels=1)


def _pontryagin_shooting(T, x0, steps):
    """nonlinear-quadratic's Pontryagin system x' = x^2 - p, p' = -x - 2xp,
    x(0) = x0, p(T) = 0 by RK4 on `steps` uniform steps and secant shooting on
    p(0): the RK4 times, x and u = -p there, and the final miss p(T)."""
    h = T / steps

    def rhs(x, p):
        return x * x - p, -x - 2.0 * x * p

    def integrate(p0):
        x, p = x0, p0
        xs, ps = [x], [p]
        for _ in range(steps):
            k1 = rhs(x, p)
            k2 = rhs(x + 0.5 * h * k1[0], p + 0.5 * h * k1[1])
            k3 = rhs(x + 0.5 * h * k2[0], p + 0.5 * h * k2[1])
            k4 = rhs(x + h * k3[0], p + h * k3[1])
            x += h / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            p += h / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            xs.append(x)
            ps.append(p)
        return np.array(xs), np.array(ps)

    a, miss_a, b = 0.0, integrate(0.0)[1][-1], 1.0
    for _ in range(20):
        xs, ps = integrate(b)
        if ps[-1] == 0.0 or ps[-1] == miss_a:
            break
        a, miss_a, b = b, ps[-1], b - ps[-1] * (b - a) / (ps[-1] - miss_a)
    return np.linspace(0.0, T, steps + 1), xs, -ps, ps[-1]


def test_nonlinear_reference_matches_pontryagin_shooting():
    # the reference the default table solves (its last solve) against an
    # independent RK4 solve of the continuous optimality system, at the RK4
    # times inside the mesh intervals.  The step count is fixed so that RK4's
    # own error stays below the bounds: 3 steps per interval at N = 128 miss
    # the u bound by RK4's error alone (1.3e-12).  The reference at r=5 on
    # N=64 misses it by 1.5e-14 in x and 7.2e-15 in u
    builtin = get_builtin("nonlinear-quadratic")
    p = builtin.problem
    calls, _, _ = record_table(builtin)
    _, N, _, report = calls[-1]
    assert report.converged
    steps = 3072
    assert steps % N == 0
    ts, xs, us, miss = _pontryagin_shooting(p.T, p.x0[0], steps)
    assert abs(miss) <= 1e-14
    inner = np.arange(ts.size) % (steps // N) != 0
    assert np.max(np.abs(report.x_star.eval_many(ts[inner])[:, 0] - xs[inner])) <= 1e-12
    assert np.max(np.abs(report.u_star.eval_many(ts[inner])[:, 0] - us[inner])) <= 1e-12


def test_coupled_table_rates():
    # d = m = 2 at r = 0..3: the self-referenced table (reference r=5 on
    # N=80) converges at h^(r+1) in both x and u at the finest level
    orders = (0, 1, 2, 3)
    builtin = BuiltinProblem(problem=coupled_problem(), reference_h=0.1 * 2**-4)
    rows = run_convergence(builtin, orders=orders, levels=5).rows
    for r in orders:
        finest = [row for row in rows if row.r == r][-1]
        assert abs(finest.rate_x - (r + 1)) < 0.05
        assert abs(finest.rate_u - (r + 1)) < 0.05
