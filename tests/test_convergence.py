"""Convergence tables: nested-iteration warm starts, work per table, arguments."""

import re

import pytest

import dgocp.convergence
import dgocp.optimize
from dgocp import run_convergence
from dgocp.problems import get_builtin, linear_lq


@pytest.fixture(scope="module", params=["linear-lq", "nonlinear-quadratic"])
def recorded_table(request):
    """One default table with every minimize call, state solve and H v product
    recorded; returns (name, calls as (r, N, u0, report), counts)."""
    calls, counts = [], {"state": 0, "products": 0}
    minimize, solve_state = dgocp.convergence.minimize, dgocp.optimize.solve_state
    hessian_vector = dgocp.optimize.hessian_vector

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dgocp.convergence, "minimize", recording)
        mp.setattr(dgocp.optimize, "solve_state", counting_state)
        mp.setattr(dgocp.optimize, "hessian_vector", counting_hessian)
        run_convergence(get_builtin(request.param))
    return request.param, calls, counts


def test_each_solve_starts_from_the_previous_optimum(recorded_table):
    name, calls, _ = recorded_table
    # the reference solve first (nonlinear-quadratic only), then r-major, k-minor
    T = get_builtin(name).problem.T
    expected = [(3, 1024)] if name == "nonlinear-quadratic" else []
    expected += [(r, round(T / (0.1 * 2.0**-k))) for r in (1, 2, 3) for k in range(6)]
    assert [(r, N) for r, N, _, _ in calls] == expected
    assert calls[0][2] is None
    for (_, _, _, before), (r, N, u0, _) in zip(calls, calls[1:]):
        assert u0 is before.u_star, (r, N)


def test_work_per_table(recorded_table):
    # cold starts took 90 state solves and 234 products (linear-lq), 76 and
    # 131 (nonlinear-quadratic)
    name, _, counts = recorded_table
    most = {"linear-lq": (50, 90), "nonlinear-quadratic": (55, 90)}[name]
    assert counts["state"] <= most[0] and counts["products"] <= most[1], counts


def test_progress_lines_before_and_after_each_level():
    lines = []
    run_convergence(linear_lq(), orders=(1,), levels=2, progress=lines.append)
    assert lines[0::2] == ["r=1, k=0, N=10", "r=1, k=1, N=20"]
    for before, after in zip(lines[0::2], lines[1::2]):
        assert re.fullmatch(re.escape(before) + r": \d+ iterations, \d+\.\d{3} s", after), after


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
