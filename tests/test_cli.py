"""Command-line interface: solve, convergence, verify."""

import inspect
import re

import numpy as np
import pytest

from dgocp import ConvergenceReport, OptimizeOptions, SolverFailure, load_dg, run_convergence
from dgocp.cli import build_parser, main, run_verification
from dgocp.optimize import StallError
from dgocp.problems import linear_lq

from conftest import simpson


def _read_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            k, v = line.strip().split("=", 1)
            out[k] = v
    return out


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def test_missing_subcommand_and_problem(tmp_path):
    assert _exit_code([]) == 2
    assert _exit_code(["solve"]) == 2
    assert _exit_code(["solve", "--problem", "no-such-problem"]) == 2
    # no mesh: a non-positive interval count or step, or a step longer than 2T;
    # two meshes: an interval count and a step
    out = ["--out", str(tmp_path / "run")]
    for bad in (["--intervals", "0"], ["--intervals", "-2"], ["--h", "0"], ["--h", "-0.1"],
                ["--h", "5"], ["--intervals", "4", "--h", "0.5"]):
        assert _exit_code(["solve", "--problem", "linear-lq"] + bad + out) == 2, bad
    assert _exit_code(["verify", "--problem", "linear-lq", "--intervals", "0"]) == 2
    # negative degrees, a non-positive, NaN or infinite tolerance (every
    # stationarity is below inf), a negative iteration cap, no refinement
    # level, the deleted method fbs
    for bad in (["--order", "-1"], ["--grad-tol", "0"], ["--grad-tol", "nan"],
                ["--grad-tol", "inf"], ["--max-iter", "-1"], ["--method", "fbs"]):
        assert _exit_code(["solve", "--problem", "linear-lq"] + bad + out) == 2, bad
    assert _exit_code(["verify", "--problem", "linear-lq", "--order", "-1"]) == 2
    table = ["--out", str(tmp_path / "run" / "table.csv")]
    for bad in (["--orders", "1,-1"], ["--orders", "1,"], ["--levels", "0"],
                ["--grad-tol", "0"], ["--grad-tol", "nan"], ["--grad-tol", "inf"],
                ["--method", "fbs"]):
        assert _exit_code(["convergence", "--problem", "linear-lq"] + bad + table) == 2, bad
    assert not (tmp_path / "run").exists()


def test_solve_artifacts_and_table_entry(tmp_path):
    out = tmp_path / "run"
    code = main([
        "solve", "--problem", "linear-lq", "--order", "1", "--h", "0.1",
        "--out", str(out),
    ])
    assert code == 0
    summary = _read_summary(out / "summary.txt")
    assert summary["converged"] == "True" and summary["method"] == "pgd"
    assert float(summary["err_u"]) == pytest.approx(6.2543e-04, rel=1e-2)
    assert float(summary["err_x"]) == pytest.approx(1.9455e-03, rel=1e-2)

    for name in ("u.csv", "x.csv", "lambda.csv"):
        assert (out / name).exists()
    u = load_dg(out / "u.csv")
    assert u.partition.N == 10 and u.degree == 1

    for name in ("x_samples.csv", "u_samples.csv", "lambda_samples.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 402  # header + 401 uniform samples
    jump_lines = (out / "x_jumps.csv").read_text().splitlines()
    assert len(jump_lines) == 10  # header + 9 interior nodes


def test_one_interval_writes_a_header_only_jump_file(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "linear-lq", "--intervals", "1", "--out", str(out)]) == 0
    assert (out / "x_jumps.csv").read_text() == "t,jump_x_1\n"
    assert (out / "u_jumps.csv").read_text() == "t,jump_u_1\n"


def test_parser_defaults_are_the_library_defaults():
    solve = build_parser().parse_args(["solve", "--problem", "linear-lq"])
    opts = OptimizeOptions()
    assert (solve.method, solve.grad_tol, solve.max_iter) == (
        opts.method, opts.grad_tol, opts.max_outer)
    conv = build_parser().parse_args(["convergence", "--problem", "linear-lq"])
    defaults = inspect.signature(run_convergence).parameters
    assert conv.orders == defaults["orders"].default == (1, 2, 3)
    assert conv.levels == defaults["levels"].default == 6
    table_opts = defaults["opts"].default
    assert (conv.method, conv.grad_tol) == (table_opts.method, table_opts.grad_tol) == (
        "newton", 1e-14)
    assert table_opts.max_outer == opts.max_outer


def test_solve_not_converged_exit_code(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--problem", "linear-lq", "--method", "pgd", "--max-iter", "1",
                 "--out", str(out)])
    assert code == 3
    assert _read_summary(out / "summary.txt")["converged"] == "False"
    assert (out / "u.csv").exists()


def test_solve_cost_against_oracle(tmp_path):
    builtin = linear_lq()
    xbar, ubar = builtin.exact_state, builtin.exact_control
    oracle = simpson(lambda t: 0.5 * (xbar(t) ** 2 + ubar(t) ** 2), 0.0, 1.0)
    out = tmp_path / "run"
    code = main([
        "solve", "--problem", "linear-lq", "--order", "2", "--intervals", "10",
        "--out", str(out),
    ])
    assert code == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["cost"]) == pytest.approx(oracle, abs=1e-6)


def test_convergence_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = main([
        "convergence", "--problem", "linear-lq", "--orders", "1", "--levels", "3",
        "--out", str(path),
    ])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "r,h,err_x,err_u,rate_x,rate_u"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(0.1)
    assert float(first[3]) == pytest.approx(6.2543e-04, rel=1e-2)
    assert first[4] == "" and first[5] == ""  # no rates on the coarsest level
    assert float(lines[2].split(",")[4]) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("problem", ["linear-lq", "nonlinear-quadratic"])
def test_newton_method_commands(tmp_path, problem):
    out = tmp_path / "run"
    assert main(["solve", "--problem", problem, "--order", "2", "--intervals", "8",
                 "--method", "newton", "--out", str(out)]) == 0
    summary = _read_summary(out / "summary.txt")
    assert summary["method"] == "newton" and summary["converged"] == "True"
    table = tmp_path / "table.csv"
    assert main(["convergence", "--problem", problem, "--orders", "1", "--levels", "2",
                 "--method", "newton", "--out", str(table)]) == 0
    assert len(table.read_text().splitlines()) == 3
    # convergence defaults to newton, as run_convergence does
    assert build_parser().parse_args(["convergence", "--problem", problem]).method == "newton"


def test_convergence_verbose_levels(capsys):
    # one line before each level and one after it with its iterations and time
    assert main(["convergence", "--problem", "linear-lq", "--orders", "1", "--levels", "2",
                 "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0::2] == ["r=1, k=0, N=10", "r=1, k=1, N=20"]
    assert all(re.fullmatch(r"r=1, k=\d, N=\d+: \d+ iterations, \d+\.\d{3} s", line)
               for line in err[1::2]), err


def test_convergence_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["convergence", "--problem", "linear-lq", "--orders", "2", "--levels", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rate_column_arithmetic():
    report = run_convergence(linear_lq(), orders=(1,), levels=3)
    rows = report.rows
    for prev, row in zip(rows, rows[1:]):
        assert row.rate_x == pytest.approx(np.log2(prev.err_x / row.err_x), abs=1e-12)
        assert row.rate_u == pytest.approx(np.log2(prev.err_u / row.err_u), abs=1e-12)


def test_convergence_stall_partial_csv(tmp_path, monkeypatch, capsys):
    import dgocp.cli as cli

    def boom(*args, **kwargs):
        raise StallError(3, 1.0, 1e-2)

    monkeypatch.setattr(cli, "run_convergence", boom)
    path = tmp_path / "partial.csv"
    code = main(["convergence", "--problem", "linear-lq", "--out", str(path)])
    assert code == 3
    assert path.read_text() == ConvergenceReport().to_csv()


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    # r = 0 on 2 intervals: the state solve at the start control fails
    out = tmp_path / "run"
    code = main(["solve", "--problem", "nonlinear-quadratic", "--order", "0",
                 "--intervals", "2", "--out", str(out)])
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("solver failed: ") and err.count("\n") == 1

    import dgocp.cli as cli

    def boom(*args, **kwargs):
        raise SolverFailure(1, 0.26)

    monkeypatch.setattr(cli, "run_convergence", boom)
    path = tmp_path / "partial.csv"
    assert main(["convergence", "--problem", "linear-lq", "--out", str(path)]) == 3
    assert path.read_text() == ConvergenceReport().to_csv()
    assert capsys.readouterr().err.count("\n") == 1


def test_unconverged_level_raises():
    # a level stopped by the iteration cap is not an optimum: no table row
    with pytest.raises(StallError, match=r"r=1, N=10 .*stationarity") as err:
        run_convergence(linear_lq(), orders=(1,), levels=2,
                        opts=OptimizeOptions(method="pgd", max_outer=3))
    assert err.value.stationarity > OptimizeOptions().grad_tol


def test_verify_passes(capsys):
    code = main([
        "verify", "--problem", "linear-lq", "--order", "1", "--intervals", "8",
        "--seed", "42",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for name in ("gradient-check", "tangent-check", "hessian-check", "hessian-vector-check",
                 "adjoint-residual", "time-reversal"):
        assert f"{name}: PASS" in out
    grad_line = next(l for l in out.splitlines() if l.startswith("gradient-check"))
    discrepancy = float(grad_line.split("discrepancy ")[1].split(",")[0])
    assert discrepancy < 1e-6


def test_verify_nonlinear_hessian(capsys):
    code = main([
        "verify", "--problem", "nonlinear-quadratic", "--order", "2",
        "--intervals", "8", "--seed", "7",
    ])
    assert code == 0
    out = capsys.readouterr().out
    hess_line = next(l for l in out.splitlines() if l.startswith("hessian-check"))
    discrepancy = float(hess_line.split("discrepancy ")[1].split(",")[0])
    assert discrepancy < 1e-4


@pytest.mark.parametrize("which", ["fx", "fu", "gx", "gu"])
@pytest.mark.parametrize("problem", ["linear-lq", "nonlinear-quadratic"])
def test_verify_corrupted_derivative(problem, which, capsys):
    code = main([
        "verify", "--problem", problem, "--order", "1", "--intervals", "8",
        "--seed", "42", "--corrupt", which,
    ])
    assert code == 1
    assert "gradient-check: FAIL" in capsys.readouterr().out


def test_run_verification_quiet():
    lines = []
    assert run_verification("linear-lq", 2, 6, 1, echo=lines.append)
    assert len(lines) == 6
