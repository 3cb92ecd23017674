"""Shared fixtures and independent numerical oracles for the test suite."""

import numpy as np
import pytest

from dgocp import OCProblem, gauss_rule, make_uniform_partition, project_l2

# collected by the acceptance tests; emitted after the run so every
# criterion's pass/fail line is visible regardless of output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rk4_at(F, x0, times, dt=1e-4):
    """Classical RK4 reference: values of x' = F(t, x) at the given times.

    Marches from t = 0 hitting every requested time exactly, with substeps
    no larger than dt. F maps (t, x) -> x for plain 1-d arrays.
    """
    times = np.asarray(times, dtype=float)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    out = np.empty((times.size, x.size))
    t = 0.0
    for i, target in enumerate(times):
        gap = target - t
        if gap > 0:
            n = max(1, int(np.ceil(gap / dt)))
            h = gap / n
            for _ in range(n):
                k1 = F(t, x)
                k2 = F(t + 0.5 * h, x + 0.5 * h * k1)
                k3 = F(t + 0.5 * h, x + 0.5 * h * k2)
                k4 = F(t + h, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
        out[i] = x
    return out


def simpson(fn, a, b, n=1_000_000):
    """Composite Simpson quadrature of a vectorized callable (n even)."""
    ts = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * n) * float(w @ fn(ts))


def project_callable(fn, partition, r, dim=1):
    """Nodal projection of a callable onto degree-r DG space (exact in degree)."""
    return project_l2(fn, partition, r, gauss_rule(r + 1), dim)


def coupled_problem():
    """d = m = 2, with every block of the Lagrangian's Hessian depending on lam:

        f = (x0 x1 + u0 x0, sin x0 + u0 u1 + u0 x1),
        g = (|x|^2 + |u|^2) / 2 + x0 u1.

    The hessian contracts lam with the tables of f's second partials, as
    L = g - lam . f.  Lxu = [[-lam0, 1], [-lam1, 0]] is not symmetric, so a
    transposed Lxu, or a transposed contraction in H v, shows.
    """
    def col(*cols):
        return np.stack(cols, axis=-1)

    def table(t, entries):
        out = np.zeros((t.size, 2, 2, 2))
        for index, value in entries.items():
            out[(slice(None),) + index] = value
        return out

    def hessian(t, x, u, lam):
        fxx = table(t, {(0, 0, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): -np.sin(x[:, 0])})
        fxu = table(t, {(0, 0, 0): 1.0, (1, 1, 0): 1.0})
        fuu = table(t, {(1, 0, 1): 1.0, (1, 1, 0): 1.0})
        eye = np.broadcast_to(np.eye(2), (t.size, 2, 2))
        gxu = np.broadcast_to([[0.0, 1.0], [0.0, 0.0]], (t.size, 2, 2))
        return (eye - np.einsum("qi,qiab->qab", lam, fxx),
                gxu - np.einsum("qi,qiam->qam", lam, fxu),
                eye - np.einsum("qi,qimn->qmn", lam, fuu))

    return OCProblem(
        m=2, T=0.5, x0=[0.5, -0.3],
        f=lambda t, x, u: col(x[:, 0] * x[:, 1] + u[:, 0] * x[:, 0],
                              np.sin(x[:, 0]) + u[:, 0] * u[:, 1] + u[:, 0] * x[:, 1]),
        g=lambda t, x, u: 0.5 * (np.sum(x**2, axis=1) + np.sum(u**2, axis=1)) + x[:, 0] * u[:, 1],
        fx=lambda t, x, u: np.stack((col(x[:, 1] + u[:, 0], x[:, 0]),
                                     col(np.cos(x[:, 0]), u[:, 0])), axis=1),
        fu=lambda t, x, u: np.stack((col(x[:, 0], 0.0 * x[:, 0]),
                                     col(u[:, 1] + x[:, 1], u[:, 0])), axis=1),
        gx=lambda t, x, u: col(x[:, 0] + u[:, 1], x[:, 1]),
        gu=lambda t, x, u: col(u[:, 0], u[:, 1] + x[:, 0]),
        hessian=hessian,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_partition():
    return make_uniform_partition(1.0, 8)
