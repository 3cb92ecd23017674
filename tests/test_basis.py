"""Legendre basis and Gauss quadrature."""

import numpy as np
import pytest

from dgocp import (
    IVPRight,
    deriv_inner_matrix,
    default_rule,
    gauss_rule,
    legendre_table,
    make_uniform_partition,
    mass_diagonal,
    solve_backward,
    solve_forward,
)
from dgocp.basis import apply_table, projection_table, rule_table
from dgocp.ivp import AffineSystem, _scheme, factored


def test_legendre_endpoint_values():
    # P_k(1) = 1 and P_k(-1) = (-1)^k for every degree
    right, left = legendre_table(8, [1.0, -1.0])
    assert right == pytest.approx(np.ones(9), abs=1e-13)
    assert left == pytest.approx((-1.0) ** np.arange(9), abs=1e-13)


def test_orthogonality():
    r = 12
    rule = gauss_rule(r + 1)
    P = legendre_table(r, rule.points)
    gram = P.T @ (P * rule.weights[:, None])
    expected = np.diag(2.0 / (2.0 * np.arange(r + 1) + 1.0))
    assert np.max(np.abs(gram - expected)) < 1e-12


def test_gauss_rule_small():
    r1 = gauss_rule(1)
    assert r1.points == pytest.approx([0.0])
    assert r1.weights == pytest.approx([2.0])
    r2 = gauss_rule(2)
    assert r2.points == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    assert r2.weights == pytest.approx([1.0, 1.0])


def test_gauss_rule_quartic():
    rule = gauss_rule(3)
    val = float(np.sum(rule.weights * rule.points**4))
    assert val == pytest.approx(0.4, abs=1e-13)


def test_weights_sum_to_two():
    for q in range(1, 11):
        rule = gauss_rule(q)
        assert float(np.sum(rule.weights)) == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(rule.points) > 0)
        assert np.all(rule.weights > 0)


def test_quadrature_exactness_random_polynomials(rng):
    for q in range(1, 7):
        rule = gauss_rule(q)
        deg = 2 * q - 1
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, size=deg + 1)
            quad = float(np.sum(rule.weights * np.polyval(c, rule.points)))
            # exact integral of sum c_j x^j over [-1, 1]
            powers = np.arange(deg, -1, -1)
            exact = float(np.sum(c * (1.0 - (-1.0) ** (powers + 1)) / (powers + 1)))
            assert quad == pytest.approx(exact, abs=1e-12)


def test_recurrence_stability():
    xi = np.linspace(-1.0, 1.0, 1001)
    table = legendre_table(12, xi)
    assert np.max(np.abs(table)) <= 1.0 + 1e-13


def test_domain_and_argument_errors():
    with pytest.raises(ValueError):
        legendre_table(2, 1.5)
    with pytest.raises(ValueError):
        legendre_table(1, [0.0, -1.0001])
    with pytest.raises(ValueError):
        gauss_rule(0)
    for xi in ([np.nan], [0.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="outside the reference interval"):
            legendre_table(2, xi)


def test_degrees_and_point_counts_must_be_integers():
    gauss_rule(1)                       # True must not hit the cache entry of 1
    mass_diagonal(1), mass_diagonal(2)  # nor True and 2.0 those of 1 and 2
    for call in (lambda: gauss_rule(2.5), lambda: gauss_rule(True), lambda: gauss_rule(2.0),
                 lambda: default_rule(1.5), lambda: default_rule(-1),
                 lambda: legendre_table(1.5, [0.0]), lambda: legendre_table(-1, [0.0]),
                 lambda: mass_diagonal(2.5), lambda: mass_diagonal(-1),
                 lambda: mass_diagonal(True), lambda: mass_diagonal(2.0),
                 lambda: deriv_inner_matrix(1.5), lambda: deriv_inner_matrix(-1)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    for call in (lambda: mass_diagonal(2.5), lambda: deriv_inner_matrix(-1)):
        with pytest.raises(ValueError, match="^r must"):
            call()
    # numpy integers pass, and share the rule of the equal int
    assert gauss_rule(np.int64(3)) is gauss_rule(3)
    assert default_rule(np.int32(2)) is default_rule(2)
    assert np.array_equal(legendre_table(np.int64(2), [0.5]), legendre_table(2, [0.5]))
    assert mass_diagonal(np.int64(2)) is mass_diagonal(2)
    assert np.array_equal(deriv_inner_matrix(np.int32(3)), deriv_inner_matrix(3))
    # the entry points on the shared tables: once the entry of r = 1 is
    # cached, 1.0 and True miss it and are rejected as on an empty cache
    part, rule = make_uniform_partition(1.0, 4), default_rule(1)
    A = np.full((4 * rule.q, 1, 1), -1.0)
    decay = IVPRight(F=lambda t, x: -x, dF_dx=lambda t, x: np.full((t.size, 1, 1), -1.0))
    for call in (lambda r: rule_table(r, rule), lambda r: projection_table(r, rule),
                 lambda r: solve_forward(decay, [1.0], part, r),
                 lambda r: solve_backward(decay, [1.0], part, r),
                 lambda r: AffineSystem(A, part, r), lambda r: factored(A, part, r)):
        call(1)
        for r in (1.0, True):
            with pytest.raises(ValueError, match=f"^r must be an integer >= 0, got {r!r}$"):
                call(r)


def test_default_rule_order():
    assert default_rule(2).q == 5


def test_rules_and_their_tables_are_shared_and_read_only():
    rule = default_rule(2)
    assert rule is gauss_rule(5) and rule is not gauss_rule(4)
    P = rule_table(2, rule)
    assert P is rule_table(2, rule)
    assert np.array_equal(P, legendre_table(2, rule.points))
    Q = projection_table(2, rule)
    assert Q is projection_table(2, rule) and Q is not projection_table(2, gauss_rule(4))
    # (2k+1)/2 w_q P_k(xi_q): a left inverse of the table on degree-2 data
    assert np.max(np.abs(Q - np.array([[0.5], [1.5], [2.5]]) * P.T * rule.weights)) <= 1e-15
    assert np.max(np.abs(Q @ P - np.eye(3))) <= 1e-14
    M = mass_diagonal(2)
    assert M is mass_diagonal(2) and M is not mass_diagonal(3)
    sch = _scheme(2, 1)
    scheme_arrays = [a for a in vars(sch).values() if isinstance(a, np.ndarray)]
    assert len(scheme_arrays) == 7
    assert not any(a.flags.writeable for a in [rule.points, rule.weights, P, Q, M, *scheme_arrays])


@pytest.mark.parametrize("N", [1, 2, 7, 33])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_table_is_the_product_on_every_interval(rng, N, d):
    # against the einsum it replaces, on a C-ordered and a non-contiguous input
    T = rng.standard_normal((6, 4))
    A = rng.standard_normal((N, 4, d))
    strided = rng.standard_normal((2 * N, d, 7)).swapaxes(1, 2)[::2, 1:5]   # (N, 4, d)
    for data in (A, strided):
        out = apply_table(T, data)
        ref = np.einsum("ab,nbd->nad", T, data)
        assert out.shape == (N, 6, d)
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_deriv_inner_matrix_against_quadrature():
    r = 5
    rule = gauss_rule(r + 1)
    leg = np.polynomial.legendre
    P = legendre_table(r, rule.points)
    # dP[:, k] = P_k' at the points, from numpy's own Legendre series
    dP = np.stack([leg.legval(rule.points, leg.legder(e)) for e in np.eye(r + 1)], -1)
    # D[j, k] = int P_k' P_j
    ref = np.einsum("q,qj,qk->jk", rule.weights, P, dP)
    assert np.max(np.abs(deriv_inner_matrix(r) - ref)) < 1e-12


def test_mass_diagonal():
    assert mass_diagonal(3) == pytest.approx([2.0, 2.0 / 3.0, 0.4, 2.0 / 7.0])
