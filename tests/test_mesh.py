"""Partitions, DG function containers, norms, projections, total variation."""

import numpy as np
import pytest

import dgocp.mesh
from dgocp import (
    DGFunction,
    Partition,
    gauss_rule,
    l2_error,
    load_dg,
    make_uniform_partition,
    project_l2,
    save_dg,
    total_variation,
)
from dgocp.mesh import sample_on_quad
from dgocp.oracles import random_dg
from dgocp.problems import linear_lq

from conftest import project_callable


# -- partitions ---------------------------------------------------------------


def test_make_uniform_partition_examples():
    part = make_uniform_partition(1.0, 10)
    assert part.h == pytest.approx(0.1)
    assert part.nodes[3] == pytest.approx(0.3)
    part2 = make_uniform_partition(0.2, 2)
    assert part2.nodes == pytest.approx([0.0, 0.1, 0.2])
    part3 = make_uniform_partition(1.0, 320)
    assert part3.h == pytest.approx(0.1 * 2.0**-5)


def test_partition_validation():
    with pytest.raises(ValueError):
        make_uniform_partition(0.0, 4)
    for T in (np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            make_uniform_partition(T, 4)
    for nodes in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            Partition(np.array(nodes))
    with pytest.raises(ValueError):
        make_uniform_partition(1.0, 0)
    with pytest.raises(ValueError):
        Partition(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))  # strictly increasing
    for nodes in (np.array([0.0]), np.array([[0.0, 0.5], [0.5, 1.0]])):
        with pytest.raises(ValueError, match="at least two nodes"):
            Partition(nodes)


def test_partition_reversed():
    part = Partition(np.array([0.0, 0.2, 0.5, 1.0]))
    rev = part.reversed()
    assert rev.nodes == pytest.approx([0.0, 0.5, 0.8, 1.0])
    assert np.sort(rev.widths) == pytest.approx(np.sort(part.widths))


def test_partition_keeps_a_frozen_copy_of_its_nodes():
    nodes = np.array([0.0, 0.1, 0.35, 0.5, 1.0])
    part = Partition(nodes)
    assert np.array_equal(part.widths, np.diff(nodes))
    assert not part.nodes.flags.writeable and not part.widths.flags.writeable
    assert nodes.flags.writeable
    nodes[1] = 0.2  # the caller's array is a copy, so the stored widths cannot go stale
    assert part.nodes[1] == 0.1 and np.array_equal(part.widths, np.diff(part.nodes))


def test_partition_reversal_and_cached_quadrature_times():
    part = Partition(np.linspace(0.0, 1.0, 9) ** 2)   # graded
    rev = part.reversed()
    assert not rev.nodes.flags.writeable and not rev.widths.flags.writeable
    assert np.array_equal(rev.nodes, part.T - part.nodes[::-1])
    assert np.allclose(rev.widths, part.widths[::-1], rtol=0.0, atol=4e-16)
    for q in (1, 4):
        rule = gauss_rule(q)
        times = part.quad_times(rule)
        assert part.quad_times(rule) is times and not times.flags.writeable
        formula = part.nodes[:-1, None] + 0.5 * part.widths[:, None] * (rule.points + 1.0)
        assert np.array_equal(times, formula)
    # the cache is keyed by the rule object, not by its values
    copy = type(rule)(rule.points.copy(), rule.weights.copy())
    assert part.quad_times(copy) is not times
    assert np.array_equal(part.quad_times(copy), times)


def test_partitions_and_dg_functions_compare_by_identity():
    # equal nodes or coefficients make two objects alike, not equal: value
    # equality on array fields would raise instead of returning a bool
    a, b = make_uniform_partition(1.0, 4), make_uniform_partition(1.0, 4)
    assert a == a and a != b and len({a, b, a}) == 2
    f, g = DGFunction(a, np.zeros((4, 2, 1))), DGFunction(a, np.zeros((4, 2, 1)))
    assert f == f and f != g and len({f, g, f}) == 2


def test_algebra_needs_matching_partitions():
    part = make_uniform_partition(1.0, 4)
    F = DGFunction(part, np.ones((4, 2, 1)))
    assert np.array_equal((F + F).coeffs, 2.0 * F.coeffs)
    same_nodes = DGFunction(Partition(part.nodes), np.ones((4, 2, 1)))
    assert np.array_equal((F - same_nodes).coeffs, np.zeros((4, 2, 1)))
    other = DGFunction(Partition(np.array([0.0, 0.2, 0.5, 0.7, 1.0])), np.zeros((4, 2, 1)))
    with pytest.raises(ValueError, match="mismatched partitions"):
        F + other
    with pytest.raises(ValueError, match="mismatched partitions"):
        F.inner(other)
    with pytest.raises(ValueError, match="mismatched degree"):
        F + DGFunction(part, np.zeros((4, 3, 1)))


# -- evaluation, traces, jumps ------------------------------------------------


def test_eval_constant():
    part = make_uniform_partition(1.0, 5)
    F = DGFunction(part, np.zeros((5, 3, 1)))
    F.coeffs[:, 0, 0] = 7.5
    for t in (0.0, 0.13, 0.6, 1.0):
        assert F.eval(t)[0] == pytest.approx(7.5, abs=1e-14)


def test_eval_reproduces_linear():
    part = make_uniform_partition(1.0, 4)
    F = project_callable(lambda t: t, part, 1)
    assert F.eval(0.25, side="left")[0] == pytest.approx(0.25, abs=1e-14)
    assert F.eval(0.25, side="right")[0] == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("side", ["middle", None, "Left"])
def test_eval_rejects_an_unknown_side(side):
    F = project_callable(lambda t: t, make_uniform_partition(1.0, 4), 1)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        F.eval_many([0.25, 0.5], side=side)


def test_eval_sides_and_jump():
    part = make_uniform_partition(1.0, 2)
    F = DGFunction(part, np.zeros((2, 1, 1)))
    F.coeffs[0, 0, 0] = 0.0
    F.coeffs[1, 0, 0] = 1.0
    assert F.eval(0.5, side="left")[0] == 0.0
    assert F.eval(0.5, side="right")[0] == 1.0
    assert F.jumps().shape == (1, 1)
    assert F.jumps()[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        F.eval(-0.1)
    with pytest.raises(ValueError, match="outside"):
        F.eval(np.nan)


def test_trace_consistency(rng):
    for N in (1, 6):      # one interval has no interior node: no jumps
        part = make_uniform_partition(1.0, N)
        F = random_dg(rng, part, 3, dim=2)
        jumps = F.jumps()
        assert jumps.shape == (N - 1, 2)
        for n in range(1, N):
            t = part.nodes[n]
            diff = F.eval(t, side="right") - F.eval(t, side="left")
            assert np.max(np.abs(diff - jumps[n - 1])) < 1e-14


def test_sample_on_quad_matches_eval_many(rng):
    part = Partition(np.linspace(0.0, 1.0, 8) ** 1.5)
    rule = gauss_rule(4)
    ts = part.quad_times(rule).ravel()
    for r in range(4):
        F = random_dg(rng, part, r, dim=2)
        for on in (part, Partition(part.nodes)):  # the same object, and equal nodes
            vals = sample_on_quad(F, on, rule, 2)
            assert vals.shape == (ts.size, 2)
            assert np.max(np.abs(vals - F.eval_many(ts))) <= 1e-15


def test_sample_on_quad_takes_only_dg_functions_on_its_partition(monkeypatch, rng):
    # only a DG function on the given partition is sampled, from its
    # coefficients: a callable raises TypeError, a DG function on another
    # partition or of another width ValueError, and sample_values never runs
    calls, original = [], dgocp.mesh.sample_values

    def counting(fn, ts, dim=None):
        calls.append(fn)
        return original(fn, ts, dim)

    monkeypatch.setattr(dgocp.mesh, "sample_values", counting)
    part, rule = make_uniform_partition(1.0, 4), gauss_rule(3)
    F = random_dg(rng, part, 2)
    sample_on_quad(F, part, rule, 1)
    for fn in (np.sin, lambda t: np.ones((t.size, 1))):
        with pytest.raises(TypeError):
            sample_on_quad(fn, part, rule, 1)
    # other nodes: fewer intervals, or as many but graded
    for other in (make_uniform_partition(1.0, 3), Partition(np.linspace(0.0, 1.0, 5) ** 1.5)):
        with pytest.raises(ValueError, match="another partition"):
            sample_on_quad(random_dg(rng, other, 2), part, rule, 1)
    with pytest.raises(ValueError, match="expected 3"):
        sample_on_quad(F, part, rule, 3)
    assert calls == []


def test_coefficient_shape_validation():
    # the degree and the width are read from the coefficients, so they are
    # ints and cannot be set
    part = make_uniform_partition(1.0, 3)
    F = DGFunction(part, np.zeros((3, 3, 2)))
    assert (F.degree, F.dim) == (2, 2) and type(F.degree) is int
    with pytest.raises(AttributeError):
        F.degree = 1
    for shape in ((3, 2), (4, 2, 1), (3, 0, 1), (3, 2, 0)):
        with pytest.raises(ValueError, match="coefficient array must have shape"):
            DGFunction(part, np.zeros(shape))


# -- errors and norms ---------------------------------------------------------


def test_l2_error_exact_match(rng):
    part = make_uniform_partition(1.0, 5)
    F = project_callable(lambda t: 2.0 * t - 1.0, part, 2)
    assert l2_error(F, lambda t: 2.0 * t - 1.0) < 1e-13


def test_l2_error_unit_offset():
    # piecewise constants: the sampled norm equals the continuous L2 norm
    part = make_uniform_partition(1.0, 10)
    F = DGFunction(part, np.zeros((10, 1, 1)))
    assert l2_error(F, lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_l2_error_reads_each_end_from_inside_its_interval(r):
    # a unit step at a node of F's partition, against the same step on a
    # 128x finer partition that contains F's nodes: the end points are read
    # at the nodes themselves, from inside the interval, so no error is seen
    ref_part = make_uniform_partition(0.2, 1024)
    part = Partition(ref_part.nodes[::128])
    for n in range(1, part.N):
        F = DGFunction(part, np.zeros((part.N, r + 1, 1)))
        F.coeffs[n:, 0, 0] = 1.0
        ref = DGFunction(ref_part, np.zeros((ref_part.N, 4, 1)))
        ref.coeffs[128 * n:, 0, 0] = 1.0
        assert l2_error(F, ref) == 0.0, f"step at t={part.nodes[n]}"


def test_l2_error_rejects_a_reference_of_another_width(rng):
    part = make_uniform_partition(1.0, 4)
    F = random_dg(rng, part, 2)
    # on F's partition and on another one; a callable is checked when sampled
    for ref in (random_dg(rng, part, 2, dim=2),
                random_dg(rng, make_uniform_partition(1.0, 8), 1, dim=3)):
        with pytest.raises(ValueError, match=f"{ref.dim} columns, expected 1"):
            l2_error(F, ref)
    with pytest.raises(ValueError, match="2 columns, expected 1"):
        l2_error(F, lambda t: np.ones((t.size, 2)))


def test_l2_error_triangle_inequality(rng):
    part = make_uniform_partition(1.0, 4)
    for _ in range(10):
        A = random_dg(rng, part, 2)
        B = random_dg(rng, part, 2)
        C = random_dg(rng, part, 2)
        ac = l2_error(A, C)
        ab = l2_error(A, B)
        bc = l2_error(B, C)
        assert ac <= ab + bc + 1e-14


def test_l2_norm_matches_quadrature(rng):
    part = make_uniform_partition(1.0, 4)
    F = random_dg(rng, part, 3, dim=2)
    rule = gauss_rule(6)
    per = np.einsum("q,nqd->n", rule.weights, F.values_on_quad(rule) ** 2)
    assert F.l2_norm() == pytest.approx(np.sqrt(np.sum(0.5 * part.widths * per)), abs=1e-13)


# -- projection ---------------------------------------------------------------


def test_project_l2_reproduces_polynomials():
    part = make_uniform_partition(1.0, 3)
    F = project_l2(lambda t: t, part, 1)
    assert l2_error(F, lambda t: t) < 1e-13


def test_project_l2_mean_value():
    part = make_uniform_partition(1.0, 1)
    F = project_l2(lambda t: t**2, part, 0)
    assert F.coeffs[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_project_l2_first_order_decay():
    # the error is measured against the degree-8 projection, with P0 u
    # padded to degree 8
    exact_u = linear_lq().exact_control
    errs = []
    for N in (10, 20, 40):
        part = make_uniform_partition(1.0, N)
        F = project_l2(exact_u, part, 0)
        padded = DGFunction(part, np.pad(F.coeffs, ((0, 0), (0, 8), (0, 0))))
        errs.append((padded - project_l2(exact_u, part, 8)).l2_norm())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 1.0) < 0.05)


def test_projection_idempotence(rng):
    part = make_uniform_partition(1.0, 4)
    F = project_l2(lambda t: np.sin(3.0 * t), part, 3)
    G = project_l2(F, part, 3)
    assert np.max(np.abs(F.coeffs - G.coeffs)) < 1e-13


# -- total variation ----------------------------------------------------------


def test_total_variation_examples():
    part = make_uniform_partition(1.0, 4)
    const = DGFunction(part, np.zeros((4, 2, 1)))
    const.coeffs[:, 0, 0] = 3.0
    assert total_variation(const) == pytest.approx(0.0, abs=1e-14)

    part2 = make_uniform_partition(1.0, 2)
    step = DGFunction(part2, np.zeros((2, 1, 1)))
    step.coeffs[1, 0, 0] = 1.0
    assert total_variation(step) == pytest.approx(1.0, abs=1e-14)

    part1 = make_uniform_partition(1.0, 1)
    lin = project_callable(lambda t: 2.0 * t, part1, 1)
    assert total_variation(lin) == pytest.approx(2.0, abs=1e-13)


def test_total_variation_interior_extremum():
    # quadratic with a max inside the interval: variation counts both slopes
    part = make_uniform_partition(1.0, 1)
    F = project_callable(lambda t: t * (1.0 - t), part, 2)
    assert total_variation(F) == pytest.approx(0.5, abs=1e-13)


def _total_variation_per_interval(u):
    """The per-interval formula: legroots of each derivative, then legval."""
    tv = 0.0
    for n in range(u.partition.N):
        for comp in range(u.dim):
            c = u.coeffs[n, :, comp]
            breaks = [-1.0, 1.0]
            if u.degree >= 2:
                roots = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(c))
                breaks += [float(z.real) for z in roots
                           if abs(z.imag) < 1e-12 and -1.0 < z.real < 1.0]
            vals = np.polynomial.legendre.legval(np.sort(breaks), c)
            tv += float(np.sum(np.abs(np.diff(vals))))
    return tv + float(np.sum(np.abs(u.jumps())))


@pytest.mark.parametrize("r", range(6))
def test_total_variation_matches_per_interval_formula(rng, r):
    part = Partition(np.array([0.0, 0.05, 0.2, 0.3, 0.55, 0.6, 0.9, 1.0]))
    for dim in (1, 2):
        u = DGFunction(part, rng.standard_normal((part.N, r + 1, dim)))
        if r >= 2:
            u.coeffs[1, r, 0] = 0.0      # derivative with a zero leading coefficient
            u.coeffs[2, 2:, -1] = 0.0    # a linear piece among higher-degree ones
            u.coeffs[4, 1:, 0] = 0.0     # a constant piece: derivative all zero
        ref = _total_variation_per_interval(u)
        assert total_variation(u) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_total_variation_closed_form_unsupported():
    with pytest.raises(TypeError):
        total_variation(lambda t: np.sin(t))


# -- serialization ------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, rng):
    part = make_uniform_partition(0.2, 5)
    F = random_dg(rng, part, 2, dim=3)
    path = tmp_path / "dump.csv"
    save_dg(F, path)
    G = load_dg(path)
    assert G.degree == F.degree and G.dim == F.dim
    assert np.array_equal(G.partition.nodes, F.partition.nodes)
    assert np.array_equal(G.coeffs, F.coeffs)
