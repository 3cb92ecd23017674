"""Time partitions and piecewise-polynomial (DG) function containers.

A DGFunction is a partition and its modal Legendre coefficients, (N, r+1, d):
the degree r and the width d are read from their shape.  It is allowed to
jump at the interior nodes.  One-sided values come from eval_many's `side`,
and the jumps at all interior nodes from DGFunction.jumps; interval-wise L2
projections/norms and total variation live here too.  sample_on_quad samples
a DG function on its own partition only; project_l2 and l2_error also take
callables and DG functions on other partitions.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .basis import default_rule, legendre_table, mass_diagonal, rule_table

__all__ = [
    "Partition",
    "DGFunction",
    "make_uniform_partition",
    "project_l2",
    "modal_from_values",
    "sample_on_quad",
    "l2_error",
    "total_variation",
    "save_dg",
    "load_dg",
]


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing time nodes 0 = t_0 < ... < t_N = T.

    The nodes are a read-only copy of the given array, and the interval
    widths are computed from them once.  The quadrature times are computed
    once per rule (keyed by identity, as in basis.rule_table) and kept,
    read-only.  A partition is compared and hashed by identity, as a
    QuadratureRule is.
    """

    nodes: np.ndarray
    widths: np.ndarray = field(init=False, repr=False)
    _quad_times: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)  # a copy: the caller's array stays writeable
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a partition needs at least two nodes")
        if nodes[0] != 0.0 or not np.all(np.isfinite(nodes)):
            raise ValueError("partition nodes must be finite and start at t = 0")
        widths = np.diff(nodes)
        if np.any(widths <= 0.0):
            raise ValueError("partition nodes must be strictly increasing")
        nodes.flags.writeable = False
        widths.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "widths", widths)

    @property
    def N(self):
        return self.nodes.size - 1

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def h(self):
        return float(np.max(self.widths))

    def reversed(self):
        """Partition with nodes T - t_{N-n} (same interval widths, reversed order)."""
        return Partition(self.T - self.nodes[::-1])

    def quad_times(self, rule):
        """Mapped quadrature times, shape (N, q): read-only."""
        times = self._quad_times.get(rule)
        if times is None:
            left = self.nodes[:-1]
            times = left[:, None] + 0.5 * self.widths[:, None] * (rule.points[None, :] + 1.0)
            times.flags.writeable = False
            self._quad_times[rule] = times
        return times

    def locate(self, ts, side="left"):
        """Interval index for each time; `side`, "left" or "right", picks the
        interval at interior nodes."""
        ts = np.asarray(ts, dtype=float)
        if not np.all((ts >= -1e-12) & (ts <= self.T * (1 + 1e-12) + 1e-12)):  # NaN fails too
            raise ValueError("time outside [0, T]")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        idx = np.searchsorted(self.nodes, ts, side=side) - 1
        return np.clip(idx, 0, self.N - 1)


def make_uniform_partition(T, N):
    """Uniform partition of [0, T] into N intervals."""
    if not 0.0 < T < np.inf:                        # NaN fails too
        raise ValueError("horizon must be positive and finite")
    if N < 1:
        raise ValueError("need at least one interval")
    return Partition(np.linspace(0.0, T, N + 1))


@dataclass(eq=False)
class DGFunction:
    """Piecewise polynomial on a partition, from its modal coefficients
    (N, r+1, d) with r >= 0 and d >= 1; compared and hashed by identity."""

    partition: Partition
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        shape = self.coeffs.shape
        if len(shape) != 3 or shape[0] != self.partition.N or 0 in shape:
            raise ValueError(f"coefficient array must have shape ({self.partition.N}, r+1, d) "
                             f"with r >= 0 and d >= 1, got {shape}")

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    @property
    def dim(self):
        return self.coeffs.shape[2]

    # -- evaluation ---------------------------------------------------------

    def eval_many(self, ts, side="left"):
        """Values at times ts, shape (len(ts), d); side resolves interior nodes."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = self.partition.locate(ts, side=side)
        t0 = self.partition.nodes[idx]
        h = self.partition.widths[idx]
        xi = np.clip(2.0 * (ts - t0) / h - 1.0, -1.0, 1.0)
        P = legendre_table(self.degree, xi)
        return np.einsum("qk,qkd->qd", P, self.coeffs[idx])

    def eval(self, t, side="left"):
        return self.eval_many(np.array([t]), side=side)[0]

    def __call__(self, ts):
        return self.eval_many(ts)

    def values_on_quad(self, rule):
        """Values at the mapped quadrature points of every interval, (N, q, d)."""
        return np.einsum("qk,nkd->nqd", rule_table(self.degree, rule), self.coeffs)

    def jumps(self):
        """[phi]_n = phi_n^+ - phi_n^- at the interior nodes n = 1..N-1, (N-1, d):
        the right trace sum_k (-1)^k c_{n,k} minus the left one sum_k c_{n-1,k}."""
        signs = (-1.0) ** np.arange(self.degree + 1)
        return signs @ self.coeffs[1:] - self.coeffs[:-1].sum(axis=1)

    # -- algebra ------------------------------------------------------------

    def _compatible(self, other):
        if self.coeffs.shape[1:] != other.coeffs.shape[1:]:
            raise ValueError("mismatched degree or dimension")
        if self.partition is not other.partition and not np.array_equal(
                self.partition.nodes, other.partition.nodes):
            raise ValueError("mismatched partitions")

    def __add__(self, other):
        self._compatible(other)
        return DGFunction(self.partition, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._compatible(other)
        return DGFunction(self.partition, self.coeffs - other.coeffs)

    def __mul__(self, a):
        return DGFunction(self.partition, self.coeffs * float(a))

    __rmul__ = __mul__

    def inner(self, other):
        """Exact L2(0,T) inner product with a compatible DGFunction, from the
        modal coefficients (weights h/2 times the reference mass diagonal)."""
        self._compatible(other)
        mass = mass_diagonal(self.degree)
        per = np.einsum("nkd,k->n", self.coeffs * other.coeffs, mass)
        return float(np.sum(0.5 * self.partition.widths * per))

    def l2_norm_sq(self):
        """Exact squared L2(0,T) norm from the modal coefficients."""
        return self.inner(self)

    def l2_norm(self):
        return float(np.sqrt(self.l2_norm_sq()))


def modal_from_values(values, partition, r, rule):
    """Modal DGFunction whose interval-wise L2 projection matches quadrature data.

    `values` holds d columns at the rule's mapped points, as (N*q, d), the
    flattened grid that problem callables return, or as (N, q, d).
    """
    values = np.asarray(values, dtype=float).reshape(partition.N, rule.q, -1)
    P = rule_table(r, rule)
    scale = (2.0 * np.arange(r + 1) + 1.0) / 2.0
    return DGFunction(partition, np.einsum("q,qk,nqd,k->nkd", rule.weights, P, values, scale))


def sample_values(fn, ts, dim=None):
    """Values of a DGFunction or a callable at times ts, shape (len(ts), dim).

    A one-dimensional result is read as a single column; a width other than
    `dim` raises ValueError.
    """
    vals = np.asarray(fn(ts), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if dim is not None and vals.shape[1] != dim:
        raise ValueError(f"callable returned {vals.shape[1]} columns, expected {dim}")
    return vals


def sample_on_quad(F, partition, rule, dim):
    """Values of the DGFunction F at the partition's mapped rule points, (N*q, dim),
    from its coefficients; TypeError for anything else, and ValueError for a
    DGFunction on another partition or of a width other than `dim`."""
    if not isinstance(F, DGFunction):
        raise TypeError("sample_on_quad needs a DGFunction")
    if F.partition is not partition and not np.array_equal(F.partition.nodes, partition.nodes):
        raise ValueError("DG function lives on another partition")
    if F.dim != dim:
        raise ValueError(f"DG function has {F.dim} columns, expected {dim}")
    return F.values_on_quad(rule).reshape(-1, dim)


def project_l2(fn, partition, r, rule=None, dim=None):
    """Interval-wise L2 projection of a callable onto degree-r DG space."""
    rule = rule or default_rule(r)
    ts = partition.quad_times(rule)
    return modal_from_values(sample_values(fn, ts.ravel(), dim), partition, r, rule)


def l2_error(F, ref):
    """Discrete L2 distance between a DG function and a reference.

    Samples both at the r+1 equidistant points of each interval of F (the
    midpoint when r = 0) and returns sqrt(sum_n h_n sum_i |e_i|^2).  The end
    points are F's nodes themselves; a DG reference is read there from inside
    the interval (the left end from the right, the right end from the left),
    so its jumps at F's nodes are not counted as error.  A DG reference of
    another width raises ValueError.
    """
    if isinstance(ref, DGFunction) and ref.dim != F.dim:
        raise ValueError(f"reference has {ref.dim} columns, expected {F.dim}")
    r, part = F.degree, F.partition
    xi = np.linspace(-1.0, 1.0, r + 1) if r > 0 else np.zeros(1)
    mids = 0.5 * (part.nodes[:-1] + part.nodes[1:])
    ts = mids[:, None] + 0.5 * part.widths[:, None] * xi[None, :]
    if r > 0:
        ts[:, 0], ts[:, -1] = part.nodes[:-1], part.nodes[1:]
    if isinstance(ref, DGFunction):
        rv = ref.eval_many(ts.ravel(), side="left").reshape(part.N, r + 1, F.dim)
        if r > 0:
            rv[:, 0, :] = ref.eval_many(ts[:, 0], side="right")
    else:
        rv = sample_values(ref, ts.ravel(), F.dim).reshape(part.N, r + 1, F.dim)
    diff = np.einsum("ij,njd->nid", legendre_table(r, xi), F.coeffs) - rv
    per = np.sum(diff**2, axis=(1, 2))
    return float(np.sqrt(np.sum(part.widths * per)))


def _legcompanion(c):
    """numpy's scaled Legendre companion matrix for each row of c (K, n+1), n >= 1,
    whose last coefficients are nonzero; shape (K, n, n)."""
    n = c.shape[1] - 1
    scl = 1.0 / np.sqrt(2.0 * np.arange(n) + 1.0)
    mat = np.zeros((c.shape[0], n, n))
    i = np.arange(n - 1)
    mat[:, i, i + 1] = mat[:, i + 1, i] = np.arange(1, n) * scl[:-1] * scl[1:]
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * (n / (2 * n - 1))
    return mat


def _critical_points(c):
    """Real roots in (-1, 1) of the derivative of each Legendre series c (K, r+1),
    r >= 2, as (K, r-1); unused slots hold -1, a break that adds no variation.

    The roots are those of np.polynomial.legendre.legroots: the eigenvalues of
    the rotated companion matrix of the derivative with its trailing zeros
    trimmed, batched over the series of equal trimmed length.
    """
    dc = np.polynomial.legendre.legder(c, axis=1)             # (K, r)
    K, r = dc.shape
    nonzero = dc != 0
    length = np.where(nonzero.any(axis=1), r - np.argmax(nonzero[:, ::-1], axis=1), 0)
    out = np.full((K, r - 1), -1.0)
    for L in np.unique(length[length >= 2]):
        rows = np.flatnonzero(length == L)
        z = np.linalg.eigvals(_legcompanion(dc[rows, :L])[:, ::-1, ::-1])
        real = (np.abs(z.imag) < 1e-12) & (-1.0 < z.real) & (z.real < 1.0)
        out[rows, :L - 1] = np.where(real, z.real, -1.0)
    return out


def total_variation(u):
    """Total variation of a piecewise-polynomial control.

    Per component: the exact variation of the polynomial inside each interval
    (split at the real roots of its derivative) plus the interior jump
    magnitudes; the component TVs are summed.  All intervals and components
    are handled at once.
    """
    if not isinstance(u, DGFunction):
        raise TypeError("total variation needs a DGFunction")

    r = u.degree
    c = np.moveaxis(u.coeffs, 2, 1).reshape(-1, r + 1)         # one series per (n, comp)
    breaks = np.broadcast_to([-1.0, 1.0], (c.shape[0], 2))
    if r >= 2:
        breaks = np.concatenate((breaks, _critical_points(c)), axis=1)
    vals = np.polynomial.legendre.legval(np.sort(breaks, axis=1), c.T[:, :, None], tensor=False)
    return float(np.sum(np.abs(np.diff(vals, axis=1))) + np.sum(np.abs(u.jumps())))


def save_dg(F, path):
    """Plain-text dump: header (N, r, d, nodes), one row of modal coeffs per interval."""
    with open(path, "w") as fh:
        fh.write(f"# N={F.partition.N} r={F.degree} d={F.dim}\n")
        fh.write("# nodes=" + ",".join(repr(float(t)) for t in F.partition.nodes) + "\n")
        for n in range(F.partition.N):
            row = F.coeffs[n].reshape(-1)
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_dg(path):
    """Inverse of save_dg."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(kv.split("=") for kv in header.lstrip("# ").split())
        N, r, d = int(fields["N"]), int(fields["r"]), int(fields["d"])
        nodes = np.array([float(v) for v in fh.readline().split("=", 1)[1].split(",")])
        data = np.loadtxt(io.StringIO(fh.read()), delimiter=",", ndmin=2)
    return DGFunction(Partition(nodes), data.reshape(N, r + 1, d))
