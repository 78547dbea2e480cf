"""Radial meshes and calculus for radially symmetric fields on the plane.

Everything downstream (profile construction, linearized operators, the
time stepper) works on a fixed nonuniform radial mesh: uniform spacing on a
core interval where the bubble lives, geometric stretching beyond it so that
very large outer radii stay cheap.  Derivatives use parity-aware finite
difference stencils (fields are extended evenly or oddly through r=0 with
ghost nodes), and integrals use composite interpolatory quadrature that is
exact per cell for polynomials up to the stencil order.  Weighted cumulative
integrals carry an ``r log r`` weight analytically on the first cell, where
naive interpolation of log-singular integrands loses accuracy; each is one
product of the weight's cell matrix with the values, of one field or of an
(n, k) block of k fields, column by column bitwise alike.
`RadialGrid.make` refuses, before it lays out a node, a radius past
`max_radius` of its stencil order, beyond which the stencil weights
overflow, and a grid of more than MAX_NODES nodes; a grid built from
given nodes is held to the same radius.

All objects are immutable after construction, apart from a grid's one
cache, `RadialGrid.memo`, read through `RadialGrid.cached`; operations are
pure functions returning new fields, so grids and fields can be shared
freely across threads or processes.  The cache holds data derived from
the nodes alone: the grid's own operator matrices and weights, and what
downstream layers derive from them (the profiles' b-independent arrays,
the spline factorization).  Each entry is built once, on first use.  Every
entry is an array, a sparse matrix or a record of them, never a field:
nothing in the memo refers back to the grid, so a dropped grid is freed
by reference count, with its memo.  Assembly does each piece of work once
per grid: one entry holds all four cell-quadrature matrices, built from
one evaluation of the Lagrange basis at the Gauss points, and each
derivative matrix is its own entry, built on first request from its
stencil's one Fornberg pass, itself an entry, which serves both parities
of a mirrored stencil.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class GridError(ValueError):
    pass


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

_PARITY_SIGN = {"even": 1.0, "odd": -1.0}

# `RadialGrid.make` spaces nodes uniformly on [0, R_CORE], where the bubble
# lives, and geometrically beyond
R_CORE = 10.0
# the most nodes `RadialGrid.make` lays out: every grid of the runs, the
# CLI, the tests and the benchmark has fewer than 1000, and a profile
# family on this many peaks near 0.3 GiB
MAX_NODES = 100_000


def max_radius(stencil_order):
    """The largest radius of a grid of this stencil order p.

    A difference stencil of order k <= 3 multiplies p + k - 1 <= p + 2 node
    differences, each below the radius, so it stays finite up to the
    (p + 2)-th root of the largest double.  Scanned on `RadialGrid.make`
    grids (h_core 0.05, 48 nodes per decade, both parities of D1 and D2
    and the quadrature weights): the first RuntimeWarning comes at 10^77.5,
    62.75, 45.0, 35.25, 24.5 and 18.75 for p = 2, 4, 6, 8, 12 and 16, and
    the bound at 10^77.1, 51.4, 38.5, 30.8, 22.0 and 17.1.
    """
    return np.finfo(float).max ** (1.0 / (stencil_order + 2))


_WEIGHT_FUNCTIONS = {
    "one": np.ones_like,
    "r": lambda t: t,
    "r3": lambda t: t ** 3,
    "rlogr": lambda t: t * np.log(t),
}


def fd_weights(z, x, m):
    """Finite-difference weights at points z from stencils x for derivatives 0..m.

    Fornberg's recursion (Math. Comp. 51, 1988), run on all stencils at
    once: z has shape (n,) and row i of x (shape (n, w)) is the stencil of
    z[i].  Returns an array of shape (n, w, m+1) whose [i, :, k] gives the
    weights of the k-th derivative at z[i].
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float).T
    w = x.shape[0]
    c = np.zeros((w, m + 1, len(z)))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, w):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c.transpose(2, 0, 1)


def node_counts(r_max, h_core, nodes_per_decade):
    """(cells of the uniform core, nodes of the geometric tail) of the grid
    `RadialGrid.make` lays out for these arguments, which has their sum
    plus one nodes; counted without laying out any, as floats (inf if
    r_max / h_core overflows)."""
    n_tail = 0
    if r_max > R_CORE:
        n_tail = max(np.ceil(nodes_per_decade * np.log10(r_max / R_CORE)), 4)
    return max(np.ceil(min(R_CORE, r_max) / h_core), 8), n_tail


class RadialGrid:
    """Nonuniform radial mesh with differentiation and quadrature operators.

    Parameters
    ----------
    nodes : array
        Strictly increasing radii with ``nodes[0] == 0``.
    stencil_order : int
        Target convergence order p (>= 2).  A derivative of order k uses a
        p+k point stencil; quadrature interpolates through p+1 nodes per cell.
    """

    def __init__(self, nodes, stencil_order=4):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < stencil_order + 4:
            raise GridError("grid too coarse for stencil order %d" % stencil_order)
        if nodes[0] != 0.0:
            raise GridError("first node must be exactly r=0")
        if np.any(np.diff(nodes) <= 0.0):
            raise GridError("nodes must be strictly increasing")
        if stencil_order < 2:
            raise GridError("stencil order must be >= 2")
        _check_radius(nodes[-1], stencil_order)
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self.stencil_order = int(stencil_order)
        self.r_max = float(nodes[-1])
        self.n = len(nodes)
        # the grid's one cache (see `cached`); it holds arrays only, so
        # whatever is derived from the grid dies with it by reference count
        self.memo = {}

    def cached(self, key, build, *args):
        """memo[key], built as build(*args) on the first call with key.

        build returns an array, a sparse matrix or a record of them, never
        a field or anything else that refers back to the grid."""
        if key not in self.memo:
            self.memo[key] = build(*args)
        return self.memo[key]

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, r_max, h_core=0.02, nodes_per_decade=48, stencil_order=4):
        """Standard mesh: uniform spacing h_core up to R_CORE, then a
        geometric tail of >= nodes_per_decade nodes per decade.  GridError,
        before any node is laid out, if r_max exceeds `max_radius` of the
        stencil order or the grid has more than MAX_NODES."""
        _check_radius(r_max, stencil_order)
        n_core, n_tail = node_counts(r_max, h_core, nodes_per_decade)
        if n_core + n_tail + 1 > MAX_NODES:
            raise GridError("a grid of %.3g nodes exceeds MAX_NODES = %d"
                            % (n_core + n_tail + 1, MAX_NODES))
        n_core, n_tail = int(n_core), int(n_tail)
        r_core = min(R_CORE, r_max)
        core = np.linspace(0.0, r_core, n_core + 1)
        tail = r_core * (r_max / r_core) ** (np.arange(1, n_tail + 1) / n_tail)
        return cls(np.concatenate([core, tail]), stencil_order=stencil_order)

    @classmethod
    def reference(cls):
        """Grid used by the ground-state identity checks and CLI defaults.

        r_max = 1e4 keeps log-moment truncation tails (~ log R / R^2) below
        the 1e-6 tolerances of the pointwise identities; order 6 keeps the
        cumulative quadrature on the stretched region below that too.
        """
        return cls.make(1.0e4, h_core=0.02, nodes_per_decade=48, stencil_order=6)

    # -- differentiation ---------------------------------------------------

    def diff_matrix(self, order, parity):
        """Sparse matrix of the order-th derivative for fields of given parity.

        Ghost nodes mirrored through r=0 keep the stencil centered near the
        origin; their weights fold back with the parity sign, so even fields
        get exactly zero odd derivatives at r=0.  Each matrix is built on
        first request.
        """
        if parity not in _PARITY_SIGN and parity != "none":
            raise GridError("parity must be 'even', 'odd' or 'none'")
        if not 1 <= order <= 3:
            raise GridError("derivative order must be 1, 2 or 3")
        return self.cached(("diff", order, parity), self._diff, order, parity)

    def _diff(self, order, parity):
        """The order-th derivative matrix of one parity: "even" and "odd"
        on the ghost-mirrored stencil, "none" on the one-sided one (no
        ghosts near the origin), from the stencil's one Fornberg pass, kept
        in the memo as the ("stencil", order, mirrored) record, so both
        parities of the mirrored stencil share it."""
        return _stencil_csr(*self._stencil(order, parity != "none"), parity,
                            self.n)

    def _stencil(self, order, mirrored):
        """`_build_diff`'s (wts, j0), built once per grid."""
        return self.cached(("stencil", order, mirrored), self._build_diff,
                           order, mirrored)

    def _build_diff(self, order, mirrored):
        """(wts, j0): the order-th derivative weights of the stencil, (n, w)
        with w = p + order, and the index of each row's first stencil node
        in the node list extended by w mirrored ghosts (none if not
        mirrored); the stencil's nodes are consecutive.  One Fornberg pass
        over every row."""
        r = self.nodes
        n = self.n
        w = self.stencil_order + order
        nghost = w if mirrored else 0
        r_ext = np.concatenate([-r[nghost:0:-1], r]) if nghost else r
        j0 = np.clip(np.arange(n) + nghost - (w - 1) // 2, 0, len(r_ext) - w)
        return fd_weights(r, r_ext[j0[:, None] + np.arange(w)],
                          order)[:, :, order], j0

    # -- quadrature --------------------------------------------------------

    @property
    def quad_weights(self):
        """Per-node weights for integral f -> int_0^{r_max} f(r) r dr."""
        return self.cached("quad_weights", self._node_weights, "r")

    @property
    def positive_quad_weights(self):
        """Strictly positive weights for int f r dr, exact for piecewise
        linear f.  Used as the discrete metric in norms and eigensolves,
        where the high-order interpolatory weights (which may carry small
        negative entries) would break positivity."""
        return self.cached("positive_quad_weights", self._positive_weights)

    def _positive_weights(self):
        r = self.nodes
        h = np.diff(r)
        w = np.zeros(self.n)
        w[:-1] += h * (2.0 * r[:-1] + r[1:]) / 6.0
        w[1:] += h * (r[:-1] + 2.0 * r[1:]) / 6.0
        w.setflags(write=False)
        return w

    def _cell_matrix(self, weight):
        if weight not in _WEIGHT_FUNCTIONS:
            raise GridError("unknown quadrature weight %r" % weight)
        return self.cached("cells", self._cell_weights)[weight]

    def _cell_weights(self):
        """Interpolatory cell matrices for the integrands f(tau)*w(tau), one
        per weight w of _WEIGHT_FUNCTIONS, by name.

        Each is the CSR matrix C of shape (n-1, n) with (C @ f)[i] the
        integral over cell [r_i, r_{i+1}]; row i holds, in column order, the
        weights of the p+1 nodes from j0[i] on.  Cells are exact for
        polynomial f of degree <= stencil order.  Only the Gauss weights
        depend on w: the Lagrange basis at the Gauss points is evaluated
        once, and the matrices share their index arrays.
        """
        r = self.nodes
        p = self.stencil_order
        ncell = self.n - 1
        j0 = np.clip(np.arange(ncell) - (p - 1) // 2, 0, self.n - (p + 1))
        cols = j0[:, None] + np.arange(p + 1)
        xs = r[cols]
        a, b = r[:-1, None], r[1:, None]
        tg = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        # barycentric Lagrange basis at the Gauss points
        diff = tg[:, :, None] - xs[:, None, :]
        bw = _bary_weights(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            lag = bw[:, None, :] / diff
            lag /= lag.sum(axis=2)[:, :, None]
        hit = np.isclose(diff, 0.0)
        if hit.any():
            lag[hit.any(axis=2)] = 0.0
            lag[hit] = 1.0
        wg = 0.5 * (b - a) * _GL_WEIGHTS  # each cell's Gauss weights
        indices = cols.ravel().astype(np.int32)
        indptr = np.arange(0, indices.size + 1, p + 1, dtype=np.int32)
        out = {}
        for weight, fn in _WEIGHT_FUNCTIONS.items():
            cw = np.matmul((wg * fn(tg))[:, None, :], lag)[:, 0]
            if weight == "rlogr":
                cw[0] = _first_cell_rlogr(xs[0], r[1])
            out[weight] = sparse.csr_matrix((cw.ravel(), indices, indptr),
                                            shape=(ncell, self.n))
        return out

    def _node_weights(self, weight):
        """Weights l with l @ f = int_0^{r_max} f(tau) w(tau) dtau.

        The column sums of the cell matrix, accumulated stencil position by
        stencil position (all cells' first weights, then all second ones):
        the order of the loop oracle in tests/test_grid.py, which these
        weights match bit for bit.  Read-only.
        """
        cells = self._cell_matrix(weight)
        p1 = self.stencil_order + 1
        out = np.bincount(cells.indices.reshape(-1, p1).T.ravel(),
                          weights=cells.data.reshape(-1, p1).T.ravel(),
                          minlength=self.n)
        out.setflags(write=False)
        return out

    def cumulative_integral(self, values, weight="r"):
        """Cumulative integral g(r_k) = int_0^{r_k} values(tau) w(tau) dtau,
        of each column of values (shape (n,) or (n, k))."""
        values = np.asarray(values, dtype=float)
        out = np.empty(values.shape)
        out[0] = 0.0
        np.cumsum(self._cell_matrix(weight) @ values, axis=0, out=out[1:])
        return out

    def divide_by_r(self, values, parity):
        """values/r with the r=0 entry filled by the parity-consistent limit.

        Odd fields give f'(0); even fields vanishing at the origin give 0.
        Columns of values of shape (n, k) are divided independently.
        """
        out = np.empty_like(np.asarray(values, dtype=float))
        out[1:] = values[1:] / per_node(self.nodes, out)[1:]
        out[0] = self.odd_origin(values) if parity == "odd" else 0.0
        return out

    def odd_origin(self, values):
        """Row 0 of diff_matrix(1, "odd") @ values (shape (n,) or (n, k)),
        the derivative at r = 0 of an odd field, bit for bit the CSR row
        product without the other rows."""
        cols, weights = self.cached("odd_origin", self._odd_origin_row)
        # summed from 0.0 in stored order, as the CSR row product sums
        acc = 0.0
        for w, v in zip(weights, values[cols]):
            acc = acc + w * v
        return acc

    def _odd_origin_row(self):
        """(columns, weights) of row 0 of diff_matrix(1, "odd"), from row 0
        of the mirrored order-1 stencil alone."""
        wts, j0 = self._stencil(1, True)
        csr = _stencil_csr(wts[:1], j0[:1], "odd", self.n)
        end = csr.indptr[1]
        return csr.indices[:end], csr.data[:end].tolist()


def _check_radius(r_max, stencil_order):
    if not r_max <= max_radius(stencil_order):
        raise GridError("a grid of radius %.3g exceeds the largest radius "
                        "of stencil order %d, %.3g"
                        % (r_max, stencil_order, max_radius(stencil_order)))


def _stencil_csr(wts, j0, parity, n):
    """The CSR matrix of rows of stencil weights wts (k, w) at the
    consecutive extended node indices j0 + (0, ..., w - 1), over n columns,
    for a field of the parity.

    The extended list starts with the stencil width w of mirrored ghosts
    unless parity is "none".  The CSR arrays are read off the weights
    directly; the ghost at stencil position k, extended index jext, has its
    mirror image at position k + 2 (w - jext) of the same row, and adds its
    weight there times the parity sign.  A ghost
    and its mirror are the only two terms that share a column (they sum
    exactly to zero for odd derivatives of even fields at r=0), and exact
    zeros are not stored.
    """
    nghost = 0 if parity == "none" else wts.shape[1]
    jext = j0[:, None] + np.arange(wts.shape[1])
    rows, k = np.nonzero(jext < nghost)
    vals = wts.copy()
    vals[rows, k + 2 * (nghost - jext[rows, k])] += (
        _PARITY_SIGN.get(parity, 0.0) * wts[rows, k])
    keep = (jext >= nghost) & (vals != 0.0)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix((vals[keep], jext[keep] - nghost, indptr),
                             shape=(len(wts), n))


def per_node(coef, values):
    """A per-node coefficient of shape (n,) shaped to scale the array values,
    of shape (n,) or (n, k), row by row."""
    return coef[:, None] if values.ndim == 2 else coef


def cutoff(x, width=1.0):
    """Smooth cutoff: 1 for x <= 1, 0 for x >= 1 + width, C-infinity between.

    Any width <= 1 stays inside the canonical [1, 2] transition class.  Wide
    transitions keep localization tails gentle; narrow ones concentrate
    pairing windows.
    """
    x = np.asarray(x, dtype=float)
    hi = 1.0 + width
    out = np.zeros_like(x)
    out[x <= 1.0] = 1.0
    mid = (x > 1.0) & (x < hi)
    if mid.any():
        t = (x[mid] - 1.0) / width
        a = np.exp(-1.0 / (1.0 - t))
        bxp = np.exp(-1.0 / t)
        out[mid] = a / (a + bxp)
    return out


def _bary_weights(xs):
    """Barycentric weights of each row of xs (shape (ncell, p+1))."""
    d = xs[:, :, None] - xs[:, None, :]
    k = np.arange(xs.shape[1])
    d[:, k, k] = 1.0
    return 1.0 / d.prod(axis=2)


def _first_cell_rlogr(xs, b):
    """Exact integral of Lagrange basis times tau*log(tau) on [0, b].

    Works in the scaled monomial basis u = tau/b; the moments
    int_0^b u^m tau log(tau) dtau have the closed form
    b^2 [log(b)/(m+2) - 1/(m+2)^2].
    """
    u = xs / b
    V = np.vander(u, increasing=True)  # V[a, m] = u_a**m
    m = np.arange(len(xs))
    moments = b * b * (np.log(b) / (m + 2) - 1.0 / (m + 2) ** 2)
    return np.linalg.solve(V.T, moments)


class RadialField:
    """Sampled radial function with a parity tag governing r=0 stencils."""

    __slots__ = ("grid", "values", "parity")

    def __init__(self, grid, values, parity="even"):
        if parity not in _PARITY_SIGN and parity != "none":
            raise GridError("parity must be 'even', 'odd' or 'none'")
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise GridError("field values do not match grid size")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.parity = parity


class FieldPair:
    """State pair: density u and chemoattractant gradient dv/dr."""

    __slots__ = ("density", "chem_gradient")

    def __init__(self, density, chem_gradient):
        if density.grid is not chem_gradient.grid:
            raise GridError("pair components live on different grids")
        self.density = density
        self.chem_gradient = chem_gradient

    @property
    def grid(self):
        return self.density.grid


# -- module level operations ------------------------------------------------

def derivative(f: RadialField, order: int) -> RadialField:
    """Finite-difference derivative; parity flips with each odd order."""
    g = f.grid
    vals = g.diff_matrix(order, f.parity) @ f.values
    parity = f.parity if order % 2 == 0 else ("odd" if f.parity == "even" else "even")
    return RadialField(g, vals, parity)


def radial_laplacian(f: RadialField) -> RadialField:
    """Delta f = f'' + f'/r for even fields, with the limit 2 f''(0) at r=0."""
    if f.parity != "even":
        raise GridError("radial laplacian requires an even field")
    return RadialField(f.grid, laplacian_values(f.grid, f.values), "even")


def laplacian_values(grid, values):
    """`radial_laplacian` of the values of an even field (shape (n,), or
    (n, k) for k fields), as an array."""
    d1 = grid.diff_matrix(1, "even") @ values
    d2 = grid.diff_matrix(2, "even") @ values
    out = d2 + grid.divide_by_r(d1, "odd")
    out[0] = 2.0 * d2[0]
    return out


def div_from_grad_values(grid, gvals):
    """(1/r) d/dr (r w) for the values of an odd flux w (shape (n,) or
    (n, k)): the laplacian of its potential, with the limit 2 w'(0) at r=0."""
    out = grid.divide_by_r(
        grid.diff_matrix(1, "even") @ (per_node(grid.nodes, gvals) * gvals),
        "odd")
    out[0] = 2.0 * grid.odd_origin(gvals)
    return out


def integrate(f: RadialField) -> float:
    """2*pi * int_0^{r_max} f r dr via the grid quadrature weights."""
    return 2.0 * np.pi * float(f.grid.quad_weights @ f.values)


def partial_mass(f: RadialField) -> RadialField:
    """m(r) = int_0^r f tau dtau, cumulative; m(0) = 0."""
    g = f.grid
    return RadialField(g, g.cumulative_integral(f.values, "r"), "even")


def poisson_field(f: RadialField) -> RadialField:
    """Gradient of the logarithmic potential of f: d(phi_f)/dr = m_f(r)/r."""
    g = f.grid
    m = g.cumulative_integral(f.values, "r")
    return RadialField(g, g.divide_by_r(m, "even"), "odd")


def potential_from_gradient(gfield: RadialField) -> RadialField:
    """Antiderivative of a gradient field, anchored at phi(0) = int_0^inf f
    log(tau) tau dtau where f is the source with gradient gfield (f = g' +
    g/r), matching the planar convolution kernel log|x|/2pi; with that
    choice phi_{Delta v} = v for admissible v.
    """
    if gfield.parity != "odd":
        raise GridError("potential_from_gradient requires an odd gradient field")
    g = gfield.grid
    return RadialField(g, log_potential_values(g, gfield.values), "even")


def log_potential_values(grid, gvals):
    """Values of the potential (`potential_from_gradient`) whose gradient
    has the values gvals (shape (n,), or (n, k) for k fields)."""
    vals = grid.cumulative_integral(gvals, "one")
    # phi(0) = int_0^inf f log(tau) tau dtau for the source f = g' + g/r.
    # Integrated by parts this is [tau g log tau]_{r_max} - int_0^{r_max} g,
    # which avoids differentiating g (noise there gets amplified by the
    # r log r weight on stretched tails).
    rmax = grid.r_max
    return vals + rmax * gvals[-1] * np.log(rmax) - vals[-1]


def field_to_csv(f: RadialField, path):
    """Write 'r,value' rows with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(f.grid.nodes, f.values):
            fh.write("%.17g,%.17g\n" % (r, v))

