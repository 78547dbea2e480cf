"""Discrete linearized operators at the ground state and their certification.

The ground state Q = 8/(1+r^2)^2 is defined here: its closed forms, which
the profile construction reads as well, and `GroundState`, its fields on
one grid.  `ground_state` builds those from the closed forms on each call
and keeps nothing in the grid's memo, which holds arrays only (see `grid`).

Three linear maps act on (density, potential-gradient) pairs:

    M  (u, v) = (u/Q + v, v - phi_u)           linearized free energy
    L  (e, n) = (div(Q grad(e/Q + n)), lap n - e)   linearized flow
    L* (e, n) = (div(Q grad e)/Q + lap n, lap n - phi_{div(Q grad e)})

together with the compactly supported directions Phi_M that approximate the
slowly growing kernel of L* and fix the modulation orthogonality.  Pairings
use the L2 x H1dot product <(u,v),(f,g)> = int u f + int grad v . grad g.

Coercivity is certified numerically: the quadratic forms are assembled as
dense matrices, coordinates pinned to zero are dropped by index, the dense
constraints are removed by the Householder reflectors of their QR (the
projections cost O(N^2) per constraint row, and no basis of the free
space is formed), and the minimal Rayleigh quotient against the X_Q metric
is the lowest eigenvalue of the whitened dense symmetric form.  One
iteration serves every certificate: Lanczos for the few largest
eigenvalues of an operator given by its action (`_lanczos`).  The form is
factored by Cholesky, and its lowest eigenvalue is the reciprocal of the
largest one of its inverse, applied through the factor; no dense form is
tridiagonalized unless the factorization refuses it, and then the
certificate has failed.  No dense SVD is computed: the few singular
triplets of the tall whitened L that the certificates read (the
directions below coercivity_L's relative cut and the next one,
kernel_gap's two smallest modes) are the largest eigenpairs of the
inverse Gram matrix of its Householder R factor, applied by two
triangular solves, and the largest singular value, which scales the cut,
that of R^T R.

The certificates hold at most three N x N arrays at once (N = 2 n on n
nodes): the bundle's M form, cached, and two more.  L is a local
operator, so the whitened L is assembled column by column from the
kernel applied to a few comb columns (`_L_columns`) and no dense L is
kept; the M form is written into its one array and symmetrized there;
and each whitened form is one copy of the trailing block of the M form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import lapack

from .grid import (
    FieldPair,
    RadialField,
    RadialGrid,
    cutoff,
    div_from_grad_values,
    laplacian_values,
    log_potential_values,
    node_counts,
    per_node,
)


class OperatorError(ValueError):
    pass


# -- the ground state ----------------------------------------------------------

def q_density(r):
    return 8.0 / (1.0 + r ** 2) ** 2


def q_potential_grad(r):
    """phi_Q' = 4r/(1+r^2) = -Q'/Q."""
    return 4.0 * r / (1.0 + r ** 2)


def q_prime(r):
    return -32.0 * r / (1.0 + r ** 2) ** 3


def lambda_q(r):
    return 16.0 * (1.0 - r ** 2) / (1.0 + r ** 2) ** 3


def mass_q(r):
    return 4.0 * r ** 2 / (1.0 + r ** 2)


@dataclass(frozen=True)
class GroundState:
    """Bubble Q with its scaling derivative."""

    Q: RadialField
    LambdaQ: RadialField

    def pair_LambdaQ(self) -> FieldPair:
        g = self.Q.grid
        grad = RadialField(g, g.nodes * self.Q.values, "odd")
        return FieldPair(self.LambdaQ, grad)


def ground_state(grid: RadialGrid) -> GroundState:
    """The GroundState on the grid's nodes, from the closed forms, on each
    call: its fields refer back to the grid, so it stays out of the grid's
    memo, which holds arrays only."""
    r = grid.nodes
    return GroundState(Q=RadialField(grid, q_density(r)),
                       LambdaQ=RadialField(grid, lambda_q(r)))


# the largest dense dimension (2 n on n nodes) that the certificates
# assemble: each dense matrix then takes at most 128 MiB, and the
# certificates hold at most three at once.  The largest of the CLI, the
# tests and the benchmark is 690 (M = 200, 48 per decade).
MAX_DENSE_DIM = 4096


def operator_grid(M_param, nodes_per_decade=48, h_core=0.05):
    """Grid for Phi_M / coercivity work, of stencil order 4: r_max = 50 M
    keeps the compactly supported directions far from the outer boundary.
    OperatorError, before any node is laid out, if its dense dimension
    exceeds MAX_DENSE_DIM."""
    dim = 2 * (sum(node_counts(50.0 * M_param, h_core, nodes_per_decade)) + 1)
    if dim > MAX_DENSE_DIM:
        raise OperatorError("operator grid at M=%g: dense dimension %.3g "
                            "exceeds MAX_DENSE_DIM = %d"
                            % (M_param, dim, MAX_DENSE_DIM))
    return RadialGrid.make(50.0 * M_param, h_core=h_core,
                           nodes_per_decade=nodes_per_decade, stencil_order=4)


# -- inner products ------------------------------------------------------------

def pairing(x: FieldPair, y: FieldPair) -> float:
    """L2 x H1dot pairing of primitive pairs."""
    g = x.grid
    w = 2.0 * np.pi * g.quad_weights
    return float(w @ (x.density.values * y.density.values)
                 + w @ (x.chem_gradient.values * y.chem_gradient.values))


def l2Q_norm_sq(f: RadialField) -> float:
    g = f.grid
    w = 2.0 * np.pi * g.positive_quad_weights
    return float(w @ (f.values ** 2 / q_density(g.nodes)))


def xq_norm_sq(x: FieldPair) -> float:
    g = x.grid
    w = 2.0 * np.pi * g.positive_quad_weights
    return l2Q_norm_sq(x.density) + float(w @ x.chem_gradient.values ** 2)


def h2q_norm(eps: RadialField) -> float:
    """|| (1+r^2) lap e ||_2 + || (1+r) grad e ||_2 + || e ||_2."""
    g = eps.grid
    r = g.nodes
    w = 2.0 * np.pi * g.quad_weights
    lap = laplacian_values(g, eps.values)
    d1 = g.diff_matrix(1, "even") @ eps.values
    return (np.sqrt(w @ ((1 + r ** 2) ** 2 * lap ** 2))
            + np.sqrt(w @ ((1 + r) ** 2 * d1 ** 2))
            + np.sqrt(w @ eps.values ** 2))


def n_norm_from_grad(grad_eta: RadialField) -> float:
    """|| (1+r) grad lap eta ||_2 + || lap eta ||_2 from the gradient slot."""
    g = grad_eta.grid
    r = g.nodes
    w = 2.0 * np.pi * g.quad_weights
    lap = div_from_grad_values(g, grad_eta.values)
    glap = g.diff_matrix(1, "even") @ lap
    return (np.sqrt(w @ ((1 + r) ** 2 * glap ** 2))
            + np.sqrt(w @ lap ** 2))


def energy_norm(x: FieldPair) -> float:
    """H^2_Q + N + L1 norm of a primitive pair."""
    g = x.grid
    w = 2.0 * np.pi * g.quad_weights
    l1 = float(w @ np.abs(x.density.values))
    return h2q_norm(x.density) + n_norm_from_grad(x.chem_gradient) + l1


# -- pointwise operator applications -------------------------------------------

def _M_values(grid, u, gv):
    """The two components of M (u, v) from the values of u and grad v, each
    of shape (n,) or (n, k); v is recovered with convolution normalization."""
    r = per_node(grid.nodes, u)
    first = u / q_density(r) + log_potential_values(grid, gv)
    second = gv - grid.divide_by_r(grid.cumulative_integral(u, "r"), "even")
    return first, second


def _L_values(grid, e, gn):
    """The two components of L (e, n) from the values of e and grad n, each
    of shape (n,) or (n, k)."""
    r = per_node(grid.nodes, e)
    lap_e = laplacian_values(grid, e)
    de = grid.diff_matrix(1, "even") @ e
    lap_n = div_from_grad_values(grid, gn)
    first = (lap_e + e * q_density(r) + de * q_potential_grad(r)
             + q_density(r) * lap_n + q_prime(r) * gn)
    second = grid.diff_matrix(1, "even") @ lap_n - de
    return first, second


def _Lstar_values(grid, e, gn):
    """The two components of L* (e, n) from the values of e and grad n,
    each of shape (n,) or (n, k).

    The first component is expanded as lap e + (Q'/Q) e' + lap n with the
    analytic logarithmic derivative Q'/Q = -4r/(1+r^2); dividing the tiny
    far-field flux by Q would amplify stencil noise like r^4.
    """
    r = per_node(grid.nodes, e)
    de = grid.diff_matrix(1, "even") @ e
    lap_n = div_from_grad_values(grid, gn)
    first = laplacian_values(grid, e) - q_potential_grad(r) * de + lap_n
    second = grid.diff_matrix(1, "even") @ lap_n - q_density(r) * de
    return first, second


def _apply(kernel, x: FieldPair) -> FieldPair:
    g = x.grid
    first, second = kernel(g, x.density.values, x.chem_gradient.values)
    return FieldPair(RadialField(g, first), RadialField(g, second, "odd"))


def apply_M(x: FieldPair) -> FieldPair:
    """(u/Q + v, grad v - m_u/r); v recovered with convolution normalization."""
    return _apply(_M_values, x)


def apply_L(x: FieldPair) -> FieldPair:
    """Linearized flow: (lap e + eQ + grad e . grad phi_Q + Q lap n + Q' grad n,
    grad(lap n - e))."""
    return _apply(_L_values, x)


def apply_Lstar(x: FieldPair) -> FieldPair:
    """Adjoint: (div(Q grad e)/Q + lap n, grad lap n - Q grad e)."""
    return _apply(_Lstar_values, x)


def lyapunov_functional(x: FieldPair) -> float:
    """<M E2, E2> with E2 = L x; nonnegative on mean-zero error pairs."""
    e2 = apply_L(x)
    return pairing(apply_M(e2), e2)


# -- matrix assembly -----------------------------------------------------------

# the rows of each strip in which `OperatorBundle.quadform_M` symmetrizes
# its form in place
SYM_ROWS = 128


def _L_band(grid):
    """(lo, hi): the least and the greatest row - column of an entry of any
    of L's four blocks, from the grid's stencils; `_L_columns` reads it
    from the grid's memo, built once per grid.  L reads e through D1 and
    D2 of even fields, and grad n through D1 (lap n off the origin), the
    odd-origin row (lap n at r = 0) and D1 after either of those two
    (grad lap n); its pointwise factors add only the diagonal."""
    n = grid.n
    d1, d2 = (abs(grid.diff_matrix(k, "even")) for k in (1, 2))
    origin = sparse.vstack([abs(grid.diff_matrix(1, "odd")[:1]),
                            sparse.csr_matrix((n - 1, n))], format="csr")
    offsets = [sparse.coo_matrix(m) for m in (d1, d2, origin, d1 @ d1,
                                              d1 @ origin)]
    offsets = np.concatenate([m.row - m.col for m in offsets])
    return int(offsets.min()), int(offsets.max())


def _L_columns(grid, cols, scale):
    """L[:, cols] * scale[:, None] for the stacked L and stacked column
    indices cols, as a new Fortran-ordered (2 n, len(cols)) array.

    L is local: an entry (i, j) of any of its blocks is zero unless
    lo <= i - j <= hi (`_L_band`).  So the kernel applied to the P = hi -
    lo + 1 comb columns of a block of unknowns, column t the sum of the unit
    vectors j = t mod P, gives every entry of the block: no row reads two
    teeth, and each entry is computed from the same terms as on the unit
    vector, bit for bit (the column grouping of Curtis, Powell and Reid,
    "On the estimation of sparse Jacobian matrices", 1974).  Entries off
    the band are zero.
    """
    n = grid.n
    lo, hi = grid.cached("L_band", _L_band, grid)
    period = hi - lo + 1
    comb = (np.arange(n)[:, None] % period == np.arange(period)).astype(float)
    zero = np.zeros((n, 1))
    out = np.zeros((2 * n, len(cols)), order="F")
    for block, args in enumerate(((comb, zero), (zero, comb))):
        at = np.nonzero(cols // n == block)[0]
        j = cols[at] - block * n
        rows = j[:, None] + np.arange(lo, hi + 1)
        c, o = np.nonzero((rows >= 0) & (rows < n))
        rows, at, teeth = rows[c, o], at[c], j[c] % period
        for half, values in zip((0, n), _L_values(grid, *args)):
            out[half + rows, at] = values[rows, teeth] * scale[half + rows]
    return out


class OperatorBundle:
    """Dense matrix forms of M and L and the pairing metrics on one grid.

    The stacked unknown is x = [density values; gradient values].  Only
    the M form is cached, written into its one array: the M kernel applied
    to the identity, row times its metric weight, symmetrized in place (the
    discrete asymmetry is at truncation level).  `matrix_L` and `matrix_M`
    build a new array on each call and serve as test oracles; the
    certificates assemble the columns of the whitened L they read with
    `_L_columns`.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.ground = ground_state(grid)
        self._form_M = None

    def gram_xq(self):
        """The X_Q metric, diagonal, as the vector of its diagonal."""
        w = 2.0 * np.pi * self.grid.positive_quad_weights
        return np.concatenate([w / q_density(self.grid.nodes), w])

    def pair_vector(self, x: FieldPair):
        """Vector c with c @ y = <y, x> for stacked y."""
        w = 2.0 * np.pi * self.grid.quad_weights
        return np.concatenate([w * x.density.values,
                               w * x.chem_gradient.values])

    def mass_vector(self):
        """Discrete mass functional on the positive metric weights (the same
        measure the eigensolve forms use, so kernel algebra stays exact)."""
        w = 2.0 * np.pi * self.grid.positive_quad_weights
        return np.concatenate([w, np.zeros_like(w)])

    def _M_rows(self, weights):
        """Stacked matrix of the M map with row i times weights[i], as one
        new array: the kernel applied to the columns of the identity, once
        per block of unknowns, with the other block a zero column that the
        kernel broadcasts."""
        n = self.grid.n
        out = np.empty((2 * n, 2 * n))
        eye, zero = np.eye(n), np.zeros((n, 1))
        for block, args in ((0, (eye, zero)), (n, (zero, eye))):
            for half, values in zip((0, n), _M_values(self.grid, *args)):
                np.multiply(values, weights[half:half + n, None],
                            out=out[half:half + n, block:block + n])
        return out

    def matrix_L(self):
        """Stacked matrix of the L map."""
        n2 = 2 * self.grid.n
        return _L_columns(self.grid, np.arange(n2), np.ones(n2))

    def matrix_M(self):
        """Stacked matrix of the M map (affine potential normalization folded in)."""
        return self._M_rows(np.ones(2 * self.grid.n))

    def quadform_M(self):
        """Symmetric matrix A with x^T A y = <M x, y>, cached.

        Built on the positive metric weights so that the form and the X_Q
        Gram discretize the same measure; high-order weights carry small
        negative entries that would fake negative Rayleigh directions.
        Each pair of entries becomes 0.5 * (a_ij + a_ji) in place, a strip
        of SYM_ROWS rows at a time, so no second N x N array is formed.
        """
        if self._form_M is None:
            w = 2.0 * np.pi * self.grid.positive_quad_weights
            A = self._M_rows(np.concatenate([w, w]))
            for i in range(0, len(A), SYM_ROWS):
                rows = slice(i, i + SYM_ROWS)
                half = 0.5 * (A[rows, i:] + A[i:, rows].T)
                A[rows, i:] = half
                A[i:, rows] = half.T
            self._form_M = A
        return self._form_M

    def pinned(self):
        """Stacked indices pinned to zero in the eigensolves: the outermost
        stencil_order + 3 nodes of both blocks and the gradient slot at r = 0.

        The assembled operators carry no outer boundary condition, so the
        truncated domain admits spurious near-kernel tails (log-harmonic in
        the density slot); eigensolves restrict to fields vanishing there.
        The gradient slot at r = 0 is not a degree of freedom (odd parity).
        """
        n = self.grid.n
        outer = np.arange(n - self.grid.stencil_order - 3, n)
        return np.concatenate([[n], outer, n + outer])


# -- Phi_M directions ----------------------------------------------------------

PAIRING_CUTOFF_WIDTH = 0.5  # narrow window keeps <Phi_0, Lambda Q>/log M tight


def phi0_pair(grid: RadialGrid, M_param: float) -> FieldPair:
    """(chi_M r^2, gradient of -4 int_0^r log(1+t^2)/t chi_M dt)."""
    first, grad2 = _phi0_values(grid, M_param)
    return FieldPair(RadialField(grid, first), RadialField(grid, grad2, "odd"))


def _phi0_values(grid, M):
    """phi0_pair's two components as values: of shape (n,) for a scalar M,
    (n, k) for M of shape (k,), one column per M."""
    r = grid.nodes if np.ndim(M) == 0 else grid.nodes[:, None]
    chi = cutoff(r / M, width=PAIRING_CUTOFF_WIDTH)
    return chi * r ** 2, -4.0 * chi * grid.divide_by_r(np.log1p(r ** 2),
                                                       "even")


def lstar_phi0_values(grid: RadialGrid, Ms) -> tuple:
    """The two components of L* Phi_{0,M} for each M of Ms (shape (k,)),
    of shape (n, k): column j is apply_Lstar(phi0_pair(grid, Ms[j])),
    bit for bit."""
    return _Lstar_values(grid, *_phi0_values(grid, np.asarray(Ms)))


# the smallest M whose Phi_M build_phi_m accepts: the pairing
# <Phi_{0,M}, Lambda Q> grows like -32 pi log M, and below ~32 pi the
# direction is useless; |<Phi_{0,M}, Lambda Q>| / 32 pi reads 0.78 at
# M = 2, 0.96 at 2.4 and 1.008 at 2.5, alike on the run grid, the operator
# grid and the spectral CLI grid
PHI_M_MIN_M = 2.5


def phi_m_degeneracy(M_param: float):
    """What makes Phi_M at M degenerate, M < PHI_M_MIN_M; None if nothing
    does."""
    if M_param < PHI_M_MIN_M:
        return ("M too small for Phi_M: <Phi_0, Lambda Q> nearly degenerate "
                "below M = %g, got %g" % (PHI_M_MIN_M, M_param))


def phi_m_problem(r_max: float, M_param: float):
    """What keeps a grid of radius r_max from carrying Phi_M at M, which
    needs r_max >= 10 M (the directions, supported in r <= 1.5 M, stay far
    from the outer boundary); None if nothing does."""
    guard = 10.0 * M_param
    if r_max < guard:
        return "Phi_M requires r_max >= 10*M = %.1f, got %.1f" % (guard, r_max)


class PhiMDirections:
    def __init__(self, pair, c_M, report):
        self.pair = pair
        self.c_M = c_M
        self.report = report


def build_phi_m(grid: RadialGrid, M_param: float, t1_pair: FieldPair) -> PhiMDirections:
    """Phi_M = Phi_{0,M} + c_M L* Phi_{0,M} with <Phi_M, T1> = 0.

    c_M uses the discrete <L* Phi_0, T1> in the denominator (equal to
    <Phi_0, Lambda Q> through adjunction and L T1 = Lambda Q), which makes
    the defining orthogonality hold to roundoff.  OperatorError if M is
    below the degeneracy floor (`phi_m_degeneracy`) or the grid cannot
    carry Phi_M (`phi_m_problem`).
    """
    problem = phi_m_degeneracy(M_param) or phi_m_problem(grid.r_max, M_param)
    if problem:
        raise OperatorError(problem)
    p0 = phi0_pair(grid, M_param)
    lp0 = apply_Lstar(p0)
    num = pairing(p0, t1_pair)
    c_M = -num / pairing(lp0, t1_pair)
    pair = FieldPair(
        RadialField(grid, p0.density.values + c_M * lp0.density.values),
        RadialField(grid, p0.chem_gradient.values
                    + c_M * lp0.chem_gradient.values, "odd"))
    report = {
        "M": M_param,
        "Phi0_T1": num,
        "PhiM_T1": pairing(pair, t1_pair),
        "PhiM_LambdaQ": pairing(pair, ground_state(grid).pair_LambdaQ()),
    }
    return PhiMDirections(pair, c_M, report)


# -- coercivity certification ----------------------------------------------------

def _free_basis(rows, pinned, need, what):
    """(keep, h, tau): the coordinates left after dropping `pinned` by index,
    and the Householder reflectors (LAPACK geqrf storage) of a QR of the
    transposed unit-scaled dense constraint rows restricted to them.  The
    reflectors' Q is orthogonal and its columns past the first j span the
    null space of the first j rows, so the trailing len(keep) - len(rows)
    columns span the free space.

    A one-hot row's null space is exactly its coordinate complement, so the
    pinned coordinates involve no rank decision.  Each dense row is scaled
    to unit norm, so no row counts as dependent for its scale (a zero row
    always does).  OperatorError if fewer than `need` directions are left,
    or if a row is numerically dependent on the rows before it: a diagonal
    entry of R at or below max(shape) * eps, the rank cut of a null space
    of the rows.
    """
    keep = np.delete(np.arange(rows.shape[1]), pinned)
    free = len(keep) - len(rows)
    if free < need:
        raise OperatorError("%s: %d kept coordinates under %d dense constraints "
                            "leave %d free directions, needs %d"
                            % (what, len(keep), len(rows), max(free, 0), need))
    R = rows[:, keep]
    norm = np.linalg.norm(R, axis=1)
    (h, tau), r = linalg.qr((R / np.where(norm > 0, norm, 1.0)[:, None]).T,
                            mode="raw")
    dependent = np.nonzero(np.abs(np.diag(r))
                           <= max(R.shape) * np.finfo(float).eps)[0]
    if len(dependent):
        raise OperatorError("%s: dense constraint rows %s are numerically "
                            "dependent on the rows before them"
                            % (what, dependent.tolist()))
    return keep, h, tau


def _reflect(side, trans, h, tau, c):
    """c with the reflectors' Q applied from `side` ("L" or "R"), transposed
    if trans is "T" (LAPACK dormqr), Fortran-ordered; c is overwritten if it
    is Fortran-ordered, else copied once."""
    c = np.asfortranarray(c)
    lwork = int(lapack.dormqr(side, trans, h, tau, c, -1, overwrite_c=1)[1][0])
    return lapack.dormqr(side, trans, h, tau, c, lwork, overwrite_c=1)[0]


def _sandwich(h, tau, A, keep, sk):
    """The trailing block of Q^T B Q past its first k = len(tau) rows and
    columns, for the reflectors' Q and B = A[keep, keep] / (sk sk^T) of a
    symmetric A, as a new Fortran-ordered array, the only copy of A made.

    Q = I - Y T Y^T in compact WY form (Y the unit lower trapezoidal
    reflectors, T upper triangular, built column by column as LAPACK dlarft
    does), so Q^T B Q = B - Z Y^T - Y Z^T with W = B Y T and
    Z = W - Y T^T Y^T W / 2: matrix products on k columns, where dormqr
    with fewer reflectors than its block size applies them one at a time.
    W is A applied to the rows keep of (Y T) / sk, with zero rows off keep,
    read on keep; B's trailing block is A's on keep[k:], whitened in place.
    Since A is exactly symmetric, that block is taken transposed, in
    Fortran order, and the update is one GEMM into it, so the two
    triangles of the result agree to roundoff.
    """
    k = len(tau)
    Y = np.tril(h, -1)
    Y[np.arange(k), np.arange(k)] = 1.0
    G = Y.T @ Y
    T = np.zeros((k, k))
    for i in range(k):
        T[i, i] = tau[i]
        T[:i, i] = -tau[i] * (T[:i, :i] @ G[:i, i])
    Z = np.zeros((len(A), k))
    Z[keep] = (Y @ T) / sk[:, None]
    W = (A @ Z)[keep] / sk[:, None]
    Z = (W - 0.5 * Y @ (T.T @ (Y.T @ W)))[k:]
    trail, st = keep[k:], sk[k:]
    C = A[np.ix_(trail, trail)].T
    C /= st[None, :]
    C /= st[:, None]
    return linalg.blas.dgemm(-1.0, np.hstack([Z, Y[k:]]),
                             np.hstack([Y[k:], Z]), beta=1.0, c=C,
                             trans_b=1, overwrite_c=1)


def _lift(h, tau, y):
    """Q [0; y]: coordinates y over the trailing columns of the reflectors'
    Q as a vector of the kept coordinates."""
    z = np.zeros((len(h), 1))
    z[len(h) - len(y):, 0] = y
    return _reflect("L", "N", h, tau, z)[:, 0]


def _whitened_min(A, s, rows, pinned, what):
    """(value, kept, steps): the lowest eigenvalue of the form A whitened by
    the diagonal s, A / (s s^T), over {x[pinned] = 0, rows @ x = 0} for
    already whitened dense rows, the dimension of that space, and the
    Lanczos steps that found it.

    The pinned coordinates are dropped by index and the dense rows removed
    by the reflectors of `_free_basis` (OperatorError naming `what` if no
    direction is left): in Q^T B Q of the whitened block B, the trailing
    block C past the first m rows is B on the null space of the m rows
    (`_sandwich`).  C is the one N x N array formed beside A.  It is
    factored in place by LAPACK `dpotrf`, which reads its upper triangle,
    and the value is 1 / the top value of `_lanczos` on C^-1, applied by
    `dpotrs` through the factor.  A C that `dpotrf` refuses is not
    numerically positive definite, so the certificate has failed; its
    (negative) value then comes from LAPACK's lowest eigenvalue of C read
    from the lower triangle, which `dpotrf` leaves intact (0 steps).
    """
    keep, h, tau = _free_basis(rows, pinned, 1, what)
    C = _sandwich(h, tau, A, keep, s[keep])
    diagonal = C.diagonal().copy()
    if lapack.dpotrf(C, clean=0, overwrite_a=1)[1]:
        np.fill_diagonal(C, diagonal)
        return (linalg.eigvalsh(C, lower=True, subset_by_index=[0, 0])[0],
                len(C), 0)
    theta, _, steps = _lanczos(lambda v: lapack.dpotrs(C, v)[0], len(C),
                               lambda theta: 1, what)
    return 1.0 / theta[0], len(C), steps


def coercivity_M(bundle: OperatorBundle) -> dict:
    """delta0 = min <Mx,x>/||x||_XQ^2 over {int u = 0, <x,LambdaQ> = 0}.

    The metric spans ~18 orders of magnitude (the 1/Q weight grows like
    r^4), so the quotient is whitened exactly with the diagonal square root
    s of the X_Q Gram diagonal, form and rows alike (`_whitened_min`).
    """
    lam = bundle.ground.pair_LambdaQ()
    s = np.sqrt(bundle.gram_xq())
    rows = np.vstack([bundle.mass_vector(), bundle.pair_vector(lam)])
    val, _, steps = _whitened_min(bundle.quadform_M(), s, rows / s,
                                  bundle.pinned(), "coercivity_M")
    return {"delta0_M_hat": float(val), "sweeps": steps}


# coercivity_L's relative singular-value cut
SV_TOL = 1e-10

# the Lanczos iteration (`_lanczos`) ends when the Ritz residual of each
# wanted Ritz value is at most RITZ_TOL times that value, and fails after
# MAX_SWEEPS steps; its basis starts at BASIS_ROWS rows
BASIS_ROWS = 8
RITZ_TOL = 1e-12
MAX_SWEEPS = 500


def _lanczos(apply, n, wanted, what):
    """(theta, X, steps): the largest eigenvalues theta of a symmetric
    positive semi-definite operator on R^n that is given only by its action
    `apply` on a vector, descending, with their eigenvectors as the columns
    of X, by Lanczos with full reorthogonalization (classical Gram-Schmidt,
    twice) from a fixed start.

    At step j the eigenvalues theta of the tridiagonal T_j, with
    eigenvectors s, are the Ritz values, and |beta_j s_j| is the norm of
    the Ritz residual of each, which bounds its distance to an eigenvalue
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13).  `wanted(theta)`,
    of the Ritz values in descending order, is how many of the largest are
    wanted; the iteration ends when each of those has a Ritz residual of at
    most RITZ_TOL * theta.  OperatorError naming `what` if it has not after
    MAX_SWEEPS steps (or n, if fewer).  The basis starts at BASIS_ROWS rows
    and doubles when full, so it holds about the steps taken.
    """
    cap = min(MAX_SWEEPS, n)
    V = np.empty((min(BASIS_ROWS, cap), n))
    alpha, beta = np.empty(cap), np.empty(cap)
    v = np.random.default_rng(0).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    for j in range(cap):
        w = apply(V[j])
        alpha[j] = V[j] @ w
        for _ in range(2):
            w -= V[:j + 1].T @ (V[:j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        # dstev takes an off-diagonal of length 1 even for a 1 x 1 T_j
        theta, S = lapack.dstev(alpha[:j + 1], beta[:max(j, 1)])[:2]
        theta, S = theta[::-1], S[:, ::-1]
        k = wanted(theta)
        if k <= j + 1 and np.all(np.abs(beta[j] * S[-1, :k])
                                 <= RITZ_TOL * theta[:k]):
            return theta[:k], V[:j + 1].T @ S[:, :k], j + 1
        if j + 1 < cap:
            if j + 1 == len(V):
                V = np.concatenate([V, np.empty((min(j + 1, cap - j - 1),
                                                 n))])
            V[j + 1] = w / beta[j]
    raise OperatorError("%s: Lanczos iteration for the largest eigenvalues "
                        "did not settle in %d steps" % (what, cap))


def _qr(K):
    """(qr, tau): the Householder QR of the tall K in LAPACK geqrf storage,
    computed in place (K is overwritten)."""
    lwork = int(lapack.dgeqrf_lwork(*K.shape)[0])
    return lapack.dgeqrf(K, lwork=lwork, overwrite_a=1)[:2]


def _smallest_singular(qr, left, cut, need, what):
    """(sv, X, steps): the smallest singular values sv of the R factor of a
    tall K, ascending, given K's QR in geqrf storage (`_qr`), with their
    left (`left` true) or right singular vectors as the columns of X; K =
    Q [R; 0] has the same singular values and right vectors, and Q [X; 0]
    are its left ones.

    They are the largest eigenpairs 1 / sv^2 of (R R^T)^-1 (left) or
    (R^T R)^-1 (right), by `_lanczos`, applied by two triangular solves in
    place on the triangle (LAPACK `dtrtrs`), so a left vector is never
    formed as R v / sigma.  The wanted values are every one at or below
    `cut` and the next above it, at least `need`.  OperatorError naming
    `what` if R is exactly singular.
    """
    p = qr.shape[1]
    order = (0, 1) if left else (1, 0)

    def apply(v):
        v = v.copy()
        for trans in order:
            if lapack.dtrtrs(qr, v, trans=trans, overwrite_b=1)[1]:
                raise OperatorError("%s: R is exactly singular" % what)
        return v

    def wanted(theta):
        # sv <= cut, without a square root of the small Ritz values, which
        # may round below zero
        below = np.count_nonzero(theta * cut ** 2 >= 1.0)
        return min(max(below + 1, need), p)

    theta, X, steps = _lanczos(apply, p, wanted, what)
    return 1.0 / np.sqrt(theta), X, steps


def coercivity_L(bundle: OperatorBundle, phim: PhiMDirections) -> dict:
    """Minimal <M L e, L e> / ||L e||_XQ^2 over the doubly constrained space
    <e, Phi_M> = <e, L* Phi_M> = 0.

    The pinned coordinates (`OperatorBundle.pinned`) are dropped by index and
    the two Phi_M pairings are removed by the reflectors of `_free_basis`.
    Substituting z = G^{1/2} L e turns the quotient into an ordinary Rayleigh
    quotient of the whitened M form over range(G^{1/2} L V) = range(K); the
    remaining rank decision drops directions with singular value at or below
    SV_TOL * max (pure kernel/noise of L).  K is assembled from the comb
    columns of L (`_L_columns`) and factored in place (`_qr`); the largest
    singular value is the square root of the top value of `_lanczos` on
    R^T R, applied by two triangular products on the factor, and the cut
    ones with their left vectors come from R (`_smallest_singular`).  The
    kept range is the complement of those vectors and of K's left null
    space, Q [X_cut (+) I]; the reflectors of that complement and of the
    whitened mass row give the form on its mean-zero part, and
    `_whitened_min` its lowest eigenvalue, once K's storage is freed.
    """
    s = np.sqrt(bundle.gram_xq())
    rows = np.vstack([bundle.pair_vector(phim.pair),
                      bundle.pair_vector(apply_Lstar(phim.pair))])
    keep, h, tau = _free_basis(rows, bundle.pinned(), 1, "coercivity_L")
    K = _reflect("R", "N", h, tau, _L_columns(bundle.grid, keep, s))
    qr, tau = _qr(K[:, len(rows):])
    del K
    N, p = qr.shape
    top = _lanczos(
        lambda v: linalg.blas.dtrmm(1.0, qr, linalg.blas.dtrmm(1.0, qr, v),
                                    trans_a=1), p, lambda theta: 1,
        "coercivity_L")[0][0]
    cut = SV_TOL * np.sqrt(top)
    sv, X, sweeps = _smallest_singular(qr, True, cut, 1, "coercivity_L")
    ncut = np.count_nonzero(sv <= cut)
    # the left singular vectors past the cut: the cut ones of R and the
    # N - p columns of Q past R
    C = np.zeros((N, ncut + N - p), order="F")
    C[:p, :ncut] = X[:, :ncut]
    C[p:, ncut:] = np.eye(N - p)
    C = _reflect("L", "N", qr, tau, C)
    del qr
    # restrict the range to discretely mean-zero densities: the M form is
    # only semi-definite there, and the near-kernel direction otherwise
    # leverages the O(h^2) mass error of Lambda Q into a spurious dip
    out = np.vstack([C.T, bundle.mass_vector() / s])
    val, kept, _ = _whitened_min(bundle.quadform_M(), s, out, [],
                                 "coercivity_L")
    M_param = phim.report["M"]
    return {
        "delta0_L_hat": float(val),
        "normalized": float(val * M_param ** 2 / np.log(M_param) ** 2),
        "modes_kept": kept,
        "modes_cut": int(ncut),
        "sweeps": sweeps,
    }


# kernel_gap's regular sector: fields supported in r <= this radius
KERNEL_SUPPORT_RADIUS = 30.0


def kernel_gap(bundle: OperatorBundle) -> dict:
    """Two smallest modes of ||L x||_XQ / ||x||_XQ on the regular sector.

    The sector restricts to mean-zero fields supported in
    r <= KERNEL_SUPPORT_RADIUS: on the full truncated domain the operator
    has quasi-kernel tails (log-harmonic density with matched potential)
    whose X_Q norm grows faster than their residual, so the global quotient
    is not a kernel detector.  The nodes with r > KERNEL_SUPPORT_RADIUS
    (both blocks) and the gradient slot at r = 0 are dropped by index, the
    whitened mass row by the reflectors of `_free_basis`; the two smallest
    singular values of the whitened L on what is left, and the right vector
    of the smallest, come from its R factor (`_smallest_singular`).
    OperatorError if fewer than two free directions remain, or if the
    iteration does not settle.
    The ground mode must align with the Lambda Q pair and be separated from
    the second mode by orders of magnitude (one-dimensional kernel).
    """
    gx = bundle.gram_xq()
    s = np.sqrt(gx)
    n = bundle.grid.n
    outside = np.nonzero(bundle.grid.nodes > KERNEL_SUPPORT_RADIUS)[0]
    keep, h, tau = _free_basis(bundle.mass_vector()[None, :] / s,
                               np.concatenate([[n], outside, n + outside]), 2,
                               "kernel_gap")
    sk = s[keep]
    K = _L_columns(bundle.grid, keep, s)
    K /= sk[None, :]
    K = _reflect("R", "N", h, tau, K)
    sv, Y, sweeps = _smallest_singular(_qr(K[:, 1:])[0], False, 0.0, 2,
                                       "kernel_gap")
    x0 = np.zeros(2 * n)
    x0[keep] = _lift(h, tau, Y[:, 0]) / sk
    lam = bundle.ground.pair_LambdaQ()
    lamv = np.concatenate([lam.density.values, lam.chem_gradient.values])
    align = abs(float((x0 * gx) @ lamv)) / np.sqrt(
        float((x0 * gx) @ x0) * float((lamv * gx) @ lamv))
    mu0, mu1 = sv[0] ** 2, sv[1] ** 2
    return {"mu0": float(mu0), "mu1": float(mu1),
            "gap": float(mu1 / max(mu0, 1e-300)),
            "alignment": align, "sweeps": sweeps}
