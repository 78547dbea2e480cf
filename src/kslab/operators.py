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
is the lowest eigenvalue of the whitened dense symmetric form.  That form
is factored by Cholesky, and its lowest eigenvalue is the reciprocal of
the largest one of its inverse, found by Lanczos through the factor; no
dense form is tridiagonalized unless the factorization refuses it, and
then the certificate has failed.  No dense SVD is computed: the few
singular triplets of the tall whitened L that the certificates read (the
directions below coercivity_L's relative cut and the next one,
kernel_gap's two smallest modes) come from its Householder R factor by
inverse subspace iteration, and the largest singular value, which scales
the cut, by Lanczos on K^T K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
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
# assemble: each dense matrix then takes at most 128 MiB.  The largest of
# the CLI, the tests and the benchmark is 690 (M = 200, 48 per decade).
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

class OperatorBundle:
    """Dense matrix forms of M and L and the pairing metrics on one grid.

    The stacked unknown is x = [density values; gradient values]; the
    matrices are the pointwise maps applied to the identity, cached after
    first assembly.  Quadratic forms are symmetrized (the
    discrete asymmetry is at truncation level).
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.ground = ground_state(grid)
        self._cache = {}

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

    def _matrix(self, key, kernel):
        """Stacked matrix of a pointwise map: the kernel applied to the
        columns of the identity."""
        if key not in self._cache:
            n = self.grid.n
            self._cache[key] = np.vstack(kernel(
                self.grid, np.eye(n, 2 * n), np.eye(n, 2 * n, k=n)))
        return self._cache[key]

    def matrix_L(self):
        return self._matrix("L", _L_values)

    def matrix_M(self):
        """Stacked matrix of the M map (affine potential normalization folded in)."""
        return self._matrix("M", _M_values)

    def quadform_M(self):
        """Symmetric matrix A with x^T A y = <M x, y>.

        Built on the positive metric weights so that the form and the X_Q
        Gram discretize the same measure; high-order weights carry small
        negative entries that would fake negative Rayleigh directions.
        """
        if "AM" not in self._cache:
            w = 2.0 * np.pi * self.grid.positive_quad_weights
            G = np.concatenate([w, w])
            A = (self.matrix_M().T * G[None, :]).T
            self._cache["AM"] = 0.5 * (A + A.T)
        return self._cache["AM"]

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


def _sandwich(h, tau, B):
    """The trailing block of Q^T B Q past its first k = len(tau) rows and
    columns, for the reflectors' Q and a symmetric B, as a new
    Fortran-ordered array.

    Q = I - Y T Y^T in compact WY form (Y the unit lower trapezoidal
    reflectors, T upper triangular, built column by column as LAPACK dlarft
    does), so Q^T B Q = B - Z Y^T - Y Z^T with W = B Y T and
    Z = W - Y T^T Y^T W / 2: matrix products on k columns, where dormqr
    with fewer reflectors than its block size applies them one at a time.
    The update is one GEMM into a copy of B's trailing block, so the two
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
    W = B @ Y @ T
    Z = (W - 0.5 * Y @ (T.T @ (Y.T @ W)))[k:]
    C = np.array(B[k:, k:], order="F")
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
    (`_sandwich`).  B is whitened after the pinned coordinates are dropped,
    so that only it and A are held while C is formed.  C is factored in
    place by LAPACK `dpotrf`, which reads its upper triangle, and the value
    is 1 / `_lanczos_max` of C^-1, applied by `dpotrs` through the factor.
    A C that `dpotrf` refuses is not numerically positive definite, so the
    certificate has failed; its (negative) value then comes from LAPACK's
    lowest eigenvalue of C read from the lower triangle, which `dpotrf`
    leaves intact (0 steps).
    """
    keep, h, tau = _free_basis(rows, pinned, 1, what)
    sk = s[keep]
    C = _sandwich(h, tau, A[np.ix_(keep, keep)] / sk[None, :] / sk[:, None])
    diagonal = C.diagonal().copy()
    if lapack.dpotrf(C, clean=0, overwrite_a=1)[1]:
        np.fill_diagonal(C, diagonal)
        return (linalg.eigvalsh(C, lower=True, subset_by_index=[0, 0])[0],
                len(C), 0)
    top, steps = _lanczos_max(lambda v: lapack.dpotrs(C, v)[0], len(C), what)
    return 1.0 / top, len(C), steps


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

# the smallest singular triplets of a tall matrix come from its R factor by
# inverse subspace iteration: the start block's width, the relative change
# of the wanted Ritz values that ends it, and the sweep cap.  The Lanczos
# iteration for a largest eigenvalue shares the last two: it ends when its
# Ritz residual is at most RITZ_TOL times the Ritz value, and after
# MAX_SWEEPS steps
BLOCK = 8
RITZ_TOL = 1e-12
MAX_SWEEPS = 500


def _lanczos_max(apply, n, what):
    """(value, steps): the largest eigenvalue of a symmetric positive
    semi-definite operator on R^n that is given only by its action `apply`
    on a vector, by Lanczos with full reorthogonalization (classical
    Gram-Schmidt, twice) from a fixed start.

    At step j the largest eigenvalue theta of the tridiagonal T_j, with
    eigenvector s, is the Ritz value, and |beta_j s_j| is the norm of its
    Ritz residual, which bounds its distance to an eigenvalue (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13); the iteration ends when that is
    at most RITZ_TOL * theta.  OperatorError naming `what` if it has not
    after MAX_SWEEPS steps (or n, if fewer).
    """
    cap = min(MAX_SWEEPS, n)
    V = np.empty((cap, n))
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
        if abs(beta[j] * S[-1, -1]) <= RITZ_TOL * theta[-1]:
            return theta[-1], j + 1
        if j + 1 < cap:
            V[j + 1] = w / beta[j]
    raise OperatorError("%s: Lanczos iteration for the largest eigenvalue "
                        "did not settle in %d steps" % (what, cap))


def _smallest_singular(K, left, cut, need, what):
    """(qr, tau, sv, X, sweeps): the Householder QR of the tall K, computed
    in place (LAPACK geqrf storage, so K is overwritten), and the smallest
    singular values sv of its R, ascending, with their left (`left` true)
    or right singular vectors as the columns of X; K = Q [R; 0] has the
    same singular values and right vectors, and Q [X; 0] are its left ones.

    Inverse subspace iteration on the triangle, read in place by LAPACK
    `dtrtrs`: each sweep applies (R R^T)^-1 (left) or (R^T R)^-1 (right)
    to the block, orthonormalizes it and takes the Ritz values and vectors
    from a small SVD of R^T X (left) or R X (right), so a left vector is
    never formed as R v / sigma.  The wanted values are every one at or
    below `cut` and the next above it, at least `need`; the block holds
    them and at least one more, and doubles (fresh columns beside the Ritz
    vectors) when it does not.  The iteration ends when the wanted values
    change by at most RITZ_TOL relative in one sweep; the guards past them
    settle more slowly and are not tested.  The start block is fixed.
    OperatorError naming `what` after MAX_SWEEPS sweeps.
    """
    p = K.shape[1]
    lwork = int(lapack.dgeqrf_lwork(*K.shape)[0])
    qr, tau = lapack.dgeqrf(K, lwork=lwork, overwrite_a=1)[:2]
    first, then = (0, 1) if left else (1, 0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((p, min(BLOCK, p)))
    prev = np.zeros(0)
    for sweep in range(1, MAX_SWEEPS + 1):
        for trans in (first, then):
            X, info = lapack.dtrtrs(qr, X, trans=trans)
            if info:
                raise OperatorError("%s: R is exactly singular" % what)
        X = linalg.qr(X, mode="economic")[0]
        _, sv, Zt = lapack.dgesdd(linalg.blas.dtrmm(1.0, qr, X, trans_a=then),
                                  full_matrices=0)[:3]
        sv, X = sv[::-1], X @ Zt[::-1].T
        k = len(sv)
        wanted = min(max(np.count_nonzero(sv <= cut) + 1, need), p)
        if wanted >= k and k < p:
            X = np.hstack([X, rng.standard_normal((p, min(k, p - k)))])
            prev = np.zeros(0)
        elif len(prev) and np.all(np.abs(sv[:wanted] - prev[:wanted])
                                  <= RITZ_TOL * sv[:wanted]):
            return qr, tau, sv, X, sweep
        else:
            prev = sv
    raise OperatorError("%s: inverse subspace iteration for the smallest "
                        "singular values did not settle in %d sweeps"
                        % (what, MAX_SWEEPS))


def coercivity_L(bundle: OperatorBundle, phim: PhiMDirections) -> dict:
    """Minimal <M L e, L e> / ||L e||_XQ^2 over the doubly constrained space
    <e, Phi_M> = <e, L* Phi_M> = 0.

    The pinned coordinates (`OperatorBundle.pinned`) are dropped by index and
    the two Phi_M pairings are removed by the reflectors of `_free_basis`.
    Substituting z = G^{1/2} L e turns the quotient into an ordinary Rayleigh
    quotient of the whitened M form over range(G^{1/2} L V) = range(K); the
    remaining rank decision drops directions with singular value at or below
    SV_TOL * max (pure kernel/noise of L).  The largest singular value is
    the square root of `_lanczos_max` of K^T K, the cut ones with their left
    vectors come from the R factor of K (`_smallest_singular`).  The kept
    range is the complement of those vectors and of K's left null space,
    Q [X_cut (+) I]; the reflectors of that complement and of the whitened
    mass row give the form on its mean-zero part, and `_whitened_min` its
    lowest eigenvalue.
    """
    L = bundle.matrix_L()
    s = np.sqrt(bundle.gram_xq())
    rows = np.vstack([bundle.pair_vector(phim.pair),
                      bundle.pair_vector(apply_Lstar(phim.pair))])
    keep, h, tau = _free_basis(rows, bundle.pinned(), 1, "coercivity_L")
    K = _reflect("R", "N", h, tau, L[:, keep] * s[:, None])[:, len(rows):]
    N, p = K.shape
    cut = SV_TOL * np.sqrt(_lanczos_max(lambda v: K.T @ (K @ v), p,
                                        "coercivity_L")[0])
    qr, tau, sv, X, sweeps = _smallest_singular(K, True, cut, 1,
                                                "coercivity_L")
    ncut = np.count_nonzero(sv <= cut)
    # the left singular vectors past the cut: the cut ones of R and the
    # N - p columns of Q past R
    C = np.zeros((N, ncut + N - p), order="F")
    C[:p, :ncut] = X[:, :ncut]
    C[p:, ncut:] = np.eye(N - p)
    # restrict the range to discretely mean-zero densities: the M form is
    # only semi-definite there, and the near-kernel direction otherwise
    # leverages the O(h^2) mass error of Lambda Q into a spurious dip
    out = np.vstack([_reflect("L", "N", qr, tau, C).T,
                     bundle.mass_vector() / s])
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
    L = bundle.matrix_L()
    gx = bundle.gram_xq()
    s = np.sqrt(gx)
    n = bundle.grid.n
    outside = np.nonzero(bundle.grid.nodes > KERNEL_SUPPORT_RADIUS)[0]
    keep, h, tau = _free_basis(bundle.mass_vector()[None, :] / s,
                               np.concatenate([[n], outside, n + outside]), 2,
                               "kernel_gap")
    sk = s[keep]
    K = _reflect("R", "N", h, tau, (L[:, keep] * s[:, None]) / sk[None, :])
    _, _, sv, Y, sweeps = _smallest_singular(K[:, 1:], False, 0.0, 2,
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
