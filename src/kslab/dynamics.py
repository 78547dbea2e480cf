"""Time integration of the radial flow with dynamic rescaling and modulation.

The parabolic-parabolic system is advanced in partial-mass variables

    m_s = m'' - m'/r + (m'/r) n - b r m'
    n_s = (n - m)'' - (n - m)'/r - b r n'

(physical frame: b = 0), with the second-order terms and the first-order
transport treated implicitly (one LAPACK banded solve for m, then one for
n, per step) and the m'n/r coupling linearized at the previous step.  The
production path runs in the rescaled frame y = r/lambda with s-time: the
state is decomposed against the localized profile family by a damped Newton
solve of the two orthogonality conditions, which yields (lambda, b), at the
steps an adaptive schedule picks (`RunSetup.run`); the steps between take
(lambda, b) from the predictor below.  The residual separates into a state
part and a profile part P(b), so Newton runs on a Chebyshev table of P in
log b, built once per solver, with the lambda-column from the same read of
the state as the model's value.  The table refines until its error bound
certifies the model's root, so a converged root is returned without an
exact profile evaluation; `ModulationSolver.read` makes it, for a block of
decompositions at once, on the first read of their fields.  A root the
model did not converge to is read at once and accepted or refused on that
exact residual.  The roots lie on a smooth curve in s (lambda_s/lambda =
-b, b_s ~ -2b^2/|log b|), so (lambda, b) extrapolated quadratically in s
through the last three roots predicts the steps between decompositions, and
starts each solve one or two model Newton iterations from the root.  The
state is read once per decomposition, at that guess: the Newton step from a
read point is taken without reading the state at the iterate when a stated
bound on the model residual there (Taylor terms) meets the model's
tolerance, and is read otherwise; a root taken unread is read on its
record's first read.  Small frame drift accumulates in a pending scale
factor and the grid is only re-interpolated when it exceeds a threshold,
so the bubble never de-resolves.

The lifted parameter b_hat re-gauges b against the parabolic-scale direction
and obeys the sharp law b_hat_s ~ -2 b^2/|log b|; a secant iteration on
its exact root function, started at b and at the Newton step from b on
an estimated slope, finds it.  Everything recorded lands in a TimeSeries
consumed by the law-fitting diagnostics.

The exact profile is evaluated a block of at most PROFILE_BLOCK b at a
time (`profiles.modulation_profiles`): the table's nodes and probes, and a
run's records, which wait until PROFILE_BLOCK of them are pending or the
run ends, then make their first reads in one block (`read`) and their
lifts in one lockstep secant (`lift_bs`).  The blocks stay inside these
evaluators: a ProfileError names a b, never a position in a block.

`RunSetup` builds what a run needs before its first step (grid, initial
state, solver, stepper) once; `evolve`, the probe's members and the CLI's
runs all run on one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from numpy.polynomial.chebyshev import chebder
from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs

from . import diagnostics, operators
from .grid import FieldPair, RadialField, RadialGrid
from .operators import mass_q, q_density, q_potential_grad
from .profiles import (
    B_MAX,
    ProfileError,
    build_profile_family,
    build_t1_s1,
    grid_b_floor,
    localization_radius,
    modulation_profiles,
)


class SimulationError(RuntimeError):
    pass


class ModulationError(SimulationError):
    pass


# the errors that end a run early, each with the status it gives the run;
# the first class that matches decides
FAILURES = ((ModulationError, "modulation_failed"),
            (ProfileError, "grid_exhausted"),
            (SimulationError, "nonfinite"))
FAILURE_ERRORS = tuple(cls for cls, _ in FAILURES)


# -- state and series ------------------------------------------------------------

@dataclass
class FlowState:
    """Partial-mass state (m, n) with frame bookkeeping.

    In the rescaled frame the arrays live on the fixed y-grid and `lam`
    carries the physical scale; steps with b = 0 keep lam at 1 (the
    physical frame).
    """

    grid: RadialGrid
    m: np.ndarray
    n: np.ndarray
    t: float = 0.0
    s: float = 0.0
    lam: float = 1.0

    def primitive(self) -> FieldPair:
        """The state as a primitive pair (u, dv/dr) = (m'/r, n/r)."""
        return FieldPair(RadialField(self.grid, self.density_values()),
                         RadialField(self.grid, self.grid.divide_by_r(
                             self.n, "even"), "odd"))

    def density_values(self):
        d1 = self.grid.diff_matrix(1, "even") @ self.m
        return self.grid.divide_by_r(d1, "odd")

    def mass(self) -> float:
        return 2.0 * np.pi * float(self.m[-1])


class ModulationState:
    """A decomposition: lam1 (`lam`), b, and from one exact residual at
    them the pair F (`residuals`), the fields (eps, geta) (`eps_pair`) and
    the profile at b they were taken against (`profile`).

    It holds its solver and the state's splines until
    `ModulationSolver.read` reads them at lam1, fills that exact triple
    (`_exact`, None until then) and drops them.  Reading any of the three
    on an unread decomposition reads it alone, `solver.read([self])`.
    """

    def __init__(self, lam: float, b: float, solver, splines):
        self.lam, self.b = lam, b
        self._solver, self._splines = solver, splines
        self._exact = None

    def _read(self):
        if self._exact is None:
            self._solver.read([self])
        return self._exact

    residuals = property(lambda self: self._read()[0])
    eps_pair = property(lambda self: self._read()[1])
    profile = property(lambda self: self._read()[2])


COLUMNS = ("t", "s", "lam", "b", "b_hat", "mass", "free_energy",
           "e2_xq", "lyapunov", "res_phi", "res_lphi", "min_u")


class TimeSeries:
    """Column store of the run history (monotone in t and s).

    `s` is the rescaled time of the computational frame, ds/dt = 1/lam_f^2
    with lam_f = FlowState.lam; `lam` is the bubble's scale lam_f * lam1,
    where lam1 is the pending scale of the bubble inside the frame.  The
    bubble's own rescaled time sigma, d sigma/dt = 1/lam^2, in which the
    modulation laws are stated, is recovered by `bubble_time`.
    """

    def __init__(self):
        self.rows = []
        self.status = "running"
        self.reason = None
        self.counters = {}

    def append(self, **kw):
        if self.rows:
            last = self.rows[-1]
            if kw["t"] < last[0] or kw["s"] < last[1]:
                raise SimulationError("time series must be monotone")
        self.rows.append(tuple(kw.get(c, float("nan")) for c in COLUMNS))

    def fail(self, exc):
        """End the series on exc, one of FAILURE_ERRORS: the status that
        FAILURES gives it, and its message as .reason."""
        self.status = next(s for c, s in FAILURES if isinstance(exc, c))
        self.reason = str(exc)

    def __len__(self):
        return len(self.rows)

    def column(self, name):
        i = COLUMNS.index(name)
        return np.array([r[i] for r in self.rows])

    @property
    def s(self):
        return self.column("s")

    @property
    def t(self):
        return self.column("t")

    @property
    def lam(self):
        return self.column("lam")

    @property
    def b(self):
        return self.column("b")

    @property
    def b_hat(self):
        return self.column("b_hat")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join("%.17g" % x for x in row) + "\n")


# -- right-hand side and stepping ---------------------------------------------

def rhs_partial_mass(state: FlowState, b: float = 0.0, coupling=True):
    """Time derivative of (m, n); b is the frame drift (-lambda_s/lambda)."""
    g = state.grid
    r = g.nodes
    d1e = g.diff_matrix(1, "even")
    d2e = g.diff_matrix(2, "even")
    mp = d1e @ state.m
    mp_r = g.divide_by_r(mp, "odd")
    dm = (d2e @ state.m) - mp_r - b * r * mp
    if coupling:
        dm = dm + mp_r * state.n
    dv = state.n - state.m
    dp = d1e @ dv
    dn = (d2e @ dv) - g.divide_by_r(dp, "odd") - b * r * (d1e @ state.n)
    dm[0] = dn[0] = 0.0
    return dm, dn


class SemiImplicitStepper:
    """Backward-Euler-type step, linearized in the transport coupling.

    Diffusion (including the singular -m'/r drift) and the rescaling term
    are implicit; the m' n / r coupling uses the previous n.  The outer
    boundary pins m (captured mass, exact conservation) and imposes zero
    slope on n, matching the far-field constancy of the chemoattractant
    partial mass.

    Both systems are banded.  D1, D2 and lap0 = D2 - D1/r are held once in
    LAPACK band storage, ab[u + i - j, j] = A[i, j], with the lower and upper
    widths (l, u) read off the nonzero pattern of the assembled difference
    matrices (5 and 3 at stencil order 4).  Each step forms both system
    matrices and their boundary rows with in-place ufuncs in one
    preallocated band, copies each into rows l: of one preallocated
    Fortran-order (2l + u + 1, n) array, the layout LAPACK's dgbsv factors
    in place (its first l rows take the fill-in), and solves it with
    dgbsv: the routine and matrix of
    `scipy.linalg.solve_banded`, without its per-call validation and
    padded copies.  A singular system or a non-finite solution raises
    SimulationError.
    """

    def __init__(self, grid: RadialGrid, coupling=True):
        self.grid = grid
        self.coupling = coupling
        d1 = grid.diff_matrix(1, "even").tocsr()
        d2 = grid.diff_matrix(2, "even").tocsr()
        r = grid.nodes
        npts = grid.n
        self.inv_r = inv_r = grid.divide_by_r(np.ones(npts), "even")
        # row 0 of lap0 never matters: both systems replace it by a unit row
        lap0 = (d2 - sparse.diags(inv_r) @ d1).tocsr()
        self._lap0_csr = lap0   # for the explicit lap0 @ m_new
        offsets = np.concatenate([np.subtract(*d.nonzero()) for d in (d1, d2)])
        self.l, self.u = l, u = int(offsets.max()), int(-offsets.min())
        self.d1 = _band(d1, l, u)
        self.d2 = _band(d2, l, u)
        self.lap0 = _band(lap0, l, u)
        # row i of band entry (k, j) is k - u + j; outside the matrix the
        # band is zero, so a clipped index only ever multiplies a zero
        self._rows = np.clip(np.arange(l + u + 1)[:, None] - u
                             + np.arange(npts)[None, :], 0, npts - 1)
        self._r_d1 = r[self._rows] * self.d1
        self._eye = np.zeros_like(self.d1)
        self._eye[u] = 1.0
        j = np.arange(u + 1)
        self._first_row = (u - j, j)
        j = np.arange(npts - 1 - l, npts)
        self._last_row = (u + npts - 1 - j, j)
        self._work = np.zeros((2 * l + u + 1, npts), order="F")
        # where each step forms its systems, copied into rows l: of _work
        self._band = np.empty_like(self.d1)

    def step(self, state: FlowState, ds: float, b: float = 0.0) -> FlowState:
        r = self.grid.nodes
        u = self.u
        n_old = state.n
        coef = -self.inv_r - b * r
        if self.coupling:
            coef = coef + self.inv_r * n_old
        # A_m = eye - ds (D2 + coef D1), formed in the solver's band
        A_m = self._band
        np.take(coef, self._rows, out=A_m, mode="clip")
        np.multiply(A_m, self.d1, out=A_m)
        np.add(self.d2, A_m, out=A_m)
        np.multiply(A_m, ds, out=A_m)
        np.subtract(self._eye, A_m, out=A_m)
        rhs_m = state.m.copy()
        A_m[self._first_row] = 0.0
        A_m[u, 0] = 1.0
        rhs_m[0] = 0.0
        A_m[self._last_row] = 0.0
        A_m[u, -1] = 1.0
        m_new = self._solve(rhs_m)

        # A_n = eye - ds (lap0 - b r D1), in the same band
        A_n = self._band
        np.multiply(self._r_d1, b, out=A_n)
        np.subtract(self.lap0, A_n, out=A_n)
        np.multiply(A_n, ds, out=A_n)
        np.subtract(self._eye, A_n, out=A_n)
        rhs_n = n_old - ds * (self._lap0_csr @ m_new)
        A_n[self._first_row] = 0.0
        A_n[u, 0] = 1.0
        rhs_n[0] = 0.0
        A_n[self._last_row] = self.d1[self._last_row]
        rhs_n[-1] = 0.0
        n_new = self._solve(rhs_n)

        lam_mid = state.lam * math.exp(-0.5 * b * ds)
        return FlowState(state.grid, m_new, n_new,
                         t=state.t + ds * lam_mid ** 2, s=state.s + ds,
                         lam=state.lam * math.exp(-b * ds))

    def _solve(self, rhs):
        # dgbsv factors _work in place; its first l rows are workspace for
        # the fill-in, which LAPACK does not read on entry
        self._work[self.l:] = self._band
        _, _, x, info = dgbsv(self.l, self.u, self._work, rhs,
                              overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise SimulationError("singular implicit step (dgbsv info %d)"
                                  % info)
        if not np.all(np.isfinite(x)):
            raise SimulationError("implicit step produced a non-finite state")
        return x


def _band(mat, l, u):
    """LAPACK band storage ab[u + i - j, j] = mat[i, j] of a sparse matrix."""
    coo = mat.tocoo()
    coo.eliminate_zeros()
    ab = np.zeros((l + u + 1, mat.shape[1]))
    ab[u + coo.row - coo.col, coo.col] = coo.data
    return ab


# -- modulation decomposition ----------------------------------------------------

SPLINE_DEGREE = 5
# scipy.interpolate, a third of the package's import time, is imported
# where the state's splines are built: commands without a run never load it


def _spline_coefficients(grid, m, n):
    """Knots t and coefficients c, shape (grid.n, 2), of the quintic
    not-a-knot interpolants of m and n on the grid nodes.

    The knots are `make_interp_spline`'s, and its collocation matrix is
    factored once per grid (dgbtrf, kept in `grid.memo`) in its LAPACK band
    storage; make_interp_spline's dgbsv is that factorization followed by
    dgbtrs, so c[:, 0] and c[:, 1] equal make_interp_spline(grid.nodes,
    m or n, k=5).c bit for bit, here from one solve with two right-hand
    sides.
    """
    t, lu, piv = grid.cached("quintic_spline", _spline_factor, grid)
    c, info = dgbtrs(lu, SPLINE_DEGREE, SPLINE_DEGREE,
                     np.column_stack([m, n]), piv)
    if info != 0:
        raise SimulationError("spline solve failed (info %d)" % info)
    return t, c


def _spline_factor(grid):
    """Knots, band LU factors and pivots of the grid's quintic collocation
    matrix."""
    from scipy.interpolate import BSpline, make_interp_spline
    k = SPLINE_DEGREE
    x = grid.nodes
    t = make_interp_spline(x, np.zeros_like(x), k=k).t
    coo = BSpline.design_matrix(x, t, k).tocoo()
    ab = np.zeros((3 * k + 1, grid.n), order="F")
    ab[2 * k + coo.row - coo.col, coo.col] = coo.data
    lu, piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
    if info != 0:
        raise SimulationError("singular spline collocation matrix")
    return t, lu, piv


class _StateSplines:
    """The state's quintic splines of (m, n), one two-column spline, read at
    a scale lam1 the way the residual reads them: u = lam1^2 m'(x)/x
    (lam1^2 m''(0) at the origin) and n(x), with x = lam1 y clipped to the
    grid.  A call of the spline reads both columns at the cost of one."""

    def __init__(self, state: FlowState):
        from scipy.interpolate import BSpline
        g = state.grid
        t, c = _spline_coefficients(g, state.m, state.n)
        self.spline = BSpline.construct_fast(t, c, SPLINE_DEGREE)
        self.y = g.nodes
        self.r_max = g.r_max
        self.m_pp0 = float(self.spline(0.0, 2)[0])

    def at(self, x, nu):
        """The nu-th derivatives of m and n at x, one call of the spline."""
        return np.ascontiguousarray(self.spline(x, nu).T)

    def __call__(self, lam1):
        """u and n(x) at lam1."""
        return self._values(lam1)[:2]

    def model(self, lam1):
        """u and n(x) at lam1 with the lambda-column's terms: with
        g = n(x)/y, lam1 du/dlam1 = u + lam1^2 m''(x) and lam1 dg/dlam1 =
        lam1 n'(x), 0 at the origin (where g is 0)."""
        u, n_x, x, n_p = self._values(lam1)
        dg = lam1 * n_p
        dg[0] = 0.0
        return u, n_x, u + lam1 ** 2 * self.at(x, 2)[0], dg

    def _values(self, lam1):
        """u, n(x), x and n'(x) at lam1, two calls of the spline."""
        x = np.minimum(lam1 * self.y, self.r_max)
        (_, n_x), (m_p, n_p) = self.at(x, 0), self.at(x, 1)
        u = np.empty_like(x)
        u[1:] = lam1 ** 2 * m_p[1:] / x[1:]
        u[0] = lam1 ** 2 * self.m_pp0
        return u, n_x, x, n_p


# the most b one profile evaluation takes at once (`modulation_profiles`):
# the table's nodes and probes, and a run's records, whose first reads and
# lifts are made a block at a time
PROFILE_BLOCK = 16
# the profile table's levels: Chebyshev points in log b, tripled per level
TABLE_NODES = (128, 384, 1152)
# the table's off-node probes: the Chebyshev points of TABLE_PROBES nodes,
# whose angles fall midway between two nodes at every level
TABLE_PROBES = 8
TABLE_PROBE_THETA = np.pi * (np.arange(TABLE_PROBES) + 0.5) / TABLE_PROBES
# the trailing Chebyshev coefficients that measure the table's tail
TABLE_TAIL = 8
# the table's error bound is this times its largest measured error
TABLE_SAFETY = 4.0


class ProfileTable:
    """Chebyshev interpolant in log b of scalar functions of the profile,
    refined until its error bound certifies decompose's model.

    Built from `scalars(bs)`, the values at a block of at most
    PROFILE_BLOCK b (one row each), at the Chebyshev points (first kind)
    of log b over [lo, hi] of one level of TABLE_NODES; calling the table
    at b returns the interpolated values and their b-derivatives.  A b
    outside [lo, hi] raises ProfileError, as `modulation_profiles` does for
    a b that does not fit the grid.  Evaluation is `coef @ cos(k arccos x)`.

    `error_bound` bounds the 2-norm of the table's error over [lo, hi]:
    TABLE_SAFETY times the larger of its tail (the largest of its last
    TABLE_TAIL coefficients) and its misfit to `scalars` at TABLE_PROBES
    off-node points (TABLE_PROBE_THETA).  Each level is built afresh, its
    nodes then its probes, and the table keeps the first level whose bound
    is at most CERTIFY_FRACTION * ATOL * f_scale (`nodes` is its node
    count); ProfileError if none is.

    `curvature(b)` bounds the 2-norm of the table's own second
    b-derivative over [b, hi], from its coefficients: with x the Chebyshev
    variable, |d^2/dx^2| <= sum |c''| and |d/dx| <= sum |c'| (|T_k| <= 1),
    and the chain rule through x(log b) is largest at the smallest b.
    """

    def __init__(self, lo, hi, scalars, f_scale):
        self.lo, self.hi = lo, hi
        self._la, self._lb = math.log(lo), math.log(hi)
        target = CERTIFY_FRACTION * ATOL * f_scale
        for nodes in TABLE_NODES:
            theta = np.pi * (np.arange(nodes) + 0.5) / nodes
            values = _blocked(scalars, self._b(theta))
            self._k = np.arange(nodes)
            coef = (2.0 / nodes) * (np.cos(np.outer(self._k, theta)) @ values)
            coef[0] *= 0.5
            self._coef = coef
            self._dcoef = chebder(coef)
            tail = np.linalg.norm(coef[-TABLE_TAIL:], axis=1).max()
            probes = self._b(TABLE_PROBE_THETA)
            misfit = max(np.linalg.norm(self(b)[0] - exact) for b, exact
                         in zip(probes, _blocked(scalars, probes)))
            self.error_bound = TABLE_SAFETY * float(max(tail, misfit))
            self.nodes = nodes
            if self.error_bound <= target:
                break
        else:
            raise ProfileError(
                "the profile table does not certify at %d nodes: error bound "
                "%.3g f_scale, above its target %.3g f_scale"
                % (nodes, self.error_bound / f_scale, target / f_scale))
        # d^2P/db^2 = (P_xx (2/span)^2 - P_x (2/span)) / b^2
        dx = 2.0 / (self._lb - self._la)
        self._curvature = float(np.linalg.norm(
            np.abs(chebder(coef, 2)).sum(axis=0) * dx ** 2
            + np.abs(self._dcoef).sum(axis=0) * dx))

    def curvature(self, b):
        """A bound on |d^2/db^2| of the table over [b, hi]."""
        return self._curvature / (b * b)

    def _b(self, theta):
        """The b at Chebyshev angles theta."""
        return np.exp(0.5 * (self._la + self._lb)
                      + 0.5 * (self._lb - self._la) * np.cos(theta))

    def __call__(self, b):
        if not self.lo <= b <= self.hi:
            raise ProfileError("b=%g outside the profile table [%g, %g]"
                               % (b, self.lo, self.hi))
        span = self._lb - self._la
        x = (2.0 * math.log(b) - self._la - self._lb) / span
        tk = np.cos(self._k * math.acos(min(max(x, -1.0), 1.0)))
        return tk @ self._coef, (tk[:-1] @ self._dcoef) * (2.0 / (span * b))


def _blocked(fn, bs):
    """fn's rows for bs, from blocks of at most PROFILE_BLOCK b."""
    return np.concatenate([fn(bs[i:i + PROFILE_BLOCK])
                           for i in range(0, len(bs), PROFILE_BLOCK)])


# decompose accepts |F| <= ATOL * f_scale
ATOL = 1e-10
# the profile table refines until its error_bound is at most this times
# atol: then a converged model root meets atol without an exact residual
CERTIFY_FRACTION = 0.5
# decompose's model Newton stops at |G| <= MODEL_TOL * atol
MODEL_TOL = 1e-2
# model Newton iterations after which the model is 'exhausted'
MODEL_MAX_ITER = 30
# how decompose's ModulationError names a model outcome that failed
MODEL_FAILURES = {
    "singular": "singular modulation Jacobian (M too small or state far "
                "from family)",
    "stalled": "modulation Newton stalled (trapped regime exited?)"}
COUNTERS = ("decompose_calls", "predicted_steps",
            "backtrack_decompositions", "model_iterations", "state_reads",
            "confirmations_skipped", "damping_halvings",
            "profile_evals_decompose",
            "profile_evals_lift", "lift_calls", "lift_failures")


class ModulationSolver:
    """Extracts (lambda, b) from the two orthogonality conditions.

    The residual map p = (lambda1, b) -> (<v, Phi_M>, <v, L* Phi_M>) with
    v = (lambda1^2 u(lambda1 y) - Qb~, lambda1 dv(lambda1 y) - dPb~) is
    separable, F(lambda1, b) = S(lambda1) - P(b): S pairs the state's
    splines, P(b) is two scalars of the profile at b.  The solver
    tabulates P once, over the b the grid localizes (`ProfileTable`).
    `decompose` runs damped Newton on the model G = S(lambda1) - P~(b), in
    scalar 2x2 algebra, with the table's derivative as the b-column, so
    its iterations evaluate no profile.  The lambda-column is exact: with
    u = lambda1^2 m'(x)/x and g = n(x)/y at x = lambda1 y, lambda1
    du/dlambda1 = u + lambda1^2 m''(x) and lambda1 dg/dlambda1 = lambda1
    n'(x), so dS/dlambda1 pairs two derivatives of the state's splines,
    read with the values that give S: each iterate reads the splines once.

    Acceptance is |F| <= atol = ATOL f_scale.  F - G is the table's error,
    so a root with |G| <= MODEL_TOL atol meets atol whenever that error is
    at most CERTIFY_FRACTION atol; the table refines until its
    `error_bound` certifies this, and raises ProfileError, so that no
    solver is built, if it cannot.  A converged model root is returned
    with no exact residual: `read` evaluates (F, eps, geta) and the
    profile from the state's values at the root, for a block of
    decompositions at once, on the first read of their fields.  The root
    of a model that did not converge is read at once and accepted if its
    exact residual meets atol; a singular model, or a residual above
    atol, raises ModulationError naming b, lambda1, |F|/f_scale, the
    model's outcome and its iteration count, and, when the failing root
    sits at B_MAX, that b reached the top of the family's range.  The
    caller supplies the starting guess: a run extrapolates it from its
    last three scheduled roots, which takes one model iteration from a
    guess one step ahead and one or two from one up to MAX_INTERVAL steps
    ahead.

    One read of the state per decomposition: the Newton step d =
    (dlambda1, db) from a read point p is taken without reading the state
    at p + d when a bound on the model residual there is at most MODEL_TOL
    atol, the model's own stopping test.  G is separable, so Taylor's
    theorem gives

        |G(p + d)| <= |G(p) + J~ d| + (K_S dlambda1^2 + K_P db^2) / 2,

    with J~ the model's Jacobian (G(p) + J~ d is the step's rounding).
    K_S is twice |S''| at p, from (lambda1 d/dlambda1)^2 with y d/dy as the
    grid's D1 moved onto the pairing weights once per solver, standing for
    its largest value along the step; K_P is the table's `curvature` at
    the smaller b of the step.  A step the bound refuses, or one that
    leaves lambda1 > 0.1 and [table.lo, B_MAX], is read.

    The guarantee: if K_S bounds |S''| along the step, the exact model
    residual at an unread root is at most MODEL_TOL atol.  The computed F
    adds the table's error (at most CERTIFY_FRACTION atol) and the
    rounding of the pairing sums, gamma_n sum |w v|, which is at most 0.5
    MODEL_TOL atol in a collapse run at M = 11 and 3 MODEL_TOL atol at
    M = 60, so an unread root has |F| <= 0.54 atol.  An unread root is the
    iterate a read would accept when that read's computed |G| is within
    MODEL_TOL atol too (read afterwards, at most 0.52 MODEL_TOL atol in
    those runs); then the iterates, and every output, are those of a
    solver that always reads.  That is measured, not proven.

    `counters` counts decompose calls, the steps a run predicts and the
    decompositions it makes to backtrack (both counted by
    `RunSetup.run`), model iterations, reads of the state's splines
    (state_reads), Newton steps taken unread (confirmations_skipped),
    model step halvings, the exact profile evaluations (table: the nodes
    and probes of every level it built; decompose: every residual `read`
    evaluates; lift), lift calls and lift failures,
    and carry the table's node count (table_nodes) and its error bound
    relative to f_scale (table_error_bound).  They belong to one run;
    `reset` starts them afresh, so that runs sharing a solver each see
    what a solver of their own would show (the table's evaluations are
    counted in every run).
    The table's nodes and probes, the first reads of `read` and the lifts
    of `lift_bs` each evaluate the profile a block of at most
    PROFILE_BLOCK b at a time.
    """

    def __init__(self, grid: RadialGrid, M_param: float):
        self.grid = grid
        lvl1 = build_t1_s1(grid)
        self.phim = operators.build_phi_m(
            grid, M_param, FieldPair(lvl1.T1, lvl1.S1_grad))
        self.lstar_phim = operators.apply_Lstar(self.phim.pair)
        w = 2.0 * np.pi * grid.quad_weights
        self._wphi1 = w * self.phim.pair.density.values
        self._wphi2 = w * self.phim.pair.chem_gradient.values
        self._wlphi1 = w * self.lstar_phim.density.values
        self._wlphi2 = w * self.lstar_phim.chem_gradient.values
        # the step bound's K_S at a read point, one stacked product per
        # field.  With D the y d/dy of the grid's D1 moved onto the
        # weights, lam1 d/dlam1 of each row of S (lam1 du/dlam1 = 2u + y u',
        # lam1 dg/dlam1 = g + y g') is <a_u, u> + <a_g, g>, and lam1^2 S''
        # = (lam1 d/dlam1)^2 S - lam1 dS/dlam1 is <a_u + D a_u, u> +
        # <D a_g, g>
        y = grid.nodes
        d1u = grid.diff_matrix(1, "even").T
        d1g = grid.diff_matrix(1, "odd").T
        a_u = [2.0 * wu + d1u @ (y * wu)
               for wu in (self._wphi1, self._wlphi1)]
        a_g = [wg + d1g @ (y * wg) for wg in (self._wphi2, self._wlphi2)]
        self._ks_u = np.array([a + d1u @ (y * a) for a in a_u])
        self._ks_g = np.array([d1g @ (y * a) for a in a_g])
        b_floor = grid_b_floor(grid)

        def scalars(bs):
            return np.array([
                self._pair(prof.Qb_tilde.values,
                           grid.divide_by_r(prof.n_tilde.values, "even"))
                for prof in modulation_profiles(grid, bs)])

        # residual scale: the pairing Jacobian entries are ~ 32 pi log M
        self.f_scale = abs(self.phim.report["PhiM_LambdaQ"])
        self.atol = ATOL * self.f_scale
        self.table = ProfileTable(b_floor, B_MAX, scalars, self.f_scale)
        self.reset()

    def reset(self):
        """Zero the counters, except the table's: its node count, the
        profile evaluations of every level it built, and its error bound."""
        nodes = self.table.nodes
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters.update(table_nodes=nodes, profile_evals_table=sum(
            n + TABLE_PROBES for n in TABLE_NODES if n <= nodes),
            table_error_bound=self.table.error_bound / self.f_scale)

    def _pair(self, u, g):
        return (float(self._wphi1 @ u + self._wphi2 @ g),
                float(self._wlphi1 @ u + self._wlphi2 @ g))

    def _model(self, vals, lam1, b):
        """From a model read of the state at lam1 (`_StateSplines.model`):
        G = S(lam1) - P~(b), the Jacobian column dS/dlam1 and dP~/db, each a
        pair of floats, and the step bound's |S''| at lam1."""
        u, n_x, du, dg = vals
        g = self.grid.divide_by_r(n_x, "even")
        (p1, p2), (dp1, dp2) = (x.tolist() for x in self.table(b))
        s1, s2 = self._pair(u, g)
        dl1, dl2 = self._pair(du, dg)
        c1, c2 = (self._ks_u @ u + self._ks_g @ g).tolist()
        return ((s1 - p1, s2 - p2), (dl1 / lam1, dl2 / lam1), (dp1, dp2),
                math.hypot(c1, c2) / lam1 ** 2)

    def _read_state(self, read, lam1):
        """read(lam1), one read of the state's splines (counted)."""
        self.counters["state_reads"] += 1
        return read(lam1)

    def _step_bound(self, G, dl, dp, s_pp, b, step_lam, step_b):
        """The class docstring's bound on |G| after the Newton step
        (step_lam, step_b) from a read point at b where the model gave
        G, dl, dp and |S''|."""
        lin = math.hypot(G[0] + dl[0] * step_lam - dp[0] * step_b,
                         G[1] + dl[1] * step_lam - dp[1] * step_b)
        k_p = self.table.curvature(min(b, b + step_b))
        return lin + 0.5 * (2.0 * s_pp * step_lam ** 2 + k_p * step_b ** 2)

    def _residuals(self, vals, bs):
        """Exact F at each (lam1, bs[j]) from vals[j], the state's values at
        lam1: F, the fields (eps, geta) as a FieldPair and the profile at
        bs[j], the triple a ModulationState holds; one block of profiles
        (`modulation_profiles`), whose ProfileError names the b that
        failed."""
        g = self.grid
        profs = modulation_profiles(g, bs)
        self.counters["profile_evals_decompose"] += len(bs)
        out = []
        for (u, n_x), prof in zip(vals, profs):
            # density residual lambda1^2 u(lambda1 y) - Qb(y), u = m'/x
            eps = u - prof.Qb_tilde.values
            geta = g.divide_by_r(n_x - prof.n_tilde.values, "even")
            out.append((self._pair(eps, geta),
                        FieldPair(RadialField(g, eps),
                                  RadialField(g, geta, "odd")),
                        prof))
        return out

    def read(self, mods):
        """Fill the exact triple of each decomposition of mods that has
        none, from one block of profiles (at most PROFILE_BLOCK) and the
        state's splines read at its lam1, and drop the splines.  For a
        root taken unread that read has the bits of the one the step bound
        spared.  A ProfileError, which names a b, reads none of them."""
        todo = [mod for mod in mods if mod._exact is None]
        if not todo:
            return
        exact = self._residuals(
            [self._read_state(mod._splines, mod.lam) for mod in todo],
            [mod.b for mod in todo])
        for mod, triple in zip(todo, exact):
            mod._exact, mod._splines = triple, None

    def _model_newton(self, splines, lam1, b):
        """Damped Newton on the model, each step halved until |G| descends
        (at most 10 times); one read of the state per iterate gives G, the
        lambda-column and the step bound's K_S, and a full step whose
        bound (see the class docstring) is at most MODEL_TOL atol ends the
        solve unread.  Returns lam1, b and the outcome: 'converged' (|G|
        <= MODEL_TOL atol, read or bounded), 'stalled' (no descent),
        'singular' (a singular Jacobian) or 'exhausted' (MODEL_MAX_ITER
        steps)."""
        tol = MODEL_TOL * self.atol
        G, dl, dp, s_pp = self._model(
            self._read_state(splines.model, lam1), lam1, b)
        norm = math.hypot(*G)
        for _ in range(MODEL_MAX_ITER):
            if norm <= tol:
                return lam1, b, "converged"
            self.counters["model_iterations"] += 1
            # J = [[dl1, -dp1], [dl2, -dp2]]; the step solves J step = -G
            det = dp[0] * dl[1] - dl[0] * dp[1]
            j_max = max(abs(dl[0]), abs(dl[1]), abs(dp[0]), abs(dp[1]))
            if not math.isfinite(det) or abs(det) < 1e-12 * j_max ** 2:
                return lam1, b, "singular"
            step_lam = (dp[1] * G[0] - dp[0] * G[1]) / det
            step_b = (dl[1] * G[0] - dl[0] * G[1]) / det
            lam_new, b_new = lam1 + step_lam, b + step_b
            if (lam_new > 0.1 and self.table.lo <= b_new <= B_MAX
                    and self._step_bound(G, dl, dp, s_pp, b, step_lam,
                                         step_b) <= tol):
                self.counters["confirmations_skipped"] += 1
                return lam_new, b_new, "converged"
            t_damp = 1.0
            for _ in range(10):
                lam_try = lam1 + t_damp * step_lam
                b_try = b + t_damp * step_b
                if lam_try > 0.1 and 0.0 < b_try <= B_MAX:
                    G_try, dl_try, dp_try, s_pp_try = self._model(
                        self._read_state(splines.model, lam_try), lam_try,
                        b_try)
                    norm_try = math.hypot(*G_try)
                    if norm_try < norm:
                        lam1, b, G, dl, dp, s_pp, norm = (
                            lam_try, b_try, G_try, dl_try, dp_try, s_pp_try,
                            norm_try)
                        break
                t_damp *= 0.5
                self.counters["damping_halvings"] += 1
            else:
                return lam1, b, "stalled"
        return lam1, b, "converged" if norm <= tol else "exhausted"

    def decompose(self, state: FlowState, guess) -> ModulationState:
        self.counters["decompose_calls"] += 1
        iterations = self.counters["model_iterations"]
        splines = _StateSplines(state)
        lam1, b, outcome = self._model_newton(splines, *guess)
        mod = ModulationState(lam1, b, self, splines)
        if outcome == "converged":
            return mod
        # the first read: one exact residual at the model's root, accepted
        # if it meets atol
        self.read([mod])
        res = np.linalg.norm(mod.residuals)
        if outcome == "singular" or res > self.atol:
            what = MODEL_FAILURES.get(outcome, "modulation Newton did not "
                                               "converge")
            if b >= B_MAX:
                what = ("b reached the top of the family's range, B_MAX = %g; "
                        "%s" % (B_MAX, what))
            raise ModulationError(
                "%s: b=%.6g lam1=%.6g |F|/f_scale=%.3g model=%s after %d "
                "iterations" % (
                    what, b, lam1, res / self.f_scale, outcome,
                    self.counters["model_iterations"] - iterations))
        return mod


# the secant's second point where the Newton step from b cannot be used
# is b times this (b_hat/b - 1 stays within 1 %)
LIFT_SECANT_START = 0.99
# a lift's secant stops at a step of at most LIFT_SECANT_TOL * b_hat
LIFT_SECANT_TOL = 1e-10
# secant steps (one profile evaluation each) after which a lift gives up
LIFT_SECANT_STEPS = 8


def lift_b(solver: ModulationSolver, mod: ModulationState) -> float:
    """b_hat of one decomposition: `lift_bs` of the block [mod], raising
    the ModulationError that ends its lift."""
    bh = lift_bs(solver, [mod])[0]
    if isinstance(bh, ModulationError):
        raise bh
    return bh


def lift_bs(solver: ModulationSolver, mods) -> list:
    """b_hat solving <Qb~ + E - Qbhat~, L* Phi_{0, Bhat0}> = 0, Bhat0 =
    1/sqrt(b_hat), for each decomposition of mods (at most PROFILE_BLOCK):
    a float, or the ModulationError that ended its lift.

    With A(b_hat) = w L* Phi_{0, Bhat0} the root function is
    <u_b - Qbhat~, A(b_hat)>, u_b = (Qb~, dPb~) + E (`_lift_residuals`).
    A secant iteration solves it from b_hat = b, where the value is
    <E, A(b)> from the decomposition's own fields, and the Newton step
    from there on the slope -<d_b (Qb~, dPb~), A(b)>, with d_b (Qb~, dPb~)
    estimated by ((Qb~ - Q)/b, (dPb~ - dphi_Q)/b) = chi_B1 (T1 + b T2, ...)
    from the profile at b.  Where that step is zero, not finite or leaves
    the table, the second point is LIFT_SECANT_START * b (its mirror 1 %
    above b if that is below the table).  A lift takes two or three
    profile evaluations.  The block's
    secants run in lockstep: each round evaluates the profile and A(b_hat)
    once, over the iterates of the lifts still running, and each lift
    takes the iterates it would take alone.  An iterate outside
    [solver.table.lo, B_MAX], a zero secant denominator, or no step of at
    most LIFT_SECANT_TOL * b_hat within LIFT_SECANT_STEPS steps ends a lift
    with a ModulationError and counts a lift failure.  A ProfileError of
    the profile at an iterate, which names that iterate, ends the block.
    """
    g = solver.grid
    counters = solver.counters
    counters["lift_calls"] += len(mods)
    w = 2.0 * np.pi * g.quad_weights
    lo, hi = solver.table.lo, B_MAX
    eps = [mod.eps_pair for mod in mods]
    u_b = [mod.profile.Qb_tilde.values + e.density.values
           for mod, e in zip(mods, eps)]
    g_b = [mod.profile.Pb_tilde_grad.values + e.chem_gradient.values
           for mod, e in zip(mods, eps)]
    b0 = [mod.b for mod in mods]
    a1, a2 = _lift_directions(g, w, b0)
    r0 = [float(e.density.values @ a1[j] + e.chem_gradient.values @ a2[j])
          for j, e in enumerate(eps)]
    y = g.nodes
    q0, p0 = q_density(y), q_potential_grad(y)
    b1 = []
    for j, mod in enumerate(mods):
        slope = -float((mod.profile.Qb_tilde.values - q0) @ a1[j]
                       + (mod.profile.Pb_tilde_grad.values - p0) @ a2[j])
        bh = mod.b - r0[j] * mod.b / slope if slope else mod.b
        if not (bh != mod.b and lo <= bh <= hi):  # NaN fails it too
            bh = LIFT_SECANT_START * mod.b
            if bh < lo:
                bh = (2.0 - LIFT_SECANT_START) * mod.b
        b1.append(bh)
    out = [None] * len(mods)
    for _ in range(LIFT_SECANT_STEPS):
        live = [j for j, x in enumerate(out)
                if x is None and lo <= b1[j] <= hi]
        if not live:
            break
        r1 = _lift_residuals(g, w, [b1[j] for j in live],
                             [u_b[j] for j in live], [g_b[j] for j in live])
        counters["profile_evals_lift"] += len(live)
        for j, r in zip(live, r1):
            if r == r0[j]:
                out[j] = False
                continue
            b0[j], r0[j], b1[j] = b1[j], r, b1[j] - r * (b1[j] - b0[j]) / (
                r - r0[j])
            if (abs(b1[j] - b0[j]) <= LIFT_SECANT_TOL * b1[j]
                    and lo <= b1[j] <= hi):
                out[j] = float(b1[j])
    # a lift without a root ends here: no step small enough, an iterate
    # that left the table, or a zero secant denominator (False)
    for j, x in enumerate(out):
        if not isinstance(x, float):
            counters["lift_failures"] += 1
            out[j] = ModulationError(
                "lift_b's secant found no root near b=%.6g (last iterate "
                "%.6g)" % (mods[j].b, b1[j]))
    return out


def _lift_directions(grid, w, bhs):
    """A(b_hat) = w L* Phi_{0, 1/sqrt(b_hat)} for each b_hat of bhs, as
    (density, gradient) arrays of shape (k, n), one row per b_hat."""
    first, second = operators.lstar_phi0_values(
        grid, [1.0 / math.sqrt(bh) for bh in bhs])
    return ((w[:, None] * first).T.copy(), (w[:, None] * second).T.copy())


def _lift_residuals(grid, w, bhs, u_b, g_b):
    """The lifts' exact root functions at b_hat = bhs[j], with u_b[j],
    g_b[j] = (Qb~, dPb~) + E: one block of profiles and of A(b_hat)."""
    a1, a2 = _lift_directions(grid, w, bhs)
    return [float((u - prof.Qb_tilde.values) @ a1[j]
                  + (gb - prof.Pb_tilde_grad.values) @ a2[j])
            for j, (prof, u, gb) in enumerate(
                zip(modulation_profiles(grid, bhs), u_b, g_b))]


# -- the evolution loop ----------------------------------------------------------

@dataclass
class EvolveParams:
    """Knobs of a single run (grid sizes in rescaled units)."""

    b0: float = 1.0e-2
    M_param: float = 11.0
    r_max: float = 0.0          # 0: derived from b0 and M (dynamics_grid)
    h_core: float = 0.02
    nodes_per_decade: int = 48
    stencil_order: int = 4
    ds_init: float = 1.0e-3
    ds_max: float = 0.5
    db_rel_cap: float = 1.0e-3
    cadence: int = 10
    lam_stop: float = 0.0
    t_max: float = float("inf")
    s_max: float = float("inf")
    b_min: float = 0.0


# |lam1 - 1| beyond which evolve folds the pending scale into the frame
REFOLD_THRESHOLD = 0.2
# the most steps between two scheduled decompositions; at 1 a run
# decomposes every step
MAX_INTERVAL = 8
# a scheduled root the predictor missed by less than this, in lam1 and in
# b relative, doubles that interval, and one it missed by more than four
# times this halves it
SCHEDULE_TOL = 1e-5
# the most steps a run takes
MAX_STEPS = 100000
# dynamics_grid localizes b down to b0 times this
B_FINAL_FACTOR = 0.2


def dynamics_grid(params: EvolveParams) -> RadialGrid:
    """The run's grid, of radius params.r_max or, if that is 0, the
    smallest radius that carries the family down to b0 * B_FINAL_FACTOR
    (4 B1, `profiles.localization_problem`) and Phi_M (10 M,
    `operators.phi_m_problem`), each with a 5 % margin so that the
    rounding of the geometric nodes cannot leave r_max below either."""
    b_small = max(params.b0 * B_FINAL_FACTOR, 1e-8)
    r_max = params.r_max or max(4.2 * localization_radius(b_small),
                                10.5 * params.M_param)
    return RadialGrid.make(r_max, h_core=params.h_core,
                           nodes_per_decade=params.nodes_per_decade,
                           stencil_order=params.stencil_order)


def initial_state(grid, params: EvolveParams, perturbation=None) -> FlowState:
    """Profile initial data plus an optional primitive-pair perturbation."""
    fam = build_profile_family(grid, params.b0, with_error=False)
    return _perturbed(FlowState(grid, fam.m_tilde.values, fam.n_tilde.values),
                      perturbation)


def _perturbed(state: FlowState, perturbation) -> FlowState:
    """state plus a primitive-pair perturbation (eps, geta), or state itself
    for None; SimulationError unless the density is positive."""
    if perturbation is not None:
        eps, geta = perturbation
        g = state.grid
        state = replace(state, m=state.m + g.cumulative_integral(eps.values,
                                                                 "r"),
                        n=state.n + g.nodes * geta.values)
    if np.min(state.density_values()) <= 0.0:
        raise SimulationError("initial density not positive")
    return state


# sample_perturbation's draws before it gives up
PERTURBATION_TRIES = 20


class RunSetup:
    """What a run on params builds before its first step, built once: the
    grid (`dynamics_grid`), the unperturbed initial state at b0, the
    modulation solver (its profile table and Phi_M weights) and the
    stepper.  A failed build raises the builder's own error: GridError (a
    grid its size or stencil order does not allow), ProfileError (a grid
    that cannot carry the profiles at b0 or at the table's nodes, or a
    profile table that does not certify), OperatorError (Phi_M) or
    SimulationError (an initial density that is not positive);
    `config.RunConfig.validate` reports each as one violation.

    Any number of runs may share one setup: `run` starts the solver's
    per-run state afresh, so each run's series equals, bit for bit, the
    series of `evolve` with the same perturbation.
    """

    def __init__(self, params: EvolveParams):
        self.params = params
        self.grid = dynamics_grid(params)
        self.state = initial_state(self.grid, params)
        self.solver = ModulationSolver(self.grid, params.M_param)
        self.stepper = SemiImplicitStepper(self.grid)

    def sample_perturbation(self, delta, rng):
        """A `random_perturbation` of size delta on the setup's grid that
        keeps the initial density positive, drawn by rejection sampling;
        SimulationError after PERTURBATION_TRIES rejected draws."""
        for _ in range(PERTURBATION_TRIES):
            cand = random_perturbation(self.grid, delta, rng)
            try:
                _perturbed(self.state, cand)
            except SimulationError:
                continue
            return cand
        raise SimulationError("no positive perturbation found in %d tries"
                              % PERTURBATION_TRIES)

    def run(self, perturbation) -> TimeSeries:
        """Integrate from the setup's initial state plus `perturbation` (a
        primitive pair, or None) until a stopping criterion fires.

        Records the modulation history at the configured cadence; the
        returned series carries .status in {'lam_stop', 't_max', 's_max',
        'b_min', 'max_steps'} (the last after MAX_STEPS steps, which also
        ends a run without a limit of its own) or, for a run that an error
        of FAILURES ends early, the status that table gives the error:
        'modulation_failed' when the modulation Newton solve fails
        (ModulationError), 'grid_exhausted' when the solve needs the
        profile at a b whose localization does not fit the grid, 4 B1(b) >
        r_max (ProfileError), 'nonfinite' when the implicit step is
        singular or leaves a non-finite state (SimulationError).  Such a
        run keeps the partial series plus a final record, and .reason holds
        the message of the error that ended it.

        The roots (lam1, b) move along a smooth curve in s, so the run
        decomposes only the steps a schedule picks; every other step takes
        (lam1, b) from `_predict_guess`, the quadratic in s through the last
        three scheduled roots, and reads nothing of its state.  A step is
        scheduled while fewer than three roots follow the start or the
        last refold, once `interval` steps have passed since the last
        scheduled one, and when its predicted values would fire a stopping
        criterion or a refold; the criteria are then decided on the
        decomposed values.  The interval starts at 1; after each scheduled
        decomposition it doubles, up to MAX_INTERVAL, if the root lies
        within SCHEDULE_TOL of the guess (in lam1, and in b relative), and
        halves, down to 1, if it lies more than 4 SCHEDULE_TOL from it.  At
        MAX_INTERVAL = 1 every step is decomposed.  A record on a predicted
        step is decomposed for the record alone, from the same guess: that
        root feeds neither the predictor nor the step's b, so the
        trajectory does not depend on the cadence.  A refold
        re-decomposes the rescaled state and restarts the roots there.

        A run ends on a state that it decomposed, as if every step were:
        when an error ends it (a failed decomposition or step), the steps
        since the last decomposition are decomposed in order, each from
        its own guess, and the run ends at the last that decomposes, with
        that decomposition and step count, its reason the first error met.
        Only an error starts that search, so a predicted state that would
        not decompose goes unseen when the next decomposition succeeds.

        A record keeps its state and decomposition until PROFILE_BLOCK
        records are pending, or the run ends; then the block's first reads
        of the decompositions' fields (`ModulationSolver.read`) are one
        profile evaluation and the lifts of its cadence records one
        lockstep secant (`lift_bs`), and its rows are written.  A
        ProfileError there commits the block's records again one at a
        time, each a block of one, whose columns are bitwise the block's;
        the first that fails ends the run 'grid_exhausted' too, its series
        ends at the record before it, and its counters include the steps
        of the rest of that block.  The series' .counters are the
        modulation solver's counters (see `ModulationSolver`; the run adds
        its predicted steps and the decompositions made while it
        backtracks) plus the refolds, the records whose free energy is NaN
        (nan_free_energy) and the smallest, median and largest committed
        step (ds_min, ds_median, ds_max; NaN without one).  A perturbation
        that leaves the initial density not positive, or a failed first
        decomposition, raises.

        The frame moves at the rate b while the bubble sits at the pending
        scale lam1 inside it, so lam1 drifts between refolds and the
        recorded s (the frame's time, also what s_max bounds) runs at
        lam1^2 times the bubble's rate; see `bubble_time`.
        """
        params, stepper, solver = self.params, self.stepper, self.solver
        state = _perturbed(self.state, perturbation)
        solver.reset()
        counters = solver.counters
        series = TimeSeries()

        mod = solver.decompose(state, guess=(1.0, params.b0))
        b = mod.b
        lam_pending = mod.lam
        ds = params.ds_init
        b_s_est = 2.0 * b * b / abs(math.log(b))
        step_count = 0
        refolds = 0
        mass0 = state.mass()
        roots = deque([(state.s, lam_pending, b)], maxlen=3)
        interval = 1
        since = 0      # steps since the last scheduled decomposition
        steps_ds = []
        # the last decomposed step's (state, mod, step), and the (state,
        # guess, step) of each step since
        decomposed = (state, mod, step_count)
        undecomposed = []

        records = []   # (state, mod, step) of records not yet in the series

        def record():
            records.append((state, mod, step_count))
            if len(records) == PROFILE_BLOCK:
                commit(records[:])
                records.clear()

        def commit(block):
            # the block's first reads, then its lifts, in one evaluation
            # each; on a ProfileError its records are committed one at a
            # time, and the first that fails again ends the run
            if not block:
                return
            mods = [m for _, m, _ in block]
            lifted = [i for i, (_, _, k) in enumerate(block)
                      if k % params.cadence == 0]
            try:
                solver.read(mods)
                hats = lift_bs(solver, [mods[i] for i in lifted])
            except ProfileError:
                if len(block) == 1:
                    raise
                for rec in block:
                    commit([rec])
                return
            hats = dict(zip(lifted, hats))
            for i, (st, m, _) in enumerate(block):
                bh = hats.get(i, math.nan)
                append(st, m, math.nan if isinstance(bh, ModulationError)
                       else bh)

        def append(state, mod, bh):
            lam_total = state.lam * mod.lam
            e2 = operators.apply_L(mod.eps_pair)
            e2_xq = math.sqrt(operators.xq_norm_sq(e2))
            lyap = operators.pairing(operators.apply_M(e2), e2)
            # a significantly negative density has no free energy; the record
            # keeps NaN there and min_u shows why
            pair = state.primitive()
            energy = float("nan")
            try:
                rep = diagnostics.free_energy(pair)
            except diagnostics.DiagnosticsError:
                pass
            else:
                shift = (mass0 * (2.0 - mass0 / (4.0 * np.pi))
                         * math.log(max(lam_total, 1e-300)))
                energy = rep.free_energy + shift
            series.append(t=state.t, s=state.s, lam=lam_total, b=mod.b,
                          b_hat=bh, mass=state.mass(), free_energy=energy,
                          e2_xq=e2_xq, lyapunov=lyap,
                          res_phi=mod.residuals[0], res_lphi=mod.residuals[1],
                          min_u=float(np.min(pair.density.values)))

        def stop(st, lam1, b, steps):
            """The first stopping criterion that the state st at (lam1, b)
            after `steps` steps meets, or None."""
            for status, met in (("lam_stop", st.lam * lam1 <= params.lam_stop),
                                ("t_max", st.t >= params.t_max),
                                ("s_max", st.s >= params.s_max),
                                ("b_min", b <= params.b_min),
                                ("max_steps", steps >= MAX_STEPS)):
                if met:
                    return status
            return None

        def backtrack(exc):
            # decompose the steps since the last decomposition in order,
            # each from its own guess: the run ends at the last that
            # decomposes, and the first error is its reason
            nonlocal state, mod, step_count
            state, mod, step_count = decomposed
            for st, guess, k in undecomposed:
                counters["backtrack_decompositions"] += 1
                try:
                    m = solver.decompose(st, guess=guess)
                except FAILURE_ERRORS as err:
                    exc = err
                    break
                state, mod, step_count = st, m, k
            del steps_ds[step_count:]
            series.fail(exc)

        record()
        try:
            while True:
                ds = min(params.ds_max, 1.5 * ds,
                         params.db_rel_cap * b / max(b_s_est, 1e-300))
                try:
                    stepped = stepper.step(state, ds, b=b)
                    guess = _predict_guess(roots, stepped.s, solver.table.lo)
                    since += 1
                    scheduled = (len(roots) < 3 or since >= interval
                                 or abs(guess[0] - 1.0) > REFOLD_THRESHOLD
                                 or stop(stepped, *guess, step_count + 1))
                    if scheduled:
                        stepped_mod = solver.decompose(stepped, guess=guess)
                        miss = max(abs(stepped_mod.lam - guess[0]),
                                   abs(stepped_mod.b - guess[1])
                                   / stepped_mod.b)
                        if miss < SCHEDULE_TOL:
                            interval = min(2 * interval, MAX_INTERVAL)
                        elif miss > 4.0 * SCHEDULE_TOL:
                            interval = max(interval // 2, 1)
                        # The pending scale is bookkeeping only: folding it
                        # into the stored arrays re-interpolates the state
                        # and each such event injects a small scale bias and
                        # leaks tail mass, so refits happen only if the
                        # frame truly de-centers (resolution guard), not as
                        # routine upkeep.
                        if abs(stepped_mod.lam - 1.0) > REFOLD_THRESHOLD:
                            refolds += 1
                            stepped = _rescale_state(stepped,
                                                     stepped_mod.lam)
                            stepped_mod = solver.decompose(
                                stepped, guess=(1.0, stepped_mod.b))
                            roots.clear()
                        lam_next, b_next = stepped_mod.lam, stepped_mod.b
                    else:
                        counters["predicted_steps"] += 1
                        lam_next, b_next = guess
                        # a record's own decomposition, off the trajectory
                        stepped_mod = (
                            solver.decompose(stepped, guess=guess)
                            if (step_count + 1) % params.cadence == 0
                            else None)
                except FAILURE_ERRORS as exc:
                    backtrack(exc)
                    break
                state, mod = stepped, stepped_mod
                step_count += 1
                steps_ds.append(ds)
                b_s_est = abs(b_next - b) / ds if ds > 0 else b_s_est
                b, lam_pending = b_next, lam_next
                if scheduled:
                    roots.append((state.s, lam_pending, b))
                    since = 0
                if mod is None:
                    undecomposed.append((state, guess, step_count))
                else:
                    decomposed = (state, mod, step_count)
                    undecomposed.clear()
                if step_count % params.cadence == 0:
                    record()
                status = stop(state, lam_pending, b, step_count)
                if status:
                    series.status = status
                    break
            last_s = records[-1][0].s if records else series.rows[-1][1]
            if last_s < state.s:
                record()
            commit(records)
        except ProfileError as exc:
            # a record's first read of a decomposition's fields, or its
            # lift, needed a profile the grid cannot carry; the series ends
            # at the record before
            series.fail(exc)
        ds_q = (np.percentile(steps_ds, (0, 50, 100)) if steps_ds
                else (math.nan,) * 3)
        series.counters = dict(solver.counters, refolds=refolds,
                               nan_free_energy=int(np.isnan(
                                   series.column("free_energy")).sum()),
                               ds_min=float(ds_q[0]), ds_median=float(ds_q[1]),
                               ds_max=float(ds_q[2]))
        return series


def evolve(params: EvolveParams, perturbation=None) -> TimeSeries:
    """One run on a setup of its own: `RunSetup(params).run(perturbation)`."""
    return RunSetup(params).run(perturbation)


def _predict_guess(roots, s, b_lo):
    """(lam1, b) at frame time s: the Lagrange polynomial in s through the
    scheduled roots (s_k, lam1_k, b_k), up to three (quadratic; linear or
    constant with fewer).  A run takes it as the value of a step it does
    not decompose and as decompose's starting guess; along the smooth
    modulation curve that guess is one model Newton iteration from the
    root one step ahead, and one or two up to MAX_INTERVAL steps ahead.
    b is clamped into [b_lo, B_MAX] and lam1 kept above 0.1, the
    model's domain, so that a wild extrapolation cannot end a run."""
    lam1 = b = 0.0
    for i, (s_i, lam_i, b_i) in enumerate(roots):
        w = 1.0
        for j, (s_j, _, _) in enumerate(roots):
            if j != i:
                w *= (s - s_j) / (s_i - s_j)
        lam1 += w * lam_i
        b += w * b_i
    return max(lam1, 0.1), min(max(b, b_lo), B_MAX)


def _rescale_state(state: FlowState, lam1: float) -> FlowState:
    """Fold a pending scale into the stored fields: m(y) <- m(lam1 y)."""
    splines = _StateSplines(state)
    m, n = splines.at(np.minimum(lam1 * splines.y, splines.r_max), 0)
    m[0] = n[0] = 0.0
    return replace(state, m=m, n=n, lam=state.lam * lam1)


# -- law measurement and stability ----------------------------------------------

def bubble_time(series) -> np.ndarray:
    """The bubble's rescaled time sigma = s0 + int dt/lam^2 at each record.

    Built by the trapezoid rule from the `t` and `lam` columns and started
    at the first recorded `s`, so d/d sigma = lam^2 d/dt.  `series` needs
    attributes t, lam and s as arrays (duck-typed).
    """
    t = np.asarray(series.t, dtype=float)
    rate = np.asarray(series.lam, dtype=float) ** -2.0
    steps = 0.5 * (rate[1:] + rate[:-1]) * np.diff(t)
    s0 = float(np.asarray(series.s, dtype=float)[0])
    return s0 + np.concatenate(([0.0], np.cumsum(steps)))


# measure_laws averages the b-law over this many consecutive samples
LAW_WINDOW = 5


def measure_laws(series: TimeSeries) -> dict:
    """Modulation-law ratios from a recorded series, in the bubble's time.

    Returns the pointwise arrays of
    (a) (-lambda_sigma/lambda)/b, one value per record, unsmoothed;
    (b) b_hat_sigma |log b_hat| / b_hat^2 over the records that carry a
        lifted b_hat, with b_hat_sigma and b_hat each averaged over
        LAW_WINDOW consecutive samples;
    (c) -(lambda^{4/3})_t over the final third, in physical time.
    sigma is `bubble_time(series)`; the recorded frame time `s` would scale
    (a) and (b) by 1/lam1^2 as the pending scale drifts.
    """
    sigma = bubble_time(series)
    lam = series.lam
    b = series.b
    bh = series.b_hat
    good = np.isfinite(bh)
    ratio_a = -np.gradient(np.log(lam), sigma) / b

    sh, bhh = sigma[good], bh[good]
    if len(sh) >= 2 * LAW_WINDOW + 3:
        kern = np.ones(LAW_WINDOW) / LAW_WINDOW
        bs = np.convolve(np.gradient(bhh, sh), kern, mode="valid")
        bmid = np.convolve(bhh, kern, mode="valid")
        ratio_b = bs * np.abs(np.log(bmid)) / bmid ** 2
    else:
        ratio_b = np.array([])

    t = series.t
    lam43 = lam ** (4.0 / 3.0)
    third = len(t) // 3
    rate_43 = -np.gradient(lam43, t)[-third:] if third >= 2 else np.array([])
    return {"ratio_a": ratio_a, "ratio_b": ratio_b, "rate_lam43": rate_43}


# random_perturbation sums this many Gaussian bumps centred in BUMP_SPAN
BUMPS = 4
BUMP_SPAN = (0.5, 6.0)


def random_perturbation(grid, delta, rng):
    """Smooth compact perturbation pair of relative energy-norm size delta:
    BUMPS even Gaussian bumps, each drawn as (centre in BUMP_SPAN, width in
    [0.5, 2], density and potential amplitudes in [-1, 1])."""
    r = grid.nodes
    eps = np.zeros_like(r)
    eta = np.zeros_like(r)
    for _ in range(BUMPS):
        c = rng.uniform(*BUMP_SPAN)
        wdt = rng.uniform(0.5, 2.0)
        a_e, a_n = rng.uniform(-1, 1), rng.uniform(-1, 1)
        bump = np.exp(-((r - c) / wdt) ** 2) + np.exp(-((r + c) / wdt) ** 2)
        eps += a_e * bump
        eta += a_n * bump
    geta = grid.diff_matrix(1, "even") @ eta
    pair = FieldPair(RadialField(grid, eps), RadialField(grid, geta, "odd"))
    norm = operators.energy_norm(pair)
    scale = delta / max(norm, 1e-300)
    return (RadialField(grid, eps * scale),
            RadialField(grid, geta * scale, "odd"))


def stability_probe(params: EvolveParams, n_perturbations=8, delta=1e-4,
                    seed=0) -> dict:
    """Rerun with random small perturbations; all runs must reach lam_stop.

    All runs share one `RunSetup`; the perturbations come from its
    `sample_perturbation`, all from one generator seeded with `seed`.
    Returns per-run status plus dispersion of the measured law ratios.
    """
    setup = RunSetup(params)
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(n_perturbations):
        series = setup.run(setup.sample_perturbation(delta, rng))
        laws = measure_laws(series)
        runs.append({
            "status": series.status,
            "ratio_a_final": float(laws["ratio_a"][-2]) if len(series) > 2 else float("nan"),
            "ratio_b_mean": float(np.mean(laws["ratio_b"])) if len(laws["ratio_b"]) else float("nan"),
        })
    reached = sum(1 for r in runs if r["status"] == "lam_stop")
    return {"runs": runs, "fraction_reached": reached / max(n_perturbations, 1)}


def subcritical_control(mass_fraction=0.5, t_max=2.0) -> dict:
    """Small-mass control run in the physical frame, on a grid of radius 60:
    no blow-up, the density maximum decays (lambda proxy sqrt(8/u(0)) stays
    bounded below)."""
    grid = RadialGrid.make(60.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=4)
    r = grid.nodes
    u0 = mass_fraction * q_density(r)
    m = grid.cumulative_integral(u0, "r")
    n = mass_fraction * mass_q(r)
    state = FlowState(grid, m, n)
    stepper = SemiImplicitStepper(grid)
    proxy = [math.sqrt(8.0 / state.density_values()[0])]
    dt = 2e-4
    while state.t < t_max:
        state = stepper.step(state, dt, b=0.0)
        proxy.append(math.sqrt(8.0 / max(state.density_values()[0], 1e-300)))
        dt = min(1.1 * dt, 5e-3)
    return {"lam_proxy": np.array(proxy),
            "bounded": bool(np.min(proxy) >= 0.99 * proxy[0]),
            "mass_drift": abs(state.mass() - 2 * np.pi * m[-1]) / (2 * np.pi * m[-1])}
