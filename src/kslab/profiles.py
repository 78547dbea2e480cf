"""Construction of the approximate blow-up profiles.

The stationary bubble Q = 8/(1+r^2)^2 admits a two-parameter deformation
Q_b = Q + b T1 + b^2 T2 (with matching chemoattractant corrections S1, S2)
that freezes the self-similar drift to high order.  The pieces are produced
by inverting two explicit linear ODEs in partial-mass variables:

    L0 m = -m'' + (1/r + Q'/Q) m' - Q m      (density direction)
    L1 d =  d'' - d'/r                        (chemoattractant direction)

L0 has the explicit kernel basis psi0, psi1 and is inverted by variation of
constants; L1 by direct double integration.  The level-b^2 profile grows
like log r outside the parabolic scale B0 = 1/sqrt(b), so a radiation term
(sigma fields) with an explicit normalizing constant c_b ~ 2/|log b| flattens
its tail; c_b is what ultimately drives the blow-up law.  Finally the
profiles are cut off at B1 = |log b|/sqrt(b) and the residual of the full
flow on the localized profile is measured in the weighted norms that the
modulation analysis consumes, through the linearized flow L and the pairing
direction Phi_0 of `operators`, which also owns Q and its closed forms.

Everything that does not depend on b (closed forms on the nodes, the level-b
solution) is computed once per grid and kept in the grid's memo
(`profile_base`) as arrays only, never as fields: the memo holds nothing
that refers back to its grid (see `grid`), so `build_t1_s1` and the family
wrap the level-b arrays in fields on each call.

Everything that does depend on b runs through one core, `_localize`, over
a block of k b, one column per b (shape (n, k), per-b values (k,)).  Each
column gets the same elementwise arithmetic and checks, and each
cumulative integral is one sparse product for the whole block, so that
each column is bitwise its block of one, and a ProfileError names the
first b of the block that failed.  Two evaluators read the core.
`modulation_profiles` returns, for each b of a block, only the three
arrays the modulation solve reads (Qb~, grad Pb~, n~).  The one single-b
view is the family, `build_profile_family`, a block of one: its radiation
(c_b and its constants, m_sigma, d_sigma), both levels, the localized
fields, bitwise the modulation's, and its residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .grid import (
    FieldPair,
    RadialField,
    RadialGrid,
    cutoff,
    derivative,
    div_from_grad_values,
    per_node,
)
from .operators import (
    apply_L,
    mass_q,
    pairing,
    phi0_pair,
    q_density,
    q_potential_grad,
)

# Asymptotic-regime guard: a run starts at b0 <= B0_MAX.  The family
# itself reaches up to B_MAX, a small grace band above that, so that the
# modulation root-finding can probe across the nominal limit without
# falling off the family.
B0_MAX = 1.0e-2
B_MAX = 1.25e-2
# The family at b needs a grid of radius >= 4 B1(b), which grows like
# b^(-1/2) until its stencil weights overflow.  The `profile build` grid
# (order 6, radius 4.5 B1) stays within grid.max_radius(6) = 3.4e38 down
# to b = 4.72e-72; at B_MIN its radius is 3.30e38 and the family is
# finite without a numpy warning.
B_MIN = 5e-72


class ProfileError(ValueError):
    """A profile that cannot be built; for a block of b (see
    `modulation_profiles`), its message names the first b that failed."""


def _check_columns(ok, message, *values):
    """ProfileError at the first column (b) of a block where ok is False,
    with message formatted from that column's values; ok is a per-b array
    (a scalar for the one field of `invert_L0`), values are per-b."""
    if not np.all(ok):
        j = np.flatnonzero(~np.asarray(ok))[0]
        raise ProfileError(message % tuple(x[j] for x in values))


# -- kernel basis of L0 (Wronskian psi1' psi0 - psi1 psi0' = r Q/4) -----------

def psi0(r):
    return r ** 2 / (1.0 + r ** 2) ** 2


def psi1(r):
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (r ** 4 + 4.0 * r ** 2 * np.log(r) - 1.0) / (1.0 + r ** 2) ** 2
    return np.where(r > 0.0, val, -1.0)


def psi1_prime_over_r(r):
    """Closed form of psi1'/r; log-divergent at the origin."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 8.0 * (1.0 + r ** 2 - (r ** 2 - 1.0) * np.log(r)) / (1.0 + r ** 2) ** 3
    return np.where(r > 0.0, val, -np.inf)


# -- the two inversions --------------------------------------------------------

def apply_L0(m: RadialField) -> RadialField:
    """L0 m = -m'' + (1/r + Q'/Q) m' - Q m (discrete form, for residual checks)."""
    g = m.grid
    r = g.nodes
    d1 = g.diff_matrix(1, m.parity) @ m.values
    d2 = g.diff_matrix(2, m.parity) @ m.values
    coef = g.divide_by_r(d1, "odd") - q_potential_grad(r) * d1
    return RadialField(g, -d2 + coef - q_density(r) * m.values, "even")


def apply_L1(d: RadialField) -> RadialField:
    """L1 d = d'' - d'/r."""
    g = d.grid
    d1 = g.diff_matrix(1, d.parity) @ d.values
    d2 = g.diff_matrix(2, d.parity) @ d.values
    return RadialField(g, d2 - g.divide_by_r(d1, "odd"), "even")


def _l0_coefficients(grid, fv):
    """Variation-of-constants coefficients A, B with m = A psi0 + B psi1,
    for values fv of shape (n,) or (n, k).

    A(r) = -1/2 int_0^r (tau^4 + 4 tau^2 log tau - 1)/tau f dtau, split as
    tau^3 f + 4 tau log(tau) f - f/tau so the log piece uses the dedicated
    weighted quadrature (exact on the first cell).
    """
    over_r = grid.divide_by_r(fv, "even")
    A = -0.5 * (grid.cumulative_integral(fv, "r3")
                + 4.0 * grid.cumulative_integral(fv, "rlogr")
                - grid.cumulative_integral(over_r, "one"))
    B = 0.5 * grid.cumulative_integral(fv, "r")
    return A, B


def _l0_solution(grid, fv):
    """invert_L0's values for an even source with values fv (shape (n,) or
    (n, k)), which must vanish at the origin; ProfileError if a column
    does not."""
    scale = np.max(np.abs(fv), axis=0)
    _check_columns(~((scale > 0.0) & (np.abs(fv[0]) > 1e-8 * scale)),
                   "invert_L0 source must vanish at the origin")
    A, B = _l0_coefficients(grid, fv)
    base = profile_base(grid)
    return A * per_node(base.psi0, A) + B * per_node(base.psi1, B)


def invert_L0(f: RadialField) -> RadialField:
    """Particular solution of L0 m = -f, regular at the origin (m = O(r^4)).

    Requires f even with f = O(r^2) near the origin so that the psi1-weighted
    integrand is integrable.
    """
    if f.parity != "even":
        raise ProfileError("invert_L0 requires an even source")
    return RadialField(f.grid, _l0_solution(f.grid, f.values), "even")


def _l1_solution(grid, fv, c):
    """invert_L1's values for values fv of shape (n,) or (n, k)."""
    r = per_node(grid.nodes, fv)
    cum_r = grid.cumulative_integral(fv, "r")
    cum_over = grid.cumulative_integral(grid.divide_by_r(fv, "even"), "one")
    return 0.5 * (-cum_r + r ** 2 * cum_over) + c * r ** 2


def invert_L1(f: RadialField, c: float) -> RadialField:
    """Solution of L1 d = f with d(0) = 0:

    d = 1/2 [ -int_0^r f tau dtau + r^2 int_0^r f/tau dtau ] + c r^2.
    """
    return RadialField(f.grid, _l1_solution(f.grid, f.values, c), "even")


# -- level b -------------------------------------------------------------------

@dataclass(frozen=True)
class LevelOne:
    """First-order profile: T1 = m1'/r, grad S1 = n1/r with n1 = d1 + m1."""

    m1: RadialField
    d1: RadialField
    n1: RadialField
    T1: RadialField
    S1_grad: RadialField


def _ode_second_derivative_L0(grid, m, m_p, source):
    """m'' from L0 m = -m'' + (1/r + Q'/Q) m' - Q m = g:  m'' = (...) - g."""
    r = grid.nodes
    return (grid.divide_by_r(m_p, "odd") - q_potential_grad(r) * m_p
            - q_density(r) * m - source)


def build_t1_s1(grid: RadialGrid) -> LevelOne:
    """Solve the level-b system L(m1, d1) = (r m0', r n0').

    d1 comes out as -2 log(1+r^2) exactly (homogeneous constant c = -2);
    m1 then solves L0 m1 = -(r^2 Q - Q d1).  Solved once per grid, in
    `profile_base`; each call wraps those arrays in fields of the grid.
    """
    base = profile_base(grid)
    return LevelOne(
        m1=RadialField(grid, base.m1), d1=RadialField(grid, base.d1),
        n1=RadialField(grid, base.n1), T1=RadialField(grid, base.T1),
        S1_grad=RadialField(grid, base.S1_grad, "odd"))


@dataclass(frozen=True)
class ProfileBase:
    """The b-independent part of every profile on one grid, as arrays.

    Closed forms on the nodes, the level-one arrays (named as in
    `LevelOne`) and the level-one parts of the level-b^2 sources; each b
    then pays only for the radiation, the level-b^2 inversions and the
    cutoff.  Kept in the grid's memo (see `profile_base`), so it holds
    arrays only: nothing in it refers back to the grid.

    Second derivatives are stored in ODE-substituted form (m'' expressed
    through m', m and the source), so that downstream residual assembly can
    cancel the constructed orders exactly instead of numerically.
    """

    Q: np.ndarray
    r2Q: np.ndarray          # r^2 Q = r m0'
    psi0: np.ndarray
    psi1: np.ndarray
    psi0_over_r: np.ndarray
    m0: np.ndarray
    phi_q_grad: np.ndarray
    m1: np.ndarray
    d1: np.ndarray
    n1: np.ndarray
    T1: np.ndarray
    S1_grad: np.ndarray
    m1_p: np.ndarray
    m1_pp: np.ndarray
    n1_p: np.ndarray
    n1_pp: np.ndarray
    r_n1p: np.ndarray        # r n1', the level-one part of the d2 source
    m2_source1: np.ndarray   # r^2 T1 - T1 n1, the level-one part of m2's


def profile_base(grid: RadialGrid) -> ProfileBase:
    """The grid's ProfileBase, built on first use and kept in `grid.memo`,
    so it lives exactly as long as the grid."""
    return grid.cached("profiles", _build_profile_base, grid)


def _build_profile_base(grid):
    r = grid.nodes
    Q = q_density(r)
    r2Q = r ** 2 * Q
    psi0v, psi1v = psi0(r), psi1(r)
    # level one: L1 d1 = r^2 Q, then L0 m1 = -f1 on the kernel basis above
    # (invert_L0 reads the basis from this base)
    d1 = invert_L1(RadialField(grid, r2Q), -2.0).values
    f1 = r2Q - Q * d1
    A, B = _l0_coefficients(grid, f1)
    m1 = A * psi0v + B * psi1v
    d1_p, m1_p = (grid.diff_matrix(1, "even") @ x for x in (d1, m1))
    T1 = grid.divide_by_r(m1_p, "odd")
    n1 = d1 + m1
    n1_p = d1_p + m1_p
    # L0 m1 = -f1 and L1 d1 = r^2 Q pin the second derivatives:
    m1_pp = _ode_second_derivative_L0(grid, m1, m1_p, -f1)
    d1_pp = grid.divide_by_r(d1_p, "odd") + r2Q
    return ProfileBase(
        Q=Q, r2Q=r2Q, psi0=psi0v, psi1=psi1v,
        psi0_over_r=grid.divide_by_r(psi0v, "even"), m0=mass_q(r),
        phi_q_grad=q_potential_grad(r), m1=m1, d1=d1, n1=n1, T1=T1,
        S1_grad=grid.divide_by_r(n1, "even"), m1_p=m1_p, m1_pp=m1_pp,
        n1_p=n1_p, n1_pp=d1_pp + m1_pp, r_n1p=r * n1_p,
        m2_source1=r ** 2 * T1 - T1 * n1)


# -- radiation -----------------------------------------------------------------

def _radiation(grid, base, bs):
    """The radiation (m_sigma, d_sigma) and its constant c_b over a block
    of b: B0, c_b, c1, c2 and beta1..3 of shape (k,), the masses and the
    cutoff chi04 = chi_{B0/4} of shape (n, k), one column per b, each
    bitwise the block [b]'s.

    Its primitive pair (m_sigma'/r, (d_sigma + m_sigma)/r) coincides with
    c_b (T1, grad S1) for r <= B0/4; the masses flatten the level-b^2 tail
    and reduce exactly to (4 psi1, 0) for r >= 6 B0.  The normalization c_b
    solves

        c_b * int_0^inf tau^3/(1+tau^2)^2 (chi_{B0/4} - d_hat/tau^2) dtau = 1

    with d_hat the c_b-normalized chemoattractant part; this pins the psi1
    flux at infinity to exactly 4 and gives c_b = 2/|log b| (1 + O(1/|log b|)).
    Checks each b (`_check_b`), then c1 > c2 and the region identities; a
    ProfileError names the first b of the first check that fails."""
    for b in bs:
        _check_b(grid, b)
    r = grid.nodes[:, None]
    B0 = np.array([1.0 / math.sqrt(b) for b in bs])
    chi = cutoff(r / (B0 / 4.0))
    chi3 = cutoff(r / (3.0 * B0))
    psi0v = base.psi0[:, None]

    # the psi0 moment int psi0 chi tau and gamma = int psi0/tau chi
    # (psi0/tau = tau/(1+tau^2)^2, odd)
    cum_rpsi0 = grid.cumulative_integral(psi0v * chi, "r")
    gamma = grid.cumulative_integral(base.psi0_over_r[:, None] * chi, "one")
    # beta2 = int psi0/tau (1-chi) = 1/2 - gamma(inf); using the exact total
    # 1/2 keeps the far-field cancellation of d_hat exact on the grid.
    beta2 = 0.5 - gamma[-1]
    beta3 = cum_rpsi0[-1]
    # Assemble d_hat as r^2 * coef + const with the coefficients cancelled
    # BEFORE the r^2 multiplication; beyond the cutoffs both vanish bitwise,
    # (naively r^2*gamma - r^2/2 + ... leaves O(r^2 eps) junk that the huge
    # outer radii amplify past the region-identity tolerance).
    coef_r2 = np.where(chi3 > 0.0,
                       gamma - 0.5 + (1.0 - chi3) * beta2,
                       gamma - gamma[-1])
    const = (beta3 - cum_rpsi0) - chi3 * beta3
    d_hat = 4.0 * (r ** 2 * coef_r2 + const)

    c1 = beta3  # int tau^3/(1+tau^2)^2 chi dtau == int tau psi0 chi dtau
    # same weight-"r" rule as the psi1 coefficient of m_sigma, so the
    # flux-at-infinity normalization below holds to roundoff
    Q = base.Q[:, None]
    c2 = grid.cumulative_integral(Q * d_hat, "r")[-1] / 8.0
    # the c_b-normalized integrand makes the constraint linear in c_b
    _check_columns(c1 - c2 > 0.0,  # NaN fails it too
                   "radiation normalization needs c1 > c2, got c1=%g, c2=%g",
                   c1, c2)
    c_b = 1.0 / (c1 - c2)

    f_sigma = c_b * (base.r2Q[:, None] * chi - Q * d_hat)
    A, B = _l0_coefficients(grid, f_sigma)
    beta1 = -A[-1]
    psi1v = base.psi1[:, None]
    m_sigma = A * psi0v + B * psi1v + beta1 * (1.0 - chi3) * psi0v
    d_sigma = c_b * d_hat

    # the region identities, each error written so that a NaN fails it
    inner = r <= B0 / 4.0
    outer = r >= 6.0 * B0
    scale = np.maximum(np.max(np.abs(m_sigma), axis=0), 1.0)
    err_in = np.where(inner, np.abs(m_sigma - c_b * base.m1[:, None]),
                      0.0).max(axis=0)
    err_d = np.where(outer, np.abs(d_sigma), 0.0).max(axis=0)
    err_out = np.where(outer, np.abs(m_sigma - 4.0 * psi1v), 0.0).max(axis=0)
    tol = 1e-7 * scale
    _check_columns((err_in <= tol) & (err_d <= tol) & (err_out <= tol),
                   "radiation region identities violated at b=%g: inner "
                   "%.2e, d outer %.2e, m outer %.2e", bs, err_in, err_d,
                   err_out)
    return SimpleNamespace(B0=B0, c_b=c_b, c1=c1, c2=c2,
                           beta=(beta1, beta2, beta3), m_sigma=m_sigma,
                           d_sigma=d_sigma, chi04=chi)


def localization_radius(b: float) -> float:
    """B1 = |log b|/sqrt(b), where the profiles at b are cut off."""
    return abs(math.log(b)) / math.sqrt(b)


def localization_problem(r_max: float, b: float):
    """What keeps a grid of radius r_max from carrying the family at b,
    which needs r_max >= 4 B1(b); None if nothing does."""
    guard = 4.0 * localization_radius(b)
    if r_max < guard:
        return ("localization requires r_max >= 4*B1 = %.1f, got %.1f"
                % (guard, r_max))


def grid_b_floor(grid) -> float:
    """Smallest b whose family the grid carries (`localization_problem`),
    to bisection accuracy; ProfileError if it does not carry B_MAX."""
    _check_b(grid, B_MAX)
    lo, hi = 1e-12, B_MAX
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if localization_problem(grid.r_max, mid) is None:
            hi = mid
        else:
            lo = mid
    return hi


def check_b_range(b):
    """ProfileError unless B_MIN <= b <= B_MAX; needs no grid."""
    if not B_MIN <= b <= B_MAX:
        raise ProfileError("b=%g outside the admissible range [%g, %g]"
                           % (b, B_MIN, B_MAX))


def _check_b(grid, b):
    check_b_range(b)
    problem = localization_problem(grid.r_max, b)
    if problem:
        raise ProfileError("grid too small for b=%g: %s" % (b, problem))


# -- level b^2 -----------------------------------------------------------------

@dataclass(frozen=True)
class LevelTwo:
    """Level-b^2 fields and their sources, L1 d2 = src_d and L0 m2 = -src_m
    (the residual assembly takes the second derivatives from these)."""

    m2: RadialField
    d2: RadialField
    n2: RadialField
    T2: RadialField
    S2_grad: RadialField
    m2_p: np.ndarray
    src_m: np.ndarray
    src_d: np.ndarray


def _level_two(grid, base, m_sigma, d_sigma):
    """The level-b^2 system

    L(m2, d2) = (r m1' - m1' n1 / r, r n1') - (m_sigma, d_sigma),

    i.e. d2 = L1^{-1}(r n1' - d_sigma) and L0 m2 = Q d2 - m_sigma2 where
    m_sigma2 is the density component of the right-hand side, solved for
    the radiation's masses of shape (n, k) (one column per b), each column
    bitwise the block [b]'s."""
    src_d = base.r_n1p[:, None] - d_sigma
    d2 = _l1_solution(grid, src_d, 0.0)
    src_m = base.m2_source1[:, None] - m_sigma - base.Q[:, None] * d2
    m2 = _l0_solution(grid, src_m)
    m2_p = grid.diff_matrix(1, "even") @ m2
    n2 = d2 + m2
    return SimpleNamespace(
        m2=m2, d2=d2, n2=n2, T2=grid.divide_by_r(m2_p, "odd"),
        S2_grad=grid.divide_by_r(n2, "even"), m2_p=m2_p, src_m=src_m,
        src_d=src_d)


def _level_two_at(grid, lvl2):
    """The LevelTwo of a `_level_two` block of one b."""
    col = SimpleNamespace(**{k: x[:, 0] for k, x in vars(lvl2).items()})
    return LevelTwo(
        m2=RadialField(grid, col.m2), d2=RadialField(grid, col.d2),
        n2=RadialField(grid, col.n2), T2=RadialField(grid, col.T2),
        S2_grad=RadialField(grid, col.S2_grad, "odd"), m2_p=col.m2_p,
        src_m=col.src_m, src_d=col.src_d)


# -- localization and the full family -------------------------------------------

@dataclass(frozen=True)
class ProfileFamily:
    """The localized family at one b with its building blocks and, unless
    built with with_error=False, its residual and norms."""

    b: float
    B0: float
    B1: float
    c_b: float
    c1: float
    c2: float
    beta: tuple
    m_sigma: RadialField
    d_sigma: RadialField
    level1: LevelOne
    level2: LevelTwo
    Qb_tilde: RadialField
    Pb_tilde_grad: RadialField
    m_tilde: RadialField
    n_tilde: RadialField
    mass_excess: float
    Psi1: RadialField = None
    Psi2_grad: RadialField = None
    norm_report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModulationProfile:
    """The localized family at one b as the modulation reads it."""

    b: float
    Qb_tilde: RadialField
    Pb_tilde_grad: RadialField
    n_tilde: RadialField


def _localize(grid: RadialGrid, bs):
    """Per-b core of both evaluators over a block of b: radiation, level
    b^2, cutoff at B1.

    T~_i = chi_B1 T_i and grad S~_i = chi_B1 grad S_i with S~_i(0) = 0.
    Returns the `_radiation` and `_level_two` blocks, B1 of shape (k,),
    and chi_B1 and (Qb~, grad Pb~, n~) assembled from the cut fields of
    both levels, of shape (n, k): one column per b of bs, with the same
    arithmetic elementwise and one sparse product per cumulative integral
    for the whole block, so that each column is bitwise what the block [b]
    gives.
    """
    base = profile_base(grid)
    rad = _radiation(grid, base, bs)
    lvl2 = _level_two(grid, base, rad.m_sigma, rad.d_sigma)
    r = grid.nodes[:, None]
    b = np.array(bs)
    B1 = np.array([localization_radius(x) for x in bs])
    chi1 = cutoff(r / B1)
    T1_loc = chi1 * base.T1[:, None]
    T2_loc = chi1 * lvl2.T2
    S1g_loc = chi1 * base.S1_grad[:, None]
    S2g_loc = chi1 * lvl2.S2_grad
    return SimpleNamespace(
        rad=rad, lvl2=lvl2, B1=B1, chi1=chi1,
        Qb=base.Q[:, None] + b * T1_loc + b * b * T2_loc,
        Pbg=base.phi_q_grad[:, None] + b * S1g_loc + b * b * S2g_loc,
        nt=base.m0[:, None] + chi1 * (b * base.n1[:, None] + b * b * lvl2.n2))


def modulation_profiles(grid: RadialGrid, bs) -> list:
    """(Qb~, grad Pb~, n~) at each b of bs, what the modulation solve and
    lift read, from one `_localize` block.

    Runs the same checks and arithmetic as `build_profile_family`, which is
    built on the same core, so each profile's arrays are bitwise equal to
    the family's fields at its b, and to those of the block [b]; it skips
    everything else the family holds.  A ProfileError names the first b of
    bs that fails.
    """
    loc = _localize(grid, bs)
    Qb, Pbg, nt = (np.ascontiguousarray(x.T)
                   for x in (loc.Qb, loc.Pbg, loc.nt))
    return [ModulationProfile(b=b, Qb_tilde=RadialField(grid, Qb[j]),
                              Pb_tilde_grad=RadialField(grid, Pbg[j], "odd"),
                              n_tilde=RadialField(grid, nt[j]))
            for j, b in enumerate(bs)]


def profile_error(grid: RadialGrid, b: float, c_b: float, lvl2: LevelTwo,
                  chi: np.ndarray, chi04: np.ndarray) -> tuple:
    """Residual of the rescaled flow on the localized profile at b, from
    `_localize`'s radiation constant c_b, level-b^2 fields and cutoffs
    chi = chi_B1 and chi04 = chi_{B0/4}.

    In partial-mass variables, with m~ = m0 + M, n~ = m0 + N the localized
    masses (M' = chi_B1 (b m1' + b^2 m2'), N = chi_B1 (b n1 + b^2 n2)),

        Phi   = M'' - M'/r + Q N + (M'/r)(m0 + N) - b r (m0' + M')
        Omega = (N - M)'' - (N - M)'/r - b r (m0' + N')

    and (Psi1, grad Psi2) = (Phi'/r, Omega/r) + c_b b^2 (breve T1, breve S1')
    with breve = chi_{B0/4} times the level-one fields.
    The stationary order cancels algebraically (m0'' - m0'/r + m0' m0/r = 0)
    and all second derivatives of the constructed fields enter through their
    defining ODEs, so the assembled residual scales like the true expansion
    instead of flooring at the discretization error of the lower orders.
    """
    base = profile_base(grid)
    r = grid.nodes
    chi_p = grid.diff_matrix(1, "even") @ chi
    chi_pp = grid.diff_matrix(2, "even") @ chi

    d2_p = derivative(lvl2.d2, 1).values
    m2_pp = _ode_second_derivative_L0(grid, lvl2.m2.values, lvl2.m2_p,
                                      -lvl2.src_m)
    d2_pp = grid.divide_by_r(d2_p, "odd") + lvl2.src_d
    alpha_p = b * base.m1_p + b * b * lvl2.m2_p
    alpha_pp = b * base.m1_pp + b * b * m2_pp
    alpha_T = b * base.T1 + b * b * lvl2.T2.values  # m_alpha'/r
    n_gam = b * base.n1 + b * b * lvl2.n2.values
    n_gam_p = b * base.n1_p + b * b * (d2_p + lvl2.m2_p)
    n_gam_pp = b * base.n1_pp + b * b * (d2_pp + m2_pp)

    Mp = chi * alpha_p
    Mpp = chi_p * alpha_p + chi * alpha_pp
    Mp_over_r = chi * alpha_T
    N = chi * n_gam
    Np = chi_p * n_gam + chi * n_gam_p
    Npp = chi_pp * n_gam + 2.0 * chi_p * n_gam_p + chi * n_gam_pp

    phi = (Mpp - Mp_over_r + base.Q * N + Mp_over_r * (base.m0 + N)
           - b * r * Mp - b * base.r2Q)
    omega = (Npp - Mpp - grid.divide_by_r(Np - Mp, "odd")
             - b * r * Np - b * base.r2Q)

    phi_f = RadialField(grid, phi)
    psi1_v = grid.divide_by_r(derivative(phi_f, 1).values, "odd") \
        + c_b * b * b * (chi04 * base.T1)
    psi2g_v = grid.divide_by_r(omega, "even") \
        + c_b * b * b * (chi04 * base.S1_grad)
    return RadialField(grid, psi1_v), RadialField(grid, psi2g_v, "odd")


def error_norm_report(grid, B0, Psi1, Psi2_grad) -> dict:
    """Weighted norms of the profile residual Psi used by the scaling checks,
    with L and Phi_{0,B0} those of `operators`."""
    r = grid.nodes
    w = 2.0 * np.pi * grid.quad_weights
    Q = q_density(r)

    L1v = apply_L(FieldPair(Psi1, Psi2_grad)).density.values
    L2v = div_from_grad_values(grid, Psi2_grad.values) - Psi1.values
    gradM1 = (grid.diff_matrix(1, "even") @ (Psi1.values / Q)
              + Psi2_grad.values)

    report = {
        "psi1_sq": float(w @ Psi1.values ** 2),
        "L1_sq_over_Q": float(w @ (L1v ** 2 / Q)),
        "grad_psi2_sq_weighted": float(w @ (Psi2_grad.values ** 2 / (1.0 + r ** 2))),
        "L2_sq": float(w @ L2v ** 2),
        "gradM1_sq_Q": float(w @ (Q * gradM1 ** 2)),
        "grad_psi2_sq": float(w @ Psi2_grad.values ** 2),
    }
    # <L Psi, Phi_{0,B0}>; the gradient slot differentiates L2 itself
    LPsi = FieldPair(RadialField(grid, L1v), RadialField(
        grid, grid.diff_matrix(1, "even") @ L2v, "odd"))
    report["degenerate_flux_B0"] = pairing(LPsi, phi0_pair(grid, B0))
    return report


def build_profile_family(grid: RadialGrid, b: float, with_error=True) -> ProfileFamily:
    """The family at b, the core (`_localize`) at the block [b]: level b,
    the radiation with its constants, level b^2, localization and, unless
    with_error=False, the residual with its norms.

    The partial masses are rebuilt from the cut fluxes so that the localized
    family stays an exact partial-mass pair.
    """
    loc = _localize(grid, [b])
    rad = loc.rad
    lvl2 = _level_two_at(grid, loc.lvl2)
    chi1 = loc.chi1[:, 0]
    base = profile_base(grid)
    m1_loc = grid.cumulative_integral(chi1 * base.m1_p, "one")
    m2_loc = grid.cumulative_integral(chi1 * lvl2.m2_p, "one")
    B0 = float(rad.B0[0])
    c_b = rad.c_b[0]
    fam = ProfileFamily(
        b=b, B0=B0, B1=float(loc.B1[0]), c_b=c_b, c1=rad.c1[0],
        c2=rad.c2[0], beta=tuple(x[0] for x in rad.beta),
        m_sigma=RadialField(grid, rad.m_sigma[:, 0]),
        d_sigma=RadialField(grid, rad.d_sigma[:, 0]),
        level1=build_t1_s1(grid), level2=lvl2,
        Qb_tilde=RadialField(grid, loc.Qb[:, 0]),
        Pb_tilde_grad=RadialField(grid, loc.Pbg[:, 0], "odd"),
        m_tilde=RadialField(grid, base.m0 + b * m1_loc + b * b * m2_loc),
        n_tilde=RadialField(grid, loc.nt[:, 0]),
        mass_excess=2.0 * np.pi * (b * m1_loc[-1] + b * b * m2_loc[-1]),
    )
    if not with_error:
        return fam
    Psi1, Psi2_grad = profile_error(grid, b, c_b, lvl2, chi1, rad.chi04[:, 0])
    report = error_norm_report(grid, B0, Psi1, Psi2_grad)
    return replace(fam, Psi1=Psi1, Psi2_grad=Psi2_grad, norm_report=report)
