import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import kslab.profiles as prof
from kslab.cli import coercivity_chain, profile_grid_for
from kslab.dynamics import EvolveParams, RunSetup
from kslab.profiles import grid_b_floor
from kslab.grid import RadialField, RadialGrid, cutoff, derivative, integrate
from kslab.operators import apply_L, lambda_q, pairing, q_density
from kslab.grid import FieldPair


@pytest.fixture(scope="module")
def g1em4():
    return profile_grid_for(1e-4)


@pytest.fixture(scope="module")
def fam1em4(g1em4):
    return prof.build_profile_family(g1em4, 1e-4)


def test_homogeneous_basis(mid_grid):
    r = mid_grid.nodes
    # kernel: L0 psi0 = 0 to stencil accuracy
    res = prof.apply_L0(RadialField(mid_grid, prof.psi0(r)))
    assert np.max(np.abs(res.values)[r <= 100]) < 1e-4
    # Wronskian identity W = psi1' psi0 - psi1 psi0' = r Q / 4, from the
    # closed forms (psi0' = 2r(1 - r^2)/(1 + r^2)^3)
    x = r[1:]
    psi0_p = 2.0 * x * (1.0 - x ** 2) / (1.0 + x ** 2) ** 3
    w = (x * prof.psi1_prime_over_r(x) * prof.psi0(x)
         - prof.psi1(x) * psi0_p)
    assert np.max(np.abs(w - x * q_density(x) / 4.0)) < 1e-12


def test_invert_L1_d1_closed_form(mid_grid):
    r = mid_grid.nodes
    d1 = prof.invert_L1(RadialField(mid_grid, r ** 2 * q_density(r)), -2.0)
    exact = -2.0 * np.log1p(r ** 2)
    assert np.max(np.abs(d1.values - exact)[r <= 100]) < 5e-5
    assert abs(np.interp(1.0, r, d1.values) + 2 * np.log(2.0)) < 1e-8
    # homogeneous branch: f = 0, c = 1 -> r^2
    hom = prof.invert_L1(RadialField(mid_grid, np.zeros_like(r)), 1.0)
    assert np.max(np.abs(hom.values - r ** 2)) < 1e-9


@pytest.mark.parametrize("kind", range(5))
def test_inversion_residuals(mid_grid, kind):
    """L0(invert_L0(f)) + f and L1(invert_L1(f)) - f below 1e-4 relative."""
    r = mid_grid.nodes
    battery = [
        r ** 2 * q_density(r),
        r ** 2 * np.exp(-r ** 2 / 4.0),
        r ** 2 / (1.0 + r ** 4),
        q_density(r) * np.log1p(r ** 2),
        r ** 2 * np.exp(-((r - 3.0) / 2.0) ** 2) / (1 + r ** 2),
    ]
    fv = battery[kind]
    f = RadialField(mid_grid, fv)
    win = r <= 200.0
    scale = np.max(np.abs(fv))
    m = prof.invert_L0(f)
    res0 = prof.apply_L0(m).values + fv
    assert np.max(np.abs(res0)[win]) / scale < 1e-4
    d = prof.invert_L1(f, 0.0)
    res1 = prof.apply_L1(d).values - fv
    assert np.max(np.abs(res1)[win]) / scale < 1e-4


def test_invert_L0_rejects_noneven_or_nonvanishing(mid_grid):
    r = mid_grid.nodes
    with pytest.raises(prof.ProfileError):
        prof.invert_L0(RadialField(mid_grid, np.ones_like(r)))
    with pytest.raises(prof.ProfileError):
        prof.invert_L0(RadialField(mid_grid, r.copy(), "odd"))


def test_level1_asymptotics(mid_grid):
    lvl1 = prof.build_t1_s1(mid_grid)
    r = mid_grid.nodes
    # tail: r^2 T1 -> 4 with O(log^2 r / r^2) corrections
    t1_100 = np.interp(100.0, r, lvl1.T1.values)
    assert abs(100.0 ** 2 * t1_100 - 4.0) / 4.0 < 0.02
    # origin regularity: T1 = O(r^2)
    first_decade = (r > 0.05) & (r < 1.0)
    assert np.max(np.abs(lvl1.T1.values[first_decade]
                         / r[first_decade] ** 2)) < 20.0
    # constructed tail constant: m1 - 2 log(1+r^2) -> 0 (the d1-coupling
    # cancels the parabolic-elliptic -4; see test_level1_quadrature_oracle)
    gap = [np.interp(x, r, lvl1.m1.values) - 2 * np.log1p(x ** 2)
           for x in (10.0, 50.0, 100.0)]
    assert abs(gap[0]) < 0.05 and abs(gap[2]) < abs(gap[0])
    n1_100 = np.interp(100.0, r, lvl1.n1.values)
    assert abs(n1_100) < 0.01  # n1 -> 0, not -4
    # |grad S1| <= C r/(1+r^2)
    bound = r / (1 + r ** 2)
    assert np.max(np.abs(lvl1.S1_grad.values)[1:] / bound[1:]) < 10.0


@pytest.fixture(scope="module")
def level1_oracle():
    """30-digit quadrature of the level-one system, independent of any grid.

    d1 solves L1 d1 = r^2 Q with d1(0) = 0 and no r^2 growth:
        d1 = 1/2 [-int_0^r tau f + r^2 int_0^r f/tau] - 2 r^2,  f = r^2 Q.
    m1 solves L0 m1 = -f by variation of constants, m1 = A psi0 + B psi1
    with W = psi0 psi1' - psi0' psi1 = 2r/(1+r^2)^2,
        A = -int_0^r psi1 f/W,  B = int_0^r psi0 f/W.
    The coupled source f = r^2 Q - Q d1 is the parabolic-parabolic one; the
    uncoupled f = r^2 Q is the parabolic-elliptic one.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.MPContext()
    mp.dps = 30

    def Q(x):
        return 8 / (1 + x ** 2) ** 2

    def psi0(x):
        return x ** 2 / (1 + x ** 2) ** 2

    def psi1(x):
        return (x ** 4 + 4 * x ** 2 * mp.log(x) - 1) / (1 + x ** 2) ** 2

    def W(x):
        return 2 * x / (1 + x ** 2) ** 2

    def d1_closed(x):
        return -2 * mp.log(1 + x ** 2)

    def d1_quad(x):
        pts = [0, 1, x] if x > 1 else [0, x]
        i_r = mp.quad(lambda t: t ** 3 * Q(t), pts)
        i_over = mp.quad(lambda t: t * Q(t), pts)
        return (-i_r + x ** 2 * i_over) / 2 - 2 * x ** 2

    def m1(x, coupled=True):
        x = mp.mpf(x)
        if coupled:
            def f(t):
                return t ** 2 * Q(t) - Q(t) * d1_closed(t)
        else:
            def f(t):
                return t ** 2 * Q(t)
        pts = [0, 1, x] if x > 1 else [0, x]
        A = -mp.quad(lambda t: psi1(t) * f(t) / W(t), pts)
        B = mp.quad(lambda t: psi0(t) * f(t) / W(t), pts)
        return A * psi0(x) + B * psi1(x)

    def L0_residual(x, coupled=True):
        """L0 m1 + f at x, with m1' and m1'' by central differences
        (step 1e-7: truncation and rounding both below 1e-14 at 30 digits)."""
        x, h = mp.mpf(x), mp.mpf("1e-7")
        lo, m, hi = (m1(x + k * h, coupled) for k in (-1, 0, 1))
        m_p, m_pp = (hi - lo) / (2 * h), (hi - 2 * m + lo) / h ** 2
        f = x ** 2 * Q(x) - (Q(x) * d1_closed(x) if coupled else 0)
        return -m_pp + (1 / x - 4 * x / (1 + x ** 2)) * m_p - Q(x) * m + f

    return SimpleNamespace(mp=mp, Q=Q, d1_closed=d1_closed, d1_quad=d1_quad,
                           m1=m1, L0_residual=L0_residual)


def test_level1_quadrature_oracle_d1(level1_oracle):
    o = level1_oracle
    mp = o.mp
    for x in (0.5, 3.0, 30.0, 1000.0):
        x = mp.mpf(x)
        assert abs(o.d1_quad(x) - o.d1_closed(x)) < 1e-20
        # L1 d1 = d1'' - d1'/r = r^2 Q for the closed form
        res = (mp.diff(o.d1_closed, x, 2) - mp.diff(o.d1_closed, x, 1) / x
               - x ** 2 * o.Q(x))
        assert abs(res) < 1e-20


def test_level1_quadrature_oracle_limits(level1_oracle):
    o = level1_oracle
    mp = o.mp
    for coupled in (True, False):
        for x in (0.5, 20.0):
            assert abs(o.L0_residual(x, coupled)) < 1e-12
    radii = (10.0, 30.0, 100.0, 1000.0)
    # parabolic-parabolic: n1 = d1 + m1 = m1 - 2 log(1+r^2) -> 0 like -2/r^2
    n1 = [float(o.m1(x) + o.d1_closed(mp.mpf(x))) for x in radii]
    assert all(abs(a) > abs(b) for a, b in zip(n1, n1[1:]))
    assert abs(n1[-1]) < 1e-5
    assert all(abs(x ** 2 * v + 2.0) < 0.01 for x, v in zip(radii[2:], n1[2:]))
    # parabolic-elliptic: m1 - 4(log r - 1) -> 0 and n1 -> -4, the targets
    # criterion 4 once held for the coupled system
    gap_u = [float(o.m1(x, coupled=False) - 4 * (mp.log(x) - 1))
             for x in radii]
    n1_u = [float(o.m1(x, coupled=False) + o.d1_closed(mp.mpf(x)))
            for x in radii]
    assert all(abs(a) > abs(b) for a, b in zip(gap_u, gap_u[1:]))
    assert abs(gap_u[-1]) < 1e-3
    assert all(abs(a + 4) > abs(b + 4) for a, b in zip(n1_u, n1_u[1:]))
    assert abs(n1_u[-1] + 4.0) < 1e-3


def test_level1_matches_quadrature_oracle(mid_grid, level1_oracle):
    o = level1_oracle
    lvl1 = prof.build_t1_s1(mid_grid)
    r = mid_grid.nodes
    for x in (10.0, 30.0, 100.0):
        m1 = o.m1(x)
        d1 = o.d1_closed(o.mp.mpf(x))
        for field, ref in ((lvl1.m1, m1), (lvl1.d1, d1), (lvl1.n1, m1 + d1)):
            assert abs(np.interp(x, r, field.values) - float(ref)) < 5e-3


def test_radiation_constants_and_regions():
    ratios = []
    for b in (1e-4, 1e-6, 1e-8):
        g = profile_grid_for(b)
        rad = prof.build_profile_family(g, b, with_error=False)
        L = abs(math.log(b))
        assert abs(rad.c1 - L / 2.0) < 2.0
        ratios.append(rad.c_b * L / 2.0)
        r = g.nodes
        inner = r <= rad.B0 / 4.0
        lvl1 = prof.build_t1_s1(g)
        sigma1 = g.divide_by_r(derivative(rad.m_sigma, 1).values, "odd")
        assert np.max(np.abs(sigma1 - rad.c_b * lvl1.T1.values)[inner]) < 1e-9
        outer = r >= 6.0 * rad.B0
        assert np.max(np.abs(rad.m_sigma.values - 4 * prof.psi1(r))[outer]) < 1e-8
        assert np.max(np.abs(rad.d_sigma.values)[outer]) < 1e-8
    assert 0.8 < ratios[0] < 1.2 and 0.8 < ratios[2] < 1.2
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_radiation_normalization_root(g1em4):
    # the c_b-normalized constraint c_b (c1 - c2) = 1 is linear in c_b
    rad = prof.build_profile_family(g1em4, 1e-4, with_error=False)
    assert rad.c1 - rad.c2 > 0.0
    assert rad.c_b == 1.0 / (rad.c1 - rad.c2)


def test_level2_bounds(g1em4, fam1em4):
    b = 1e-4
    r = g1em4.nodes
    m2 = fam1em4.level2.m2.values
    # origin: m2 = O(r^4)
    win = (r > 0.1) & (r < 1.0)
    assert np.max(np.abs(m2[win] / r[win] ** 4)) < 50.0
    # mid-range bound |m2| <~ r^2 (1+|log(r sqrt b)|)/|log b|
    B0 = fam1em4.B0
    mid = (r >= 1.0) & (r <= 6.0 * B0)
    rm = r[mid]
    env = rm ** 2 * (1 + np.abs(np.log(rm * math.sqrt(b)))) / abs(math.log(b))
    assert np.max(np.abs(m2[mid]) / env) < 10.0


def test_level2_b_derivative_bound(g1em4):
    # |b d_b m2| <~ |m2| / |log b| sampled by finite difference
    b = 1e-4
    m2_hi, m2_lo, m2 = (
        prof.build_profile_family(g1em4, x, with_error=False).level2.m2.values
        for x in (b * 1.05, b * 0.95, b))
    r = g1em4.nodes
    bdb = b * (m2_hi - m2_lo) / (0.1 * b)
    mid = (r >= 1.0) & (r <= 600.0)
    ratio = np.abs(bdb[mid]) / (np.abs(m2[mid]) + 1e-3)
    assert np.median(ratio) < 10.0 / abs(math.log(b))


def test_localization(fam1em4, g1em4):
    r = g1em4.nodes
    b = fam1em4.b
    B1 = fam1em4.B1
    q = q_density(r)
    inside = r <= B1
    full = (q + b * fam1em4.level1.T1.values
            + b * b * fam1em4.level2.T2.values)
    assert np.max(np.abs(fam1em4.Qb_tilde.values - full)[inside]) < 1e-12
    outside = r >= 2.2 * B1
    assert np.max(np.abs(fam1em4.Qb_tilde.values - q)[outside]) == 0.0
    # supercritical mass excess, O(b |log b|) scale
    excess = fam1em4.mass_excess
    assert excess > 0.0
    scale = b * abs(math.log(b))
    assert 0.05 * scale < excess / (8 * np.pi) < 20.0 * scale


def test_construction_identity_LT1(g1em4, fam1em4):
    # discrete L applied to (T1, S1) reproduces Lambda Q well inside B1,
    # where the cutoff chi_B1 is 1 and (T1~, S1~) = (T1, S1)
    lvl1 = fam1em4.level1
    pair = FieldPair(lvl1.T1, lvl1.S1_grad)
    out = apply_L(pair)
    r = g1em4.nodes
    lam = lambda_q(r)
    # skip the first nodes: the construction carries r^6 log r terms whose
    # high derivatives the origin stencils resolve only to O(h^4 log h)
    win = (r >= 0.5) & (r <= 0.5 * fam1em4.B1)
    assert np.max(np.abs(out.density.values - lam)[win]) < 2e-3


def test_profile_error_scaling_slopes():
    rows = []
    for b in (1e-3, 1e-5, 1e-7):
        g = profile_grid_for(b)
        fam = prof.build_profile_family(g, b)
        nr = fam.norm_report
        rows.append((b, nr["psi1_sq"], nr["grad_psi2_sq"],
                     abs(nr["degenerate_flux_B0"])))
    rows = np.array(rows)
    lb = np.log(rows[:, 0])
    slope_psi1 = np.polyfit(lb, np.log(rows[:, 1]), 1)[0]
    slope_psi2 = np.polyfit(lb, np.log(rows[:, 2]), 1)[0]
    slope_flux = np.polyfit(lb, np.log(rows[:, 3]), 1)[0]
    assert 4.5 < slope_psi1 < 5.5
    assert 3.4 < slope_psi2 < 4.6
    assert 1.7 < slope_flux < 2.4


def test_guards():
    g = RadialGrid.make(100.0, h_core=0.1, nodes_per_decade=24,
                        stencil_order=4)
    with pytest.raises(prof.ProfileError, match="4\\*B1"):
        prof.build_profile_family(g, 1e-4)
    with pytest.raises(prof.ProfileError, match="admissible"):
        prof.build_profile_family(g, 0.5)


@pytest.fixture(scope="module", params=[4, 6])
def run_window_grid(request):
    # the collapse run's window: B_MAX down to the grid's b floor near 5e-3
    return RadialGrid.make(320.0, h_core=0.05, nodes_per_decade=48,
                           stencil_order=request.param)


@pytest.mark.parametrize("where", ["B_MAX", "1e-2", "5e-3", "floor"])
def test_modulation_profile_matches_full_builder(run_window_grid, where):
    # the lean evaluator is a fast path of build_profile_family: its three
    # arrays must be the full builder's, bit for bit
    g = run_window_grid
    b = {"B_MAX": prof.B_MAX, "1e-2": 1e-2, "5e-3": 5e-3,
         "floor": grid_b_floor(g) * (1.0 + 1e-9)}[where]
    lean = prof.modulation_profiles(g, [b])[0]
    fam = prof.build_profile_family(g, b, with_error=False)
    for name in ("Qb_tilde", "Pb_tilde_grad", "n_tilde"):
        assert np.array_equal(getattr(lean, name).values,
                              getattr(fam, name).values), name


@pytest.mark.parametrize("b", [0.5, 1e-4])
def test_modulation_profile_rejects_like_full_builder(b):
    g = RadialGrid.make(100.0, h_core=0.1, nodes_per_decade=24,
                        stencil_order=4)
    with pytest.raises(prof.ProfileError) as full:
        prof.build_profile_family(g, b)
    with pytest.raises(prof.ProfileError) as lean:
        prof.modulation_profiles(g, [b])[0]
    assert str(lean.value) == str(full.value)


@pytest.fixture(scope="module", params=["run", "profile_grid_for"])
def block_case(request, g1em4):
    # sixteen b across the b the grid carries: the run grid from its
    # table's floor to B_MAX, and the `profile build` grid at 1e-4
    if request.param == "run":
        grid = RunSetup(EvolveParams(b0=1e-2)).grid
    else:
        grid = g1em4
    bs = np.exp(np.linspace(math.log(grid_b_floor(grid)),
                            math.log(prof.B_MAX), 16))
    bs[0], bs[-1] = grid_b_floor(grid), prof.B_MAX
    return grid, list(bs)


def test_block_core_equals_one_b_at_a_time(block_case):
    # one block of sixteen b gives, column by column, the bytes of sixteen
    # blocks of one: the three modulation arrays, and the family's fields
    # and constants, which are the core at one b
    grid, bs = block_case
    block = prof.modulation_profiles(grid, bs)
    loc = prof._localize(grid, bs)
    for j, b in enumerate(bs):
        one = prof.modulation_profiles(grid, [b])[0]
        fam = prof.build_profile_family(grid, b, with_error=False)
        for name in ("Qb_tilde", "Pb_tilde_grad", "n_tilde"):
            want = getattr(one, name).values.tobytes()
            assert getattr(block[j], name).values.tobytes() == want, name
            assert getattr(fam, name).values.tobytes() == want, name
        for name in ("m2", "d2", "n2", "T2", "S2_grad"):
            assert (getattr(loc.lvl2, name)[:, j].tobytes()
                    == getattr(fam.level2, name).values.tobytes()), name
        for name in ("m2_p", "src_m", "src_d"):
            assert (getattr(loc.lvl2, name)[:, j].tobytes()
                    == getattr(fam.level2, name).tobytes()), name
        for name in ("m_sigma", "d_sigma"):
            assert (getattr(loc.rad, name)[:, j].tobytes()
                    == getattr(fam, name).values.tobytes()), name
        assert loc.B1[j] == fam.B1
        for name in ("B0", "c_b", "c1", "c2"):
            assert getattr(loc.rad, name)[j] == getattr(fam, name), name
        assert tuple(x[j] for x in loc.rad.beta) == fam.beta


def test_block_error_names_the_first_failing_b(block_case):
    # a b the grid cannot carry at position 5 of a block: the error is that
    # b's own; the b before it still build
    grid, bs = block_case
    bad = list(bs[:8])
    bad[5] = 2.0 * prof.B_MAX
    with pytest.raises(prof.ProfileError) as single:
        prof.modulation_profiles(grid, [bad[5]])[0]
    with pytest.raises(prof.ProfileError) as block:
        prof.modulation_profiles(grid, bad)
    assert str(block.value) == str(single.value)
    assert len(prof.modulation_profiles(grid, bad[:5])) == 5


def _run_setup_grid():
    return RunSetup(EvolveParams(b0=8e-3, M_param=11.0)).grid


def _spectral_chain_grid():
    return coercivity_chain(20.0, 16, 0.25)[1].grid


def test_profile_memo_dies_with_its_grid():
    # the level-one arrays, the per-grid precompute and the grid's own
    # difference and cell matrices live in the grid's memo, which
    # holds arrays only, so a dropped grid is freed by reference count with
    # them: with the cyclic collector off, as is the grid of a run's setup
    # and of the spectral chain
    gc.disable()
    try:
        g = RadialGrid.make(200.0, h_core=0.1, nodes_per_decade=24,
                            stencil_order=4)
        prof.build_profile_family(g, 1e-2)
        # the four cell matrices are one memo entry, and each stencil's
        # difference matrices (by parity) another
        entries = [(key if isinstance(key, str) else key[0], mat)
                   for key, value in g.memo.items()
                   for mat in (value.values() if isinstance(value, dict)
                               else [value])
                   if sparse.issparse(mat)]
        kinds = [kind for kind, _ in entries]
        assert {kind: kinds.count(kind) for kind in kinds} == {
            "diff": 2 + 2, "cells": 4}
        refs = [weakref.ref(x) for x in (g, prof.profile_base(g),
                                         *(mat for _, mat in entries))]
        del g, entries
        refs += [weakref.ref(_run_setup_grid()),
                 weakref.ref(_spectral_chain_grid())]
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_db_pair_direction(g1em4, fam1em4):
    # leading b-derivative of the localized bubble is T1~ inside B1
    db = 1e-3 * fam1em4.b
    hi, lo = (prof.modulation_profiles(g1em4, [b])[0].Qb_tilde.values
              for b in (fam1em4.b + db, fam1em4.b - db))
    r = g1em4.nodes
    win = r <= 0.25 * fam1em4.B0
    assert np.max(np.abs((hi - lo) / (2 * db)
                         - fam1em4.level1.T1.values)[win]) < 0.05


def test_cutoff_shape():
    x = np.linspace(0.0, 3.0, 301)
    c = cutoff(x)
    assert np.all(c[x <= 1.0] == 1.0)
    assert np.all(c[x >= 2.0] == 0.0)
    assert np.all(np.diff(c) <= 1e-12)
    half = cutoff(x, width=0.5)
    assert np.all(half[x >= 1.5] == 0.0)
