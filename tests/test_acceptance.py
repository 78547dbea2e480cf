"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 10 has one red sub-check: the b_hat-law ratio, measured in the
bubble's rescaled time, moves away from -2 over the halving window instead
of towards it (see README, Known desk-scale limitations).  It is implemented
as stated and asserted last, after the passing sub-checks, so the report
shows partial status.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from types import SimpleNamespace

import kslab.diagnostics as diag
import kslab.dynamics as dyn
import kslab.operators as ops
import kslab.profiles as prof
from conftest import smooth_bump_pair_values
from kslab.cli import profile_grid_for
from kslab.grid import (
    FieldPair,
    RadialField,
    RadialGrid,
    integrate,
    poisson_field,
    potential_from_gradient,
    radial_laplacian,
)


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print("criterion %02d [%s] %s" % (num, tag, detail))
    return ok


@pytest.fixture(scope="module")
def baseline_run():
    params = dyn.EvolveParams(b0=1e-2, M_param=11.0, cadence=10,
                              b_min=5e-3, s_max=2000.0)
    series = dyn.evolve(params)
    assert series.status == "b_min"
    return series


def test_criterion_01_ground_state_identities(ref_grid, ground):
    r = ref_grid.nodes
    mass_rel = abs(integrate(ground.Q) - 8 * np.pi) / (8 * np.pi)
    out = ops.apply_M(ground.pair_LambdaQ())
    m_sup = max(np.max(np.abs(out.density.values + 2.0)),
                np.max(np.abs(out.chem_gradient.values)))
    phil = potential_from_gradient(poisson_field(ground.LambdaQ))
    degen = np.max(np.abs(ground.LambdaQ.values / ground.Q.values
                          + 2.0 + phil.values))
    ok = mass_rel < 1e-6 and m_sup < 1e-4 and degen < 1e-6
    report(1, ok, "mass_rel=%.2e M_sup=%.2e degeneracy=%.2e"
           % (mass_rel, m_sup, degen))
    assert mass_rel < 1e-6
    assert m_sup < 1e-4
    assert degen < 1e-6


def test_criterion_02_kernel_adjoint_algebra(ref_grid, ground):
    r = ref_grid.nodes
    # scale of each residual = sup of the operator's term magnitudes
    lq = ground.pair_LambdaQ()
    out = ops.apply_L(lq)
    lap_scale = np.max(np.abs(radial_laplacian(ground.LambdaQ).values))
    rel_L = max(np.max(np.abs(out.density.values)) / lap_scale,
                np.max(np.abs(out.chem_gradient.values)) / lap_scale)
    const = FieldPair(RadialField(ref_grid, np.ones_like(r)),
                      RadialField(ref_grid, np.zeros_like(r), "odd"))
    o1 = ops.apply_Lstar(const)
    rel_c = max(np.max(np.abs(o1.density.values)),
                np.max(np.abs(o1.chem_gradient.values)))
    eta_grad = RadialField(ref_grid,
                           -4.0 * ref_grid.divide_by_r(np.log1p(r ** 2),
                                                       "even"), "odd")
    o2 = ops.apply_Lstar(FieldPair(RadialField(ref_grid, r ** 2), eta_grad))
    rel_r2 = max(np.max(np.abs(o2.density.values + 4.0)) / 4.0,
                 np.max(np.abs(o2.chem_gradient.values)) / 4.0)
    rng = np.random.default_rng(42)
    rel_adj = 0.0
    for _ in range(20):
        e1, g1 = smooth_bump_pair_values(ref_grid, rng)
        e2, g2 = smooth_bump_pair_values(ref_grid, rng)
        x = FieldPair(RadialField(ref_grid, e1), RadialField(ref_grid, g1, "odd"))
        y = FieldPair(RadialField(ref_grid, e2), RadialField(ref_grid, g2, "odd"))
        lhs = ops.pairing(ops.apply_L(x), y)
        rhs = ops.pairing(x, ops.apply_Lstar(y))
        rel_adj = max(rel_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-10))
    worst = max(rel_L, rel_c, rel_r2, rel_adj)
    report(2, worst < 1e-6,
           "L(LQ)=%.1e L*(1,c)=%.1e L*(r2)=%.1e adjunction=%.1e"
           % (rel_L, rel_c, rel_r2, rel_adj))
    assert worst < 1e-6


def test_criterion_03_inversion_oracle(mid_grid):
    r = mid_grid.nodes
    battery = [
        r ** 2 * ops.q_density(r),
        r ** 2 * np.exp(-r ** 2 / 4.0),
        r ** 2 * np.exp(-r ** 2),
        r ** 2 / (1.0 + r ** 4),
        r ** 2 / (1.0 + r ** 2) ** 2,
        ops.q_density(r) * np.log1p(r ** 2),
        r ** 2 * np.exp(-((r - 3.0) / 2.0) ** 2) / (1 + r ** 2),
        r ** 2 * np.exp(-((r - 1.0) / 1.5) ** 2) / (1 + r ** 4),
        16.0 * r ** 2 / (1.0 + r ** 2) ** 3,
        r ** 2 * np.exp(-r / 2.0) / (1 + r ** 2),
    ]
    worst0 = worst1 = 0.0
    win = r <= 200.0
    for fv in battery:
        f = RadialField(mid_grid, fv)
        scale = np.max(np.abs(fv))
        res0 = prof.apply_L0(prof.invert_L0(f)).values + fv
        worst0 = max(worst0, np.max(np.abs(res0)[win]) / scale)
        res1 = prof.apply_L1(prof.invert_L1(f, 0.0)).values - fv
        worst1 = max(worst1, np.max(np.abs(res1)[win]) / scale)
    d1 = prof.invert_L1(RadialField(mid_grid, r ** 2 * ops.q_density(r)), -2.0)
    d1_err = np.max(np.abs(d1.values + 2 * np.log1p(r ** 2))[r <= 100])
    ok = worst0 < 1e-4 and worst1 < 1e-4 and d1_err < 1e-4
    report(3, ok, "L0_res=%.1e L1_res=%.1e d1_err=%.1e"
           % (worst0, worst1, d1_err))
    assert worst0 < 1e-4 and worst1 < 1e-4
    assert d1_err < 1e-4


def test_criterion_04_profile_asymptotics(mid_grid):
    # Targets of the parabolic-parabolic level-one system L1 d1 = r^2 Q,
    # d1 = -2 log(1+r^2), L0 m1 = -(r^2 Q - Q d1): the Q d1 coupling adds 4
    # to the psi1 coefficient, so n1 = d1 + m1 -> 0 and
    # m1 - 2 log(1+r^2) -> 0.  The parabolic-elliptic equation
    # L0 m1 = -r^2 Q would give n1 -> -4 and m1 - 4(log r - 1) -> 0 instead;
    # tests/test_profiles.py checks both against a quadrature oracle.
    lvl1 = prof.build_t1_s1(mid_grid)
    r = mid_grid.nodes
    t1_100 = float(np.interp(100.0, r, lvl1.T1.values))
    n1_100 = float(np.interp(100.0, r, lvl1.n1.values))
    gap = [float(np.interp(x, r, lvl1.m1.values)) - 2 * np.log1p(x ** 2)
           for x in (10.0, 30.0, 100.0)]
    ok_t1 = abs(100.0 ** 2 * t1_100 - 4.0) / 4.0 < 0.02
    ok_n1 = abs(n1_100) < 0.08  # 2% of the flux constant 4
    ok_m1 = abs(gap[2]) < abs(gap[0]) and abs(gap[2]) < 0.5
    report(4, ok_t1 and ok_n1 and ok_m1,
           "r2T1(100)=%.4f n1(100)=%.4f m1-2log(1+r^2) at 10/30/100 = "
           "%.4f/%.4f/%.4f" % (100 ** 2 * t1_100, n1_100, *gap))
    assert ok_t1, "r^2 T1(100) = %.4f outside 4 +- 2%%" % (100 ** 2 * t1_100)
    assert ok_n1, "n1(100) = %.4f, not within 0.08 of 0" % n1_100
    assert ok_m1, ("m1 - 2 log(1+r^2) at r = 10/30/100 = %.4f/%.4f/%.4f "
                   "does not shrink below 0.5" % tuple(gap))


def test_criterion_05_radiation_law():
    ratios = []
    for b in (1e-4, 1e-6, 1e-8):
        g = profile_grid_for(b)
        c_b = prof.build_profile_family(g, b, with_error=False).c_b
        ratios.append(c_b * abs(math.log(b)) / 2.0)
    in_band = all(0.8 <= x <= 1.2 for x in ratios)
    monotone = ratios[0] > ratios[1] > ratios[2] > 1.0
    report(5, in_band and monotone,
           "c_b|log b|/2 = %.4f, %.4f, %.4f" % tuple(ratios))
    assert in_band and monotone


def test_criterion_06_error_norm_scaling():
    rows = []
    for b in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        g = profile_grid_for(b)
        fam = prof.build_profile_family(g, b)
        nr = fam.norm_report
        rows.append((b, nr["psi1_sq"], nr["grad_psi2_sq"],
                     abs(nr["degenerate_flux_B0"])))
    rows = np.array(rows)
    lb = np.log(rows[:, 0])
    s1 = np.polyfit(lb, np.log(rows[:, 1]), 1)[0]
    s2 = np.polyfit(lb, np.log(rows[:, 2]), 1)[0]
    s3 = np.polyfit(lb, np.log(rows[:, 3]), 1)[0]
    ok = abs(s1 - 5) < 0.5 and abs(s2 - 4) < 0.5 and abs(s3 - 2) < 0.3
    report(6, ok, "slopes: psi1^2=%.3f grad_psi2^2=%.3f flux=%.3f"
           % (s1, s2, s3))
    assert abs(s1 - 5) < 0.5
    assert abs(s2 - 4) < 0.5
    assert abs(s3 - 2) < 0.3


def test_criterion_07_phi_m_pairing():
    rel_t1 = []
    ratios = []
    for M in (50.0, 100.0, 200.0, 400.0):
        g = ops.operator_grid(M)
        lvl1 = prof.build_t1_s1(g)
        phim = ops.build_phi_m(g, M, FieldPair(lvl1.T1, lvl1.S1_grad))
        rep = phim.report
        rel_t1.append(abs(rep["PhiM_T1"]) / abs(rep["Phi0_T1"]))
        ratios.append(rep["PhiM_LambdaQ"] / np.log(M) / (-32 * np.pi))
    devs = [abs(x - 1) for x in ratios]
    ok = max(rel_t1) < 1e-6 and max(devs) < 0.10 and devs == sorted(devs,
                                                                    reverse=True)
    report(7, ok, "relT1_max=%.1e ratios=%s" % (max(rel_t1),
                                                ["%.4f" % x for x in ratios]))
    assert max(rel_t1) < 1e-6
    assert max(devs) < 0.10
    assert devs[-1] < devs[0]


def test_criterion_08_coercivity():
    g1 = ops.operator_grid(50.0, nodes_per_decade=32, h_core=0.1)
    g2 = ops.operator_grid(50.0, nodes_per_decade=48, h_core=0.05)
    d1 = ops.coercivity_M(ops.OperatorBundle(g1))["delta0_M_hat"]
    d2 = ops.coercivity_M(ops.OperatorBundle(g2))["delta0_M_hat"]
    stable = abs(d1 - d2) / max(d1, d2) < 0.2
    normalized = []
    for M in (50.0, 100.0, 200.0):
        g = ops.operator_grid(M, nodes_per_decade=32, h_core=0.1)
        b = ops.OperatorBundle(g)
        lvl1 = prof.build_t1_s1(g)
        phim = ops.build_phi_m(g, M, FieldPair(lvl1.T1, lvl1.S1_grad))
        rep = ops.coercivity_L(b, phim)
        assert rep["delta0_L_hat"] > 0.0
        normalized.append(rep["normalized"])
    ok = d1 > 0 and d2 > 0 and stable and min(normalized) > 0.5
    report(8, ok, "delta0_M=%.4f/%.4f normalized_L=%s"
           % (d1, d2, ["%.2f" % x for x in normalized]))
    assert d1 > 0 and d2 > 0 and stable
    assert min(normalized) > 0.5


@pytest.fixture(scope="module")
def baseline9_run():
    # conservation/dissipation baseline: a well-resolved window where the
    # linearized implicit scheme stays inside its dissipative accuracy
    params = dyn.EvolveParams(b0=8e-3, M_param=11.0, cadence=5, s_max=120.0)
    return dyn.evolve(params)


def test_criterion_09_conservation_dissipation(baseline9_run):
    series = baseline9_run
    m = series.column("mass")
    drift = np.max(np.abs(m - m[0])) / m[0]
    E = series.column("free_energy")
    nonincreasing = bool(np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1])))
    ok = drift < 1e-6 and nonincreasing
    report(9, ok, "mass_drift=%.1e energy_nonincreasing=%s" % (drift,
                                                               nonincreasing))
    assert drift < 1e-6
    assert nonincreasing


def test_criterion_10_modulation_laws(baseline_run):
    series = baseline_run
    assert series.b[-1] <= 0.5 * series.b[0] * 1.01  # tracked until b halved
    laws = dyn.measure_laws(series)
    ra = laws["ratio_a"]
    rb = laws["ratio_b"]
    r43 = laws["rate_lam43"]
    q = len(ra) // 4  # transient: first quarter of the run
    dev_a = float(np.max(np.abs(ra[q:] - 1.0)))
    in_band_b = bool(np.all((rb >= -3.0) & (rb <= -1.0)))
    closer = abs(rb[-1] + 2.0) < abs(rb[0] + 2.0)
    floor_43 = float(np.min(r43))
    ok = dev_a <= 0.2 and in_band_b and closer and floor_43 > 0
    report(10, ok,
           "(a) max|ratio-1|=%.3f (b) in_band=%s %.3f->%.3f (c) floor=%.4f"
           % (dev_a, in_band_b, rb[0], rb[-1], floor_43))
    assert in_band_b, "b-law ratio left [-3,-1]: range [%.3f, %.3f]" % (
        float(np.min(rb)), float(np.max(rb)))
    assert floor_43 > 0, "-(lam^{4/3})_t not bounded below by 0"
    # measure_laws differentiates in the bubble's time sigma; the recorded
    # frame time s would multiply (a) by 1/lam1^2, lam1 the pending scale
    assert dev_a <= 0.2, ("(a): max pointwise |(-lam_sigma/lam)/b - 1| = "
                          "%.3f > 0.2 after transient" % dev_a)
    # Red: in the bubble's time the ratio drifts from about -1.83 to -1.39
    # over b in [5e-3, 1e-2]; with smaller steps its final value settles
    # near -1.54, still away from -2 (see README, Known desk-scale
    # limitations).
    assert closer, ("b-law ratio not closer to -2 at the end: %.3f -> %.3f "
                    "(see README, Known desk-scale limitations)"
                    % (rb[0], rb[-1]))


def test_criterion_11_stability(baseline_run):
    params = dyn.EvolveParams(b0=1e-2, M_param=11.0, cadence=10,
                              lam_stop=0.5, s_max=500.0)
    rep = dyn.stability_probe(params, n_perturbations=8, delta=1e-4, seed=0)
    all_reach = rep["fraction_reached"] == 1.0
    stats_ok = all(
        abs(r["ratio_a_final"] - 1.0) <= 0.2 and -3.0 <= r["ratio_b_mean"] <= -1.0
        for r in rep["runs"])
    control = dyn.subcritical_control(mass_fraction=0.5, t_max=0.5)
    ok = all_reach and stats_ok and control["bounded"]
    report(11, ok, "reached=%.2f stats_ok=%s subcritical_bounded=%s"
           % (rep["fraction_reached"], stats_ok, control["bounded"]))
    assert all_reach
    assert stats_ok
    assert control["bounded"]


def test_criterion_12_inequality_suites(ref_grid, ground):
    r = ref_grid.nodes
    q = ops.q_density
    battery = [q(r), 0.25 * q(0.5 * r), 4.0 * q(2.0 * r),
               q(r) * (1 + 0.3 * np.exp(-(r - 1.5) ** 2)),
               q(r) * (1 + 0.1 * np.exp(-(r - 4.0) ** 2)),
               np.exp(-r ** 2), 2.0 * np.exp(-r ** 2 / 4),
               q(r) + np.exp(-r ** 2), 0.5 * q(r) + 0.1 * np.exp(-r ** 2 / 2),
               1.5 * q(1.5 * r) * (1 + 0.2 * np.exp(-(r - 2) ** 2))]
    margins = []
    for u in battery:
        lhs, rhs, margin = diag.check_logHLS(RadialField(ref_grid, u))
        margins.append(margin / max(abs(rhs), 1.0))
    family_margin = max(abs(diag.check_logHLS(
        RadialField(ref_grid, lam ** 2 * q(lam * r)))[2])
        for lam in (0.5, 1.0, 2.0))
    min_margin = min(margins)
    consts = {}
    for h, npd in ((0.04, 48), (0.02, 96)):
        g = RadialGrid.make(500.0, h_core=h, nodes_per_decade=npd,
                            stencil_order=4)
        v = RadialField(g, np.exp(-g.nodes ** 2 / 4))
        rep = diag.check_hardy_suite(v)
        for name in ("log", "level3"):
            consts.setdefault(name, []).append(rep[name]["constant"])
    hardy_stable = all(abs(a - b) / max(a, b) < 0.2
                       for a, b in consts.values())
    v = RadialField(ref_grid, np.exp(-r ** 2 / 4.0))
    back = potential_from_gradient(poisson_field(radial_laplacian(v)))
    round_trip = float(np.max(np.abs(back.values - v.values)))
    ok = (min_margin >= -1e-6 and family_margin < 1e-4
          and hardy_stable and round_trip < 1e-4)
    report(12, ok, "min_margin=%.1e family=%.1e hardy_stable=%s roundtrip=%.1e"
           % (min_margin, family_margin, hardy_stable, round_trip))
    assert min_margin >= -1e-6
    assert family_margin < 1e-4
    assert hardy_stable
    assert round_trip < 1e-4


def test_criterion_13_rate_fit_oracle():
    def make(rhs):
        sol = solve_ivp(rhs, (10.0, 3e7), [5e-2, 0.0], rtol=1e-10,
                        atol=1e-14, dense_output=True)
        ss = np.geomspace(1e6, 3e7, 300)
        bb, ll = sol.sol(ss)
        return SimpleNamespace(s=ss, b_hat=bb, lam=np.exp(ll))

    good = diag.fit_rate_law(make(
        lambda s, y: [-2 * y[0] ** 2 / abs(np.log(y[0])), -y[0]]))
    bad = diag.fit_rate_law(make(lambda s, y: [-y[0] ** 2, -y[0]]))
    ok = (abs(good["ode_coefficient"] - 1.0) < 0.02 and good["accepted"]
          and not bad["accepted"])
    report(13, ok, "coef=%.4f accepted=%s control_rejected=%s"
           % (good["ode_coefficient"], good["accepted"], not bad["accepted"]))
    assert abs(good["ode_coefficient"] - 1.0) < 0.02
    assert good["accepted"]
    assert not bad["accepted"]
