import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from types import SimpleNamespace

import kslab.diagnostics as diag
from kslab.grid import FieldPair, RadialField, RadialGrid, laplacian_values
from kslab.operators import q_density


def scaled_q_pair(grid, lam, factor=1.0):
    r = grid.nodes
    u = RadialField(grid, factor * lam ** 2 * q_density(lam * r))
    gv = RadialField(grid, factor * lam * 4 * (lam * r) / (1 + (lam * r) ** 2),
                     "odd")
    return FieldPair(u, gv)


def test_free_energy_at_ground_state(ref_grid):
    rep = diag.free_energy(scaled_q_pair(ref_grid, 1.0))
    target = diag.loghls_bound(8 * np.pi)
    assert abs(rep.free_energy - target) / abs(target) < 1e-5
    assert abs(rep.mass - 8 * np.pi) < 1e-4
    assert rep.floored_mass == 0.0


def test_free_energy_scaling_law(ref_grid):
    # E(u_lam, v_lam) - E(u, v) = M (2 - M/4pi) log(lam)
    base = diag.free_energy(scaled_q_pair(ref_grid, 1.0, factor=1.2))
    M = base.mass
    for lam in (0.5, 2.0):
        shifted = diag.free_energy(scaled_q_pair(ref_grid, lam, factor=1.2))
        pred = M * (2 - M / (4 * np.pi)) * np.log(lam)
        assert abs((shifted.free_energy - base.free_energy) - pred) < 1e-3 * abs(pred)


def test_free_energy_critical_scaling_shift_vanishes(ref_grid):
    base = diag.free_energy(scaled_q_pair(ref_grid, 1.0))
    for lam in (0.5, 2.0):
        shifted = diag.free_energy(scaled_q_pair(ref_grid, lam))
        assert abs(shifted.free_energy - base.free_energy) < 1e-4 * abs(base.free_energy)


def test_free_energy_rejects_negative_density(ref_grid):
    r = ref_grid.nodes
    bad = FieldPair(RadialField(ref_grid, -np.exp(-r ** 2)),
                    RadialField(ref_grid, np.zeros_like(r), "odd"))
    with pytest.raises(diag.DiagnosticsError):
        diag.free_energy(bad)


def test_loghls_minimizer_family(ref_grid, ground):
    r = ref_grid.nodes
    _, rhs, margin = diag.check_logHLS(ground.Q)
    assert abs(margin) < 1e-6 * abs(rhs)
    for lam in (0.5, 2.0):
        q_lam = RadialField(ref_grid, lam ** 2 * q_density(lam * r))
        margin = diag.check_logHLS(q_lam)[2]
        assert abs(margin) < 1e-5 * abs(rhs)
    bump = RadialField(ref_grid,
                       q_density(r) * (1 + 0.3 * np.exp(-(r - 1.5) ** 2)))
    assert diag.check_logHLS(bump)[2] > 0.01


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.5, 2.0), st.floats(0.05, 0.5))
def test_loghls_margin_nonnegative_hypothesis(scale, lam, amp):
    grid = RadialGrid.make(2000.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=4)
    r = grid.nodes
    u = scale * lam ** 2 * q_density(lam * r) * (1 + amp * np.exp(-(r - 2) ** 2))
    lhs, rhs, margin = diag.check_logHLS(RadialField(grid, u))
    assert margin >= -1e-6 * max(abs(rhs), 1.0)


def test_hardy_power_sharp(ref_grid):
    r = ref_grid.nodes
    v = RadialField(ref_grid, np.exp(-r ** 2))
    rep = diag.check_hardy_suite(v)
    assert rep["power"]["ratio"] >= rep["power"]["sharp"]
    assert abs(rep["power"]["ratio"] - 2.0) < 1e-6


def test_hardy_log_suite_finite_constants(ref_grid):
    r = ref_grid.nodes
    v = RadialField(ref_grid, r * np.exp(-r), "none")
    rep = diag.check_hardy_suite(v)
    for name in ("log", "log_gamma", "level1", "level3"):
        assert 0.0 <= rep[name]["constant"] < 50.0
    assert rep["level2"]["constant"] <= 1.0 + 1e-6 or rep["level2"]["constant"] < 5.0


def test_hardy_laplacian_is_the_grid_laplacian(ref_grid):
    # level 3 differentiates the grid's Laplacian, whose origin value is the
    # limit 2 v''(0) = -4 for v = exp(-r^2); then int |grad lap v|^2 over
    # the plane is its closed form 24 pi
    r = ref_grid.nodes
    v = RadialField(ref_grid, np.exp(-r ** 2))
    assert abs(laplacian_values(ref_grid, v.values)[0] + 4.0) < 1e-6
    rhs = diag.check_hardy_suite(v)["level3"]["rhs"]
    assert abs(rhs - 24.0 * np.pi) < 1e-6 * 24.0 * np.pi


def test_hardy_refinement_stability():
    vals = {}
    for h, npd in ((0.04, 48), (0.02, 96)):
        grid = RadialGrid.make(500.0, h_core=h, nodes_per_decade=npd,
                               stencil_order=4)
        r = grid.nodes
        v = RadialField(grid, np.exp(-r ** 2 / 4))
        rep = diag.check_hardy_suite(v)
        for name in ("log", "level3"):
            vals.setdefault(name, []).append(rep[name]["constant"])
    for name, (a, b) in vals.items():
        assert abs(a - b) / max(a, b) < 0.2


def synthetic_series(rhs, s_span=(10.0, 3e7), b0=5e-2, n=300):
    sol = solve_ivp(rhs, s_span, [b0, 0.0], rtol=1e-10, atol=1e-14,
                    dense_output=True)
    ss = np.geomspace(1e6, s_span[1], n)
    bb, ll = sol.sol(ss)
    return SimpleNamespace(s=ss, b_hat=bb, lam=np.exp(ll))


def test_fit_rate_law_oracle():
    series = synthetic_series(
        lambda s, y: [-2 * y[0] ** 2 / abs(np.log(y[0])), -y[0]])
    rep = diag.fit_rate_law(series)
    assert abs(rep["ode_coefficient"] - 1.0) < 0.02
    assert rep["accepted"]
    assert abs(rep["lambda_slope"] - 1.0) < 0.01
    assert 0.0 < rep["proxy_min"] <= rep["proxy_max"] < 10.0


def test_fit_rate_law_rejects_no_log_control():
    series = synthetic_series(lambda s, y: [-y[0] ** 2, -y[0]])
    rep = diag.fit_rate_law(series)
    assert not rep["accepted"]
    assert abs(rep["ode_coefficient"] - 1.0) > 0.1


def test_fit_rate_law_drops_unlifted_samples():
    # evolve's stopping record carries b_hat = NaN when it is off-cadence
    series = synthetic_series(
        lambda s, y: [-2 * y[0] ** 2 / abs(np.log(y[0])), -y[0]])
    b_hat = series.b_hat.copy()
    b_hat[-1] = np.nan
    rep = diag.fit_rate_law(SimpleNamespace(s=series.s, b_hat=b_hat,
                                            lam=series.lam))
    ref = diag.fit_rate_law(SimpleNamespace(s=series.s[:-1],
                                            b_hat=series.b_hat[:-1],
                                            lam=series.lam[:-1]))
    assert rep == ref
    assert rep["accepted"]


def test_fit_rate_law_insufficient_range():
    s = np.linspace(100.0, 120.0, 50)
    series = SimpleNamespace(s=s, b_hat=1 / s, lam=np.exp(-s / 100))
    with pytest.raises(diag.DiagnosticsError):
        diag.fit_rate_law(series)
