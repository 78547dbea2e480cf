import ast
import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import lapack

import kslab.operators as ops
from conftest import smooth_bump_pair_values
from kslab.cli import SPECTRAL_GRID
from kslab.dynamics import EvolveParams, ModulationSolver, dynamics_grid
from kslab.grid import (FieldPair, RadialField, derivative,
                        div_from_grad_values, laplacian_values)
from kslab.operators import lambda_q, q_density
from kslab.profiles import build_t1_s1


@pytest.fixture(scope="module")
def op_grid():
    return ops.operator_grid(50.0, nodes_per_decade=32, h_core=0.1)


@pytest.fixture(scope="module")
def bundle(op_grid):
    return ops.OperatorBundle(op_grid)


def bump_pair(grid, rng):
    e, geta = smooth_bump_pair_values(grid, rng)
    return FieldPair(RadialField(grid, e), RadialField(grid, geta, "odd"))


def test_apply_M_identities(ref_grid, ground):
    r = ref_grid.nodes
    out = ops.apply_M(ground.pair_LambdaQ())
    assert np.max(np.abs(out.density.values + 2.0)) < 1e-4
    assert np.max(np.abs(out.chem_gradient.values)) < 1e-6
    # (0, v) -> (v, v)
    v = np.exp(-r ** 2 / 4)
    gv = RadialField(ref_grid, ref_grid.diff_matrix(1, "even") @ v, "odd")
    out2 = ops.apply_M(FieldPair(RadialField(ref_grid, np.zeros_like(r)), gv))
    assert np.max(np.abs(out2.density.values - v)) < 1e-8
    assert np.array_equal(out2.chem_gradient.values, gv.values)


def test_apply_M_second_scaling_pair(ref_grid):
    # M(Lambda^2 Q, r^2 Q) = ((Lambda Q / Q)^2, 0) with closed forms
    r = ref_grid.nodes
    lam2 = 32.0 * (r ** 4 - 4 * r ** 2 + 1) / (1 + r ** 2) ** 4
    grad2 = ref_grid.diff_matrix(1, "even") @ (r ** 2 * q_density(r))
    out = ops.apply_M(FieldPair(RadialField(ref_grid, lam2),
                                RadialField(ref_grid, grad2, "odd")))
    target = (lambda_q(r) / q_density(r)) ** 2
    assert np.max(np.abs(out.density.values - target)[r <= 100]) < 1e-4
    assert np.max(np.abs(out.chem_gradient.values)[r <= 100]) < 1e-4


def test_apply_L_kernel(ref_grid, ground):
    out = ops.apply_L(ground.pair_LambdaQ())
    scale = np.max(np.abs(ground.LambdaQ.values)) * 10
    assert np.max(np.abs(out.density.values)) / scale < 1e-6
    assert np.max(np.abs(out.chem_gradient.values)) / scale < 1e-6


def test_apply_L_on_T1_pair(mid_grid):
    lvl1 = build_t1_s1(mid_grid)
    out = ops.apply_L(FieldPair(lvl1.T1, lvl1.S1_grad))
    r = mid_grid.nodes
    win = (r >= 0.5) & (r <= 100.0)
    assert np.max(np.abs(out.density.values - lambda_q(r))[win]) < 2e-3
    grad_phi_lam = r * q_density(r)
    assert np.max(np.abs(out.chem_gradient.values - grad_phi_lam)[win]) < 2e-3


def test_lstar_phi0_values_are_apply_Lstar_per_column(op_grid):
    # the block form the lifts use: column j is bitwise the single M's
    Ms = [3.0, 7.5, 12.0, 30.0]
    first, second = ops.lstar_phi0_values(op_grid, Ms)
    for j, M in enumerate(Ms):
        one = ops.apply_Lstar(ops.phi0_pair(op_grid, M))
        assert first[:, j].tobytes() == one.density.values.tobytes()
        assert second[:, j].tobytes() == one.chem_gradient.values.tobytes()


def test_apply_Lstar_kernel(ref_grid):
    r = ref_grid.nodes
    const = FieldPair(RadialField(ref_grid, np.ones_like(r)),
                      RadialField(ref_grid, np.zeros_like(r), "odd"))
    out = ops.apply_Lstar(const)
    assert np.max(np.abs(out.density.values)) < 1e-10
    assert np.max(np.abs(out.chem_gradient.values)) < 1e-10
    # second branch: L*(r^2, -4 int log(1+t^2)/t) = (-4, 0)
    eta_grad = RadialField(ref_grid,
                           -4.0 * ref_grid.divide_by_r(np.log1p(r ** 2), "even"),
                           "odd")
    out2 = ops.apply_Lstar(FieldPair(RadialField(ref_grid, r ** 2), eta_grad))
    assert np.max(np.abs(out2.density.values + 4.0)) < 1e-6
    assert np.max(np.abs(out2.chem_gradient.values)) / 4.0 < 1e-6


def _oracle_apply_Lstar(x):
    """L* written out on one pair, as before it became a value kernel."""
    g = x.grid
    r = g.nodes
    e = x.density.values
    gn = x.chem_gradient.values
    de = g.diff_matrix(1, "even") @ e
    lap_n = div_from_grad_values(g, gn)
    first = laplacian_values(g, e) - ops.q_potential_grad(r) * de + lap_n
    second = g.diff_matrix(1, "even") @ lap_n - q_density(r) * de
    return first, second


def test_apply_Lstar_matches_the_written_out_oracle(ref_grid):
    # on a bump pair and on Phi_M as the modulation solver builds it
    bump = bump_pair(ref_grid, np.random.default_rng(5))
    solver = ModulationSolver(dynamics_grid(EvolveParams()), 11.0)
    for x, got in ((bump, ops.apply_Lstar(bump)),
                   (solver.phim.pair, solver.lstar_phim)):
        first, second = _oracle_apply_Lstar(x)
        np.testing.assert_array_equal(got.density.values, first)
        np.testing.assert_array_equal(got.chem_gradient.values, second)


def test_adjunction_random_pairs(ref_grid):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y = bump_pair(ref_grid, rng), bump_pair(ref_grid, rng)
        lhs = ops.pairing(ops.apply_L(x), y)
        rhs = ops.pairing(x, ops.apply_Lstar(y))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_vanishing_average_hypothesis(seed):
    grid = ops.operator_grid(20.0, nodes_per_decade=24, h_core=0.1)
    rng = np.random.default_rng(seed)
    x = bump_pair(grid, rng)
    lx = ops.apply_L(x)
    w = 2 * np.pi * grid.quad_weights
    total = float(w @ lx.density.values)
    scale = float(w @ np.abs(lx.density.values)) + 1e-12
    assert abs(total) / scale < 1e-3  # coarse-grid telescoping tolerance


def test_M_self_adjoint(ref_grid):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = bump_pair(ref_grid, rng), bump_pair(ref_grid, rng)
        # project densities to zero mean (the X_Q sector)
        w = 2 * np.pi * ref_grid.quad_weights
        q = q_density(ref_grid.nodes)
        for p in (x, y):
            u = p.density.values
            u = u - (w @ u) / (w @ q) * q
            p.density = RadialField(ref_grid, u)
        lhs = ops.pairing(ops.apply_M(x), y)
        rhs = ops.pairing(x, ops.apply_M(y))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1e-8)


def test_dense_matrices_match_the_pointwise_maps(bundle):
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = bump_pair(bundle.grid, rng)
        xv = np.concatenate([x.density.values, x.chem_gradient.values])
        for mat, apply in ((bundle.matrix_L(), ops.apply_L),
                           (bundle.matrix_M(), ops.apply_M)):
            y = apply(x)
            want = np.concatenate([y.density.values, y.chem_gradient.values])
            err = np.max(np.abs(mat @ xv - want))
            assert err <= 1e-13 * np.max(np.abs(want))


def test_phi_m_pairings():
    ratios = []
    for M in (50.0, 100.0):
        grid = ops.operator_grid(M)
        lvl1 = build_t1_s1(grid)
        phim = ops.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))
        rep = phim.report
        assert abs(rep["PhiM_T1"]) / abs(rep["Phi0_T1"]) < 1e-6
        ratios.append(rep["PhiM_LambdaQ"] / np.log(M) / (-32 * np.pi))
        assert abs(phim.c_M) * np.log(M) / M ** 2 < 10.0
    assert abs(ratios[0] - 1) < 0.1
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1)


def test_phi_m_too_small(op_grid):
    lvl1 = build_t1_s1(op_grid)
    for M in (1.2, 2.0, 2.49):
        with pytest.raises(ops.OperatorError, match="M too small"):
            ops.build_phi_m(op_grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))


# the run grid, the operator grid and the spectral CLI grid at M
GRID_RECIPES = {
    "dynamics": lambda M: dynamics_grid(EvolveParams(M_param=M)),
    "operator": ops.operator_grid,
    "spectral": lambda M: ops.operator_grid(M, **SPECTRAL_GRID),
}


@pytest.mark.parametrize("recipe", GRID_RECIPES)
def test_phi_m_floor_is_where_the_pairing_clears_32_pi(recipe):
    # |<Phi_{0,M}, Lambda Q>| crosses 32 pi between M = 2.4 and the floor
    # 2.5 on every grid recipe
    def pairing_over_32pi(M):
        grid = GRID_RECIPES[recipe](M)
        lam = ops.ground_state(grid).pair_LambdaQ()
        return abs(ops.pairing(ops.phi0_pair(grid, M), lam)) / (32 * np.pi)

    assert pairing_over_32pi(ops.PHI_M_MIN_M) > 1.0 > pairing_over_32pi(2.4)
    assert ops.phi_m_degeneracy(ops.PHI_M_MIN_M) is None
    assert "M too small" in ops.phi_m_degeneracy(2.4)


def test_coercivity_M(bundle):
    rep = ops.coercivity_M(bundle)
    assert rep["delta0_M_hat"] > 0.05
    # kernel direction: the form vanishes on the Lambda Q pair
    lam = bundle.ground.pair_LambdaQ()
    val = ops.pairing(ops.apply_M(lam), lam) / ops.xq_norm_sq(lam)
    assert abs(val) < 1e-4


def test_coercivity_M_refinement_stability(bundle):
    g2 = ops.operator_grid(50.0, nodes_per_decade=48, h_core=0.05)
    rep1 = ops.coercivity_M(bundle)
    rep2 = ops.coercivity_M(ops.OperatorBundle(g2))
    a, b = rep1["delta0_M_hat"], rep2["delta0_M_hat"]
    assert abs(a - b) / max(a, b) < 0.2


def test_coercivity_M_lower_bound_on_random(bundle):
    rep = ops.coercivity_M(bundle)
    delta0 = rep["delta0_M_hat"]
    rng = np.random.default_rng(11)
    grid = bundle.grid
    w = 2 * np.pi * grid.quad_weights
    lam = bundle.ground.pair_LambdaQ()
    for _ in range(10):
        x = bump_pair(grid, rng)
        u = x.density.values
        q = q_density(grid.nodes)
        u = u - (w @ u) / (w @ q) * q           # zero mass
        pairx = FieldPair(RadialField(grid, u), x.chem_gradient)
        coef = ops.pairing(pairx, lam) / ops.pairing(lam, lam)
        u2 = u - coef * lam.density.values
        g2 = pairx.chem_gradient.values - coef * lam.chem_gradient.values
        y = FieldPair(RadialField(grid, u2), RadialField(grid, g2, "odd"))
        lhs = ops.pairing(ops.apply_M(y), y)
        assert lhs >= delta0 * ops.xq_norm_sq(y) - 1e-6 * ops.xq_norm_sq(y)


def test_coercivity_L_positive_and_normalized():
    vals = []
    for M in (50.0, 100.0):
        grid = ops.operator_grid(M, nodes_per_decade=32, h_core=0.1)
        b = ops.OperatorBundle(grid)
        lvl1 = build_t1_s1(grid)
        phim = ops.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))
        rep = ops.coercivity_L(b, phim)
        assert rep["delta0_L_hat"] > 0.0
        vals.append(rep["normalized"])
    assert min(vals) > 0.5  # M^2/log^2 M-normalized quotient bounded below


def test_kernel_gap(bundle):
    rep = ops.kernel_gap(bundle)
    assert rep["gap"] > 50.0
    assert rep["alignment"] > 0.99


# -- oracle: constraints as whitened one-hot rows, full eigensolves ------------

def _one_hot(n2, index):
    return np.eye(n2)[np.asarray(index)]


def _oracle_boundary_rows(grid):
    # outer stencil_order + 3 nodes of both blocks, gradient slot at r = 0
    n = grid.n
    return _one_hot(2 * n, [n] + [block + n - 1 - k
                                  for k in range(grid.stencil_order + 3)
                                  for block in (0, n)])


def _oracle_whitened_min(A, gx, constraints):
    # unit rows in the null spaces: the whitened one-hot rows span ~18
    # orders of magnitude, and null_space's relative rank cut would count
    # the small ones as dependent (at M = 400)
    s = np.sqrt(gx)
    S = A / s[None, :] / s[:, None]
    C = np.atleast_2d(constraints) / s[None, :]
    V = linalg.null_space(C / np.linalg.norm(C, axis=1)[:, None])
    Sr = V.T @ S @ V
    return linalg.eigh(0.5 * (Sr + Sr.T))[0][0]


def _oracle_coercivity_M(bundle):
    A, gx = bundle.quadform_M(), bundle.gram_xq()
    mass = bundle.mass_vector()
    bc = _oracle_boundary_rows(bundle.grid)
    lam = bundle.pair_vector(bundle.ground.pair_LambdaQ())
    return _oracle_whitened_min(A, gx, np.vstack([lam, mass, bc]))


def _oracle_coercivity_L(bundle, phim, sv_tol=1e-10):
    L = bundle.matrix_L()
    s = np.sqrt(bundle.gram_xq())
    V = linalg.null_space(np.vstack([
        bundle.pair_vector(phim.pair),
        bundle.pair_vector(ops.apply_Lstar(phim.pair)),
        _oracle_boundary_rows(bundle.grid)]))
    U, sv, _ = linalg.svd((L * s[:, None]) @ V, full_matrices=False)
    Uk = U[:, sv > sv_tol * sv.max()]
    Uk = Uk @ linalg.null_space(((bundle.mass_vector() / s) @ Uk)[None, :])
    Sr = Uk.T @ (bundle.quadform_M() / s[None, :] / s[:, None]) @ Uk
    return linalg.eigvalsh(0.5 * (Sr + Sr.T))[0], Uk.shape[1]


def _oracle_kernel_gap(bundle, support_radius=30.0):
    L, gx = bundle.matrix_L(), bundle.gram_xq()
    s = np.sqrt(gx)
    n = bundle.grid.n
    out = np.nonzero(bundle.grid.nodes > support_radius)[0]
    C = np.vstack([bundle.mass_vector(),
                   _one_hot(2 * n, np.r_[out, n + out, n])]) / s[None, :]
    V = linalg.null_space(C / np.linalg.norm(C, axis=1)[:, None])
    _, sv, Yt = linalg.svd((L * s[:, None]) / s[None, :] @ V,
                           full_matrices=False)
    x0 = (V @ Yt[-1]) / s
    lam = bundle.ground.pair_LambdaQ()
    lamv = np.concatenate([lam.density.values, lam.chem_gradient.values])
    align = abs((x0 * gx) @ lamv) / np.sqrt(
        ((x0 * gx) @ x0) * ((lamv * gx) @ lamv))
    return sv[-2] ** 2 / sv[-1] ** 2, align


@pytest.mark.parametrize("M, nodes_per_decade, h_core, sv_tol, cut", [
    pytest.param(50.0, 32, 0.1, 1e-10, 0, id="50.0"),
    pytest.param(100.0, 32, 0.1, 1e-10, 0, id="100.0"),
    # the benchmark's spectral grid, where SV_TOL drops exactly one
    # direction of the whitened L (sigma_min / sigma_max = 9.1e-11)
    pytest.param(200.0, 48, 0.05, 1e-10, 1, id="200.0-spectral"),
    # a cut of two: sigma / sigma_max reads 8.71e-11 below the cut and
    # 1.28e-10 above it
    pytest.param(400.0, 48, 0.05, 1e-10, 2, id="400.0-spectral"),
    # 18 directions below a cut of 1e-8: the start block of 8 grows
    pytest.param(200.0, 48, 0.05, 1e-8, 18, id="200.0-spectral-1e-8")])
def test_certificates_match_the_one_hot_oracle(M, nodes_per_decade, h_core,
                                               sv_tol, cut, monkeypatch):
    # pinned coordinates dropped by index, lowest-eigenvalue solves and the
    # few singular triplets of inverse subspace iteration give the numbers
    # of the one-hot row formulation with full eigensolves and dense SVDs
    monkeypatch.setattr(ops, "SV_TOL", sv_tol)
    grid = ops.operator_grid(M, nodes_per_decade=nodes_per_decade,
                             h_core=h_core)
    bundle = ops.OperatorBundle(grid)
    lvl1 = build_t1_s1(grid)
    phim = ops.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))

    def rel(a, b):
        return abs(a - b) / abs(b)

    cm = ops.coercivity_M(bundle)
    assert rel(cm["delta0_M_hat"], _oracle_coercivity_M(bundle)) < 1e-9
    cl = ops.coercivity_L(bundle, phim)
    want_L, want_kept = _oracle_coercivity_L(bundle, phim, sv_tol=sv_tol)
    # measured: 7.0e-10, 5.4e-10, 1.3e-9, 6.8e-10 and 1.4e-10 in turn
    assert rel(cl["delta0_L_hat"], want_L) < 1e-7
    assert cl["modes_kept"] == want_kept
    assert cl["modes_cut"] == cut
    # free coordinates, less the two Phi_M rows, the cut and the mass row
    assert want_kept == 2 * grid.n - len(bundle.pinned()) - 2 - cut - 1
    kg = ops.kernel_gap(bundle)
    want_gap, want_align = _oracle_kernel_gap(bundle)
    assert rel(kg["gap"], want_gap) < 1e-6
    assert rel(kg["alignment"], want_align) < 1e-9


# dense factorizations of one certificate: the constraint rows are removed
# by Householder reflectors, never by a null-space basis, the singular
# triplets come from a QR and inverse iteration, never from a dense SVD, and
# the lowest eigenvalue of a positive definite whitened form from Lanczos
# through its Cholesky factor, never from a dense eigensolve
WORK_BUDGET = {"coercivity_M": [],
               "coercivity_L": [],
               "kernel_gap": []}


def test_certificates_work_budget(op_grid, bundle, monkeypatch):
    calls = []

    class Counting:
        def __getattr__(self, name):
            fn = getattr(linalg, name)
            if name not in ("svd", "eigh", "eigvalsh", "null_space"):
                return fn

            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

    lvl1 = build_t1_s1(op_grid)
    phim = ops.build_phi_m(op_grid, 50.0, FieldPair(lvl1.T1, lvl1.S1_grad))
    monkeypatch.setattr(ops, "linalg", Counting())
    for name, run in (("coercivity_M", lambda: ops.coercivity_M(bundle)),
                      ("coercivity_L", lambda: ops.coercivity_L(bundle, phim)),
                      ("kernel_gap", lambda: ops.kernel_gap(bundle))):
        calls.clear()
        run()
        assert sorted(calls) == WORK_BUDGET[name], name


@pytest.mark.parametrize("name", ["coercivity_M", "coercivity_L",
                                  "kernel_gap"])
def test_sweep_cap_is_an_error_naming_the_certificate(op_grid, bundle,
                                                      monkeypatch, name):
    # coercivity_M stops in its Lanczos iteration on the inverse form,
    # coercivity_L in its Lanczos iteration for the largest singular value,
    # kernel_gap in its inverse subspace iteration; each settles in more
    # than one sweep
    lvl1 = build_t1_s1(op_grid)
    phim = ops.build_phi_m(op_grid, 50.0, FieldPair(lvl1.T1, lvl1.S1_grad))
    run = {"coercivity_M": lambda: ops.coercivity_M(bundle),
           "coercivity_L": lambda: ops.coercivity_L(bundle, phim),
           "kernel_gap": lambda: ops.kernel_gap(bundle)}[name]
    assert run()["sweeps"] > 1
    monkeypatch.setattr(ops, "MAX_SWEEPS", 1)
    with pytest.raises(ops.OperatorError,
                       match=r"^%s: .* did not settle in 1 " % name):
        run()


def _factored_forms(grid, monkeypatch):
    """The certificates' values on the grid, (delta0_M_hat, delta0_L_hat),
    and copies of the whitened forms they hand to LAPACK dpotrf, in order."""
    forms = []

    class Recording:
        def __getattr__(self, name):
            fn = getattr(lapack, name)
            if name != "dpotrf":
                return fn

            def recorded(a, **kwargs):
                forms.append(np.array(a))
                return fn(a, **kwargs)
            return recorded

    lvl1 = build_t1_s1(grid)
    phim = ops.build_phi_m(grid, 50.0, FieldPair(lvl1.T1, lvl1.S1_grad))
    bundle = ops.OperatorBundle(grid)
    monkeypatch.setattr(ops, "lapack", Recording())
    values = (ops.coercivity_M(bundle)["delta0_M_hat"],
              ops.coercivity_L(bundle, phim)["delta0_L_hat"])
    assert len(forms) == 2
    return values, forms


def test_lanczos_max_matches_eigvalsh_on_the_whitened_forms(op_grid,
                                                            monkeypatch):
    # the largest eigenvalue of each form directly, and its lowest, the
    # certificate's value, as the reciprocal of the largest of its inverse
    values, forms = _factored_forms(op_grid, monkeypatch)
    for value, C in zip(values, forms):
        want = linalg.eigvalsh(C)
        top, steps = ops._lanczos_max(lambda v: C @ v, len(C), "test")
        assert abs(top - want[-1]) <= 1e-12 * want[-1]
        assert abs(value - want[0]) <= 1e-12 * want[0]
        assert 1 < steps < ops.MAX_SWEEPS


def test_a_form_that_cholesky_refuses_reads_its_eigvalsh_value(monkeypatch):
    # at 12 nodes per decade both whitened forms are indefinite: dpotrf
    # refuses them, and the negative value is LAPACK's lowest eigenvalue of
    # the form, bit for bit, read from the triangle dpotrf left intact
    grid = ops.operator_grid(50.0, nodes_per_decade=12, h_core=0.1)
    values, forms = _factored_forms(grid, monkeypatch)
    for value, C in zip(values, forms):
        assert value < 0.0
        assert value == linalg.eigvalsh(C, subset_by_index=[0, 0])[0]
    monkeypatch.undo()
    assert ops.coercivity_M(ops.OperatorBundle(grid))["sweeps"] == 0


def test_dependent_constraint_rows_are_an_error(bundle):
    # the mass row twice: the second is dependent on the first
    mass = bundle.mass_vector()
    with pytest.raises(ops.OperatorError, match=r"rows \[1\] are numerically"):
        ops._whitened_min(bundle.quadform_M(), np.sqrt(bundle.gram_xq()),
                          np.vstack([mass, mass]), bundle.pinned(),
                          "coercivity_M")


def test_kernel_gap_without_two_free_directions(bundle, monkeypatch):
    # r <= 0 keeps only the density at the origin, which the mass row fixes
    monkeypatch.setattr(ops, "KERNEL_SUPPORT_RADIUS", 0.0)
    with pytest.raises(ops.OperatorError, match="leave 0 free directions"):
        ops.kernel_gap(bundle)


def test_whitened_min_on_an_empty_free_space(bundle):
    n2 = 2 * bundle.grid.n
    with pytest.raises(ops.OperatorError, match="leave 0 free directions"):
        ops._whitened_min(bundle.quadform_M(), np.sqrt(bundle.gram_xq()),
                          bundle.mass_vector()[None, :], np.arange(n2),
                          "coercivity_M")


def test_lyapunov_functional(ref_grid, ground):
    r = ref_grid.nodes
    zero = FieldPair(RadialField(ref_grid, np.zeros_like(r)),
                     RadialField(ref_grid, np.zeros_like(r), "odd"))
    assert ops.lyapunov_functional(zero) == 0.0
    lam_val = ops.lyapunov_functional(ground.pair_LambdaQ())
    scale = ops.xq_norm_sq(ground.pair_LambdaQ())
    assert abs(lam_val) < 1e-6 * scale
    rng = np.random.default_rng(5)
    x = bump_pair(ref_grid, rng)
    assert ops.lyapunov_functional(x) > -1e-8 * ops.xq_norm_sq(x)


def test_L_continuity_constant_stable(ref_grid, mid_grid):
    rng = np.random.default_rng(9)
    consts = []
    for grid in (ref_grid, mid_grid):
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(5):
            x = bump_pair(grid, rng)
            lx = ops.apply_L(x)
            ratios.append(np.sqrt(ops.xq_norm_sq(lx)) / ops.energy_norm(x))
        consts.append(max(ratios))
    assert consts[0] < 10.0 and consts[1] < 10.0
    assert abs(consts[0] - consts[1]) / max(consts) < 0.5


def _package_imports():
    """{module: the kslab modules it imports} for src/kslab/*.py."""
    src = os.path.dirname(ops.__file__)
    mods = {os.path.basename(p)[:-3]: p
            for p in glob.glob(os.path.join(src, "*.py"))}
    deps = {}
    for name, path in mods.items():
        found = set()
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .x import y, or from . import x
                found.update([node.module] if node.module
                             else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").startswith("kslab."):
                    found.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                found.update(a.name.split(".")[1] for a in node.names
                             if a.name.startswith("kslab."))
        deps[name] = (found & mods.keys()) - {name}
    return deps


def test_module_imports_are_layered():
    # operators owns L, Phi_0 and Q; an import of a higher layer there is
    # how a second copy of them would come back
    deps = _package_imports()
    assert not deps["operators"] & {"profiles", "dynamics", "diagnostics",
                                    "config", "cli"}
    left = dict(deps)
    while left:  # peel modules whose imports are all peeled: no cycle
        leaves = [m for m, d in left.items() if not d & left.keys()]
        assert leaves, "import cycle among %s" % sorted(left)
        for m in leaves:
            del left[m]
