import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.sparse.linalg import spsolve

import kslab.dynamics as dyn
import kslab.operators as ops
from kslab.grid import (FieldPair, RadialField, RadialGrid, integrate,
                        partial_mass, poisson_field)
from kslab.operators import mass_q, q_density
from kslab.profiles import (B_MAX, ProfileError, build_profile_family,
                            grid_b_floor, localization_radius,
                            modulation_profiles)


@pytest.fixture(scope="module")
def small_params():
    return dyn.EvolveParams(b0=8e-3, M_param=11.0, cadence=5, s_max=8.0)


@pytest.fixture(scope="module")
def small_grid(small_params):
    return dyn.dynamics_grid(small_params)


@pytest.fixture(scope="module")
def small_setup(small_params):
    return dyn.RunSetup(small_params)


def test_flow_state_primitive(ref_grid, ground):
    # the partial masses of (Q, phi_Q') give back Q, of mass 8 pi, and phi_Q'
    grad = poisson_field(ground.Q)
    st = dyn.FlowState(ref_grid, partial_mass(ground.Q).values,
                       ref_grid.nodes * grad.values)
    pair = st.primitive()
    assert pair.density.parity == "even" and pair.chem_gradient.parity == "odd"
    assert np.max(np.abs(pair.density.values - ground.Q.values)) < 1e-6
    assert abs(integrate(pair.density) - 8 * np.pi) < 1e-4
    assert np.max(np.abs(pair.chem_gradient.values - grad.values)) < 1e-12
    assert np.array_equal(pair.density.values, st.density_values())


def test_rhs_steady_state():
    grid = RadialGrid.make(200.0, h_core=0.02, nodes_per_decade=48,
                           stencil_order=4)
    r = grid.nodes
    st = dyn.FlowState(grid, mass_q(r).copy(), mass_q(r).copy())
    dm, dn = dyn.rhs_partial_mass(st)
    assert np.max(np.abs(dm)) < 1e-4
    assert np.max(np.abs(dn)) < 1e-10


def test_rhs_decoupled_density():
    grid = RadialGrid.make(100.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=4)
    r = grid.nodes
    st = dyn.FlowState(grid, np.zeros_like(r), mass_q(r).copy())
    dm, dn = dyn.rhs_partial_mass(st)
    assert np.all(dm == 0.0)
    d1 = grid.diff_matrix(1, "even")
    d2 = grid.diff_matrix(2, "even")
    expect = (d2 @ st.n) - grid.divide_by_r(d1 @ st.n, "odd")
    assert np.max(np.abs(dn - expect)[1:]) < 1e-12


def test_rhs_primitive_oracle():
    grid = RadialGrid.make(200.0, h_core=0.02, nodes_per_decade=48,
                           stencil_order=4)
    r = grid.nodes
    u = q_density(r) + 0.5 * (np.exp(-((r - 2) / 1.5) ** 2)
                              + np.exp(-((r + 2) / 1.5) ** 2))
    gv = 0.3 * (np.exp(-((r - 3) / 2) ** 2) - np.exp(-((r + 3) / 2) ** 2))
    st = dyn.FlowState(grid, grid.cumulative_integral(u, "r"), r * gv)
    dm, _ = dyn.rhs_partial_mass(st)
    du = grid.diff_matrix(1, "even") @ u
    flux = du + u * gv
    dudt = grid.divide_by_r(grid.diff_matrix(1, "even") @ (r * flux), "odd")
    dm_oracle = grid.cumulative_integral(dudt, "r")
    assert np.max(np.abs(dm - dm_oracle)[r <= 100]) < 1e-4


def test_step_heat_kernel_decay():
    grid = RadialGrid.make(60.0, h_core=0.02, nodes_per_decade=48,
                           stencil_order=4)
    r = grid.nodes
    t0 = 0.25
    u0 = np.exp(-r ** 2 / (4 * t0)) / (4 * np.pi * t0)
    st = dyn.FlowState(grid, grid.cumulative_integral(u0, "r"),
                       np.zeros_like(r))
    stepper = dyn.SemiImplicitStepper(grid, coupling=False)
    dt, T = 2e-4, 0.1
    for _ in range(int(T / dt)):
        st = stepper.step(st, dt, b=0.0)
    w = 2 * np.pi * grid.quad_weights
    l2 = float(w @ st.density_values() ** 2)
    exact = 1.0 / (8 * np.pi * (t0 + T))
    assert abs(l2 - exact) / exact < 0.01


def test_step_self_convergence_order():
    grid = RadialGrid.make(60.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=4)
    r = grid.nodes
    m0 = grid.cumulative_integral(q_density(r) * np.exp(-r ** 2 / 50), "r")
    n0 = 0.8 * mass_q(r)
    stepper = dyn.SemiImplicitStepper(grid)

    def advance(dt, nsteps):
        st = dyn.FlowState(grid, m0.copy(), n0.copy())
        for _ in range(nsteps):
            st = stepper.step(st, dt, b=0.0)
        return st.m

    T = 0.02
    m_h = advance(T / 20, 20)
    m_h2 = advance(T / 40, 40)
    m_h4 = advance(T / 80, 80)
    e1 = np.max(np.abs(m_h - m_h2))
    e2 = np.max(np.abs(m_h2 - m_h4))
    order = np.log2(e1 / e2)
    assert 0.7 < order < 1.6  # first-order linearized implicit scheme


def reference_step(grid, state, ds, b=0.0, coupling=True):
    """The stepper's scheme assembled as CSR, boundary rows set through lil
    and both systems solved by SuperLU (the banded stepper's oracle)."""
    d1 = grid.diff_matrix(1, "even").tocsr()
    d2 = grid.diff_matrix(2, "even").tocsr()
    r = grid.nodes
    inv_r = np.zeros_like(r)
    inv_r[1:] = 1.0 / r[1:]
    lap0 = (d2 - sparse.diags(inv_r) @ d1).tolil()
    lap0[0] = 0.0
    lap0 = lap0.tocsr()
    eye = sparse.identity(grid.n, format="csr")
    coef = -inv_r - b * r
    if coupling:
        coef = coef + inv_r * state.n
    A_m = (eye - ds * (d2 + sparse.diags(coef) @ d1)).tolil()
    rhs_m = state.m.copy()
    A_m[0] = 0.0
    A_m[0, 0] = 1.0
    rhs_m[0] = 0.0
    A_m[-1] = 0.0
    A_m[-1, -1] = 1.0
    rhs_m[-1] = state.m[-1]
    m_new = spsolve(A_m.tocsc(), rhs_m)
    A_n = (eye - ds * (lap0 - b * sparse.diags(r) @ d1)).tolil()
    rhs_n = state.n - ds * (lap0 @ m_new)
    A_n[0] = 0.0
    A_n[0, 0] = 1.0
    rhs_n[0] = 0.0
    A_n[-1] = d1[-1].toarray().ravel()
    rhs_n[-1] = 0.0
    n_new = spsolve(A_n.tocsc(), rhs_n)
    return m_new, n_new


@pytest.mark.parametrize("ds", [1e-3, 0.5])
@pytest.mark.parametrize("b", [0.0, 1e-2])
@pytest.mark.parametrize("coupling", [True, False])
@pytest.mark.parametrize("order", [4, 6])
def test_step_matches_sparse_oracle(order, coupling, b, ds):
    grid = RadialGrid.make(60.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=order)
    r = grid.nodes
    m0 = grid.cumulative_integral(q_density(r) * np.exp(-r ** 2 / 50), "r")
    state = dyn.FlowState(grid, m0, 0.8 * mass_q(r))
    new = dyn.SemiImplicitStepper(grid, coupling=coupling).step(state, ds, b)
    m_ref, n_ref = reference_step(grid, state, ds, b, coupling)
    assert np.max(np.abs(new.m - m_ref)) <= 1e-10 * np.max(np.abs(m_ref))
    assert np.max(np.abs(new.n - n_ref)) <= 1e-10 * np.max(np.abs(n_ref))
    assert new.m[-1] == state.m[-1]
    d1_last = grid.diff_matrix(1, "even").tocsr()[-1].toarray().ravel()
    slope_scale = np.abs(d1_last) @ np.abs(new.n)
    assert abs(d1_last @ new.n) <= 1e-13 * slope_scale


@pytest.mark.parametrize("ds", [1e-3, 0.3])
@pytest.mark.parametrize("b", [0.0, 1e-2])
@pytest.mark.parametrize("coupling", [True, False])
@pytest.mark.parametrize("order", [4, 6])
def test_step_is_backward_euler_on_rhs_partial_mass(order, coupling, b, ds):
    # away from the two boundary rows, (m_new - m)/ds is the right-hand side
    # at (m_new, n_old), the coupling lagged, and (n_new - n)/ds the one at
    # (m_new, n_new)
    grid = RadialGrid.make(60.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=order)
    r = grid.nodes
    m0 = grid.cumulative_integral(q_density(r) * np.exp(-r ** 2 / 50), "r")
    state = dyn.FlowState(grid, m0, 0.8 * mass_q(r))
    new = dyn.SemiImplicitStepper(grid, coupling=coupling).step(state, ds, b)
    dm, _ = dyn.rhs_partial_mass(dyn.FlowState(grid, new.m, state.n), b,
                                 coupling)
    _, dn = dyn.rhs_partial_mass(new, b, coupling)
    rows = slice(1, -1)
    for old, stepped, rate in ((state.m, new.m, dm), (state.n, new.n, dn)):
        err = np.max(np.abs((stepped - old)[rows] / ds - rate[rows]))
        assert err <= 1e-9 * np.max(np.abs(rate[rows]))


def solve_banded_step(stepper, state, ds, b):
    """The step's two systems in (l + u + 1, n) band storage, each solved by
    scipy.linalg.solve_banded (the oracle of the stepper's direct dgbsv)."""
    r = state.grid.nodes
    l, u = stepper.l, stepper.u
    coef = -stepper.inv_r - b * r
    if stepper.coupling:
        coef = coef + stepper.inv_r * state.n
    A_m = stepper._eye - ds * (stepper.d2 + coef[stepper._rows] * stepper.d1)
    rhs_m = state.m.copy()
    A_m[stepper._first_row] = 0.0
    A_m[u, 0] = 1.0
    rhs_m[0] = 0.0
    A_m[stepper._last_row] = 0.0
    A_m[u, -1] = 1.0
    m_new = solve_banded((l, u), A_m, rhs_m)
    A_n = stepper._eye - ds * (stepper.lap0 - b * stepper._r_d1)
    rhs_n = state.n - ds * (stepper._lap0_csr @ m_new)
    A_n[stepper._first_row] = 0.0
    A_n[u, 0] = 1.0
    rhs_n[0] = 0.0
    A_n[stepper._last_row] = stepper.d1[stepper._last_row]
    rhs_n[-1] = 0.0
    return m_new, solve_banded((l, u), A_n, rhs_n)


def test_step_matches_solve_banded_bitwise(small_grid, small_params):
    # same LAPACK routine on the same band matrix: equal bit for bit, over
    # several steps that reuse the stepper's work arrays
    state = dyn.initial_state(small_grid, small_params)
    stepper = dyn.SemiImplicitStepper(small_grid)
    for ds, b in ((1e-3, 0.0), (0.02, small_params.b0), (0.5, 3e-3),
                  (0.1, small_params.b0)):
        m_ref, n_ref = solve_banded_step(stepper, state, ds, b)
        state = stepper.step(state, ds, b=b)
        np.testing.assert_array_equal(state.m, m_ref)
        np.testing.assert_array_equal(state.n, n_ref)


def test_step_singular_raises(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    stepper = dyn.SemiImplicitStepper(small_grid)
    for name in ("_eye", "d1", "d2"):
        setattr(stepper, name, np.zeros_like(getattr(stepper, name)))
    with pytest.raises(dyn.SimulationError, match="singular"):
        stepper.step(state, 0.02, b=small_params.b0)


def test_step_nonfinite_raises(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    stepper = dyn.SemiImplicitStepper(small_grid)
    bad = replace(state, n=np.where(small_grid.nodes > 5.0, np.nan, state.n))
    with pytest.raises(dyn.SimulationError):
        stepper.step(bad, 0.02, b=small_params.b0)


def test_step_mass_exact(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    stepper = dyn.SemiImplicitStepper(small_grid)
    m_out = state.m[-1]
    for _ in range(25):
        state = stepper.step(state, 0.02, b=small_params.b0)
    assert state.m[-1] == m_out


def test_decompose_fixed_point(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=(1.0, small_params.b0))
    assert abs(mod.lam - 1.0) < 1e-6
    assert abs(mod.b - small_params.b0) / small_params.b0 < 1e-4
    assert np.sqrt(ops.xq_norm_sq(mod.eps_pair)) < 1e-2


def test_decompose_recovers_scaled_profile(small_grid, small_params):
    # state = profile rescaled by lam0: decomposition must report lam0
    lam0 = 1.004
    fam = build_profile_family(small_grid, small_params.b0, with_error=False)
    y = small_grid.nodes
    x = np.minimum(y / lam0, small_grid.r_max)
    m = make_interp_spline(y, fam.m_tilde.values, k=5)(x)
    n = make_interp_spline(y, fam.n_tilde.values, k=5)(x)
    state = dyn.FlowState(small_grid, m, n)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=(1.0, small_params.b0))
    assert abs(mod.lam - lam0) < 1e-4
    assert abs(mod.b - small_params.b0) / small_params.b0 < 1e-3


def test_decompose_linear_response(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    rng = np.random.default_rng(2)
    eps, geta = dyn.random_perturbation(small_grid, 1e-4, rng)
    state2 = dyn.initial_state(small_grid, small_params, (eps, geta))
    mod = solver.decompose(state2, guess=(1.0, small_params.b0))
    delta = abs(mod.lam - 1.0) + abs(mod.b - small_params.b0)
    assert delta < 50.0 * 1e-4  # O(delta) parameter response


def reference_residual(solver, msp, nsp, lam1, b):
    """The modulation residual F(lam1, b) and (eps, geta) from the state's
    make_interp_spline splines and a fresh profile at b (the oracle of the
    solver's tabulated model and exact check)."""
    g = solver.grid
    y = g.nodes
    prof = modulation_profiles(g, [b])[0]
    x = np.minimum(lam1 * y, g.r_max)
    eps = np.empty_like(y)
    eps[1:] = lam1 ** 2 * np.asarray(msp(x[1:], 1)) / x[1:] \
        - prof.Qb_tilde.values[1:]
    eps[0] = lam1 ** 2 * float(msp(0.0, 2)) - prof.Qb_tilde.values[0]
    n_res = nsp(x) - prof.n_tilde.values
    geta = np.zeros_like(y)
    geta[1:] = n_res[1:] / y[1:]
    f1 = float(solver._wphi1 @ eps + solver._wphi2 @ geta)
    f2 = float(solver._wlphi1 @ eps + solver._wlphi2 @ geta)
    return np.array([f1, f2]), (eps, geta)


def state_splines(state):
    y = state.grid.nodes
    return (make_interp_spline(y, state.m, k=5),
            make_interp_spline(y, state.n, k=5))


def fd_columns(solver, msp, nsp, lam1, b, F):
    """Forward-difference Jacobian columns of the oracle residual."""
    dl = 1e-7 * max(abs(lam1), 1.0)
    db = 1e-5 * b
    if b + db > dyn.B_MAX:
        db = -db
    Fl, _ = reference_residual(solver, msp, nsp, lam1 + dl, b)
    Fb, _ = reference_residual(solver, msp, nsp, lam1, b + db)
    return np.column_stack([(Fl - F) / dl, (Fb - F) / db])


def reference_decompose(solver, state, guess, max_iter=30):
    """The modulation Newton solve on the exact residual with a fresh
    finite-difference Jacobian every iteration (the tabulated solver's
    oracle).  Returns lam1, b, F."""
    msp, nsp = state_splines(state)
    lam1, b = guess
    f_scale = abs(solver.phim.report["PhiM_LambdaQ"])
    atol = 1e-10 * f_scale
    floor_tol = 3e-6 * f_scale
    F, _ = reference_residual(solver, msp, nsp, lam1, b)
    converged = np.linalg.norm(F) <= atol
    for _ in range(max_iter):
        if converged:
            break
        J = fd_columns(solver, msp, nsp, lam1, b, F)
        det = np.linalg.det(J)
        if not np.isfinite(det) or abs(det) < 1e-12 * np.abs(J).max() ** 2:
            raise dyn.ModulationError("singular modulation Jacobian")
        step = np.linalg.solve(J, -F)
        t_damp = 1.0
        improved = False
        for _ in range(10):
            lam_try = lam1 + t_damp * step[0]
            b_try = b + t_damp * step[1]
            if lam_try > 0.1 and 0.0 < b_try <= dyn.B_MAX:
                F_try, _ = reference_residual(solver, msp, nsp, lam_try,
                                              b_try)
                if np.linalg.norm(F_try) < np.linalg.norm(F):
                    lam1, b, F = lam_try, b_try, F_try
                    improved = True
                    break
            t_damp *= 0.5
        if np.linalg.norm(F) <= atol:
            converged = True
        elif not improved:
            if np.linalg.norm(F) <= floor_tol:
                converged = True
            else:
                raise dyn.ModulationError("modulation Newton stalled")
    if not converged and np.linalg.norm(F) > floor_tol:
        raise dyn.ModulationError("modulation Newton did not converge")
    return lam1, b, F


@pytest.fixture(scope="module")
def perturbed_states(small_grid, small_params):
    """Six decomposed steps of an evolve-like sequence from perturbed data:
    (state, guess) pairs as evolve hands them to decompose."""
    rng = np.random.default_rng(5)
    pert = dyn.random_perturbation(small_grid, 1e-4, rng)
    state = dyn.initial_state(small_grid, small_params, pert)
    stepper = dyn.SemiImplicitStepper(small_grid)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    guess = (1.0, small_params.b0)
    out = [(state, guess)]
    for _ in range(6):
        mod = solver.decompose(state, guess=guess)
        state = stepper.step(state, 0.3, b=mod.b)
        guess = (mod.lam, mod.b)
        out.append((state, guess))
    return out


def test_decompose_matches_fresh_jacobian_oracle(small_grid, small_params,
                                                 perturbed_states):
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    atol = 1e-10 * abs(solver.phim.report["PhiM_LambdaQ"])
    for state, guess in perturbed_states:
        mod = solver.decompose(state, guess=guess)
        lam_ref, b_ref, F_ref = reference_decompose(solver, state, guess)
        assert abs(mod.lam - lam_ref) <= 1e-9 * lam_ref
        assert abs(mod.b - b_ref) <= 1e-9 * b_ref
        tol = max(atol, np.linalg.norm(F_ref))
        assert np.linalg.norm(mod.residuals) <= tol


@pytest.mark.parametrize("b0", [8e-3, 1e-2])
def test_model_lambda_column_matches_central_difference(b0):
    # dS/dlam1 from the values of one read, against a central difference of
    # S through _StateSplines, on the small (b0 = 8e-3) and the collapse
    # (b0 = 1e-2) grid, off the profile's own scale on both sides
    params = dyn.EvolveParams(b0=b0, M_param=11.0)
    grid = dyn.dynamics_grid(params)
    pert = dyn.random_perturbation(grid, 1e-4, np.random.default_rng(3))
    splines = dyn._StateSplines(dyn.initial_state(grid, params, pert))
    solver = dyn.ModulationSolver(grid, params.M_param)
    y = grid.nodes

    def S(lam1):
        u, n_x = splines(lam1)
        g = np.zeros_like(u)
        g[1:] = n_x[1:] / y[1:]
        return np.array(solver._pair(u, g))

    h = 1e-5
    for lam1 in (0.85, 1.0, 1.15):
        _, column, _, _ = solver._model(splines(lam1), lam1, b0)
        central = (S(lam1 + h) - S(lam1 - h)) / (2.0 * h)
        assert (np.linalg.norm(np.subtract(column, central))
                <= 1e-4 * np.linalg.norm(column))


@pytest.mark.parametrize("M", [11.0, 30.0, 60.0])
def test_step_bound_terms_track_central_differences(M):
    # the step bound's column error estimate |e| lies within
    # [1/COLUMN_SAFETY, 2] times the column's error against a central
    # difference of S, and its K_S = 2 |S''| covers a second difference
    # of S, at b0 = 1e-2 and 2e-3 and lam1 over [1/1.2, 1.2]
    for b0 in (1e-2, 2e-3):
        params = dyn.EvolveParams(b0=b0, M_param=M)
        grid = dyn.dynamics_grid(params)
        pert = dyn.random_perturbation(grid, 1e-4, np.random.default_rng(3))
        splines = dyn._StateSplines(dyn.initial_state(grid, params, pert))
        solver = dyn.ModulationSolver(grid, M)
        y = grid.nodes

        def S(lam1):
            u, n_x = splines(lam1)
            g = np.zeros_like(u)
            g[1:] = n_x[1:] / y[1:]
            return np.array(solver._pair(u, g))

        for lam1 in (1.0 / 1.2, 0.9, 1.0, 1.1, 1.2):
            _, column, _, (col_err, s_pp) = solver._model(splines(lam1), lam1,
                                                          b0)
            central = (S(lam1 + 1e-5) - S(lam1 - 1e-5)) / 2e-5
            error = np.linalg.norm(np.subtract(column, central))
            assert error / dyn.COLUMN_SAFETY <= col_err <= 2.0 * error
            h = 1e-4
            second = (S(lam1 + h) - 2.0 * S(lam1) + S(lam1 - h)) / h ** 2
            assert np.linalg.norm(second) <= 2.0 * s_pp


def test_decompose_reads_a_far_step_and_skips_a_near_one(
        small_grid, small_params, perturbed_states):
    # from the previous root the model's step is bounded within MODEL_TOL
    # atol and taken unread; from a guess 1e-3 off in lam1 the bound
    # refuses the first step, whose iterate is read.  Both reach the root,
    # and the unread root's first read is that of its splines at its lam1
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    keys = ("model_iterations", "state_reads", "confirmations_skipped")

    def decompose(guess):
        before = [solver.counters[k] for k in keys]
        mod = solver.decompose(state, guess=guess)
        return mod, [solver.counters[k] - n for k, n in zip(keys, before)]

    near, (iterations, reads, skipped) = decompose(guess)
    # one read at the guess, one per step but the last
    assert skipped == 1 and reads == iterations >= 1
    F = solver._residuals([near._splines(near.lam)], [near.b])[0][0]
    assert near.residuals == F
    assert near._splines is None
    assert solver.counters["state_reads"] == reads + 1

    far, (iterations, reads, skipped) = decompose(
        (near.lam * (1.0 + 1e-3), near.b))
    assert skipped == 1 and reads == iterations >= 2
    assert abs(far.lam - near.lam) <= 1e-9 * near.lam
    assert abs(far.b - near.b) <= 1e-9 * near.b


@pytest.mark.parametrize("M_param", [11.0, 60.0])
def test_unread_roots_equal_those_of_a_solver_that_always_reads(
        M_param, monkeypatch, tmp_path):
    # the oracle reads every Newton iterate: COLUMN_SAFETY = inf refuses
    # every bound.  On the criterion-10 config (M = 11) and on a config
    # run at M = 60 (which ends modulation_failed) both write the same
    # rows and count the same but for the two new counters, and every
    # root taken unread has |G| <= MODEL_TOL atol, read afterwards
    params = (dyn.EvolveParams(b0=1e-2, b_min=5e-3) if M_param == 11.0
              else dyn.EvolveParams(M_param=60.0, lam_stop=0.5, s_max=2000.0))
    unread = []
    model_newton = dyn.ModulationSolver._model_newton

    def spied(self, splines, lam1, b):
        skipped = self.counters["confirmations_skipped"]
        lam1, b, outcome = model_newton(self, splines, lam1, b)
        if self.counters["confirmations_skipped"] > skipped:
            G = self._model(splines(lam1), lam1, b)[0]
            unread.append(math.hypot(*G) / (dyn.MODEL_TOL * self.atol))
        return lam1, b, outcome

    monkeypatch.setattr(dyn.ModulationSolver, "_model_newton", spied)
    series = dyn.evolve(params)
    monkeypatch.setattr(dyn, "COLUMN_SAFETY", math.inf)
    oracle = dyn.evolve(params)
    series.to_csv(tmp_path / "unread.csv")
    oracle.to_csv(tmp_path / "oracle.csv")
    assert ((tmp_path / "unread.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())
    assert series.status == ("b_min" if M_param == 11.0
                             else "modulation_failed")
    assert (series.status, series.reason) == (oracle.status, oracle.reason)
    counts, oracle_counts = dict(series.counters), dict(oracle.counters)
    assert oracle_counts.pop("confirmations_skipped") == 0
    assert counts.pop("confirmations_skipped") == len(unread) > 0
    assert counts.pop("state_reads") < oracle_counts.pop("state_reads")
    assert counts == oracle_counts
    assert max(unread) <= 1.0


def test_decompose_returns_the_accepted_residual_fields(small_grid,
                                                      small_params,
                                                      perturbed_states):
    # (eps, geta) and the profile come from one exact residual at the
    # returned (lam, b), equal to the oracle's there.  The model converges,
    # so decompose makes none: the first read of the fields makes it, at
    # mod.b, and later reads reuse it
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    calls = []
    residuals = solver._residuals

    def counted(vals, bs):
        calls.extend(bs)
        return residuals(vals, bs)

    solver._residuals = counted
    mod = solver.decompose(state, guess=guess)
    assert calls == []
    atol = 1e-10 * abs(solver.phim.report["PhiM_LambdaQ"])
    assert np.linalg.norm(mod.residuals) <= atol
    assert calls == [mod.b]
    msp, nsp = state_splines(state)
    F, (eps, geta) = reference_residual(solver, msp, nsp, mod.lam, mod.b)
    np.testing.assert_array_equal(mod.eps_pair.density.values, eps)
    np.testing.assert_array_equal(mod.eps_pair.chem_gradient.values, geta)
    np.testing.assert_array_equal(mod.residuals, F)
    np.testing.assert_array_equal(
        mod.profile.Qb_tilde.values,
        modulation_profiles(small_grid, [mod.b])[0].Qb_tilde.values)
    assert calls == [mod.b]
    assert solver.counters["profile_evals_decompose"] == 1

    # decomposed again from its own root, the state gets that root back
    # unread, and its first read gives the same residual bit for bit
    calls.clear()
    again = solver.decompose(state, guess=(mod.lam, mod.b))
    assert (again.lam, again.b) == (mod.lam, mod.b)
    assert calls == []
    np.testing.assert_array_equal(again.eps_pair.density.values, eps)
    np.testing.assert_array_equal(again.eps_pair.chem_gradient.values, geta)
    assert again.residuals == mod.residuals
    assert calls == [mod.b]
    assert solver.counters["profile_evals_decompose"] == 2


def test_profile_table_matches_exact_pairings(small_grid, small_params):
    # P1 and P2 at 50 b off the Chebyshev nodes, against exact pairings of
    # fresh profiles, within a tenth of atol and within the table's own
    # error bound
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    table = solver.table
    y = small_grid.nodes
    rng = np.random.default_rng(7)
    b_test = np.exp(rng.uniform(np.log(table.lo), np.log(table.hi), 50))
    atol = 1e-10 * abs(solver.phim.report["PhiM_LambdaQ"])
    for b in b_test:
        prof = modulation_profiles(small_grid, [b])[0]
        n_y = np.zeros_like(y)
        n_y[1:] = prof.n_tilde.values[1:] / y[1:]
        P = [solver._wphi1 @ prof.Qb_tilde.values + solver._wphi2 @ n_y,
             solver._wlphi1 @ prof.Qb_tilde.values + solver._wlphi2 @ n_y]
        got, _ = table(b)
        assert got.shape == (2,)
        assert np.max(np.abs(got - P)) <= 0.1 * atol
        assert np.linalg.norm(got - P) <= table.error_bound
    with pytest.raises(ProfileError):
        table(0.999 * table.lo)


def test_profile_table_states_its_error_bound(small_grid, small_params):
    # TABLE_SAFETY times the larger of the coefficient tail and the misfit
    # at the probes, whose angles fall midway between two nodes at every
    # level; the small grid's table certifies at the first level
    for nodes in dyn.TABLE_NODES:
        theta = np.pi * (np.arange(nodes) + 0.5) / nodes
        gaps = np.abs(dyn.TABLE_PROBE_THETA[:, None] - theta[None, :])
        assert np.allclose(gaps.min(axis=1), 0.5 * np.pi / nodes)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    table = solver.table
    assert table.nodes == len(table._coef) == dyn.TABLE_NODES[0]
    tail = max(np.linalg.norm(c) for c in table._coef[-dyn.TABLE_TAIL:])
    y = small_grid.nodes
    misfit = 0.0
    for b in table._b(dyn.TABLE_PROBE_THETA):
        prof = modulation_profiles(small_grid, [b])[0]
        n_y = np.zeros_like(y)
        n_y[1:] = prof.n_tilde.values[1:] / y[1:]
        P = np.array(solver._pair(prof.Qb_tilde.values, n_y))
        misfit = max(misfit, np.linalg.norm(table(b)[0] - P))
    assert table.error_bound == pytest.approx(
        dyn.TABLE_SAFETY * max(tail, misfit), rel=1e-12)
    # a bound within CERTIFY_FRACTION of atol certifies
    assert table.error_bound <= dyn.CERTIFY_FRACTION * solver.atol
    assert (solver.counters["table_error_bound"]
            == table.error_bound / solver.f_scale)


def test_profile_table_derivative(small_grid, small_params):
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    b = small_params.b0
    h = 1e-4 * b
    (p_hi, _), (p_lo, _) = solver.table(b + h), solver.table(b - h)
    _, dp = solver.table(b)
    np.testing.assert_allclose(dp, (p_hi - p_lo) / (2 * h), rtol=1e-6)


def test_profile_table_curvature_bounds_its_second_derivative(small_grid,
                                                              small_params):
    # |d^2 P~/db^2| from a central difference of the table's derivative,
    # at 40 b over its range, within curvature(b)
    table = dyn.ModulationSolver(small_grid, small_params.M_param).table
    for b in np.geomspace(table.lo * 1.01, table.hi / 1.01, 40):
        h = 1e-5 * b
        second = (table(b + h)[1] - table(b - h)[1]) / (2.0 * h)
        assert np.linalg.norm(second) <= table.curvature(b)


def test_spline_coefficients_match_make_interp_spline(small_grid,
                                                      perturbed_states):
    state, _ = perturbed_states[-1]
    t, c = dyn._spline_coefficients(small_grid, state.m, state.n)
    msp, nsp = state_splines(state)
    np.testing.assert_array_equal(t, msp.t)
    np.testing.assert_array_equal(c[:, 0], msp.c)
    np.testing.assert_array_equal(c[:, 1], nsp.c)


def test_rescale_state_matches_make_interp_spline(small_grid,
                                                  perturbed_states):
    state, _ = perturbed_states[-1]
    lam1 = 0.79
    new = dyn._rescale_state(state, lam1)
    x = np.minimum(lam1 * small_grid.nodes, small_grid.r_max)
    msp, nsp = state_splines(state)
    m, n = msp(x), nsp(x)
    m[0] = n[0] = 0.0
    np.testing.assert_array_equal(new.m, m)
    np.testing.assert_array_equal(new.n, n)
    assert new.lam == state.lam * lam1


def jacobian_at_profile(solver, b):
    """Modulation Jacobian at the exact profile (determinant reference)."""
    fam = build_profile_family(solver.grid, b, with_error=False)
    y = solver.grid.nodes
    msp = make_interp_spline(y, fam.m_tilde.values, k=5)
    nsp = make_interp_spline(y, fam.n_tilde.values, k=5)
    F0, _ = reference_residual(solver, msp, nsp, 1.0, b)
    return fd_columns(solver, msp, nsp, 1.0, b, F0)


def test_jacobian_log_M_scaling():
    # |det J| approaches (32 pi log M)^2 as b decreases (the T2 feed-through
    # in the b-column is a genuine O(b M^2) desk-scale correction)
    ratios = []
    for b0, M in ((8e-3, 11.0), (2e-4, 25.0)):
        params = dyn.EvolveParams(b0=b0, M_param=M)
        grid = dyn.dynamics_grid(params)
        solver = dyn.ModulationSolver(grid, M)
        J = jacobian_at_profile(solver, b0)
        target = (32 * np.pi * np.log(M)) ** 2
        ratios.append(abs(np.linalg.det(J)) / target)
    assert abs(ratios[1] - 1.0) < 0.15
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_lift_b_fixed_point(small_grid, small_params):
    state = dyn.initial_state(small_grid, small_params)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=(1.0, small_params.b0))
    bh = dyn.lift_b(solver, mod)
    # E ~ 0 at the exact profile: b_hat = b to measurement tolerance
    assert abs(bh - mod.b) / mod.b < 1e-3


# brackets [lo, hi] * b that the oracle tries in turn for b_hat
ORACLE_LIFT_BRACKETS = ((0.5, 2.0), (0.25, 4.0))


def reference_lift_b(solver, mod):
    """brentq on the exact root function over ORACLE_LIFT_BRACKETS, a fresh
    profile and L* Phi_{0, Bhat0} per b_hat, one b at a time (the secant
    lift's oracle)."""
    g = solver.grid
    w = 2.0 * np.pi * g.quad_weights
    prof = modulation_profiles(g, [mod.b])[0]
    eps = mod.eps_pair
    u_b = prof.Qb_tilde.values + eps.density.values
    g_b = prof.Pb_tilde_grad.values + eps.chem_gradient.values

    def root(bh):
        fam_h = modulation_profiles(g, [bh])[0]
        lp0 = ops.apply_Lstar(ops.phi0_pair(g, 1.0 / math.sqrt(bh)))
        return float((u_b - fam_h.Qb_tilde.values) @ (w * lp0.density.values)
                     + (g_b - fam_h.Pb_tilde_grad.values)
                     @ (w * lp0.chem_gradient.values))

    for lo_factor, hi_factor in ORACLE_LIFT_BRACKETS:
        lo = max(lo_factor * mod.b, grid_b_floor(g))
        hi = min(hi_factor * mod.b, dyn.B_MAX)
        if root(lo) * root(hi) <= 0:
            return float(brentq(root, lo, hi, xtol=1e-14 * mod.b,
                                rtol=1e-12))
    raise dyn.ModulationError("lift_b bracket failure")


def test_lift_b_matches_brentq_oracle(small_grid, small_params,
                                      perturbed_states):
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    for state, guess in perturbed_states:
        mod = solver.decompose(state, guess=guess)
        before = solver.counters["profile_evals_lift"]
        bh = dyn.lift_b(solver, mod)
        assert 1 <= solver.counters["profile_evals_lift"] - before <= 4
        ref = reference_lift_b(solver, mod)
        assert abs(bh - ref) <= 1e-11 * ref
    assert solver.counters["lift_failures"] == 0


def test_evolve_block_lifts_match_brentq_oracle(small_grid, small_params,
                                                monkeypatch):
    # a run lifts the cadence records of each block of records in one
    # lockstep secant, every secant started at b and a Newton step from b:
    # each b_hat is the oracle's root, and bitwise what lift_b gives that
    # record alone
    blocks = []
    lift_bs = dyn.lift_bs

    def recorded(solver, mods):
        hats = lift_bs(solver, mods)
        blocks.append((solver, mods, hats))
        return hats

    monkeypatch.setattr(dyn, "lift_bs", recorded)
    pert = dyn.random_perturbation(small_grid, 1e-4,
                                   np.random.default_rng(3))
    series = dyn.evolve(small_params, perturbation=pert)
    assert series.status == "s_max"
    assert all(0 < len(mods) <= dyn.PROFILE_BLOCK for _, mods, _ in blocks)
    lifts = [(solver, mod, bh) for solver, mods, hats in blocks
             for mod, bh in zip(mods, hats)]
    assert len(lifts) == series.counters["lift_calls"] == 8
    np.testing.assert_array_equal(
        series.b_hat[np.isfinite(series.b_hat)], [bh for *_, bh in lifts])
    for solver, mod, bh in lifts:
        ref = reference_lift_b(solver, mod)
        assert abs(bh - ref) <= 1e-11 * ref
        assert dyn.lift_b(solver, mod) == bh
    # the Newton step lands within a few percent of b_hat - b of the root:
    # two or three evaluations a lift
    assert 2 * 8 <= series.counters["profile_evals_lift"] <= 3 * 8


def test_lift_b_of_the_profile_itself_is_b(small_grid, small_params,
                                           perturbed_states):
    # with E = 0 the value at b is 0 and the Newton step is zero, so the
    # secant starts at 0.99 b, or at 1.01 b where 0.99 b is below the
    # table; either way b_hat is b
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    b = solver.decompose(state, guess=guess).b
    prof = modulation_profiles(small_grid, [b])[0]
    zero = RadialField(small_grid, np.zeros(small_grid.n))
    mod = dyn.ModulationState(1.0, b, solver, None)
    mod._exact = ((0.0, 0.0), FieldPair(
        zero, RadialField(small_grid, zero.values, "odd")), prof)
    for lo in (solver.table.lo, 0.995 * b):
        solver.table.lo = lo
        before = solver.counters["profile_evals_lift"]
        assert abs(dyn.lift_b(solver, mod) - b) <= 1e-12 * b
        assert solver.counters["profile_evals_lift"] - before >= 2
    assert solver.counters["lift_failures"] == 0


def test_lift_b_fails_on_a_corrupted_table(small_grid, small_params,
                                           perturbed_states, monkeypatch):
    # a root function without a root (a positive constant): the lift fails
    # and is counted, and a run records NaN for every b_hat it cannot lift
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=guess)
    monkeypatch.setattr(dyn, "_lift_residuals",
                        lambda grid, w, bhs, *args: [1.0] * len(bhs))
    with pytest.raises(dyn.ModulationError, match="found no root"):
        dyn.lift_b(solver, mod)
    assert solver.counters["lift_failures"] == 1

    series = dyn.evolve(replace(small_params, s_max=2.0))
    assert series.status == "s_max"
    assert np.all(np.isnan(series.b_hat))
    assert series.counters["lift_failures"] == series.counters["lift_calls"]
    assert series.counters["lift_calls"] > 0


def test_lift_b_iterate_outside_the_table_is_a_modulation_error(
        small_grid, small_params, perturbed_states, monkeypatch):
    # root functions whose roots lie above B_MAX and below the table: the
    # secant's iterate leaves [table.lo, B_MAX] and the lift ends as a
    # counted ModulationError, never as the ProfileError the profile at
    # that b would raise; a run records NaN there and keeps going, since
    # record() runs outside evolve's try and catches only ModulationError
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=guess)
    lo = solver.table.lo
    for root in (2.0 * dyn.B_MAX, 0.5 * lo):
        def leaving(grid, w, bhs, *args, root=root):
            dyn.modulation_profiles(grid, bhs)
            return [bh - root for bh in bhs]

        monkeypatch.setattr(dyn, "_lift_residuals", leaving)
        with pytest.raises(dyn.ModulationError, match="found no root"):
            dyn.lift_b(solver, mod)
    assert solver.counters["lift_failures"] == 2

    series = dyn.evolve(replace(small_params, s_max=2.0))
    assert series.status == "s_max"
    assert np.all(np.isnan(series.b_hat))
    assert series.counters["lift_failures"] == series.counters["lift_calls"]


def test_lift_b_leaves_no_cycle_on_the_cache(small_grid, small_params):
    # the lift must not hang the solver, which holds the profile table, on
    # a reference cycle, or the solver outlives the run until a full
    # collection
    state = dyn.initial_state(small_grid, small_params)
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = solver.decompose(state, guess=(1.0, small_params.b0))
    ref = weakref.ref(solver)
    gc.disable()
    try:
        dyn.lift_b(solver, mod)
        del solver, mod
        assert ref() is None
    finally:
        gc.enable()


def test_lift_b_derivative_scale(small_grid, small_params):
    b = small_params.b0
    fam_b = modulation_profiles(small_grid, [b])[0]
    g = small_grid
    w = 2 * np.pi * g.quad_weights

    def F(bh):
        fam_h = modulation_profiles(small_grid, [bh])[0]
        B0h = 1.0 / math.sqrt(bh)
        lp0 = ops.apply_Lstar(ops.phi0_pair(g, B0h))
        du = fam_b.Qb_tilde.values - fam_h.Qb_tilde.values
        dg = fam_b.Pb_tilde_grad.values - fam_h.Pb_tilde_grad.values
        return float(w @ (du * lp0.density.values)
                     + w @ (dg * lp0.chem_gradient.values))

    db = 1e-3 * b
    dFdb = (F(b + db) - F(b - db)) / (2 * db)
    # <d_b Qb~, L* Phi_{0,B0}> = -dF/db ~ -32 pi log B0 with O(1) corrections
    target = -32 * np.pi * math.log(1.0 / math.sqrt(b))
    assert (-dFdb) / target > 0.4 and (-dFdb) / target < 2.0


def test_evolve_short_run_health(small_params):
    series = dyn.evolve(small_params)
    assert series.status == "s_max"
    assert len(series) >= 5
    s = series.s
    assert np.all(np.diff(s) > 0)
    m = series.column("mass")
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-9
    res = np.abs(series.column("res_phi")) + np.abs(series.column("res_lphi"))
    assert np.max(res) < 1e-3
    E = series.column("free_energy")
    assert np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1]))
    assert np.min(series.column("min_u")) > 0.0


def counted_run(small_grid, small_params, monkeypatch):
    # the perturbed small run's counters, after the checks that hold on
    # and off the schedule: every model converges, so no decompose
    # evaluates the profile, and each record reads the fields of one
    # decomposition, a block of PROFILE_BLOCK records at a time
    calls = []
    modulation_profiles = dyn.modulation_profiles

    def counted(grid, bs):
        calls.append(list(bs))
        return modulation_profiles(grid, bs)

    monkeypatch.setattr(dyn, "modulation_profiles", counted)
    pert = dyn.random_perturbation(small_grid, 1e-4,
                                   np.random.default_rng(3))
    series = dyn.evolve(small_params, perturbation=pert)
    c = series.counters
    assert series.status == "s_max"
    assert c["decompose_calls"] > 10
    assert c["profile_evals_decompose"] == len(series)
    assert c["table_nodes"] == dyn.TABLE_NODES[0]
    assert c["profile_evals_table"] == dyn.TABLE_NODES[0] + dyn.TABLE_PROBES
    assert c["lift_calls"] <= c["profile_evals_lift"] <= 4 * c["lift_calls"]
    assert c["lift_calls"] > 0
    assert c["lift_failures"] == c["refolds"] == 0
    assert c["damping_halvings"] == c["floor_acceptances"] == 0
    assert c["nan_free_energy"] == 0
    assert sum(map(len, calls)) == (c["profile_evals_table"]
                                    + c["profile_evals_decompose"]
                                    + c["profile_evals_lift"])
    # blocks of at most PROFILE_BLOCK b: the table's nodes and probes, then
    # one block of first reads per PROFILE_BLOCK records
    assert max(map(len, calls)) == dyn.PROFILE_BLOCK
    table = -(-dyn.TABLE_NODES[0] // dyn.PROFILE_BLOCK) + 1
    # (a lift's iterates are never a record's b)
    reads = [bs for bs in calls[table:] if set(bs) <= set(series.b)]
    assert [b for bs in reads for b in bs] == list(series.b)
    assert len(reads) == -(-len(series) // dyn.PROFILE_BLOCK)
    return c


def test_evolve_counts_one_profile_evaluation_per_record(
        small_grid, small_params, monkeypatch):
    # decomposed every step, the extrapolated guess leaves one model
    # iteration per decompose, but for three that take two: the first
    # (guessed at (1, b0) on perturbed data, |G| ~ 1e-6 f_scale) and the
    # two steps where ds stops growing and the guess misses by 1e-6 and
    # 2e-7 f_scale.  The lambda-column from the grid's D1 is off by about
    # 2e-5 of its norm, so one step from a miss of that size ends above
    # MODEL_TOL * atol = 1e-12 f_scale
    monkeypatch.setattr(dyn, "MAX_INTERVAL", 1)
    c = counted_run(small_grid, small_params, monkeypatch)
    assert c["model_iterations"] == c["decompose_calls"] + 3
    assert c["predicted_steps"] == c["backtrack_decompositions"] == 0


def test_scheduled_run_counts_one_profile_evaluation_per_record(
        small_grid, small_params, monkeypatch):
    # on the schedule most steps are predicted, and a guess extrapolated
    # over several steps takes one or two model iterations (26 in 16
    # decompositions)
    c = counted_run(small_grid, small_params, monkeypatch)
    assert c["predicted_steps"] > c["decompose_calls"]
    assert (c["decompose_calls"] <= c["model_iterations"]
            <= 2 * c["decompose_calls"])
    assert c["backtrack_decompositions"] == 0


def test_evolve_first_reads_equal_an_eager_residual(small_setup,
                                                    small_params,
                                                    monkeypatch):
    # every record reads the fields of one decomposition, bit for bit those
    # of an eager residual at its (lam1, b) from the state's splines
    decomposed = []
    decompose = dyn.ModulationSolver.decompose

    def spied(self, state, guess):
        mod = decompose(self, state, guess)
        decomposed.append((state, mod))
        return mod

    monkeypatch.setattr(dyn.ModulationSolver, "decompose", spied)
    solver = small_setup.solver
    pert = small_setup.sample_perturbation(1e-4, np.random.default_rng(3))
    series = small_setup.run(pert)
    assert series.status == "s_max"
    read = [(state, mod) for state, mod in decomposed
            if mod._exact is not None]
    assert len(read) == len(series) == series.counters[
        "profile_evals_decompose"]
    assert series.counters["decompose_calls"] == len(decomposed)
    for (state, mod), res_phi, res_lphi in zip(
            read, series.column("res_phi"), series.column("res_lphi")):
        F, pair, prof = solver._residuals(
            [dyn._StateSplines(state)(mod.lam)], [mod.b])[0]
        assert mod.residuals == F == (res_phi, res_lphi)
        assert np.linalg.norm(F) <= solver.atol
        np.testing.assert_array_equal(mod.eps_pair.density.values,
                                      pair.density.values)
        np.testing.assert_array_equal(mod.eps_pair.chem_gradient.values,
                                      pair.chem_gradient.values)
        np.testing.assert_array_equal(mod.profile.Qb_tilde.values,
                                      prof.Qb_tilde.values)
        np.testing.assert_array_equal(mod.profile.Pb_tilde_grad.values,
                                      prof.Pb_tilde_grad.values)


def test_evolve_on_a_refined_table_meets_atol():
    # at M = 60 the table misses the 128-node target (1.6e-8 f_scale) and
    # certifies at the next level: both levels' nodes and probes are
    # evaluated, and every record's residual meets atol
    setup = dyn.RunSetup(dyn.EvolveParams(b0=1e-2, M_param=60.0, cadence=5,
                                          s_max=2.0))
    series = setup.run(None)
    c = series.counters
    assert series.status == "s_max"
    assert c["table_nodes"] == 384
    assert c["profile_evals_table"] == 128 + 384 + 2 * dyn.TABLE_PROBES
    assert c["table_error_bound"] <= dyn.CERTIFY_FRACTION * dyn.ATOL
    res = np.hypot(series.column("res_phi"), series.column("res_lphi"))
    assert np.all(res <= setup.solver.atol)


def test_profile_table_refines_until_it_certifies():
    # a Runge function of x in [-1, 1] (log b mapped), whose Chebyshev
    # coefficients fall like 1.105^-k: 128 nodes miss the target, 384
    # meet it; no level meets a target a hundred billion times smaller
    lo, hi = 1e-6, 1e-2
    calls = []

    def scalars(bs):
        calls.append(len(bs))
        x = (2.0 * np.log(bs) - math.log(lo) - math.log(hi)) / math.log(
            hi / lo)
        return np.column_stack([1.0 / (1.0 + 100.0 * x * x), x])

    table = dyn.ProfileTable(lo, hi, scalars, 1.0)
    assert table.nodes == len(table._coef) == 384
    assert table.error_bound <= dyn.CERTIFY_FRACTION * dyn.ATOL
    assert sum(calls) == 128 + 384 + 2 * dyn.TABLE_PROBES
    assert max(calls) == dyn.PROFILE_BLOCK
    with pytest.raises(dyn.ProfileError, match="does not certify at 1152 "
                                               "nodes"):
        dyn.ProfileTable(lo, hi, scalars, 1e-11)


def test_first_read_profile_error_ends_the_run_grid_exhausted(
        small_params, monkeypatch):
    # the profile at the b of one record of a block of first reads cannot
    # be built: the run ends grid_exhausted at the record before, without
    # a traceback, and the reason names that b
    residuals = dyn.ModulationSolver._residuals
    for failing in (2, 5):
        blocks = []

        def failing_at(self, vals, bs):
            blocks.append(list(bs))
            bad = blocks[0][failing]
            if bad in bs:
                raise ProfileError("grid too small for b=%g" % bad)
            return residuals(self, vals, bs)

        monkeypatch.setattr(dyn.ModulationSolver, "_residuals", failing_at)
        series = dyn.evolve(replace(small_params, cadence=1))
        assert series.status == "grid_exhausted"
        assert series.reason == "grid too small for b=%g" % blocks[0][failing]
        assert len(series) == failing
        np.testing.assert_array_equal(series.b, blocks[0][:failing])
        # the block's records were decomposed before their first reads,
        # and are read again one at a time up to the failing one
        assert blocks[1:] == [[b] for b in blocks[0][:failing + 1]]
        assert series.counters["decompose_calls"] == dyn.PROFILE_BLOCK


def test_decompose_counts_damping_halvings(small_grid, small_params):
    # from lam1 = 2 a model step overshoots and is halved, from the
    # profile's own scale none is; both reach the same root
    state = dyn.initial_state(small_grid, small_params)
    near = dyn.ModulationSolver(small_grid, small_params.M_param)
    ref = near.decompose(state, guess=(1.0, small_params.b0))
    far = dyn.ModulationSolver(small_grid, small_params.M_param)
    mod = far.decompose(state, guess=(2.0, small_params.b0))
    assert near.counters["damping_halvings"] == 0
    assert far.counters["damping_halvings"] > 0
    assert abs(mod.lam - ref.lam) <= 1e-9 * ref.lam
    assert abs(mod.b - ref.b) <= 1e-9 * ref.b


def test_decompose_counts_floor_acceptances(small_grid, small_params,
                                            perturbed_states, monkeypatch):
    # a model that does not converge is read at once: from a guess 1e-6 b
    # off each root, with no model iteration allowed, every residual lies
    # above atol and within the noise floor, and is accepted there
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    roots = [solver.decompose(state, guess=guess)
             for state, guess in perturbed_states]
    assert solver.counters["profile_evals_decompose"] == 0
    monkeypatch.setattr(dyn, "MODEL_MAX_ITER", 0)
    for (state, _), root in zip(perturbed_states, roots):
        guess = (root.lam, root.b * (1.0 + 1e-6))
        mod = solver.decompose(state, guess=guess)
        assert (mod.lam, mod.b) == guess
        assert mod._exact is not None
        norm = np.linalg.norm(mod.residuals)
        assert solver.atol < norm <= 3e-6 * solver.f_scale
    assert solver.counters["floor_acceptances"] == len(perturbed_states)
    assert solver.counters["profile_evals_decompose"] == len(perturbed_states)


def test_evolve_counts_nan_free_energy(small_params, monkeypatch):
    def failing(pair):
        raise dyn.diagnostics.DiagnosticsError("no free energy")

    monkeypatch.setattr(dyn.diagnostics, "free_energy", failing)
    series = dyn.evolve(replace(small_params, s_max=2.0))
    assert series.status == "s_max"
    assert np.all(np.isnan(series.column("free_energy")))
    assert series.counters["nan_free_energy"] == len(series) > 0


def test_evolve_predictor_matches_the_previous_root_guess(
        small_grid, small_params, monkeypatch):
    # decomposed every step, the extrapolated guess changes where the model
    # Newton starts, not the root it accepts: against a run guessing each
    # decompose at the last committed root, every record agrees to well
    # below the step error.  (On the schedule the guess is also the value
    # of the steps between decompositions, which the previous root is not:
    # see test_scheduled_run_matches_the_per_step_run.)
    monkeypatch.setattr(dyn, "MAX_INTERVAL", 1)
    pert = dyn.random_perturbation(small_grid, 1e-4,
                                   np.random.default_rng(3))
    series = dyn.evolve(small_params, perturbation=pert)
    monkeypatch.setattr(dyn, "_predict_guess",
                        lambda roots, s, b_lo: roots[-1][1:])
    oracle = dyn.evolve(small_params, perturbation=pert)
    assert series.status == oracle.status == "s_max"
    # ds follows b through the rate cap, so s moves with the roots
    np.testing.assert_allclose(series.s, oracle.s, rtol=1e-7, atol=0)
    np.testing.assert_allclose(series.lam, oracle.lam, rtol=1e-8, atol=0)
    np.testing.assert_allclose(series.b, oracle.b, rtol=1e-8, atol=0)
    assert (oracle.counters["model_iterations"]
            > series.counters["model_iterations"])


def test_predict_guess_extrapolates_and_clamps():
    roots = [(0.0, 1.0, 1e-2)]
    assert dyn._predict_guess(roots, 1.0, 1e-3) == (1.0, 1e-2)
    roots.append((1.0, 0.9, 9e-3))
    lam1, b = dyn._predict_guess(roots, 3.0, 1e-3)
    assert math.isclose(lam1, 0.7) and math.isclose(b, 7e-3)
    # quadratic through three points on s^2 curves, unequal spacing
    roots = [(s, 1.0 - 0.01 * s * s, 1e-2 - 1e-4 * s * s)
             for s in (0.0, 0.5, 2.0)]
    lam1, b = dyn._predict_guess(roots, 3.0, 1e-3)
    assert math.isclose(lam1, 0.91) and math.isclose(b, 1e-2 - 9e-4)
    # a wild extrapolation stays inside the model's domain
    lam1, b = dyn._predict_guess(roots, 40.0, 1e-3)
    assert lam1 == 0.1 and b == 1e-3
    roots = [(0.0, 1.0, 1e-2), (1.0, 1.5, 2e-2)]
    assert dyn._predict_guess(roots, 40.0, 1e-3)[1] == dyn.B_MAX


def test_evolve_refold_restarts_the_root_history(small_params, monkeypatch):
    # a refold re-decomposes the rescaled state: the restarted history and
    # every record take (lam1, b) from that decomposition, the one whose
    # residuals the record holds
    histories, roots_seen = [], []
    predict = dyn._predict_guess
    decompose = dyn.ModulationSolver.decompose

    def spy(roots, s, b_lo):
        histories.append((list(roots), roots_seen[-1]))
        return predict(roots, s, b_lo)

    def spied(self, state, guess):
        mod = decompose(self, state, guess)
        roots_seen.append((mod.lam, mod.b, mod.residuals))
        return mod

    monkeypatch.setattr(dyn, "_predict_guess", spy)
    monkeypatch.setattr(dyn.ModulationSolver, "decompose", spied)
    monkeypatch.setattr(dyn, "REFOLD_THRESHOLD", 1e-5)
    series = dyn.evolve(replace(small_params, cadence=1))
    refolds = series.counters["refolds"]
    restarts = [(h, last) for h, last in histories[1:] if len(h) == 1]
    assert series.status == "s_max"
    assert refolds >= 2
    assert refolds - len(restarts) in (0, 1)  # the last step may refold
    assert all(h[0][1:] == last[:2] for h, last in restarts)
    by_residuals = {res: b for _, b, res in roots_seen}
    for b, res in zip(series.b, zip(series.column("res_phi"),
                                    series.column("res_lphi"))):
        assert by_residuals[res] == b


@pytest.mark.parametrize("M, r_max", [(11.0, 583.644), (60.0, 630.0)])
def test_derived_grid_carries_the_family_and_phi_m(M, r_max):
    # the derived radius is the larger of 4.2 B1(b0 / 5) and 10.5 M: at the
    # default M the localization term, at M = 60 the Phi_M term
    grid = dyn.dynamics_grid(dyn.EvolveParams(M_param=M))
    assert grid.r_max == pytest.approx(r_max, abs=1e-3)
    assert grid.r_max >= max(4.0 * localization_radius(2e-3), 10.0 * M)
    solver = dyn.ModulationSolver(grid, M)
    assert solver.phim.report["M"] == M


def test_evolve_grid_exhausted():
    # r_max = 186 passes the guard 4 B1(b0) = 184.2, but at step 25 the
    # modulation needs b = 9.86e-3, whose 4 B1 is 186.1
    params = dyn.EvolveParams(b0=1e-2, r_max=186.0, cadence=5, s_max=200.0)
    series = dyn.evolve(params)
    assert series.status == "grid_exhausted"
    assert "outside the profile table" in series.reason
    assert len(series) == 6  # records at steps 0, 5, ..., 20 plus the final
    assert np.all(np.isfinite(series.column("mass")))
    c = series.counters
    assert c["ds_min"] == params.ds_init * 1.5
    assert c["ds_min"] <= c["ds_median"] <= c["ds_max"] <= params.ds_max


def test_modulation_failure_names_the_solve(small_grid, small_params,
                                            perturbed_states, monkeypatch):
    # the message carries b, lam1, |F|/f_scale, the model's outcome and its
    # iterations, and evolve keeps it as the reason of its status
    state, guess = perturbed_states[-1]
    solver = dyn.ModulationSolver(small_grid, small_params.M_param)
    with monkeypatch.context() as patch:
        patch.setattr(dyn, "MODEL_MAX_ITER", 0)
        with pytest.raises(dyn.ModulationError) as info:
            solver.decompose(state, guess=(1.05, guess[1]))
    message = str(info.value)
    for part in ("did not converge", "b=%.6g" % guess[1], "lam1=1.05 ",
                 "|F|/f_scale=", "model=exhausted", "after 0 iterations"):
        assert part in message
    assert "B_MAX" not in message
    decompose = dyn.ModulationSolver.decompose
    calls = []

    def failing(self, state, guess):
        calls.append(guess)
        if len(calls) == 4:
            monkeypatch.setattr(dyn, "MODEL_MAX_ITER", 0)
            return decompose(self, state, (1.05, guess[1]))
        return decompose(self, state, guess)

    monkeypatch.setattr(dyn.ModulationSolver, "decompose", failing)
    series = dyn.evolve(small_params)
    assert series.status == "modulation_failed"
    assert len(series) == 2  # step 0 and the final record at step 2
    assert "model=exhausted after 0 iterations" in series.reason


def test_modulation_failure_at_B_MAX_names_the_top_edge():
    # at M = 50 the criterion-10 protocol drives b up, not down, until the
    # solve stalls at the top of the family's range
    series = dyn.evolve(dyn.EvolveParams(b0=1e-2, M_param=50.0, cadence=10,
                                         b_min=5e-3, s_max=2000.0))
    assert series.status == "modulation_failed"
    assert "b reached the top of the family's range, B_MAX = %g" % B_MAX \
        in series.reason
    assert "b=%.6g " % B_MAX in series.reason


def test_evolve_breakdown_final_record_is_last_decomposed_state():
    # step 25 cannot be decomposed; the final record of the cadence-5 run
    # is step 24 with its own decomposition, as recorded at cadence 1
    # (whose lift at step 24 the off-cadence final record does not make)
    coarse = dyn.evolve(dyn.EvolveParams(b0=1e-2, r_max=186.0, cadence=5,
                                         s_max=200.0))
    fine = dyn.evolve(dyn.EvolveParams(b0=1e-2, r_max=186.0, cadence=1,
                                       s_max=200.0))
    assert coarse.status == fine.status == "grid_exhausted"
    assert len(fine) == 25
    keep = [i for i, c in enumerate(dyn.COLUMNS) if c != "b_hat"]
    assert np.array_equal(np.array(coarse.rows[-1])[keep],
                          np.array(fine.rows[24])[keep])


def test_per_step_run_decomposes_every_step_once(small_params, monkeypatch):
    # with the largest interval at 1 no step is predicted: one
    # decomposition at the start, one per step and one more per refold
    steps = []
    step = dyn.SemiImplicitStepper.step
    monkeypatch.setattr(dyn.SemiImplicitStepper, "step",
                        lambda self, *args, **kw: steps.append(None)
                        or step(self, *args, **kw))
    monkeypatch.setattr(dyn, "MAX_INTERVAL", 1)
    monkeypatch.setattr(dyn, "REFOLD_THRESHOLD", 1e-4)
    c = dyn.evolve(small_params).counters
    assert c["refolds"] > 0
    assert c["decompose_calls"] == len(steps) + c["refolds"] + 1
    assert c["predicted_steps"] == c["backtrack_decompositions"] == 0


def test_scheduled_run_matches_the_per_step_run(monkeypatch):
    # the criterion-10 run decomposes about a fifth of its steps and ends
    # where the per-step run does, within the benchmark's 5e-4
    params = dyn.EvolveParams(b0=1e-2, b_min=5e-3)
    series = dyn.evolve(params)
    monkeypatch.setattr(dyn, "MAX_INTERVAL", 1)
    oracle = dyn.evolve(params)
    assert series.status == oracle.status == "b_min"
    assert abs(len(series) - len(oracle)) <= 1
    for name in ("s", "lam", "b"):
        final, expected = getattr(series, name)[-1], getattr(oracle, name)[-1]
        assert abs(final - expected) <= 5e-4 * abs(expected)
    c = series.counters
    assert 4 * c["decompose_calls"] < oracle.counters["decompose_calls"]
    assert c["predicted_steps"] > 0 == c["backtrack_decompositions"]


def test_scheduled_records_stay_off_the_trajectory(small_params):
    # a record's own decomposition feeds neither the predictor nor the
    # step's b: the cadence-5 rows are those of the cadence-1 run at every
    # fifth step
    coarse = dyn.evolve(small_params)
    fine = dyn.evolve(replace(small_params, cadence=1))
    assert coarse.counters["predicted_steps"] > 0
    assert coarse.status == fine.status == "s_max"
    assert np.array_equal(np.array(coarse.rows[:-1]),
                          np.array(fine.rows[:len(fine) - 1:5]))


def test_breakdown_at_a_predicted_step_backtracks(small_params, monkeypatch):
    # from a step that the schedule predicts and no record reads on, no
    # state can be decomposed: the next decomposition fails, and the run
    # backtracks to end at the step before, decomposed then, with the
    # breakdown as its reason, as a cadence-1 run that decomposes every
    # step for its records does
    decomposed, stepped = set(), []
    decompose = dyn.ModulationSolver.decompose
    step = dyn.SemiImplicitStepper.step

    def spied(self, state, guess):
        decomposed.add(state.s)
        return decompose(self, state, guess)

    monkeypatch.setattr(dyn.ModulationSolver, "decompose", spied)
    monkeypatch.setattr(dyn.SemiImplicitStepper, "step",
                        lambda self, *args, **kw: stepped.append(
                            step(self, *args, **kw)) or stepped[-1])
    dyn.evolve(small_params)
    # the first predicted step k whose step k - 1 was predicted too
    k = next(k for k in range(2, len(stepped))
             if stepped[k - 2].s not in decomposed
             and stepped[k - 1].s not in decomposed)
    bad = stepped[k - 1].s

    def failing(self, state, guess):
        if state.s >= bad:
            raise dyn.ModulationError("injected at step %d" % k)
        return decompose(self, state, guess)

    monkeypatch.setattr(dyn.ModulationSolver, "decompose", failing)
    coarse = dyn.evolve(small_params)
    fine = dyn.evolve(replace(small_params, cadence=1))
    assert coarse.status == fine.status == "modulation_failed"
    assert coarse.reason == fine.reason == "injected at step %d" % k
    assert len(fine) == k
    assert coarse.counters["backtrack_decompositions"] >= 2
    assert coarse.counters["ds_max"] == fine.counters["ds_max"]
    keep = [i for i, c in enumerate(dyn.COLUMNS) if c != "b_hat"]
    assert np.array_equal(np.array(coarse.rows[-1])[keep],
                          np.array(fine.rows[-1])[keep])


def test_run_ends_at_the_step_budget(small_params, monkeypatch):
    # a run without a limit of its own ends after MAX_STEPS steps, with
    # its last state decomposed and recorded
    monkeypatch.setattr(dyn, "MAX_STEPS", 7)
    series = dyn.evolve(replace(small_params, s_max=math.inf))
    assert series.status == "max_steps"
    assert series.reason is None
    assert len(series) == 3   # steps 0, 5 and the final record at step 7
    assert series.counters["ds_max"] > 0


def test_evolve_nonfinite(monkeypatch):
    step = dyn.SemiImplicitStepper.step
    calls = []

    def poisoned(self, state, ds, b=0.0):
        calls.append(ds)
        if len(calls) == 3:
            state = replace(state, n=np.full_like(state.n, np.nan))
        return step(self, state, ds, b)

    monkeypatch.setattr(dyn.SemiImplicitStepper, "step", poisoned)
    series = dyn.evolve(dyn.EvolveParams(b0=8e-3, cadence=1, s_max=8.0))
    assert series.status == "nonfinite"
    assert series.reason == "implicit step produced a non-finite state"
    assert len(series) == 3  # steps 0, 1, 2; the failed step adds nothing
    assert np.all(np.isfinite(np.array(series.rows)[:, :4]))


def test_evolve_records_nan_energy_when_undefined(monkeypatch, tmp_path,
                                                  small_params):
    # every second record's density is rejected by free_energy; the run
    # goes on to its normal end with NaN in those rows
    free_energy = dyn.diagnostics.free_energy
    calls = []

    def rejecting(pair):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise dyn.diagnostics.DiagnosticsError("density significantly "
                                                   "negative")
        return free_energy(pair)

    monkeypatch.setattr(dyn.diagnostics, "free_energy", rejecting)
    series = dyn.evolve(small_params)
    assert series.status == "s_max"
    assert len(series) == len(calls) >= 4
    path = tmp_path / "timeseries.csv"
    series.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    energy = data["free_energy"]
    assert np.all(np.isnan(energy[1::2]))
    assert np.all(np.isfinite(energy[0::2]))


def test_evolve_deterministic(small_params):
    s1 = dyn.evolve(small_params)
    s2 = dyn.evolve(small_params)
    assert np.array_equal(np.array(s1.rows), np.array(s2.rows),
                          equal_nan=True)


def test_scaling_equivariance():
    # evolving (u_lam, v_lam) for time lam^2 t equals rescaling the
    # evolution of (u, v) at time t, to scheme order
    lam = 2.0
    grid = RadialGrid.make(80.0, h_core=0.02, nodes_per_decade=48,
                           stencil_order=4)
    r = grid.nodes
    u = 0.8 * q_density(r)
    m = grid.cumulative_integral(u, "r")
    n = 0.8 * mass_q(r)
    stepper = dyn.SemiImplicitStepper(grid)
    T, nsteps = 0.05, 100
    st = dyn.FlowState(grid, m.copy(), n.copy())
    for _ in range(nsteps):
        st = stepper.step(st, T / nsteps, b=0.0)
    # rescaled initial data u_lam = lam^2 u(lam r): m_lam(r) = m(lam r)
    x = np.minimum(lam * r, grid.r_max)
    m_l = make_interp_spline(r, m, k=5)(x)
    n_l = make_interp_spline(r, n, k=5)(x)
    st2 = dyn.FlowState(grid, m_l, n_l)
    for _ in range(nsteps):
        st2 = stepper.step(st2, T / lam ** 2 / nsteps, b=0.0)
    expected = make_interp_spline(r, st.m, k=5)(x)
    win = r <= grid.r_max / lam * 0.9
    assert np.max(np.abs(st2.m - expected)[win]) < 5e-3 * np.max(np.abs(m))


def test_subcritical_control():
    rep = dyn.subcritical_control(mass_fraction=0.5, t_max=0.5)
    assert rep["bounded"]
    assert np.all(np.diff(rep["lam_proxy"]) > -1e-12)
    assert rep["mass_drift"] < 1e-12


def inline_sampler(grid, params, delta, rng, tries):
    """The rejection loop that `kslab simulate` and `stability_probe` each
    carried before `RunSetup.sample_perturbation`, which rebuilds the
    family for each try (the sampler's oracle); None when every try is
    rejected."""
    for _ in range(tries):
        cand = dyn.random_perturbation(grid, delta, rng)
        try:
            dyn.initial_state(grid, params, cand)
        except dyn.SimulationError:
            continue
        return cand
    return None


# no rejection at delta = 1e-4; at delta = 10 seed 1 rejects once and
# seed 2 three times; at delta = 30 seed 11 exhausts the second draw's tries
@pytest.mark.parametrize("delta, seed", [(1e-4, 0), (1e-4, 1), (10.0, 1),
                                         (10.0, 2), (30.0, 11)])
def test_sample_perturbation_matches_inline_loop(small_grid, small_params,
                                                 small_setup, delta, seed,
                                                 monkeypatch):
    monkeypatch.setattr(dyn, "PERTURBATION_TRIES", 3)
    # two draws in a row from one generator, as stability_probe makes them;
    # the setup adds each candidate to its stored fields, the oracle
    # rebuilds the family for each
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        want = inline_sampler(small_grid, small_params, delta, rng_ref, 3)
        if want is None:
            with pytest.raises(dyn.SimulationError, match="3 tries"):
                small_setup.sample_perturbation(delta, rng)
            break
        got = small_setup.sample_perturbation(delta, rng)
        for g_field, w_field in zip(got, want):
            np.testing.assert_array_equal(g_field.values, w_field.values)
            assert g_field.parity == w_field.parity


def test_stability_probe_members_match_independent_runs(
        small_grid, small_params, monkeypatch):
    # the probe's members share one setup; each must equal, bit for bit, a
    # run on a setup of its own (evolve) from the same draw: the oracle
    members = []
    measure = dyn.measure_laws
    monkeypatch.setattr(dyn, "measure_laws",
                        lambda series: members.append(series)
                        or measure(series))
    rep = dyn.stability_probe(small_params, n_perturbations=2, delta=1e-4,
                              seed=0)
    assert len(members) == 2
    rng = np.random.default_rng(0)
    for run, series in zip(rep["runs"], members):
        pert = inline_sampler(small_grid, small_params, 1e-4, rng,
                              dyn.PERTURBATION_TRIES)
        oracle = dyn.evolve(small_params, perturbation=pert)
        assert np.array_equal(np.array(series.rows), np.array(oracle.rows),
                              equal_nan=True)
        assert run["status"] == series.status == oracle.status
        assert series.counters == oracle.counters


def test_run_setup_serves_runs_in_any_order(small_setup, small_params):
    # an unperturbed run after a perturbed one on the same setup starts
    # afresh: the series of a setup of its own
    pert = small_setup.sample_perturbation(1e-4, np.random.default_rng(5))
    small_setup.run(pert)
    shared = small_setup.run(None)
    oracle = dyn.evolve(small_params)
    assert np.array_equal(np.array(shared.rows), np.array(oracle.rows),
                          equal_nan=True)
    assert shared.counters == oracle.counters


def test_initial_positivity_guard(small_grid, small_params):
    r = small_grid.nodes
    eps = RadialField(small_grid, -10.0 * np.exp(-r ** 2))
    geta = RadialField(small_grid, np.zeros_like(r), "odd")
    with pytest.raises(dyn.SimulationError):
        dyn.initial_state(small_grid, small_params, (eps, geta))


def test_timeseries_monotone_guard():
    ts = dyn.TimeSeries()
    ts.append(t=0.0, s=0.0, lam=1.0, b=1e-2)
    with pytest.raises(dyn.SimulationError):
        ts.append(t=-1.0, s=1.0, lam=1.0, b=1e-2)


def test_timeseries_csv(tmp_path):
    ts = dyn.TimeSeries()
    ts.append(t=0.0, s=0.0, lam=1.0, b=1e-2)
    ts.append(t=0.5, s=1.0, lam=0.9, b=9e-3)
    path = tmp_path / "ts.csv"
    ts.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(dyn.COLUMNS)
    assert len(lines) == 3


def synthetic_law_series(frame):
    """A series obeying -lam lam_t = b (b = 1.1 b_hat) and
    b_hat_sigma = -2 b_hat^2/|log b_hat| exactly in the bubble time sigma
    (d sigma/dt = 1/lam^2), recorded with a frame time s that runs at lam1^2
    times sigma's rate, lam1 the pending scale: a steady drift 1 -> 0.83,
    or drifts of 0.2 undone by refolds."""
    def rhs(sig, y):
        log_lam, bh, _ = y
        return [-1.1 * bh, -2.0 * bh ** 2 / abs(math.log(bh)),
                math.exp(2.0 * log_lam)]

    sigma = np.linspace(0.0, 300.0, 1201)
    sol = solve_ivp(rhs, (0.0, 300.0), [0.0, 1e-2, 0.0], t_eval=sigma,
                    rtol=1e-12, atol=1e-14)
    log_lam, b_hat, t = sol.y.copy()
    b = 1.1 * b_hat
    u = sigma / sigma[-1]
    lam1 = 1.0 - 0.17 * u if frame == "drift" else 1.0 - 0.2 * (3.0 * u % 1.0)
    s = cumulative_trapezoid(lam1 ** 2, sigma, initial=0.0)
    b_hat[-1] = np.nan  # the stopping record carries no lift
    series = dyn.TimeSeries()
    for k in range(len(sigma)):
        series.append(t=t[k], s=s[k], lam=math.exp(log_lam[k]),
                      b=b[k], b_hat=b_hat[k])
    return series, sigma


@pytest.mark.parametrize("frame", ["drift", "refold"])
def test_measure_laws_in_bubble_time(frame):
    series, sigma = synthetic_law_series(frame)
    # trapezoid rule on 1/lam^2: relative error ~ (b d sigma)^2 per record
    assert np.allclose(dyn.bubble_time(series), sigma, rtol=1e-4, atol=0.0)
    laws = dyn.measure_laws(series)
    assert np.max(np.abs(laws["ratio_a"] - 1.0)) < 1e-3
    assert len(laws["ratio_b"]) == 1200 - 4  # 5-sample averages of lifts
    assert np.max(np.abs(laws["ratio_b"] + 2.0)) < 1e-3
