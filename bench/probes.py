"""Single-call cases: one step, one ``decompose``, one ``lift_b``, one lean
family build, operator assembly on the 312-node mid grid and the
``kslab spectral check --M 50`` pipeline, each timed with tracing off.

They are run after the traced run of every workload and reported as
per-layer numbers (``single.*``).  Step, decompose and lift are timed on a
short stretch of the criterion-10 run, so each ``decompose`` starts from
the previous step's parameters and meets the profile cache the way
``evolve`` does.
"""

from __future__ import annotations

import statistics
import time

from kslab import dynamics, operators, profiles
from kslab.grid import FieldPair, RadialGrid

from workloads import collapse_params

STEPS = 7
FAMILY_REPEATS = 7
ASSEMBLY_REPEATS = 3
SPECTRAL_REPEATS = 3
PROBE_DS = 0.05


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def mid_grid_assembly():
    """Fresh mid grid (n = 312): both even diff matrices and cell weights."""
    grid = RadialGrid.make(2000.0, h_core=0.05, nodes_per_decade=48,
                           stencil_order=6)
    grid.diff_matrix(1, "even")
    grid.diff_matrix(2, "even")
    return grid.quad_weights


def spectral_check_m50():
    """The ``kslab spectral check --M 50`` computation on its default grid."""
    M = 50.0
    grid = operators.operator_grid(M, nodes_per_decade=32, h_core=0.1)
    lvl1 = profiles.build_t1_s1(grid)
    phim = operators.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))
    bundle = operators.OperatorBundle(grid)
    operators.coercivity_M(bundle)
    operators.coercivity_L(bundle, phim)
    return operators.kernel_gap(bundle)


def single_call_metrics():
    params = collapse_params()
    grid = dynamics.dynamics_grid(params)
    state = dynamics.initial_state(grid, params)
    stepper = dynamics.SemiImplicitStepper(grid)
    solver = dynamics.ModulationSolver(grid, params.M_param)
    mod = solver.decompose(state, guess=(1.0, params.b0))
    step_t, dec_t, lift_t = [], [], []
    for _ in range(STEPS):
        dt, state = _timed(stepper.step, state, PROBE_DS, b=mod.b)
        step_t.append(dt)
        dt, mod = _timed(solver.decompose, state, guess=(mod.lam, mod.b))
        dec_t.append(dt)
        dt, _ = _timed(dynamics.lift_b, solver, mod)
        lift_t.append(dt)
    family_t = [_timed(profiles.build_profile_family, grid, params.b0,
                       with_error=False)[0] for _ in range(FAMILY_REPEATS)]
    assembly_t = [_timed(mid_grid_assembly)[0]
                  for _ in range(ASSEMBLY_REPEATS)]
    spectral_t = [_timed(spectral_check_m50)[0]
                  for _ in range(SPECTRAL_REPEATS)]
    med = statistics.median
    return {
        "single.step_ms": 1e3 * med(step_t),
        "single.decompose_ms": 1e3 * med(dec_t),
        "single.lift_ms": 1e3 * med(lift_t),
        "single.family_lean_ms": 1e3 * med(family_t),
        "single.assembly_mid_s": med(assembly_t),
        "single.spectral_m50_s": med(spectral_t),
    }
