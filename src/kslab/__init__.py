"""Radial chemotaxis blow-up laboratory.

Numerical construction of the approximate blow-up profiles of the planar
parabolic-parabolic chemotaxis system, certification of the linearized
operators' coercivity structure, and modulated time integration of the flow
in partial-mass variables with dynamic rescaling.
"""

from .grid import (
    FieldPair,
    GridError,
    RadialField,
    RadialGrid,
    cutoff,
    derivative,
    field_to_csv,
    integrate,
    partial_mass,
    poisson_field,
    potential_from_gradient,
    radial_laplacian,
)
from .profiles import (
    ProfileError,
    ProfileFamily,
    build_profile_family,
    build_t1_s1,
    invert_L0,
    invert_L1,
)
from .operators import (
    GroundState,
    OperatorBundle,
    OperatorError,
    apply_L,
    apply_Lstar,
    apply_M,
    build_phi_m,
    coercivity_L,
    coercivity_M,
    kernel_gap,
    lyapunov_functional,
    pairing,
    xq_norm_sq,
)
from .dynamics import (
    EvolveParams,
    FlowState,
    ModulationError,
    ModulationSolver,
    RunSetup,
    SemiImplicitStepper,
    SimulationError,
    TimeSeries,
    bubble_time,
    evolve,
    lift_b,
    measure_laws,
    rhs_partial_mass,
    stability_probe,
    subcritical_control,
)
from .diagnostics import (
    DiagnosticsError,
    EnergyReport,
    check_hardy_suite,
    check_logHLS,
    fit_rate_law,
    free_energy,
    loghls_bound,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
