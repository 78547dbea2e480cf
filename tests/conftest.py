import numpy as np
import pytest

from kslab.grid import RadialGrid
from kslab.operators import ground_state


@pytest.fixture(scope="session")
def ref_grid():
    return RadialGrid.reference()


@pytest.fixture(scope="session")
def mid_grid():
    # fast mid-resolution grid for operator/profile unit tests
    return RadialGrid.make(2000.0, h_core=0.05, nodes_per_decade=48,
                           stencil_order=6)


@pytest.fixture(scope="session")
def ground(ref_grid):
    return ground_state(ref_grid)


def smooth_bump_pair_values(grid, rng, span=(1.0, 4.0)):
    """Even smooth density + potential-gradient arrays for adjointness tests."""
    r = grid.nodes
    c1, w1 = rng.uniform(*span), rng.uniform(0.5, 2.0)
    c2, w2 = rng.uniform(*span), rng.uniform(0.5, 2.0)
    a1, a2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
    e = a1 * (np.exp(-((r - c1) / w1) ** 2) + np.exp(-((r + c1) / w1) ** 2))
    eta = a2 * (np.exp(-((r - c2) / w2) ** 2) + np.exp(-((r + c2) / w2) ** 2))
    geta = grid.diff_matrix(1, "even") @ eta
    return e, geta
