import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import kslab.grid as grid_module
from kslab.cli import profile_grid_for
from kslab.grid import (
    _GL_NODES,
    _GL_WEIGHTS,
    _PARITY_SIGN,
    GridError,
    RadialField,
    RadialGrid,
    _first_cell_rlogr,
    derivative,
    div_from_grad_values,
    fd_weights,
    field_to_csv,
    integrate,
    laplacian_values,
    log_potential_values,
    max_radius,
    partial_mass,
    poisson_field,
    potential_from_gradient,
    radial_laplacian,
)
from kslab.operators import lambda_q, q_density
from kslab.profiles import B_MIN, build_profile_family, psi1, psi1_prime_over_r


def test_grid_invariants(ref_grid):
    assert ref_grid.nodes[0] == 0.0
    assert np.all(np.diff(ref_grid.nodes) > 0)
    with pytest.raises(GridError):
        RadialGrid(np.linspace(0.1, 1.0, 50))
    with pytest.raises(GridError):
        RadialGrid(np.zeros(50))


def test_derivative_polynomial_exact(mid_grid):
    r = mid_grid.nodes
    f = RadialField(mid_grid, r ** 2)
    d = derivative(f, 1)
    assert np.max(np.abs(d.values - 2 * r)) < 1e-8 * max(1.0, 2 * r[-1])
    assert d.parity == "odd"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3))
def test_derivative_even_poly_exact_hypothesis(coeffs):
    grid = RadialGrid.make(50.0, h_core=0.1, nodes_per_decade=24,
                           stencil_order=4)
    r = grid.nodes
    # even polynomial sum c_k r^{2k}, degree <= stencil order
    f = sum(c * r ** (2 * k) for k, c in enumerate(coeffs))
    df = sum(2 * k * c * r ** (2 * k - 1) for k, c in enumerate(coeffs) if k)
    out = derivative(RadialField(grid, f), 1).values
    scale = max(np.max(np.abs(df)), 1.0)
    assert np.max(np.abs(out - df)) < 1e-7 * scale


def test_even_field_zero_slope_at_origin(ref_grid):
    q = RadialField(ref_grid, q_density(ref_grid.nodes))
    # ghost-node folding cancels the odd derivative to roundoff
    assert abs(derivative(q, 1).values[0]) < 1e-12


def test_psi1_derivative_oracle_order():
    # closed-form psi1'/r as oracle; max error away from the log-singular
    # origin must decay at roughly the stencil order under refinement
    errs = []
    for h in (0.2, 0.1, 0.05):
        grid = RadialGrid.make(60.0, h_core=h, nodes_per_decade=32,
                               stencil_order=4)
        r = grid.nodes
        win = (r >= 0.5) & (r <= 9.0)
        d = derivative(RadialField(grid, psi1(r)), 1).values
        exact = psi1_prime_over_r(r[win]) * r[win]
        errs.append(np.max(np.abs(d[win] - exact)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) > 3.0


def test_radial_laplacian_oracle(ref_grid):
    r = ref_grid.nodes
    v = RadialField(ref_grid, 2.0 * np.log1p(r ** 2))
    lap = radial_laplacian(v)
    assert np.max(np.abs(lap.values - q_density(r))) < 1e-5
    const = radial_laplacian(RadialField(ref_grid, np.ones_like(r)))
    assert np.max(np.abs(const.values)) < 1e-10
    rsq = radial_laplacian(RadialField(ref_grid, r ** 2))
    assert np.max(np.abs(rsq.values - 4.0)) < 1e-7
    with pytest.raises(GridError):
        radial_laplacian(RadialField(ref_grid, r.copy(), "odd"))


def test_integrate_examples(ref_grid, ground):
    assert abs(integrate(ground.Q) - 8 * np.pi) / (8 * np.pi) < 1e-6
    assert abs(integrate(ground.LambdaQ)) < 1e-4
    ind = RadialField(ref_grid, (ref_grid.nodes <= 1.0).astype(float))
    assert abs(integrate(ind) - np.pi) < 0.1  # jump lands inside a cell


def test_partial_mass_examples(ref_grid, ground):
    r = ref_grid.nodes
    m = partial_mass(ground.Q)
    m0 = 4 * r ** 2 / (1 + r ** 2)
    assert np.max(np.abs(m.values - m0)) < 1e-6
    assert m.values[0] == 0.0
    m_lam = partial_mass(ground.LambdaQ)
    psi0 = r ** 2 / (1 + r ** 2) ** 2
    assert np.max(np.abs(m_lam.values - 8 * psi0)) < 1e-6
    zero = partial_mass(RadialField(ref_grid, np.zeros_like(r)))
    assert np.all(zero.values == 0.0)


def test_poisson_field_examples(ref_grid, ground):
    r = ref_grid.nodes
    pf = poisson_field(ground.Q)
    assert np.max(np.abs(pf.values - 4 * r / (1 + r ** 2))) < 1e-6
    assert abs(np.interp(1.0, r, pf.values) - 2.0) < 1e-6
    pl = poisson_field(ground.LambdaQ)
    assert np.max(np.abs(pl.values - r * q_density(r))) < 1e-6


def test_potential_normalizations(ref_grid, ground):
    r = ref_grid.nodes
    phi = potential_from_gradient(poisson_field(ground.Q), "log_convolution")
    assert np.max(np.abs(phi.values - 2 * np.log1p(r ** 2))[r <= 1000]) < 1e-5
    phil = potential_from_gradient(poisson_field(ground.LambdaQ),
                                   "log_convolution")
    assert np.max(np.abs(phil.values + 4 / (1 + r ** 2))[r <= 1000]) < 1e-5
    # fundamental degeneracy as cross-check
    resid = lambda_q(r) / q_density(r) + 2.0 + phil.values
    assert np.max(np.abs(resid)) < 1e-5
    anchored = potential_from_gradient(poisson_field(ground.Q), "value_at_zero")
    assert anchored.values[0] == 0.0


def test_poisson_round_trip(ref_grid):
    r = ref_grid.nodes
    v = RadialField(ref_grid, np.exp(-r ** 2 / 4.0))
    back = potential_from_gradient(poisson_field(radial_laplacian(v)),
                                   "log_convolution")
    assert np.max(np.abs(back.values - v.values)) < 1e-4


@settings(max_examples=15, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(0.6, 2.0), st.floats(-2.0, 2.0))
def test_poisson_round_trip_hypothesis(center, width, amp):
    grid = RadialGrid.make(400.0, h_core=0.05, nodes_per_decade=32,
                           stencil_order=4)
    r = grid.nodes
    vals = amp * (np.exp(-((r - center) / width) ** 2)
                  + np.exp(-((r + center) / width) ** 2))
    v = RadialField(grid, vals)
    back = potential_from_gradient(poisson_field(radial_laplacian(v)),
                                   "log_convolution")
    assert np.max(np.abs(back.values - v.values)) < 1e-3 * max(abs(amp), 0.1)


def test_partial_mass_derivative_roundtrip(mid_grid):
    r = mid_grid.nodes
    f = RadialField(mid_grid, np.exp(-r ** 2 / 2))
    m = partial_mass(f)
    fr = mid_grid.divide_by_r(derivative(m, 1).values, "odd")
    assert np.max(np.abs(fr - f.values)[1:]) < 1e-7


def test_quadrature_cellwise_exactness(mid_grid):
    # int_0^R r^3 * r dr exactly (degree <= stencil order)
    r = mid_grid.nodes
    got = mid_grid.cumulative_integral(r ** 3, "r")[-1]
    exact = mid_grid.r_max ** 5 / 5.0
    assert abs(got - exact) / exact < 1e-12


def test_log_weighted_quadrature():
    grid = RadialGrid.make(40.0, h_core=0.02, nodes_per_decade=48,
                           stencil_order=6)
    got = grid.cumulative_integral(np.exp(-grid.nodes ** 2), "rlogr")[-1]
    exact = -np.euler_gamma / 4.0
    assert abs(got - exact) < 1e-8


def test_field_csv_roundtrip(tmp_path, ref_grid, ground):
    path = tmp_path / "q.csv"
    field_to_csv(ground.Q, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], ref_grid.nodes)
    assert np.array_equal(data[:, 1], ground.Q.values)
    header = path.read_text().splitlines()[0]
    assert header == "r,value"


# -- loop oracles -------------------------------------------------------------
# The scalar per-node and per-cell forms that the vectorized grid kernels
# replaced.  The vectorized kernels keep their arithmetic order, so they must
# agree bit for bit.

def fd_weights_loop(z, x, m):
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def build_diff_loop(grid, order, parity):
    r = grid.nodes
    n = grid.n
    w = grid.stencil_order + order
    sign = _PARITY_SIGN.get(parity, 0.0)
    nghost = w if parity != "none" else 0
    r_ext = np.concatenate([-r[nghost:0:-1], r]) if nghost else r
    mat = sparse.lil_matrix((n, n))
    for i in range(n):
        ie = i + nghost
        j0 = min(max(ie - (w - 1) // 2, 0), len(r_ext) - w)
        idx = np.arange(j0, j0 + w)
        wts = fd_weights_loop(r[i], r_ext[idx], order)[:, order]
        for jext, cw in zip(idx, wts):
            if jext >= nghost:
                mat[i, jext - nghost] += cw
            else:
                mat[i, nghost - jext] += sign * cw
    return mat.tocsr()


WEIGHT_LOOP = {
    "one": lambda t: np.ones_like(t),
    "r": lambda t: t,
    "r3": lambda t: t ** 3,
    "rlogr": lambda t: t * np.log(t),
}


def bary_weights_loop(xs):
    d = xs[:, None] - xs[None, :]
    np.fill_diagonal(d, 1.0)
    return 1.0 / d.prod(axis=1)


def cell_weights_loop(grid, weight):
    r = grid.nodes
    p = grid.stencil_order
    ncell = grid.n - 1
    j0 = np.clip(np.arange(ncell) - (p - 1) // 2, 0, grid.n - (p + 1))
    cw = np.zeros((ncell, p + 1))
    for i in range(ncell):
        a, b = r[i], r[i + 1]
        xs = r[j0[i]:j0[i] + p + 1]
        if i == 0 and weight == "rlogr":
            cw[i] = _first_cell_rlogr(xs, b)
            continue
        tg = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        wg = 0.5 * (b - a) * _GL_WEIGHTS * WEIGHT_LOOP[weight](tg)
        diff = tg[:, None] - xs[None, :]
        bw = bary_weights_loop(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            tmp = bw[None, :] / diff
            denom = tmp.sum(axis=1)
            lag = tmp / denom[:, None]
        hit = np.isclose(diff, 0.0)
        if hit.any():
            rows, cols = np.nonzero(hit)
            lag[rows] = 0.0
            lag[rows, cols] = 1.0
        cw[i] = wg @ lag
    return j0, cw


def cumulative_integral_loop(grid, values, weight):
    j0, cw = cell_weights_loop(grid, weight)
    cells = np.zeros(grid.n - 1)
    for k in range(cw.shape[1]):
        cells += cw[:, k] * values[j0 + k]
    out = np.zeros(grid.n)
    np.cumsum(cells, out=out[1:])
    return out


def cumulative_matrix_loop(grid, weight):
    """Column j: the cumulative integral of the j-th unit vector."""
    j0, cw = cell_weights_loop(grid, weight)
    cellmat = np.zeros((grid.n - 1, grid.n))
    rows = np.arange(grid.n - 1)
    for k in range(cw.shape[1]):
        np.add.at(cellmat, (rows, j0 + k), cw[:, k])
    out = np.zeros((grid.n, grid.n))
    np.cumsum(cellmat, axis=0, out=out[1:])
    return out


def node_weights_loop(grid, weight):
    j0, cw = cell_weights_loop(grid, weight)
    w = np.zeros(grid.n)
    for k in range(cw.shape[1]):
        np.add.at(w, j0 + k, cw[:, k])
    return w


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def oracle_grids(ref_grid):
    small = {"order%d" % p: RadialGrid.make(60.0, h_core=0.2,
                                            nodes_per_decade=16,
                                            stencil_order=p)
             for p in (2, 3, 4)}
    # a 2e-7 wide cell puts Gauss points within isclose's atol of its nodes
    tiny = RadialGrid(np.concatenate([[0.0, 1.0, 1.0 + 2e-7],
                                      np.linspace(1.5, 20.0, 40)]),
                      stencil_order=4)
    return {"reference": ref_grid, "profile_b1e-6": profile_grid_for(1e-6),
            "tiny_cell": tiny, **small}


ORACLE_GRIDS = ("reference", "profile_b1e-6", "tiny_cell", "order2", "order3",
                "order4")


def test_fd_weights_matches_loop():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1.0, 2.0, size=(40, 7)), axis=1)
    z = rng.uniform(-1.0, 2.0, size=40)
    got = fd_weights(z, x, 3)
    assert got.shape == (40, 7, 4)
    for i in range(40):
        assert_bitwise(got[i], fd_weights_loop(z[i], x[i], 3))


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", ORACLE_GRIDS)
def test_diff_matrix_matches_loop(oracle_grids, name, order, parity):
    grid = oracle_grids[name]
    got = grid.diff_matrix(order, parity)
    want = build_diff_loop(grid, order, parity)
    assert_bitwise(got.indptr, want.indptr)
    assert_bitwise(got.indices, want.indices)
    assert_bitwise(got.data, want.data)


@pytest.mark.parametrize("weight", ["one", "r", "r3", "rlogr"])
@pytest.mark.parametrize("name", ORACLE_GRIDS)
def test_cell_quadrature_matches_loop(oracle_grids, name, weight):
    grid = oracle_grids[name]
    p1 = grid.stencil_order + 1
    j0, cw = cell_weights_loop(grid, weight)
    cells = grid._cell_matrix(weight)
    assert_bitwise(cells.indices.reshape(-1, p1)[:, 0], j0.astype(np.int32))
    assert_bitwise(cells.data.reshape(-1, p1), cw)
    r = grid.nodes
    values = np.exp(-r / 7.0) * np.cos(r)
    assert_bitwise(grid.cumulative_integral(values, weight),
                   cumulative_integral_loop(grid, values, weight))
    assert_bitwise(grid.cumulative_integral(np.eye(grid.n), weight),
                   cumulative_matrix_loop(grid, weight))
    if weight == "r":
        assert_bitwise(grid.quad_weights, node_weights_loop(grid, "r"))


@pytest.mark.parametrize("name", ORACLE_GRIDS)
def test_value_helpers_treat_block_columns_as_separate_calls(oracle_grids,
                                                            name):
    # the value-level helpers treat the columns of an (n, k) block as k
    # separate calls, bit for bit
    grid = oracle_grids[name]
    r = grid.nodes
    sources = (np.exp(-r / 7.0) * np.cos(r), r / (1.0 + r ** 3),
               np.sin(r) ** 2)
    block = np.column_stack(sources)
    helpers = ([partial(grid.cumulative_integral, weight=w)
                for w in ("one", "r", "r3", "rlogr")]
               + [partial(grid.divide_by_r, parity=p) for p in ("even", "odd")]
               + [partial(f, grid) for f in (laplacian_values,
                                             div_from_grad_values,
                                             log_potential_values)])
    for helper in helpers:
        got = helper(block)
        assert got.shape == block.shape
        for k, source in enumerate(sources):
            assert_bitwise(got[:, k], helper(source))


@pytest.mark.parametrize("name", ("reference", "order3"))
def test_divide_by_r_odd_origin_matches_the_csr_row(oracle_grids, name):
    # out[0] of an odd divide_by_r is row 0 of diff_matrix(1, "odd") summed
    # in its stored order from 0.0: bitwise the CSR row product, for one
    # field and for a block of columns
    grid = oracle_grids[name]
    r = grid.nodes
    rng = np.random.default_rng(11)
    block = np.column_stack([np.sin(r) * np.exp(-r / 9.0),
                             rng.standard_normal(grid.n),
                             r / (1.0 + r ** 2)])
    row = grid.diff_matrix(1, "odd")[:1]
    for values in (block[:, 0], block[:, 1], block):
        got = grid.divide_by_r(values, "odd")
        np.testing.assert_array_equal(got[:1], row @ values)


@pytest.mark.parametrize("r_max", [1e49, 1e300, float("nan")])
def test_make_refuses_a_radius_past_MAX_RADIUS(monkeypatch, r_max):
    # refused before any node is laid out, while the largest grid in use,
    # that of `profile build` (order 6) at B_MIN, is laid out
    monkeypatch.setattr(np, "linspace", None)
    with pytest.raises(GridError, match="largest radius of stencil order 6"):
        RadialGrid.make(r_max, stencil_order=6)
    monkeypatch.undo()
    assert profile_grid_for(B_MIN).r_max <= max_radius(6)


@pytest.mark.parametrize("order", [2, 4, 6, 16])
def test_a_grid_at_its_orders_largest_radius_assembles(order):
    # the bound is laid out and assembled (both parities of D1 and D2, the
    # quadrature weights) without a warning; a radius just past it is
    # refused by `make`, and so are the given nodes of the bound's grid at
    # order + 4, as the solver's step bound builds it
    bound = max_radius(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = RadialGrid.make(bound, h_core=0.05, nodes_per_decade=48,
                               stencil_order=order)
        for k in (1, 2):
            for parity in ("even", "odd"):
                assert np.all(np.isfinite(grid.diff_matrix(k, parity).data))
        assert np.all(np.isfinite(grid.quad_weights))
    assert grid.r_max == bound
    match = "largest radius of stencil order %d" % order
    with pytest.raises(GridError, match=match):
        RadialGrid.make(np.nextafter(bound, np.inf), stencil_order=order)
    with pytest.raises(GridError, match="order %d" % (order + 4)):
        RadialGrid(grid.nodes, stencil_order=order + 4)


def test_grid_builders_run_once_per_key(monkeypatch):
    # every accessor reads the grid's one memo: repeated calls build the
    # cell matrices once and each stencil's difference matrices once (both
    # parities of the mirrored stencil together), and the grid keeps no
    # other cache
    calls = []
    for name in ("_build_diff", "_cell_weights"):
        def counted(self, *args, _build=getattr(RadialGrid, name)):
            calls.append(args)
            return _build(self, *args)
        monkeypatch.setattr(RadialGrid, name, counted)
    grid = RadialGrid.make(60.0, h_core=0.2, nodes_per_decade=16)
    r = grid.nodes
    for _ in range(3):
        for order in (1, 2, 3):
            for parity in ("even", "odd", "none"):
                grid.diff_matrix(order, parity)
        grid.quad_weights, grid.positive_quad_weights
        grid.cumulative_integral(r, "r3")
        grid.cumulative_integral(r, "rlogr")
        grid.divide_by_r(r, "odd")
        laplacian_values(grid, r ** 2)
    assert len(calls) == len(set(calls)) == 3 * 2 + 1
    assert () in calls
    assert set(vars(grid)) == {"nodes", "stencil_order", "r_max", "n", "memo"}


def test_family_build_assembles_each_kernel_once(monkeypatch):
    # a profile family on a fresh grid evaluates the Gauss-point Lagrange
    # basis once (for all four cell matrices) and runs one Fornberg pass per
    # stencil: first derivatives of both parities, second of even fields
    bases, passes = [], []

    def bary(xs, _inner=grid_module._bary_weights):
        bases.append(xs.shape)
        return _inner(xs)

    def fornberg(z, x, m, _inner=fd_weights):
        passes.append((np.shape(x)[1], m))
        return _inner(z, x, m)

    monkeypatch.setattr(grid_module, "_bary_weights", bary)
    monkeypatch.setattr(grid_module, "fd_weights", fornberg)
    grid = profile_grid_for(1e-6)
    build_profile_family(grid, 1e-6)
    p = grid.stencil_order
    assert bases == [(grid.n - 1, p + 1)]
    assert sorted(passes) == [(p + 1, 1), (p + 2, 2)]
