"""Tracer checks: builds are seen where kslab imports them by name, every
wrapper comes off again, and the derived layer metrics are consistent.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import inspect
import math
import sys

import pytest

import kslab
from kslab import dynamics, operators, profiles

import layers
import tracer
from workloads import collapse_work


def _kslab_state():
    """Identity of every attribute of every kslab module and class."""
    state = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "kslab" or name.startswith("kslab.")):
            continue
        for attr, val in vars(mod).items():
            state[(name, attr)] = id(val)
            if inspect.isclass(val) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    state[(name, attr, cattr)] = id(cval)
    return state


@pytest.fixture(scope="module")
def short_run():
    params = dynamics.EvolveParams(b0=1e-2, M_param=11.0, cadence=3,
                                   s_max=0.3)
    dynamics.evolve(params)   # level-one fields and lazy imports warm
    trc = tracer.Tracer()
    with trc:
        series = dynamics.evolve(params)
    return trc, series


def test_family_build_per_decompose(short_run):
    trc, _ = short_run
    m = layers.layer_metrics(trc, 1.0, 1.0)
    assert m["dynamics.steps"] >= 3
    assert m["dynamics.decompose_calls"] >= m["dynamics.steps"]
    assert m["profiles.family_builds"] >= m["dynamics.decompose_calls"]
    t = layers.SpanTable(trc)
    in_decompose = t.mask(layers.FAMILY) & t.subtree_of(t.mask(layers.DECOMPOSE))
    assert in_decompose.sum() >= m["dynamics.decompose_calls"]
    assert 0.0 < m["profiles.cache_hit_ratio"] < 1.0
    assert m["dynamics.residual_evals_per_decompose"] >= 1.0


def test_layer_self_times_cover_the_run(short_run):
    trc, _ = short_run
    _, t0, t1, parent, self_t = trc.arrays()
    root = parent < 0
    m = layers.layer_metrics(trc, float((t1 - t0)[root].sum()), 0.0)
    assert min(self_t) > -1e-6
    assert abs(m["trace.unattributed_s"]) < 1e-6


def test_record_granularity_step_count(short_run):
    trc, series = short_run
    steps = layers.layer_metrics(trc, 1.0, 1.0)["dynamics.steps"]
    out = {"cadence": 3, "records": len(series)}
    assert collapse_work(out) == 3 * math.ceil(steps / 3)


def test_every_wrapper_removed():
    before = _kslab_state()
    original = dynamics.build_profile_family
    trc = tracer.Tracer().install()
    try:
        found = tracer.find_wrappers()
        assert "kslab.dynamics.build_profile_family" in found
        assert "kslab.profiles.build_profile_family" in found
        assert "kslab.build_profile_family" in found
        assert "kslab.operators.linalg" in found
        assert dynamics.build_profile_family is not original
    finally:
        trc.uninstall()
    assert tracer.find_wrappers() == []
    assert dynamics.build_profile_family is original
    assert kslab.build_profile_family is profiles.build_profile_family
    assert _kslab_state() == before


def test_wrappers_removed_after_error():
    trc = tracer.Tracer()
    with pytest.raises(profiles.ProfileError):
        with trc:
            grid = dynamics.dynamics_grid(dynamics.EvolveParams())
            profiles.build_profile_family(grid, 1.0)   # b above B_MAX
    assert tracer.find_wrappers() == []
    t = layers.SpanTable(trc)
    assert t.mask(layers.FAMILY).sum() == 1   # the failed call is a span


def test_eigensolves_traced_with_flops():
    grid = operators.operator_grid(50.0, nodes_per_decade=16, h_core=0.25)
    bundle = operators.OperatorBundle(grid)
    trc = tracer.Tracer()
    with trc:
        operators.coercivity_M(bundle)
    m = layers.layer_metrics(trc, 1.0, 1.0)
    assert m["operators.eigensolve_s"] > 0.0
    assert m["operators.eigensolve_flops"] > 9.0 * grid.n ** 3
    assert tracer.find_wrappers() == []


def test_flop_formula():
    f = tracer.eigensolve_flops
    a = [[0.0] * 4] * 4
    assert f("eigh", (a,), {}) == 9 * 4 ** 3
    assert f("eigvalsh", (a,), {}) == pytest.approx(4 * 4 ** 3 / 3)
    tall = [[0.0] * 2] * 6
    assert f("svd", (tall,), {"full_matrices": False}) == 14 * 6 * 4 + 8 * 8
    assert f("null_space", (tall,), {}) == 4 * 36 * 2 + 8 * 6 * 4 + 9 * 8
