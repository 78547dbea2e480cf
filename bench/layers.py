"""Per-layer metrics derived from one traced run of a workload.

Self time of a layer is the time during which its innermost active span
belongs to that layer.  ``<x>_self_s`` restricts that to the subtree of the
spans of ``x``: for ``profiles.family_self_s`` the profiles-layer time
inside family builds, which excludes the grid assembly a family build on a
fresh grid triggers; for ``dynamics.decompose_self_s`` the dynamics-layer
time inside ``decompose``, which excludes the family builds and operator
work it calls.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS

FAMILY = "profiles.build_profile_family"
CACHE = "dynamics.ProfileCache.__call__"
STEP = "dynamics.SemiImplicitStepper.step"
DECOMPOSE = "dynamics.ModulationSolver.decompose"
RESIDUAL = "dynamics.ModulationSolver._residual"
LIFT = "dynamics.lift_b"
ASSEMBLY = ("grid.RadialGrid._build_diff", "grid.RadialGrid._cell_weights")
DIFF_BUILD = "grid.RadialGrid._build_diff"
PHI_M = "operators.build_phi_m"
APPLY = ("operators.apply_L", "operators.apply_Lstar", "operators.apply_M")
FREE_ENERGY = "diagnostics.free_energy"
FIT = "diagnostics.fit_rate_law"


class SpanTable:
    def __init__(self, tracer):
        self.names = tracer.names
        name, t0, t1, parent, self_t = tracer.arrays()
        self.name = name
        self.parent = parent
        self.dur = t1 - t0
        self.self_t = self_t
        self.layer = np.array(tracer.name_layer, dtype=object)[name]
        self._ids = {}
        for i, n in enumerate(self.names):
            self._ids.setdefault(n, []).append(i)

    def mask(self, *names):
        ids = [i for n in names for i in self._ids.get(n, [])]
        return np.isin(self.name, ids)

    def outermost(self, mask):
        """Spans in mask that have no ancestor in mask."""
        return mask & ~self._below(mask)

    def subtree_of(self, mask):
        """Spans in mask or below a span in mask."""
        return mask | self._below(mask)

    def _below(self, mask):
        """Spans with an ancestor in mask (parents precede children)."""
        flag = mask.tolist()
        below = [False] * len(flag)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (below[p] or flag[p]):
                below[i] = True
        return np.array(below, dtype=bool)

    def layer_self(self, layer, within=None):
        sel = self.layer == layer
        if within is not None:
            sel &= within
        return float(self.self_t[sel].sum())


def _ms_percentile(durations, q):
    return float(np.percentile(durations, q) * 1e3) if len(durations) else 0.0


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    t = SpanTable(tracer)
    m = {}

    assembly = t.mask(*ASSEMBLY)
    m["grid.assembly_s"] = float(t.dur[t.outermost(assembly)].sum())
    m["grid.diff_builds"] = int(t.mask(DIFF_BUILD).sum())
    m["grid.nodes"] = (float(np.mean(tracer.grid_sizes))
                       if tracer.grid_sizes else 0.0)

    fam = t.mask(FAMILY)
    fam_outer = t.outermost(fam)
    steps = int(t.mask(STEP).sum())
    cache = t.mask(CACHE)
    misses = np.isin(np.nonzero(cache)[0], t.parent[fam])
    m["profiles.family_builds"] = int(fam.sum())
    m["profiles.family_s"] = float(t.dur[fam_outer].sum())
    m["profiles.family_self_s"] = t.layer_self("profiles",
                                               t.subtree_of(fam_outer))
    m["profiles.cache_calls"] = int(cache.sum())
    m["profiles.cache_hit_ratio"] = (float(1.0 - misses.mean())
                                     if len(misses) else 0.0)
    m["profiles.builds_per_step"] = (m["profiles.family_builds"] / steps
                                     if steps else 0.0)

    eig = t.mask(*[n for n in t.names if n.startswith("operators.linalg.")])
    m["operators.eigensolve_s"] = float(t.dur[t.outermost(eig)].sum())
    m["operators.eigensolve_flops"] = float(tracer.flops)
    m["operators.dense_dim"] = int(max(tracer.dense_dims, default=0))
    m["operators.phi_m_s"] = float(t.dur[t.outermost(t.mask(PHI_M))].sum())
    apply = t.mask(*APPLY)
    m["operators.apply_calls"] = int(apply.sum())
    m["operators.apply_s"] = float(t.dur[t.outermost(apply)].sum())

    step_d = t.dur[t.mask(STEP)]
    m["dynamics.steps"] = steps
    m["dynamics.step_s"] = float(step_d.sum())
    m["dynamics.step_ms.p50"] = _ms_percentile(step_d, 50)
    m["dynamics.step_ms.p98"] = _ms_percentile(step_d, 98)
    dec = t.mask(DECOMPOSE)
    dec_outer = t.outermost(dec)
    dec_d = t.dur[dec]
    m["dynamics.decompose_calls"] = int(dec.sum())
    m["dynamics.decompose_s"] = float(t.dur[dec_outer].sum())
    m["dynamics.decompose_self_s"] = t.layer_self("dynamics",
                                                  t.subtree_of(dec_outer))
    m["dynamics.decompose_ms.p50"] = _ms_percentile(dec_d, 50)
    m["dynamics.decompose_ms.p98"] = _ms_percentile(dec_d, 98)
    res_in_dec = t.mask(RESIDUAL) & t.subtree_of(dec_outer)
    m["dynamics.residual_evals_per_decompose"] = (
        float(res_in_dec.sum()) / dec.sum() if dec.sum() else 0.0)
    lift = t.mask(LIFT)
    m["dynamics.lift_calls"] = int(lift.sum())
    m["dynamics.lift_s"] = float(t.dur[t.outermost(lift)].sum())
    m["dynamics.lift_ms.p50"] = _ms_percentile(t.dur[lift], 50)

    fe = t.mask(FREE_ENERGY)
    m["diagnostics.free_energy_calls"] = int(fe.sum())
    m["diagnostics.free_energy_s"] = float(t.dur[t.outermost(fe)].sum())
    m["diagnostics.fit_s"] = float(t.dur[t.outermost(t.mask(FIT))].sum())

    attributed = 0.0
    for layer in LAYERS:
        m[layer + ".self_s"] = t.layer_self(layer)
        attributed += m[layer + ".self_s"]
    m["trace.wall_s"] = traced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - attributed
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.spans"] = int(len(t.name))
    return m


def span_summary(tracer, top=40):
    """Per-name count, inclusive and self time, largest self time first.

    No traced function calls itself, so summing inclusive time per name
    counts no interval twice.
    """
    t = SpanTable(tracer)
    rows = []
    for i, name in enumerate(t.names):
        sel = t.name == i
        if sel.any():
            rows.append({"name": name, "calls": int(sel.sum()),
                         "total_s": float(t.dur[sel].sum()),
                         "self_s": float(t.self_t[sel].sum())})
    rows.sort(key=lambda r: -r["self_s"])
    return rows[:top]
