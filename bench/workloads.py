"""The three benchmark workloads: inputs from a seed, the timed section, and
the correctness checks against ``reference.json``.

Each workload is a closed loop: one caller, one run at a time.  ``setup``
builds the inputs (the part a user pays before the first timed call),
``run`` is the timed section, ``check`` compares its outputs with stored
reference values by tolerance, and ``work`` counts the units behind the
``throughput`` metric.

Checks are grouped into operations; an operation fails if any of its checks
fails or if the timed section raised.  ``checksum`` hashes the numeric
outputs for information only: it is expected to change whenever the
arithmetic is reordered, which the tolerance checks allow.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
from scipy.interpolate import CubicSpline

from kslab import cli, diagnostics, dynamics, operators, profiles
from kslab.grid import FieldPair

# -- collapse: the criterion-10 protocol from perturbed profile data -----------

COLLAPSE_PARAMS = dict(b0=1e-2, M_param=11.0, cadence=10, b_min=5e-3,
                       s_max=2000.0)
COLLAPSE_DELTA = 1e-4
COLLAPSE_TRIES = 20


def collapse_params():
    return dynamics.EvolveParams(**COLLAPSE_PARAMS)


def collapse_setup(seed):
    """Sample a positive perturbation of size delta, as ``kslab simulate``."""
    params = collapse_params()
    grid = dynamics.dynamics_grid(params)
    rng = np.random.default_rng(seed)
    for _ in range(COLLAPSE_TRIES):
        cand = dynamics.random_perturbation(grid, COLLAPSE_DELTA, rng)
        try:
            dynamics.initial_state(grid, params, cand)
        except dynamics.SimulationError:
            continue
        return {"params": params, "perturbation": cand}
    raise dynamics.SimulationError("no positive perturbation found")


def collapse_run(inputs, outdir):
    series = dynamics.evolve(inputs["params"],
                             perturbation=inputs["perturbation"])
    laws = dynamics.measure_laws(series)
    try:
        fit = diagnostics.fit_rate_law(series)
    except diagnostics.DiagnosticsError as exc:
        fit = {"error": str(exc)}
    series.to_csv(os.path.join(outdir, "timeseries.csv"))
    mass = series.column("mass")
    return {
        "status": series.status,
        "records": len(series),
        "final": {"s": float(series.s[-1]), "lam": float(series.lam[-1]),
                  "b": float(series.b[-1])},
        "mass_drift": float(np.max(np.abs(mass - mass[0])) / mass[0]),
        "ratio_b_final": (float(laws["ratio_b"][-1])
                          if len(laws["ratio_b"]) else None),
        "rate_fit_accepted": bool(fit.get("accepted", False)),
        "cadence": inputs["params"].cadence,
        "_arrays": [np.asarray(series.rows, dtype=float)],
    }


def collapse_work(out):
    """Steps at record granularity: cadence * (records - 1).

    Records are taken at step 0, every ``cadence`` steps and once more at
    the stopping step, so this is the step count rounded up to a multiple
    of the cadence (exact count: ``dynamics.steps`` in the traced run).
    """
    return out["cadence"] * (out["records"] - 1)


def collapse_ops():
    return ["collapse"]


def collapse_check(out, ref):
    checks = [
        _check("status", out["status"], ref["status"],
               out["status"] == ref["status"]),
        _check("mass_drift", out["mass_drift"], ref["mass_drift_max"],
               out["mass_drift"] < ref["mass_drift_max"]),
        _check("records", out["records"], ref["records"],
               abs(out["records"] - ref["records"]) <= ref["records_tol"]),
    ]
    for key, spec in ref["final"].items():
        val = out["final"][key]
        checks.append(_check("final_" + key, val, spec["value"],
                             _close(val, spec["value"], spec["rtol"])))
    return [("collapse", checks)]


# -- profile_sweep: full family builds on fresh grids ------------------------------

SWEEP_B_RANGE = (1e-9, 1e-3)
SWEEP_N = 25
SLOPE_KEYS = ("psi1_sq", "grad_psi2_sq", "degenerate_flux_B0")


def sweep_b_values(seed, n=SWEEP_N, b_range=SWEEP_B_RANGE):
    """One b per equal slice of log b, placed uniformly inside its slice."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(b_range[0]), math.log(b_range[1])
    u = rng.uniform(size=n)
    return [math.exp(lo + (k + u[k]) * (hi - lo) / n) for k in range(n)]


def sweep_setup(seed):
    return {"b": sweep_b_values(seed)}


def sweep_run(inputs, outdir):
    rows = []
    for b in inputs["b"]:
        grid = cli.profile_grid_for(b)
        fam = profiles.build_profile_family(grid, b)
        rows.append({"b": b, "nodes": grid.n, "c_b": fam.c_b,
                     **{k: float(fam.norm_report[k]) for k in SLOPE_KEYS}})
    return {"rows": rows, "slopes": sweep_slopes(rows),
            "_arrays": [np.array([[r["c_b"]] + [r[k] for k in SLOPE_KEYS]
                                  for r in rows])]}


def sweep_slopes(rows, window=None):
    """log-log slopes of the residual norms against b (criterion 6)."""
    if window is not None:
        rows = [r for r in rows if window[0] <= r["b"] <= window[1]]
    if len(rows) < 2:
        return {k: float("nan") for k in SLOPE_KEYS}
    lb = np.log([r["b"] for r in rows])
    return {k: float(np.polyfit(lb, np.log([abs(r[k]) for r in rows]), 1)[0])
            for k in SLOPE_KEYS}


def sweep_work(out):
    return len(out["rows"])


def sweep_ops():
    return ["c_b[%d]" % i for i in range(SWEEP_N)] + ["slopes"]


def sweep_check(out, ref):
    table = ref["c_b_table"]
    ops = []
    for i, row in enumerate(out["rows"]):
        want = reference_c_b(table, row["b"])
        ops.append(("c_b[%d]" % i, [
            _check("c_b(b=%.6e)" % row["b"], row["c_b"], want,
                   _close(row["c_b"], want, ref["c_b_rtol"]))]))
    window = ref["slope_window"]
    slopes = sweep_slopes(out["rows"], window)
    checks = []
    for key, (target, tol) in ref["slopes"].items():
        val = slopes[key]
        checks.append(_check("slope_%s[%g,%g]" % (key, *window), val, target,
                             bool(abs(val - target) < tol)))
    ops.append(("slopes", checks))
    return ops


def reference_c_b(table, b):
    """c_b from the stored table: cubic in log b through c_b |log b| / 2."""
    lb = np.asarray(table["log_b"])
    scaled = np.asarray(table["c_b"]) * np.abs(lb) / 2.0
    x = math.log(b)
    return float(CubicSpline(lb, scaled)(x)) * 2.0 / abs(x)


# -- spectral: coercivity certificates on the criterion-8 fine grid ---------------

SPECTRAL_M = (50.0, 100.0, 200.0)
SPECTRAL_GRID = dict(nodes_per_decade=48, h_core=0.05)
SPECTRAL_KEYS = ("delta0_M_hat", "delta0_L_hat", "c_M", "PhiM_LambdaQ",
                 "alignment")


def spectral_setup(seed):
    return {"M": list(SPECTRAL_M)}


def spectral_run(inputs, outdir):
    rows = []
    for M in inputs["M"]:
        grid = operators.operator_grid(M, **SPECTRAL_GRID)
        lvl1 = profiles.build_t1_s1(grid)
        phim = operators.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))
        bundle = operators.OperatorBundle(grid)
        cm = operators.coercivity_M(bundle)
        cl = operators.coercivity_L(bundle, phim)
        kg = operators.kernel_gap(bundle)
        rows.append({"M": M, "nodes": grid.n,
                     "delta0_M_hat": cm["delta0_M_hat"],
                     "delta0_L_hat": cl["delta0_L_hat"],
                     "c_M": phim.c_M,
                     "PhiM_LambdaQ": phim.report["PhiM_LambdaQ"],
                     "alignment": kg["alignment"], "gap": kg["gap"]})
    return {"rows": rows,
            "_arrays": [np.array([[r[k] for k in SPECTRAL_KEYS + ("gap",)]
                                  for r in rows])]}


def spectral_work(out):
    return len(out["rows"])


def spectral_ops():
    return ["M=%g" % M for M in SPECTRAL_M]


def spectral_check(out, ref):
    ops = []
    for row in out["rows"]:
        want = ref["M"]["%g" % row["M"]]
        checks = [
            _check("delta0_M_hat>0", row["delta0_M_hat"], 0.0,
                   row["delta0_M_hat"] > 0),
            _check("delta0_L_hat>0", row["delta0_L_hat"], 0.0,
                   row["delta0_L_hat"] > 0),
            _check("alignment>%g" % ref["alignment_min"], row["alignment"],
                   ref["alignment_min"], row["alignment"] > ref["alignment_min"]),
            _check("gap>%g" % ref["gap_min"], row["gap"], ref["gap_min"],
                   row["gap"] > ref["gap_min"]),
        ]
        for key in SPECTRAL_KEYS:
            checks.append(_check(key, row[key], want[key],
                                 _close(row[key], want[key], ref["rtol"])))
        ops.append(("M=%g" % row["M"], checks))
    return ops


# -- registry and shared helpers ---------------------------------------------------

WORKLOADS = {
    "collapse": dict(setup=collapse_setup, run=collapse_run,
                     check=collapse_check, work=collapse_work,
                     ops=collapse_ops, work_unit="steps"),
    "profile_sweep": dict(setup=sweep_setup, run=sweep_run, check=sweep_check,
                          work=sweep_work, ops=sweep_ops,
                          work_unit="families"),
    "spectral": dict(setup=spectral_setup, run=spectral_run,
                     check=spectral_check, work=spectral_work,
                     ops=spectral_ops, work_unit="certificates"),
}


def checksum(out):
    """sha256 of the numeric outputs (information only, not a check)."""
    h = hashlib.sha256()
    for arr in out["_arrays"]:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _close(val, want, rtol):
    return bool(np.isfinite(val) and abs(val - want) <= rtol * abs(want))


def _check(name, value, reference, ok):
    return {"name": name, "ok": bool(ok), "value": value,
            "reference": reference}
