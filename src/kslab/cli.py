"""Batch command line interface.

Subcommands:
    profile build --b <list>     construct the profile family, emit JSON + CSV
    spectral check --M <list>    operator pairings and coercivity report
    simulate --config <file>     one modulated run -> timeseries.csv + summary.json
    sweep --config <file>        parallel runs over a b0 grid, merged summary
    verify-bounds --suite <name> inequality/identity suites -> JSON verdict

Outputs land under --out (or $KSLAB_OUT, default ./runs); --out may be given
before or after the subcommand.  All randomness flows through one seeded
generator recorded in the summaries, so identical configs reproduce
bit-identical files.  The list-valued flags (--b, --M, --b0) take
comma-separated positive numbers; profile build and spectral check treat
each value as its own run and exit with the worst status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import diagnostics, dynamics, operators, profiles
from .config import MIN_NODES_PER_DECADE, ConfigError, RunConfig, load_config
from .grid import FieldPair, RadialField, RadialGrid, field_to_csv, max_radius

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDS = 2

# evolve statuses of runs that ended early on a breakdown
FAILED_STATUSES = ("modulation_failed", "grid_exhausted", "nonfinite")

# a one-dimensional kernel along Lambda Q: the ground mode aligns with it
# and the second mode lies orders of magnitude above
KERNEL_ALIGNMENT_MIN = 0.99
KERNEL_GAP_MIN = 100.0

# what a validated run can raise before its first step (no positive
# perturbation, a failed first decomposition: its model Newton can leave
# the profile table); simulate and sweep reject the run with its message.
# The setup build itself is a config check (`RunConfig.validate`).
START_ERRORS = (dynamics.SimulationError, profiles.ProfileError)

# a family's residual is out of family unless |Psi1|^2 is at most this
# times b^5 (the coarse expected scaling |Psi1|^2 ~ b^5, generous constant)
PSI1_SQ_FLAG = 1e6
# criterion 5's band for c_b |log b|/2
C_B_BAND = (0.8, 1.2)
# the stencil order of the `profile build` grid, which bounds --r-max
PROFILE_ORDER = 6


def _out_root(args):
    root = args.out or os.environ.get("KSLAB_OUT", "runs")
    os.makedirs(root, exist_ok=True)
    return root


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def profile_grid_for(b, r_max=None):
    """The grid of `profile build` at b: radius r_max, by default 4.5 B1(b)
    (the localization guard 4 B1 with a margin).  A b outside the family's
    range is rejected before the grid is built."""
    profiles.check_b_range(b)
    return RadialGrid.make(r_max or 4.5 * profiles.localization_radius(b),
                           h_core=0.05, nodes_per_decade=48,
                           stencil_order=PROFILE_ORDER)


def _out_of_family(norm_report, b):
    """Whether a family's residual at b, by its norm report, is out of
    family; a NaN residual is."""
    return not norm_report["psi1_sq"] <= PSI1_SQ_FLAG * b ** 5


def _float_list(flag, text):
    """Comma-separated positive finite numbers; ValueError naming the flag."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(x) and x > 0 for x in values):
        raise ValueError("%s: expected comma-separated positive finite "
                         "numbers, got %r" % (flag, text))
    return values


def cmd_profile_build(args) -> int:
    return max(_profile_build(args, b) for b in args.b)


def _profile_build(args, b) -> int:
    try:
        grid = profile_grid_for(b, args.r_max)
        fam = profiles.build_profile_family(grid, b)
    except (profiles.ProfileError, ValueError) as exc:
        _dump_json(os.path.join(_out_root(args), "profile_error.json"),
                   {"error": str(exc)})
        print("profile build rejected: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    root = _out_root(args)
    outdir = os.path.join(root, "profile_b%.3e" % b)
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "b": fam.b, "B0": fam.B0, "B1": fam.B1, "c_b": fam.c_b,
        "c1": fam.c1, "c2": fam.c2, "beta": list(fam.beta),
        "mass_excess": fam.mass_excess,
        "norm_report": fam.norm_report,
    }
    _dump_json(os.path.join(outdir, "profile.json"), payload)
    field_to_csv(fam.level1.T1, os.path.join(outdir, "T1.csv"))
    field_to_csv(fam.level1.S1_grad, os.path.join(outdir, "S1grad.csv"))
    field_to_csv(fam.level2.T2, os.path.join(outdir, "T2.csv"))
    field_to_csv(fam.level2.S2_grad, os.path.join(outdir, "S2grad.csv"))
    field_to_csv(fam.Psi1, os.path.join(outdir, "Psi1.csv"))
    field_to_csv(fam.Psi2_grad, os.path.join(outdir, "Psi2grad.csv"))
    if _out_of_family(fam.norm_report, fam.b):
        print("profile residual out of family", file=sys.stderr)
        return EXIT_BOUNDS
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# the grid of `spectral check` (its defaults) and of the spectral suite
SPECTRAL_GRID = {"nodes_per_decade": 32, "h_core": 0.1}


def coercivity_chain(M, nodes_per_decade, h_core):
    """Phi_M on `operator_grid(M)` and the coercivity constants of M and L
    there: (phim, bundle, coercivity_M, coercivity_L).  OperatorError if M
    or its grid cannot carry Phi_M."""
    grid = operators.operator_grid(M, nodes_per_decade=nodes_per_decade,
                                   h_core=h_core)
    lvl1 = profiles.build_t1_s1(grid)
    phim = operators.build_phi_m(grid, M, FieldPair(lvl1.T1, lvl1.S1_grad))
    bundle = operators.OperatorBundle(grid)
    return (phim, bundle, operators.coercivity_M(bundle),
            operators.coercivity_L(bundle, phim))


def cmd_spectral(args) -> int:
    return max(_spectral(args, M) for M in args.M)


def _spectral(args, M) -> int:
    try:
        phim, bundle, cm, cl = coercivity_chain(
            M, args.nodes_per_decade, args.h_core)
        kg = operators.kernel_gap(bundle)
    except operators.OperatorError as exc:
        print("spectral check rejected: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "M": M,
        "pairing": {"PhiM_T1": phim.report["PhiM_T1"],
                    "PhiM_LambdaQ": phim.report["PhiM_LambdaQ"]},
        "c_M": phim.c_M,
        "delta0_M_hat": cm["delta0_M_hat"],
        "delta0_L_hat": cl["delta0_L_hat"],
        "delta0_L_normalized": cl["normalized"],
        "modes_cut": cl["modes_cut"],
        "kernel_gap": {"mu0": kg["mu0"], "mu1": kg["mu1"], "gap": kg["gap"],
                       "alignment": kg["alignment"]},
    }
    path = os.path.join(_out_root(args), "spectral_M%g.json" % M)
    _dump_json(path, payload)
    print(json.dumps(payload, sort_keys=True))
    if kg["alignment"] <= KERNEL_ALIGNMENT_MIN or kg["gap"] <= KERNEL_GAP_MIN:
        print("kernel lost: alignment %.4f (needs > %g), gap %.3g (needs > %g)"
              % (kg["alignment"], KERNEL_ALIGNMENT_MIN, kg["gap"],
                 KERNEL_GAP_MIN), file=sys.stderr)
        return EXIT_BOUNDS
    return EXIT_OK


def run_one(cfg: RunConfig, outdir, seed_offset=0):
    """Execute one run of a validated config on its setup; returns the
    summary dictionary."""
    os.makedirs(outdir, exist_ok=True)
    seed = cfg.seed + seed_offset
    pert = None
    if cfg.delta > 0:
        pert = cfg.setup.sample_perturbation(cfg.delta,
                                             np.random.default_rng(seed))
    series = cfg.setup.run(pert)
    series.to_csv(os.path.join(outdir, "timeseries.csv"))
    summary = {
        "status": series.status,
        "seed": seed,
        "config": cfg.to_dict(),
        "records": len(series),
        "final": {"s": float(series.s[-1]), "t": float(series.t[-1]),
                  "lam": float(series.lam[-1]), "b": float(series.b[-1])},
        "laws": _law_summary(series),
        "mass_drift": float(np.max(np.abs(series.column("mass")
                                          - series.column("mass")[0]))
                            / series.column("mass")[0]),
        "counters": series.counters,
    }
    if series.status in FAILED_STATUSES:
        summary["reason"] = series.reason
    try:
        # the laws are stated in the bubble's time, not the frame's s
        fit = diagnostics.fit_rate_law(SimpleNamespace(
            s=dynamics.bubble_time(series), b_hat=series.b_hat,
            lam=series.lam))
        summary["rate_fit"] = fit
    except diagnostics.DiagnosticsError as exc:
        summary["rate_fit"] = {"error": str(exc)}
    _dump_json(os.path.join(outdir, "summary.json"), summary)
    return summary


def _law_summary(series):
    """The measured modulation laws (`dynamics.measure_laws`) in numbers:
    (a) the scale law's final ratio, and its median and largest deviation
    from 1 after the first quarter of the records; (b) the b-law ratio's
    start, mean and final value; (c) the floor of -(lam^{4/3})_t."""
    laws = dynamics.measure_laws(series)
    ra, rb, rate = laws["ratio_a"], laws["ratio_b"], laws["rate_lam43"]
    late = ra[len(ra) // 4:]
    return {
        "ratio_a_final": float(ra[-2]) if len(series) > 2 else None,
        "ratio_a_median": float(np.median(late)),
        "ratio_a_max_dev": float(np.max(np.abs(late - 1.0))),
        "ratio_b_start": float(rb[0]) if len(rb) else None,
        "ratio_b_mean": float(np.mean(rb)) if len(rb) else None,
        "ratio_b_final": float(rb[-1]) if len(rb) else None,
        "rate_lam43_floor": float(np.min(rate)) if len(rate) else None,
    }


def _valid_configs(path, b0_values):
    """The config at path, validated at each b0 of b0_values (at its own
    b0 for None), or None after reporting why not."""
    try:
        cfg = load_config(path)
        return [replace(cfg, params=replace(cfg.params, b0=b0)).validate()
                for b0 in b0_values or [cfg.params.b0]]
    except FileNotFoundError:
        print("config file not found: %s" % path, file=sys.stderr)
    except ConfigError as exc:
        print(exc.to_json(), file=sys.stderr)
    return None


def cmd_simulate(args) -> int:
    cfgs = _valid_configs(args.config, None)
    if cfgs is None:
        return EXIT_USAGE
    outdir = os.path.join(_out_root(args), args.name or "run")
    try:
        summary = run_one(cfgs[0], outdir)
    except START_ERRORS as exc:
        print("simulate rejected: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"outdir": outdir, "status": summary["status"]}))
    return EXIT_BOUNDS if summary["status"] in FAILED_STATUSES else EXIT_OK


def cmd_sweep(args) -> int:
    # each run's setup is built here, by validation, and sent to its worker
    cfgs = _valid_configs(args.config, args.b0)
    if cfgs is None:
        return EXIT_USAGE
    root = _out_root(args)
    outdirs = [os.path.join(root, "sweep_b%.3e" % cfg.params.b0)
               for cfg in cfgs]
    if len(set(outdirs)) < len(outdirs):
        print("--b0: two values share one run directory", file=sys.stderr)
        return EXIT_USAGE
    seed_offsets = range(len(cfgs))
    # a fork pool starts all its workers at the first submit
    workers = min(args.workers, len(cfgs))
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                summaries = list(pool.map(run_one, cfgs, outdirs,
                                          seed_offsets))
        else:
            summaries = list(map(run_one, cfgs, outdirs, seed_offsets))
    except START_ERRORS as exc:
        print("sweep rejected: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    merged = {"runs": summaries,
              "all_ok": all(s["status"] not in FAILED_STATUSES
                            for s in summaries)}
    _dump_json(os.path.join(root, "merged_summary.json"), merged)
    print(json.dumps({"n": len(summaries), "all_ok": merged["all_ok"]}))
    return EXIT_OK if merged["all_ok"] else EXIT_BOUNDS


def cmd_verify_bounds(args) -> int:
    suite = args.suite
    verdict = {"suite": suite, "checks": {}}
    ok = True
    if suite == "hardy":
        grid = RadialGrid.reference()
        r = grid.nodes
        battery = {
            "gauss": RadialField(grid, np.exp(-r ** 2)),
            "wide_gauss": RadialField(grid, np.exp(-r ** 2 / 9.0)),
            "r_exp": RadialField(grid, r * np.exp(-r), "none"),
        }
        for name, v in battery.items():
            rep = diagnostics.check_hardy_suite(v)
            verdict["checks"][name] = {
                k: {kk: float(vv) for kk, vv in d.items()}
                for k, d in rep.items()}
            if rep["power"]["ratio"] < rep["power"]["sharp"] - 1e-9:
                ok = False
    elif suite == "loghls":
        grid = RadialGrid.reference()
        r = grid.nodes
        q = operators.q_density
        battery = [q(r), 0.25 * q(0.5 * r), 4.0 * q(2.0 * r),
                   q(r) * (1 + 0.3 * np.exp(-(r - 1.5) ** 2)),
                   np.exp(-r ** 2)]
        for i, u in enumerate(battery):
            lhs, rhs, margin = diagnostics.check_logHLS(RadialField(grid, u))
            verdict["checks"]["u%d" % i] = {"lhs": lhs, "rhs": rhs,
                                            "margin": margin}
            if margin < -1e-6 * max(abs(rhs), 1.0):
                ok = False
    elif suite == "profiles":
        for b in (1e-3, 1e-4, 1e-5):
            grid = profile_grid_for(b)
            fam = profiles.build_profile_family(grid, b)
            ratio = fam.c_b * abs(math.log(b)) / 2.0
            verdict["checks"]["b%.0e" % b] = {
                "c_b_times_halflog": ratio,
                **{k: float(v) for k, v in fam.norm_report.items()}}
            if (not C_B_BAND[0] <= ratio <= C_B_BAND[1]
                    or _out_of_family(fam.norm_report, b)):
                ok = False
    elif suite == "spectral":
        phim, _, cm, cl = coercivity_chain(50.0, **SPECTRAL_GRID)
        verdict["checks"] = {"delta0_M_hat": cm["delta0_M_hat"],
                             "delta0_L_hat": cl["delta0_L_hat"],
                             "PhiM_T1": phim.report["PhiM_T1"]}
        ok = cm["delta0_M_hat"] > 0 and cl["delta0_L_hat"] > 0
    else:
        print("unknown suite %r" % suite, file=sys.stderr)
        return EXIT_USAGE
    verdict["ok"] = bool(ok)
    _dump_json(os.path.join(_out_root(args), "verify_%s.json" % suite), verdict)
    print(json.dumps({"suite": suite, "ok": ok}))
    return EXIT_OK if ok else EXIT_BOUNDS


def build_parser():
    out_help = "output root (default $KSLAB_OUT or ./runs)"
    ap = argparse.ArgumentParser(prog="kslab",
                                 description="radial chemotaxis blow-up laboratory")
    ap.add_argument("--out", default=None, help=out_help)
    # --out is also accepted after any subcommand; SUPPRESS keeps a value
    # given before the subcommand when none is given after it
    out_after = argparse.ArgumentParser(add_help=False)
    out_after.add_argument("--out", default=argparse.SUPPRESS, help=out_help)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile family operations",
                       parents=[out_after])
    psub = p.add_subparsers(dest="subcommand", required=True)
    pb = psub.add_parser("build", help="construct the family at each b",
                         parents=[out_after])
    pb.add_argument("--b", required=True, help="comma-separated b list")
    pb.add_argument("--r-max", type=float, default=None)
    pb.set_defaults(func=cmd_profile_build)

    spct = sub.add_parser("spectral", help="linearized operator certification",
                          parents=[out_after])
    ssub = spct.add_subparsers(dest="subcommand", required=True)
    sc = ssub.add_parser("check", parents=[out_after])
    sc.add_argument("--M", required=True, help="comma-separated M list")
    sc.add_argument("--nodes-per-decade", type=int)
    sc.add_argument("--h-core", type=float)
    sc.set_defaults(func=cmd_spectral, **SPECTRAL_GRID)

    sim = sub.add_parser("simulate", help="one modulated run",
                         parents=[out_after])
    sim.add_argument("--config", required=True)
    sim.add_argument("--name", default=None)
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="parallel b0 sweep",
                        parents=[out_after])
    sw.add_argument("--config", required=True)
    sw.add_argument("--b0", default=None, help="comma-separated b0 list")
    sw.add_argument("--workers", type=int, default=2)
    sw.set_defaults(func=cmd_sweep)

    vb = sub.add_parser("verify-bounds", help="inequality suites",
                        parents=[out_after])
    vb.add_argument("--suite", required=True,
                    choices=["hardy", "loghls", "profiles", "spectral"])
    vb.set_defaults(func=cmd_verify_bounds)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("b", "M", "b0"):  # the list-valued flags
            if getattr(args, flag, None) is not None:
                setattr(args, flag, _float_list("--" + flag,
                                                getattr(args, flag)))
        for flag in ("h_core", "r_max"):  # grid sizes
            x = getattr(args, flag, None)
            if x is not None and not (math.isfinite(x) and x > 0):
                raise ValueError("--%s: expected a positive finite number, "
                                 "got %r" % (flag.replace("_", "-"), x))
        if (getattr(args, "r_max", None)
                and args.r_max > max_radius(PROFILE_ORDER)):
            raise ValueError("--r-max: must be at most %.3g, the largest "
                             "radius of stencil order %d, got %g"
                             % (max_radius(PROFILE_ORDER), PROFILE_ORDER,
                                args.r_max))
        if (getattr(args, "nodes_per_decade", MIN_NODES_PER_DECADE)
                < MIN_NODES_PER_DECADE):
            raise ValueError("--nodes-per-decade: must be >= %d, got %d"
                             % (MIN_NODES_PER_DECADE, args.nodes_per_decade))
        if getattr(args, "workers", 1) < 1:
            raise ValueError("--workers: must be >= 1, got %d" % args.workers)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
