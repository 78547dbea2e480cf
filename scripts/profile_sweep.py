"""Sweep the profile family over a log-spaced b grid and fit the residual
scaling slopes.

Usage:
    python scripts/profile_sweep.py --b-min 1e-7 --b-max 1e-3 --n 5 \
        --out runs/profile_sweep.json
"""

import argparse
import json
import math

import numpy as np

from kslab.cli import profile_grid_for
from kslab.profiles import build_profile_family


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--b-min", type=float, default=1e-7)
    ap.add_argument("--b-max", type=float, default=1e-3)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--nodes-per-decade", type=int, default=48)
    ap.add_argument("--out", default="runs/profile_sweep.json")
    args = ap.parse_args()

    rows = []
    for b in np.geomspace(args.b_min, args.b_max, args.n):
        grid = profile_grid_for(float(b), args.nodes_per_decade)
        fam = build_profile_family(grid, float(b))
        row = {"b": float(b), "c_b": fam.c_b, "B0": fam.B0, "B1": fam.B1,
               "mass_excess": fam.mass_excess, **fam.norm_report}
        rows.append(row)
        print("b=%.2e  c_b*|log b|/2=%.4f  psi1_sq=%.3e  flux=%.3e"
              % (b, fam.c_b * abs(math.log(b)) / 2,
                 row["psi1_sq"], row["degenerate_flux_B0"]))

    lb = np.log([r["b"] for r in rows])
    slopes = {key: float(np.polyfit(lb, np.log([abs(r[key]) for r in rows]), 1)[0])
              for key in ("psi1_sq", "grad_psi2_sq", "degenerate_flux_B0",
                          "L1_sq_over_Q", "gradM1_sq_Q")}
    print("fitted log-log slopes:", json.dumps(slopes, indent=2))
    import os
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"rows": rows, "slopes": slopes}, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main()
