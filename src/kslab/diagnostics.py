"""Physical functionals, inequality verifiers and blow-up law fitting.

The free energy E(u,v) = int u log u + int u v + 1/2 int |grad v|^2 is the
Lyapunov functional of the flow; its scaling defect M(2 - M/4pi) log(lambda)
makes the problem almost energy critical.  The logarithmic HLS inequality
bounds it from below at critical mass with the stationary bubble as the
unique minimizer (sharp constant M[log M - 1 - log pi]).  A weighted Hardy
suite backs the coercivity machinery, and fit_rate_law turns recorded
modulation histories into the predicted blow-up law coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    FieldPair,
    RadialField,
    laplacian_values,
    poisson_field,
    potential_from_gradient,
)

ENTROPY_FLOOR = 1.0e-30


class DiagnosticsError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyReport:
    mass: float
    free_energy: float
    entropy: float
    interaction: float
    dirichlet: float
    floored_mass: float  # mass carried by nodes clipped at the entropy floor


def free_energy(pair: FieldPair) -> EnergyReport:
    """Free energy and its pieces; E = entropy + interaction - 1/2 int v lap v.

    The potential is recovered from the stored gradient with the convolution
    normalization, so that E(Q, phi_Q) reproduces the critical-mass lower
    bound exactly.  The quadratic term is evaluated as
    1/2 int |grad v|^2 - pi R v(R) v'(R): for decaying potentials this is the
    Dirichlet form, while for mass-carrying states (v ~ (M/2pi) log r) the
    boundary flux cancels the logarithmically divergent tail, which is what
    the whole-plane functional does implicitly.
    """
    g = pair.grid
    w = 2.0 * np.pi * g.quad_weights
    u = pair.density.values
    if np.min(u) < -1e-8 * max(np.max(np.abs(u)), 1.0):
        raise DiagnosticsError("density significantly negative: free energy "
                               "undefined")
    gv = pair.chem_gradient.values
    v = potential_from_gradient(pair.chem_gradient).values
    mass = float(w @ u)
    clipped = np.maximum(u, ENTROPY_FLOOR)
    entropy = float(w @ (u * np.log(clipped)))
    floored = float(w @ (u * (u < ENTROPY_FLOOR)))
    interaction = float(w @ (u * v))
    dirichlet = float(w @ gv ** 2)
    boundary = np.pi * g.r_max * v[-1] * gv[-1]
    return EnergyReport(mass=mass,
                        free_energy=(entropy + interaction
                                     + 0.5 * dirichlet - boundary),
                        entropy=entropy, interaction=interaction,
                        dirichlet=dirichlet, floored_mass=floored)


def loghls_bound(mass: float) -> float:
    """Sharp lower bound M [log M - 1 - log pi] of the log-HLS functional."""
    return mass * (np.log(mass) - 1.0 - np.log(np.pi))


def check_logHLS(u: RadialField):
    """Both sides of int u log u + (4 pi / M) int phi_u u >= M[log M - 1 - log pi].

    Returns (lhs, rhs, margin); the margin vanishes exactly on the scaling
    family of the ground state.
    """
    g = u.grid
    w = 2.0 * np.pi * g.quad_weights
    uv = u.values
    if np.min(uv) < -1e-12 * max(np.max(np.abs(uv)), 1.0):
        raise DiagnosticsError("log-HLS requires a nonnegative density")
    mass = float(w @ uv)
    phi = potential_from_gradient(poisson_field(u)).values
    entropy = float(w @ (uv * np.log(np.maximum(uv, ENTROPY_FLOOR))))
    lhs = entropy + (4.0 * np.pi / mass) * float(w @ (uv * phi))
    rhs = loghls_bound(mass)
    return lhs, rhs, lhs - rhs


# -- weighted Hardy suite -------------------------------------------------------

def _wmask(grid, vals):
    """Zero the r=0 node of a singular weight; its cell carries O(1/|log h|)
    of the integral and only ever weakens the left-hand sides."""
    out = np.array(vals)
    out[0] = 0.0
    return out


def check_hardy_suite(v: RadialField) -> dict:
    """Evaluate both sides of the weighted Hardy inequalities.

    Reports {name: (lhs, rhs, ratio)} with ratio = rhs/lhs for the
    'lhs <= C rhs' family (finite measured constant) and lhs/rhs for the
    sharp-constant bound.  The weights are fixed: the power bound has
    exponent alpha = 0 (sharp constant 1), the gamma variant gamma = 1, and
    the log-weighted integrals run over r <= R = r_max/2.
    """
    g = v.grid
    r = g.nodes
    w = 2.0 * np.pi * g.quad_weights
    inR = r <= 0.5 * g.r_max
    vv = v.values
    dv = g.diff_matrix(1, v.parity) @ vv
    d2v = g.diff_matrix(2, v.parity) @ vv
    dv_r = np.concatenate([[0.0], dv[1:] / r[1:]])
    # an even field's Laplacian has the limit 2 v''(0) at the origin; where
    # the origin is singular, only v'' is kept there
    lap = laplacian_values(g, vv) if v.parity == "even" else d2v + dv_r
    dlap = g.diff_matrix(1, "none") @ lap
    with np.errstate(divide="ignore"):
        logw = (1.0 + np.abs(np.log(np.where(r > 0, r, 1.0)))) ** 2
    report = {}

    # sharp power-weight bound: int r^2 |v'|^2 >= int v^2
    lhs = float(w @ (r ** 2 * dv ** 2))
    rhs = float(w @ vv ** 2)
    report["power"] = {"lhs": lhs, "rhs": rhs,
                       "ratio": lhs / rhs if rhs else np.inf, "sharp": 1.0}

    # log weight: int_{r<=R} v^2/(r^2(1+|log r|)^2) <= C [int_{1<r<2} v^2 + int |v'|^2]
    lhs = float(w @ _wmask(g, inR * vv ** 2 / np.where(r > 0, r ** 2, 1.0) / logw))
    ring = (r >= 1.0) & (r <= 2.0)
    rhs = float(w @ (ring * vv ** 2)) + float(w @ (inR * dv ** 2))
    report["log"] = {"lhs": lhs, "rhs": rhs, "constant": lhs / rhs}

    # gamma = 1 variant on r >= 1
    out1 = (r >= 1.0) & inR
    lhs = float(w @ (out1 * vv ** 2 / np.where(r > 0, r ** 3, 1.0) / logw))
    rhs = (float(w @ (ring * vv ** 2))
           + float(w @ (out1 * dv ** 2 / np.where(r > 0, r, 1.0) / logw)))
    report["log_gamma"] = {"lhs": lhs, "rhs": rhs, "constant": lhs / rhs}

    # level 1: v^2/(r^2(1+r^4)log^2) <= C [ |v'|^2/(r^4 log^2) - v^2/(1+r^8) ]
    lhs = float(w @ _wmask(g, vv ** 2 / np.where(r > 0, r ** 2, 1.0)
                           / (1.0 + r ** 4) / logw))
    rhs = (float(w @ _wmask(g, dv ** 2 / np.where(r > 0, r ** 4, 1.0) / logw))
           - float(w @ (vv ** 2 / (1.0 + r ** 8))))
    report["level1"] = {"lhs": lhs, "rhs": rhs,
                        "constant": lhs / rhs if rhs > 0 else np.inf}

    # level 2: grad/hessian controlled by the laplacian (constant 1)
    hess_sq = d2v ** 2 + dv_r ** 2
    lhs = (float(w @ _wmask(g, dv ** 2 / np.where(r > 0, r ** 4, 1.0) / logw))
           + float(w @ _wmask(g, hess_sq / np.where(r > 0, r ** 2, 1.0) / logw)))
    rhs = float(w @ _wmask(g, lap ** 2 / np.where(r > 0, r ** 2, 1.0) / logw))
    report["level2"] = {"lhs": lhs, "rhs": rhs, "constant": lhs / rhs}

    # level 3: log-weighted laplacian controlled by its gradient
    lhs = (float(w @ _wmask(g, lap ** 2 / np.where(r > 0, r ** 2, 1.0) / logw))
           - float(w @ (lap ** 2 / (1.0 + r ** 4))))
    rhs = float(w @ dlap ** 2)
    report["level3"] = {"lhs": lhs, "rhs": rhs,
                        "constant": lhs / rhs if rhs else np.inf}
    return report


# -- rate-law fitting ------------------------------------------------------------

# fit_rate_law fits the trailing FIT_WINDOW_FRACTION of the samples and
# accepts a law whose relative residual is at most FIT_REJECT_RESIDUAL
FIT_WINDOW_FRACTION = 0.5
FIT_REJECT_RESIDUAL = 0.005


def fit_rate_law(series) -> dict:
    """Least-squares fits of the predicted modulation laws on a recorded run.

    (a) b_hat(s) * 2s against log s - log log s (coefficient -> 1);
    (b) -lambda_s/lambda against b_hat (slope -> 1);
    (c) the integrated proxy -lambda lambda_t e^{2 sqrt|log lambda|},
        reported as min/max over the last third (bounded positive).

    `series` needs attributes s, b_hat, lam as arrays (duck-typed); samples
    without a lifted b_hat (NaN) are dropped.  The fit uses the trailing
    FIT_WINDOW_FRACTION of samples; a relative residual above
    FIT_REJECT_RESIDUAL marks the law as not matched.
    """
    b_hat = np.asarray(series.b_hat, dtype=float)
    lifted = np.isfinite(b_hat)
    b_hat = b_hat[lifted]
    s = np.asarray(series.s, dtype=float)[lifted]
    lam = np.asarray(series.lam, dtype=float)[lifted]
    if len(s) < 8:
        raise DiagnosticsError("insufficient samples for a rate fit")
    if s[-1] / max(s[0], 1e-300) < np.sqrt(10.0):
        raise DiagnosticsError("insufficient dynamic range for a rate fit")
    i0 = np.searchsorted(s, s[-1] * (1.0 - FIT_WINDOW_FRACTION))
    i0 = min(i0, len(s) - 8)
    sw, bw, lw = s[i0:], b_hat[i0:], lam[i0:]
    if np.any(sw <= 1.0):
        raise DiagnosticsError("rate fit needs s > 1 on the fit window")

    x = np.log(sw) - np.log(np.log(sw))
    y = 2.0 * sw * bw
    coef = float((x @ y) / (x @ x))
    resid = float(np.linalg.norm(y - coef * x) / np.linalg.norm(y))

    logl = np.log(lw)
    lam_s = -np.gradient(logl, sw)  # -lambda_s/lambda
    slope = float((bw @ lam_s) / (bw @ bw))

    tail = slice(2 * len(sw) // 3, None)
    proxy = lam_s[tail] * np.exp(2.0 * np.sqrt(np.abs(np.log(lw[tail]))))
    return {
        "ode_coefficient": coef,
        "ode_residual": resid,
        "accepted": bool(resid <= FIT_REJECT_RESIDUAL),
        "lambda_slope": slope,
        "proxy_min": float(np.min(proxy)),
        "proxy_max": float(np.max(proxy)),
    }
