"""Run configuration: parsing, validation, defaults.

A config sets fields of `dynamics.EvolveParams` plus the size and seed of
the initial perturbation.  Configs are flat key=value text with section
prefixes (profile.b0=..., solver.s_max=...) or the same structure as JSON.
Validation collects every violated constraint into a machine-readable list
instead of stopping at the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .dynamics import EvolveParams, RunSetup, SimulationError
from .grid import GridError
from .operators import OperatorError, phi_m_degeneracy, phi_m_problem
from .profiles import B0_MAX, B_MIN, ProfileError, localization_problem


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def to_json(self):
        return json.dumps({"error": "invalid configuration",
                           "violations": self.violations}, indent=2)


# config key -> EvolveParams field
PARAM_KEYS = {
    "grid.r_max": "r_max",          # 0: derived from profile.b0 and M
    "grid.h_core": "h_core",
    "grid.nodes_per_decade": "nodes_per_decade",
    "grid.stencil_order": "stencil_order",
    "profile.b0": "b0",
    "profile.M": "M_param",
    "solver.ds_init": "ds_init",
    "solver.ds_max": "ds_max",
    "solver.db_rel_cap": "db_rel_cap",
    "solver.lam_stop": "lam_stop",
    "solver.t_max": "t_max",
    "solver.s_max": "s_max",
    "solver.b_min": "b_min",
    "output.cadence": "cadence",
}
# config key -> RunConfig field
PERTURBATION_KEYS = {"perturbation.delta": "delta",
                     "perturbation.seed": "seed"}
# the only keys that may be infinite: no time limit
UNBOUNDED_KEYS = ("solver.t_max", "solver.s_max")
# coarsest geometric tail a grid may have
MIN_NODES_PER_DECADE = 12
# widest stencil a run grid may have: the library uses orders 4 and 6; on
# the default run grid the radiation identities fail from order 28 on, and
# at order 150 the stencil weights overflow
MAX_STENCIL_ORDER = 16


def config_params():
    """EvolveParams with the two defaults a config run overrides.

    The library's lam_stop = 0 and s_max = inf never stop a run: it goes
    on until b reaches b_min (the criterion-10 protocol runs past lam = 0.5
    that way) or leaves the range its grid can localize.  A config run
    stops at lam = 0.5 or s = 2000 unless the config sets them.
    """
    return EvolveParams(lam_stop=0.5, s_max=2000.0)


@dataclass
class RunConfig:
    """A run's parameters and perturbation; `validate` builds the run's
    `dynamics.RunSetup` and keeps it as `setup`, for the run to reuse."""

    params: EvolveParams = field(default_factory=config_params)
    delta: float = 0.0
    seed: int = 0
    setup: RunSetup = field(default=None, repr=False, compare=False)

    def _slot(self, key):
        """(object, attribute) that a config key sets; KeyError if unknown."""
        if key in PARAM_KEYS:
            return self.params, PARAM_KEYS[key]
        return self, PERTURBATION_KEYS[key]

    def validate(self):
        """Collect every violated constraint; raise ConfigError if any.

        The last check is the run's setup build (`dynamics.RunSetup`),
        asked only when every other constraint holds.  Its failure is one
        violation, which names the setup keys (the grid.* and profile.*
        keys) whose values differ from their defaults, in PARAM_KEYS
        order: the default setup builds, so at least one is named.
        """
        v = []
        for key in (*PARAM_KEYS, *PERTURBATION_KEYS):
            x = getattr(*self._slot(key))
            if isinstance(x, float) and (math.isnan(x) or (
                    math.isinf(x) and key not in UNBOUNDED_KEYS)):
                v.append("%s must be finite, got %s" % (key, x))
        p = self.params
        in_regime = B_MIN <= p.b0 <= B0_MAX
        if not in_regime:
            v.append("profile.b0 must lie in [%g, %g] (asymptotic regime "
                     "guard)" % (B_MIN, B0_MAX))
        problem = phi_m_degeneracy(p.M_param)
        if problem:
            v.append("profile." + problem)
        if p.h_core <= 0:
            v.append("grid.h_core must be positive")
        if p.nodes_per_decade < MIN_NODES_PER_DECADE:
            v.append("grid.nodes_per_decade must be >= %d"
                     % MIN_NODES_PER_DECADE)
        if not 2 <= p.stencil_order <= MAX_STENCIL_ORDER:
            v.append("grid.stencil_order must lie in [2, %d]"
                     % MAX_STENCIL_ORDER)
        if p.r_max < 0:
            v.append("grid.r_max must be positive, or 0 to derive it")
        if p.r_max > 0:
            for problem in (in_regime
                            and localization_problem(p.r_max, p.b0),
                            phi_m_problem(p.r_max, p.M_param)):
                if problem:
                    v.append("grid.r_max: " + problem)
        if p.db_rel_cap <= 0 or p.db_rel_cap > 1.0e-3:
            v.append("solver.db_rel_cap must lie in (0, 1e-3]")
        if p.ds_init <= 0:
            v.append("solver.ds_init must be positive")
        if p.ds_max <= 0:
            v.append("solver.ds_max must be positive")
        if not 0.0 <= self.delta <= 1.0e-3:
            v.append("perturbation.delta must lie in [0, 1e-3]")
        if self.seed < 0:
            v.append("perturbation.seed must be >= 0")
        if p.cadence < 1:
            v.append("output.cadence must be >= 1")
        if not v:
            try:
                self.setup = RunSetup(p)
            except (SimulationError, ProfileError, GridError,
                    OperatorError) as exc:
                default = config_params()
                keys = [key for key, name in PARAM_KEYS.items()
                        if key.startswith(("grid.", "profile."))
                        and getattr(p, name) != getattr(default, name)]
                v.append("%s: %s" % (", ".join(keys), exc))
        if v:
            raise ConfigError(v)
        return self

    def to_dict(self):
        """{"section": {"key": value}}, the structure of a JSON config."""
        out = {}
        for key in (*PARAM_KEYS, *PERTURBATION_KEYS):
            section, name = key.split(".")
            out.setdefault(section, {})[name] = getattr(*self._slot(key))
        return out


def _coerce(current, raw):
    """raw (config text or a JSON value) as the type of the field's current
    value; ValueError if it does not convert.  An int field takes an
    integral number only."""
    if isinstance(raw, str):
        return type(current)(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, int) and (isinstance(raw, int)
                                         or raw.is_integer()):
            return int(raw)
    raise ValueError("expected %s" % type(current).__name__)


def _assign(cfg, key, raw):
    """Set a config key from its raw value; the violation, or None."""
    try:
        target, name = cfg._slot(key)
    except KeyError:
        return "unknown key %r" % key
    try:
        setattr(target, name, _coerce(getattr(target, name), raw))
    except (ValueError, OverflowError):
        return "cannot parse value %r for %s" % (raw, key)
    return None


def parse_config_text(text: str) -> RunConfig:
    """Flat key=value lines: 'section.key = value'; '#' starts a comment."""
    cfg = RunConfig()
    violations = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append("line %d: expected key=value" % lineno)
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        problem = _assign(cfg, key, raw)
        if problem:
            violations.append("line %d: %s" % (lineno, problem))
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config_json(text: str) -> RunConfig:
    """The same structure as JSON: {"section": {"key": value}}, values
    converted as in the text form."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(["malformed JSON: %s" % exc]) from None
    if not isinstance(data, dict):
        raise ConfigError(["a JSON config must be an object of sections"])
    cfg = RunConfig()
    violations = []
    for section, entries in data.items():
        if not isinstance(entries, dict):
            violations.append("section %r must be an object" % section)
            continue
        for name, value in entries.items():
            problem = _assign(cfg, "%s.%s" % (section, name), value)
            if problem:
                violations.append(problem)
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_config_json(text)
    return parse_config_text(text)
