"""Run configuration: parsing, validation, defaults.

Configs are flat key=value text with section prefixes (grid.N=..., solver.b0=...)
or the same structure as JSON.  Validation collects every violated constraint
into a machine-readable list instead of stopping at the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def to_json(self):
        return json.dumps({"error": "invalid configuration",
                           "violations": self.violations}, indent=2)


@dataclass
class GridSection:
    r_max: float = 0.0          # 0: derived from profile.b0
    h_core: float = 0.02
    nodes_per_decade: int = 48
    stencil_order: int = 4


@dataclass
class ProfileSection:
    b0: float = 1.0e-2
    M: float = 11.0


@dataclass
class SolverSection:
    ds_init: float = 1.0e-3
    ds_max: float = 0.5
    db_rel_cap: float = 1.0e-3
    lam_stop: float = 0.5
    t_max: float = float("inf")
    s_max: float = 2000.0
    b_min: float = 0.0
    frame: str = "rescaled"


@dataclass
class PerturbationSection:
    delta: float = 0.0
    seed: int = 0
    count: int = 1


@dataclass
class OutputSection:
    dir: str = "runs"
    cadence: int = 10


@dataclass
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    profile: ProfileSection = field(default_factory=ProfileSection)
    solver: SolverSection = field(default_factory=SolverSection)
    perturbation: PerturbationSection = field(default_factory=PerturbationSection)
    output: OutputSection = field(default_factory=OutputSection)

    def validate(self):
        """Collect every violated constraint; raise ConfigError if any."""
        v = []
        g, p, s = self.grid, self.profile, self.solver
        if not 0.0 < p.b0 <= 1.0e-2:
            v.append("profile.b0 must lie in (0, 1e-2] (asymptotic regime guard)")
        if p.M < 2.0:
            v.append("profile.M too small: the pairing direction degenerates")
        if g.h_core <= 0:
            v.append("grid.h_core must be positive")
        if g.nodes_per_decade < 12:
            v.append("grid.nodes_per_decade must be >= 12")
        if g.stencil_order < 2:
            v.append("grid.stencil_order must be >= 2")
        if g.r_max > 0 and 0.0 < p.b0 <= 1e-2:
            B1 = abs(math.log(p.b0)) / math.sqrt(p.b0)
            if g.r_max < 4.0 * B1:
                v.append("grid.r_max below the localization guard 4*B1 = %.1f"
                         % (4.0 * B1))
        if g.r_max > 0 and g.r_max < 3.0 * p.M:
            v.append("grid.r_max too small to resolve the pairing window 2M")
        if s.db_rel_cap <= 0 or s.db_rel_cap > 1.0e-3:
            v.append("solver.db_rel_cap must lie in (0, 1e-3]")
        if s.ds_max <= 0:
            v.append("solver.ds_max must be positive")
        if s.frame not in ("rescaled", "physical"):
            v.append("solver.frame must be 'rescaled' or 'physical'")
        if not 0.0 <= self.perturbation.delta <= 1.0e-3:
            v.append("perturbation.delta must lie in [0, 1e-3]")
        if self.perturbation.count < 0:
            v.append("perturbation.count must be nonnegative")
        if self.output.cadence < 1:
            v.append("output.cadence must be >= 1")
        if v:
            raise ConfigError(v)
        return self

    def to_dict(self):
        return asdict(self)


_SECTIONS = {
    "grid": GridSection,
    "profile": ProfileSection,
    "solver": SolverSection,
    "perturbation": PerturbationSection,
    "output": OutputSection,
}


def _coerce(current, raw):
    """raw (config text or a JSON value) as the type of the field's current
    value; ValueError if it does not convert.  An int field takes an
    integral number only."""
    if isinstance(raw, str):
        if isinstance(current, bool):
            return raw.lower() in ("1", "true", "yes")
        return type(current)(raw)
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if isinstance(current, bool):
        if isinstance(raw, bool):
            return raw
    elif isinstance(current, float) and number:
        return float(raw)
    elif isinstance(current, int) and number and (
            isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    raise ValueError("expected %s" % type(current).__name__)


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
        if "." not in key:
            violations.append("line %d: key %r lacks a section prefix"
                              % (lineno, key))
            continue
        section, name = key.split(".", 1)
        target = getattr(cfg, section, None)
        if section not in _SECTIONS or target is None:
            violations.append("line %d: unknown section %r" % (lineno, section))
            continue
        if not hasattr(target, name):
            violations.append("line %d: unknown key %r in section %r"
                              % (lineno, name, section))
            continue
        try:
            setattr(target, name, _coerce(getattr(target, name), raw))
        except ValueError:
            violations.append("line %d: cannot parse value %r for %s"
                              % (lineno, raw, key))
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
        target = getattr(cfg, section, None)
        if section not in _SECTIONS or target is None:
            violations.append("unknown section %r" % section)
            continue
        if not isinstance(entries, dict):
            violations.append("section %r must be an object" % section)
            continue
        for name, value in entries.items():
            if not hasattr(target, name):
                violations.append("unknown key %r in section %r" % (name, section))
                continue
            try:
                setattr(target, name, _coerce(getattr(target, name), value))
            except (ValueError, OverflowError):
                violations.append("cannot parse value %r for %s.%s"
                                  % (value, section, name))
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
