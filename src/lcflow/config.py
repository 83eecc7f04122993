"""Run configuration: dataclass, file grammar, canonical hash.

Config files are INI-style: ``[section]`` headers, ``key = value`` pairs,
``#`` comments.  Recognized sections are [grid], [physics], [time], [ic],
[diag] and [sweep]; unknown sections or keys are hard errors (with a
nearest-match suggestion), silent typos in a viscosity ladder are not worth
the debugging time they cost.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError
from .grid import M_MAX, make_grid

# Ladder used when a config has no [sweep] section: 2^-4 .. 2^-10.
DEFAULT_EPS_LADDER = tuple(2.0 ** (-k) for k in range(4, 11))


@dataclass(frozen=True)
class InitialConditionSpec:
    name: str = "rest"
    amplitude: float = 0.1
    twist: float = 0.5
    seed: int = 0
    # the slipflow family shapes its profile to the wall friction, so it
    # needs the diagonal slip coefficient (copied from [physics])
    slip_b11: float = 0.0


@dataclass
class SimConfig:
    """Everything a run needs: one field per key of the file grammar."""

    # [grid]
    nx: int = 0
    ny: int = 0
    nz: int = 0
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.0
    # [physics]
    eps: float = -1.0
    b11: float = 0.0
    b12: float = 0.0
    b22: float = 0.0
    # [time]
    dt: float = 0.0
    t_final: float = -1.0
    cfl_safety: float = 0.4
    adaptive_dt: bool = True
    visc_implicit: bool = False
    # [ic]
    ic_name: str = "rest"
    amplitude: float = 0.1
    twist: float = 0.5
    seed: int = 0
    # [diag]
    diag_every: int = 10
    conormal_m: int = 2
    time_derivs: int = 0
    renorm_floor: float = 1e-8
    solver_tol: float = 1e-11
    # [sweep]
    eps_ladder: tuple = DEFAULT_EPS_LADDER

    @property
    def ic(self) -> InitialConditionSpec:
        return InitialConditionSpec(self.ic_name, self.amplitude, self.twist,
                                    self.seed, slip_b11=self.b11)

    def validate(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ConfigError(f"eps must be in [0,1], got {self.eps}")
        b11, b12, b22 = self.b11, self.b12, self.b22
        # the slip wall dissipates only for a positive semidefinite B; the
        # negated comparisons also reject nan
        if not (math.isfinite(b11) and math.isfinite(b12) and math.isfinite(b22)
                and b11 >= 0 and b22 >= 0 and b11 * b22 >= b12**2):
            raise ConfigError(
                "slip matrix must be finite and positive semidefinite "
                "(b11 >= 0, b22 >= 0, b11*b22 >= b12**2), got "
                f"b11 = {b11}, b12 = {b12}, b22 = {b22}")
        make_grid(self)
        # the negated comparison also rejects nan, which would otherwise
        # switch off the CFL limit or the solver residual check
        for name in ("dt", "cfl_safety", "renorm_floor", "solver_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        if self.renorm_floor >= 1.0:    # would refuse the unit director
            raise ConfigError(
                f"renorm_floor must be in (0, 1), got {self.renorm_floor}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ConfigError(
                f"t_final must be >= 0 and finite, got {self.t_final}")
        if self.ic_name not in ("rest", "shear+twist", "slipflow", "random-solenoidal"):
            raise ConfigError(f"unknown initial condition '{self.ic_name}'")
        for name in ("amplitude", "twist"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        for name in ("seed", "time_derivs", "conormal_m", "diag_every"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.time_derivs not in (0, 1):
            raise ConfigError("time_derivs must be 0 or 1")
        if not (1 <= self.conormal_m <= M_MAX):
            raise ConfigError(f"conormal_m must be in 1..{M_MAX}")
        if self.diag_every < 1:
            raise ConfigError("diag_every must be >= 1")
        ladder = self.eps_ladder
        if len(ladder) == 0:
            raise ConfigError("eps ladder is empty")
        for e in ladder:
            if not (0.0 < e <= 1.0):
                raise ConfigError(f"ladder entries must be in (0, 1], got {e}")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError(f"eps ladder must be strictly decreasing: {ladder}")
        return self


def _to_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_ladder(s: str) -> tuple:
    vals = tuple(float(tok) for tok in s.replace(",", " ").split())
    if not vals:
        raise ValueError("empty ladder")
    return vals


# section -> its keys; each sets the SimConfig field of its name ([ic] name
# sets ic_name) and parses as that field's default does
_SCHEMA = {
    "grid": ("nx", "ny", "nz", "lx", "ly", "lz"),
    "physics": ("eps", "b11", "b12", "b22"),
    "time": ("dt", "t_final", "cfl_safety", "adaptive_dt", "visc_implicit"),
    "ic": ("name", "amplitude", "twist", "seed"),
    "diag": ("diag_every", "conormal_m", "time_derivs", "renorm_floor",
             "solver_tol"),
    "sweep": ("eps_ladder",),
}

_REQUIRED = [("grid", "nx"), ("grid", "ny"), ("grid", "nz"),
             ("physics", "eps"), ("time", "dt"), ("time", "t_final")]


def _suggest(name: str, known) -> str:
    close = difflib.get_close_matches(name, list(known), n=1, cutoff=0.5)
    return f", did you mean '{close[0]}'?" if close else ""


def parse_config(text: str) -> SimConfig:
    """Parse config text into a validated SimConfig.

    Unknown sections/keys, missing required keys, malformed values and
    out-of-range parameters all raise ConfigError with a pointed message.
    """
    cp = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, strict=True,
    )
    cp.optionxform = str  # keep key case as written
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e

    cfg = SimConfig()
    seen = set()
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section '[{section}]'{_suggest(section, _SCHEMA)}")
        keys = _SCHEMA[section]
        for key, raw in cp.items(section):
            if key not in keys:
                raise ConfigError(
                    f"unknown key '{key}' in [{section}]{_suggest(key, keys)}")
            attr = "ic_name" if key == "name" else key
            kind = type(getattr(SimConfig, attr))
            conv = {bool: _to_bool, tuple: _to_ladder}.get(kind, kind)
            try:
                setattr(cfg, attr, conv(raw))
            except ValueError as e:
                raise ConfigError(
                    f"bad value for '{key}' in [{section}]: {raw!r} ({e})") from e
            seen.add((section, key))

    missing = [f"'{k}' in [{s}]" for s, k in _REQUIRED if (s, k) not in seen]
    if missing:
        raise ConfigError("missing required key " + ", ".join(missing))
    return cfg.validate()


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(cfg: SimConfig) -> bytes:
    """sha256 over the canonical field listing (stable across sessions)."""
    parts = [f"{f.name}={getattr(cfg, f.name)!r}"
             for f in sorted(fields(cfg), key=lambda f: f.name)]
    return hashlib.sha256("\n".join(parts).encode()).digest()
