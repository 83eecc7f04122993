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
from dataclasses import dataclass, field, fields

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
    """Everything a run needs; parsed from file or built directly in tests.

    ``forcing_u`` / ``forcing_d`` are programmatic hooks (callables of
    ``(grid, t)``) used by manufactured-solution studies; they are not part
    of the file grammar and are excluded from the config hash.
    """

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
    div_tol: float = 1e-10
    unit_tol: float = 1e-12
    renorm_floor: float = 1e-8
    solver_tol: float = 1e-11
    # [sweep]
    eps_ladder: tuple = DEFAULT_EPS_LADDER
    # test hooks, not persisted
    forcing_u: object = field(default=None, repr=False, compare=False)
    forcing_d: object = field(default=None, repr=False, compare=False)

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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            raise ConfigError(
                f"t_final must be >= 0 and finite, got {self.t_final}")
        if self.ic_name not in ("rest", "shear+twist", "slipflow", "random-solenoidal"):
            raise ConfigError(f"unknown initial condition '{self.ic_name}'")
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


# section -> {key: (attr, converter)}
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


_SCHEMA = {
    "grid": {
        "nx": ("nx", int), "ny": ("ny", int), "nz": ("nz", int),
        "lx": ("lx", float), "ly": ("ly", float), "lz": ("lz", float),
    },
    "physics": {
        "eps": ("eps", float),
        "b11": ("b11", float), "b12": ("b12", float), "b22": ("b22", float),
    },
    "time": {
        "dt": ("dt", float), "t_final": ("t_final", float),
        "cfl_safety": ("cfl_safety", float),
        "adaptive_dt": ("adaptive_dt", _to_bool),
        "visc_implicit": ("visc_implicit", _to_bool),
    },
    "ic": {
        "name": ("ic_name", str), "amplitude": ("amplitude", float),
        "twist": ("twist", float), "seed": ("seed", int),
    },
    "diag": {
        "diag_every": ("diag_every", int), "conormal_m": ("conormal_m", int),
        "time_derivs": ("time_derivs", int),
        "div_tol": ("div_tol", float), "unit_tol": ("unit_tol", float),
        "renorm_floor": ("renorm_floor", float), "solver_tol": ("solver_tol", float),
    },
    "sweep": {
        "eps_ladder": ("eps_ladder", _to_ladder),
    },
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
            attr, conv = keys[key]
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
    parts = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        if f.name in ("forcing_u", "forcing_d"):
            continue
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    return hashlib.sha256("\n".join(parts).encode()).digest()
