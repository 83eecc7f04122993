"""Finite-difference simulator for a liquid-crystal channel flow with
Navier-slip walls, plus the diagnostics and viscosity-sweep harness built
around it."""

from .config import (DEFAULT_EPS_LADDER, InitialConditionSpec, SimConfig,
                     config_hash, load_config, parse_config)
from .diagnostics import DiagnosticsRecord, make_record
from .errors import ConfigError, SimulationError
from .fields import (FaceField, State, discrete_divergence, discrete_gradient,
                     face_to_center, init_state, renormalize_director)
from .grid import ChannelGrid, conormal_weight, make_grid
from .integrator import run, stable_dt, step
from .io import (read_checkpoint, read_diag_csv, read_sweep_csv,
                 write_checkpoint, write_diag_csv, write_rate_report,
                 write_sweep_csv)
from .operators import SlipMatrixB
from .pressure import pressure_split, project, solve_poisson_neumann
from .sweep import (SweepResult, error_norms, fit_rate, remainder_norms,
                    run_sweep)

__version__ = "0.1.0"

__all__ = [
    "ChannelGrid", "ConfigError", "DEFAULT_EPS_LADDER", "DiagnosticsRecord",
    "FaceField", "InitialConditionSpec", "SimConfig", "SimulationError",
    "SlipMatrixB", "State", "SweepResult", "config_hash", "conormal_weight",
    "discrete_divergence", "discrete_gradient", "error_norms", "face_to_center",
    "fit_rate", "init_state", "load_config", "make_grid", "make_record",
    "parse_config", "pressure_split", "project", "read_checkpoint",
    "read_diag_csv", "read_sweep_csv", "remainder_norms",
    "renormalize_director", "run", "run_sweep", "solve_poisson_neumann",
    "stable_dt", "step", "write_checkpoint", "write_diag_csv",
    "write_rate_report", "write_sweep_csv",
]
