"""Shared fixtures.

The manufactured-solution convergence study needs two full runs (16^3 and
32^3, 1250 steps each, 34 s in all on a 2-core Xeon host with
OPENBLAS_NUM_THREADS=1), so it is computed once per session and shared by
the integrator tests and the acceptance suite.  The runs call
integrator.step directly, with the manufactured forcing, sampled once per
grid, as its forcing argument; run, config files and the CLI have no way
to set one.
"""

import numpy as np
import pytest

from lcflow import SimConfig
from lcflow.fields import State
from lcflow.grid import make_grid
from lcflow.integrator import step
from lcflow.operators import SlipMatrixB

MMS_EPS = 0.05
MMS_DT = 2e-3
MMS_T_FINAL = 2.5


def _mms_run(n):
    from mms_tools import build_forcing, exact_state_fields

    cfg = SimConfig(nx=n, ny=n, nz=n, eps=MMS_EPS, b11=0.0, b12=0.0, b22=0.0,
                    dt=MMS_DT, t_final=MMS_T_FINAL, adaptive_dt=False,
                    visc_implicit=False)
    grid = make_grid(cfg)
    B = SlipMatrixB(0.0, 0.0, 0.0)
    forcing = build_forcing(MMS_EPS, grid)
    uf, _, dc = exact_state_fields(grid)
    state = State(u=uf, p=np.zeros(grid.shape), d=dc, t=0.0)
    for _ in range(round(MMS_T_FINAL / MMS_DT)):
        state = step(state, cfg, grid, B, MMS_DT, forcing=forcing)
    return grid, state


@pytest.fixture(scope="session")
def mms_study():
    """dict with per-resolution (e_u, e_p, e_d) and the observed orders.

    The runs start from the exact solution sampled on the staggered grid
    and march to t = 2.5 with explicit viscosity, so the final state is the
    dt-independent discrete fixed point and the errors measure pure spatial
    discretization error.
    """
    from mms_tools import mms_errors

    errors = {}
    for n in (16, 32):
        grid, state = _mms_run(n)
        errors[n] = mms_errors(grid, state)
    orders = {name: float(np.log2(errors[16][i] / errors[32][i]))
              for i, name in enumerate(("u", "p", "d"))}
    return {"errors": errors, "orders": orders}
