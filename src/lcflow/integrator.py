"""First-order splitting scheme for the coupled velocity/director system.

Per step, with the state at time t:

  (a) director update: advection and the unit-length reaction term are
      explicit, diffusion is implicit (one zero-flux Helmholtz solve,
      batched over the three components), then the field is renormalized to unit length;
  (b) velocity predictor: the momentum forcing u.grad u + sigma(d)
      (operators.momentum_forcing, the same definition the pressure split
      and the time-derivative diagnostics use) with the *new* director,
      viscosity either explicit or as an implicit Helmholtz solve whose
      wall rows come from the shared slip closure;
  (c) projection onto discretely divergence-free fields, which also
      furnishes the pressure for this step;
  (d) boundary closures are never stored -- each z stencil reads its end
      layers, from the slip matrix or by reflection, when it runs.

The advective CFL bound follows the conservative convention
dt <= safety * min(h) / max(1, |u|_inf); with explicit viscosity the
diffusive bound dt <= 0.9 / (2 eps sum_i h_i^-2) joins in.  When adaptive
stepping is on, violations halve dt down to a floor of dt0/64 before
giving up.
"""

from __future__ import annotations

import numpy as np

from .config import SimConfig
from .diagnostics import DiagnosticsRecord, make_record
from .errors import SimulationError
from .fields import (FaceField, State, init_state, max_face_speed,
                     renormalize_director)
from .grid import ChannelGrid, make_grid
from .operators import (SlipMatrixB, advect_center, director_gradient,
                        grad_sq_director, laplacian_center, laplacian_face,
                        momentum_forcing)
from .pressure import project, solve_helmholtz_neumann, solve_viscous_helmholtz

DT_FLOOR_FACTOR = 64.0


def stable_dt(u: FaceField, cfg: SimConfig, grid: ChannelGrid) -> float:
    """Largest admissible step for the current velocity."""
    hmin = min(grid.hx, grid.hy, grid.hz)
    limit = cfg.cfl_safety * hmin / max(1.0, max_face_speed(u))
    if cfg.eps > 0.0 and not cfg.visc_implicit:
        hsum = grid.hx**-2 + grid.hy**-2 + grid.hz**-2
        limit = min(limit, 0.9 / (2.0 * cfg.eps * hsum))
    return limit


def step(state: State, cfg: SimConfig, grid: ChannelGrid, B: SlipMatrixB,
         dt: float) -> State:
    """Advance one step of size dt.  Returns a new State."""
    u, d, t = state.u, state.d, state.t
    eps = cfg.eps

    # -- (a) director ------------------------------------------------------
    rhs = d + dt * (-advect_center(u, d, grid) + grad_sq_director(d, grid) * d)
    if cfg.forcing_d is not None:
        rhs = rhs + dt * cfg.forcing_d(grid, t)
    d_new = renormalize_director(solve_helmholtz_neumann(rhs, dt, grid),
                                 cfg.renorm_floor)

    # -- (b) velocity predictor -------------------------------------------
    F = momentum_forcing(u, director_gradient(d_new, grid),
                         laplacian_center(d_new, grid), grid)
    fx = -F.x
    fy = -F.y
    fz = -F.z
    if cfg.forcing_u is not None:
        g = cfg.forcing_u(grid, t)
        fx = fx + g.x
        fy = fy + g.y
        fz = fz + g.z
    if eps > 0.0 and not cfg.visc_implicit:
        lap = laplacian_face(u, B, grid)
        fx = fx + eps * lap.x
        fy = fy + eps * lap.y
        fz = fz + eps * lap.z
    us = FaceField(u.x + dt * fx, u.y + dt * fy, u.z + dt * fz)
    us.z[:, :, 0] = 0.0
    us.z[:, :, -1] = 0.0
    # checked before the solves, so a non-finite predictor is reported as
    # a non-finite state and not as a failed pressure solve
    _check_finite(us, d_new, t + dt)
    if eps > 0.0 and cfg.visc_implicit:
        us = solve_viscous_helmholtz(us, eps * dt, B, grid)

    # -- (c) projection ----------------------------------------------------
    u_new, dp = project(us, dt, grid, cfg.solver_tol)

    return State(u=u_new, p=dp, d=d_new, t=t + dt)


def _check_finite(u: FaceField, d: np.ndarray, t: float):
    if not (np.isfinite(u.x).all() and np.isfinite(u.y).all()
            and np.isfinite(u.z).all() and np.isfinite(d).all()):
        raise SimulationError(f"non-finite state at t = {t:.6g}")


def run(cfg: SimConfig, on_record=None):
    """Run the configured simulation.

    Returns (final_state, records, step_count).  Records are taken at step
    0, every diag_every steps, and at the final step.  on_record(state,
    record), if given, is called at each record point (the sweep driver
    uses this to write one checkpoint per record, for the reference and
    every member alike).
    """
    cfg.validate()
    grid = make_grid(cfg)
    B = SlipMatrixB(cfg.b11, cfg.b12, cfg.b22)
    state = init_state(grid, cfg.ic)
    if max_face_speed(state.u) > 0.0:
        state.u, _ = project(state.u, 1.0, grid, cfg.solver_tol)

    records: list[DiagnosticsRecord] = []
    rec = make_record(state, cfg, grid, B)
    records.append(rec)
    if on_record is not None:
        on_record(state, rec)

    tiny = 1e-12 * max(cfg.t_final, 1.0)
    current_dt = cfg.dt
    min_dt = cfg.dt / DT_FLOOR_FACTOR
    nstep = 0
    while state.t < cfg.t_final - tiny:
        dt_step = min(current_dt, cfg.t_final - state.t)
        limit = stable_dt(state.u, cfg, grid)
        while dt_step > limit * (1.0 + 1e-12):
            if not cfg.adaptive_dt:
                raise SimulationError(
                    f"dt = {dt_step:.3e} exceeds the stability limit "
                    f"{limit:.3e} at t = {state.t:.6g} (adaptive stepping off)")
            current_dt *= 0.5
            if current_dt < min_dt:
                raise SimulationError(
                    f"adaptive step underflow: dt fell below dt0/{DT_FLOOR_FACTOR:.0f} "
                    f"= {min_dt:.3e} at t = {state.t:.6g}")
            dt_step = min(current_dt, cfg.t_final - state.t)

        prev = state
        state = step(state, cfg, grid, B, dt_step)
        nstep += 1

        done = state.t >= cfg.t_final - tiny
        if nstep % cfg.diag_every == 0 or done:
            rec = make_record(state, cfg, grid, B, prev, dt_step)
            records.append(rec)
            if on_record is not None:
                on_record(state, rec)

    return state, records, nstep
