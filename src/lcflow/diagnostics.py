"""Norms, energy budget, and per-step records.

Conormal norms: sums of squared L2 (or Linf) norms of repeated tangential
derivatives over all unique multi-indices up to the requested order (the
three operators commute discretely to round-off, so unordered counting is
well defined).  Face fields are averaged to cell centers before any norm is
taken; all L2 quadrature is the midpoint rule, cell volume per center.

The energy budget pairs the quantities the scheme actually conserves:
kinetic energy on faces (the quadrature in which advection is exactly
antisymmetric) and elastic energy through the face-difference gradient
(the factorization lap = -G^T G of the centered Laplacian), so the
reported residual reflects the time discretization rather than quadrature
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .errors import ConfigError
from .fields import (FaceField, State, discrete_divergence, discrete_gradient,
                     face_to_center, unit_deviation)
from .grid import M_MAX, ChannelGrid, conormal_derivative
from .operators import (SlipMatrixB, _u_on_v_points, _v_on_u_points,
                        advect_center, center_gradient, curl_center,
                        director_gradient, fill_ghosts_navier_slip,
                        grad_sq_director, laplacian_center, laplacian_face,
                        momentum_forcing, velocity_gradient_center)
from .pressure import pressure_split


# ---------------------------------------------------------------------------
# conormal norms
# ---------------------------------------------------------------------------

def _iter_conormal(f: np.ndarray, m: int, grid: ChannelGrid):
    """Yield Z^alpha f for all unique multi-indices with |alpha| <= m.

    Each field is derived from its parent by applying the first active
    direction, so every alpha is computed exactly once.
    """
    level = {(0, 0, 0): np.asarray(f, dtype=float)}
    yield level[(0, 0, 0)]
    for _ in range(m):
        nxt = {}
        for alpha, g in level.items():
            for ax in range(3):
                beta = list(alpha)
                beta[ax] += 1
                beta = tuple(beta)
                if beta in nxt:
                    continue
                # only build beta from the parent that drops its *first*
                # active axis, so each beta appears once
                first = next(i for i, a in enumerate(beta) if a > 0)
                if ax != first:
                    continue
                nxt[beta] = conormal_derivative(g, ax, grid)
        level = nxt
        yield from level.values()


def conormal_norm_sq(f: np.ndarray, m: int, grid: ChannelGrid) -> float:
    """Sum over |alpha| <= m of the squared L2 norm of Z^alpha f; stacked
    leading axes are treated as extra components and summed."""
    if not (0 <= m <= M_MAX):
        raise ConfigError(f"conormal order must be in 0..{M_MAX}, got {m}")
    vol = grid.cell_volume
    total = 0.0
    for g in _iter_conormal(f, m, grid):
        total += float(np.sum(g * g)) * vol
    return total


def conormal_norm(f: np.ndarray, m: int, grid: ChannelGrid) -> float:
    return float(np.sqrt(conormal_norm_sq(f, m, grid)))


def linf_conormal(f: np.ndarray, k: int, grid: ChannelGrid) -> float:
    """sqrt of the sum over |alpha| <= k of squared sup norms.

    Vector input (leading axes) takes the pointwise Euclidean magnitude
    before the sup.  k is capped low: high tangential orders in sup norm
    are noise amplifiers, not diagnostics.
    """
    if not (0 <= k <= 2):
        raise ConfigError(f"sup-norm conormal order must be 0..2, got {k}")
    total = 0.0
    for g in _iter_conormal(f, k, grid):
        if g.ndim > 3:
            mag = np.sqrt(np.sum(g * g, axis=tuple(range(g.ndim - 3))))
        else:
            mag = np.abs(g)
        total += float(np.max(mag)) ** 2
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# energy pieces
# ---------------------------------------------------------------------------

def kinetic_energy(u: FaceField, grid: ChannelGrid) -> float:
    """(1/2) sum over faces of |u|^2, midpoint quadrature."""
    vol = grid.cell_volume
    return 0.5 * vol * float(np.sum(u.x**2) + np.sum(u.y**2)
                             + np.sum(u.z[:, :, 1:-1]**2))


def elastic_energy(d: np.ndarray, grid: ChannelGrid) -> float:
    """(1/2) |grad d|^2 via face differences (zero flux through walls)."""
    gx = (np.roll(d, -1, axis=-3) - d) / grid.hx
    gy = (np.roll(d, -1, axis=-2) - d) / grid.hy
    gz = (d[..., 1:] - d[..., :-1]) / grid.hz
    vol = grid.cell_volume
    return 0.5 * vol * float(np.sum(gx * gx) + np.sum(gy * gy) + np.sum(gz * gz))


def viscous_dissipation(u: FaceField, eps: float, B: SlipMatrixB,
                        grid: ChannelGrid) -> float:
    if eps == 0.0:
        return 0.0
    w = curl_center(u, B, grid)
    return eps * grid.cell_volume * float(np.sum(w * w))


def director_dissipation(d: np.ndarray, grid: ChannelGrid) -> float:
    lap = laplacian_center(d, grid)
    return grid.cell_volume * float(np.sum(lap * lap))


def quartic_production(d: np.ndarray, grid: ChannelGrid) -> float:
    q = grad_sq_director(d, grid)
    return grid.cell_volume * float(np.sum(q * q))


def boundary_work(u: FaceField, eps: float, B: SlipMatrixB,
                  grid: ChannelGrid) -> float:
    """eps * integral over both walls of (B u)_tau . u_tau.

    Wall values are the ghost/interior averages, i.e. exactly the values at
    which the Robin condition is imposed.
    """
    if eps == 0.0 or B.is_zero:
        return 0.0
    x_ext, y_ext = fill_ghosts_navier_slip(u, B, grid)
    da = grid.hx * grid.hy
    total = 0.0
    for sl_g, sl_i in (((0,), (1,)), ((-1,), (-2,))):
        uw = 0.5 * (x_ext[:, :, sl_g[0]] + x_ext[:, :, sl_i[0]])
        vw = 0.5 * (y_ext[:, :, sl_g[0]] + y_ext[:, :, sl_i[0]])
        vw_on_u = _v_on_u_points(vw[:, :, None])[:, :, 0]
        uw_on_v = _u_on_v_points(uw[:, :, None])[:, :, 0]
        total += float(np.sum(B.b11 * uw**2 + B.b12 * uw * vw_on_u))
        total += float(np.sum(B.b22 * vw**2 + B.b12 * vw * uw_on_v))
    return eps * da * total


def energy_balance_residual(prev: State, nxt: State, dt: float, eps: float,
                            B: SlipMatrixB, grid: ChannelGrid) -> float:
    """Rate-form residual of the energy identity across one step:

        d/dt [ E_kin + E_el ] + visc + dir - quartic + wall_work = r

    with the dissipation/production terms evaluated on midpoint-in-time
    fields.  First order in dt for this scheme.
    """
    de = (kinetic_energy(nxt.u, grid) + elastic_energy(nxt.d, grid)
          - kinetic_energy(prev.u, grid) - elastic_energy(prev.d, grid)) / dt
    um = FaceField(0.5 * (prev.u.x + nxt.u.x), 0.5 * (prev.u.y + nxt.u.y),
                   0.5 * (prev.u.z + nxt.u.z))
    dm = 0.5 * (prev.d + nxt.d)
    return (de
            + viscous_dissipation(um, eps, B, grid)
            + director_dissipation(dm, grid)
            - quartic_production(dm, grid)
            + boundary_work(um, eps, B, grid))


# ---------------------------------------------------------------------------
# slip mismatch (boundary-layer indicator)
# ---------------------------------------------------------------------------

def _smoothstep5(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def wall_cutoff(grid: ChannelGrid) -> np.ndarray:
    """chi(zeta): 1 within lz/8 of a wall, 0 beyond lz/4, quintic blend."""
    zc = grid.z_centers()
    zeta = np.minimum(zc, grid.lz - zc)
    return 1.0 - _smoothstep5((zeta - grid.lz / 8.0) / (grid.lz / 8.0))


def slip_mismatch_field(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> np.ndarray:
    """chi * (omega x n + (B u)_tau), shape (2, nx, ny, nz).

    n is the outward normal of the nearest wall; the slip boundary
    condition makes the uncut field vanish on the walls, so this measures
    how far the state is from boundary compatibility, localized to the
    wall region by the cutoff.
    """
    w = curl_center(u, B, grid)
    uc = face_to_center(u)
    zc = grid.z_centers()
    n3 = np.where(zc < 0.5 * grid.lz, -1.0, 1.0)[None, None, :]
    bu1, bu2 = B.apply(uc[0], uc[1])
    q1 = w[1] * n3 + bu1
    q2 = -w[0] * n3 + bu2
    chi = wall_cutoff(grid)[None, None, :]
    return np.stack([chi * q1, chi * q2])


def slip_mismatch_trace(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> float:
    """L2 norm over both walls of the one-sided extrapolation of
    omega x n + (B u)_tau onto the wall planes."""
    w = curl_center(u, B, grid)
    uc = face_to_center(u)
    bu1, bu2 = B.apply(uc[0], uc[1])
    q1b = w[1] * (-1.0) + bu1
    q2b = -w[0] * (-1.0) + bu2
    q1t = w[1] * (+1.0) + bu1
    q2t = -w[0] * (+1.0) + bu2
    da = grid.hx * grid.hy
    total = 0.0
    for q in (q1b, q2b):
        wall = 1.5 * q[:, :, 0] - 0.5 * q[:, :, 1]
        total += float(np.sum(wall * wall)) * da
    for q in (q1t, q2t):
        wall = 1.5 * q[:, :, -1] - 0.5 * q[:, :, -2]
        total += float(np.sum(wall * wall)) * da
    return float(np.sqrt(total))


def grad_u_linf(u: FaceField, grid: ChannelGrid) -> float:
    """Sup-type conormal norm (order 1) of the velocity gradient tensor."""
    return linf_conormal(velocity_gradient_center(u, grid), 1, grid)


# ---------------------------------------------------------------------------
# combined regularity functional
# ---------------------------------------------------------------------------

def _time_derivatives(state: State, eps: float, B: SlipMatrixB,
                      grid: ChannelGrid):
    """(du/dt at centers, dd/dt at centers) read off the evolution
    equations, with the stored pressure."""
    F = momentum_forcing(state.u, state.d, grid)
    gp = discrete_gradient(state.p, grid)
    lap = laplacian_face(state.u, B, grid)
    ut = FaceField(-F.x - gp.x + eps * lap.x,
                   -F.y - gp.y + eps * lap.y,
                   -F.z - gp.z + eps * lap.z)
    dt_d = (-advect_center(state.u, state.d, grid)
            + laplacian_center(state.d, grid)
            + grad_sq_director(state.d, grid) * state.d)
    return face_to_center(ut), dt_d


def conormal_energy(state: State, eps: float, B: SlipMatrixB,
                    grid: ChannelGrid, m: int, time_derivs: int = 0) -> float:
    """Combined squared-norm functional tracked for uniform boundedness:

        |u|_m^2 + |d|_0^2 + |grad d|_m^2 + |grad u|_{m-1}^2
        + |lap d|_{m-1}^2 + |grad u|_{1,inf}^2

    With time_derivs=1, each Sobolev-type term also counts one time
    derivative (computed by substituting the evolution equations), at one
    order lower in the tangential family.
    """
    if not (1 <= m <= M_MAX):
        raise ConfigError(f"order m must be in 1..{M_MAX}, got {m}")
    uc = face_to_center(state.u)
    gd = director_gradient(state.d, grid)
    gu = velocity_gradient_center(state.u, grid)
    ld = laplacian_center(state.d, grid)
    vol = grid.cell_volume

    total = conormal_norm_sq(uc, m, grid)
    total += float(np.sum(state.d**2)) * vol
    total += conormal_norm_sq(gd, m, grid)
    total += conormal_norm_sq(gu, m - 1, grid)
    total += conormal_norm_sq(ld, m - 1, grid)
    total += linf_conormal(gu, 1, grid) ** 2

    if time_derivs:
        ut_c, dt_d = _time_derivatives(state, eps, B, grid)
        gdt = director_gradient(dt_d, grid)
        total += conormal_norm_sq(ut_c, m - 1, grid)
        total += conormal_norm_sq(gdt, m - 1, grid)
        ldt = laplacian_center(dt_d, grid)
        if m >= 2:
            gten = center_gradient(ut_c, grid)
            total += conormal_norm_sq(gten, m - 2, grid)
            total += conormal_norm_sq(ldt, m - 2, grid)
            total += linf_conormal(gten, 0, grid) ** 2
    return float(total)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsRecord:
    t: float
    kinetic: float
    elastic: float
    visc_diss: float
    dir_diss: float
    quartic: float
    boundary_work: float
    energy_residual: float
    unit_dev: float
    div_res: float
    nm_value: float
    eta_trace: float
    linf_grad_u: float
    p1_norm: float
    p2_norm: float
    conormal: dict = field(default_factory=dict, repr=False)


def make_record(state: State, cfg: SimConfig, grid: ChannelGrid,
                B: SlipMatrixB, prev: State | None = None,
                dt: float | None = None) -> DiagnosticsRecord:
    """Assemble one record.  energy_residual spans the step that *ended*
    at this state (0.0 for the initial record or offline recomputation)."""
    eps = cfg.eps
    vol = grid.cell_volume
    p1, p2 = pressure_split(state, eps, B, grid, cfg.solver_tol)
    er = 0.0
    if prev is not None and dt is not None:
        er = energy_balance_residual(prev, state, dt, eps, B, grid)

    uc = face_to_center(state.u)
    gd = director_gradient(state.d, grid)
    conormal = {}
    for name, f in (("u", uc), ("d", state.d), ("grad_d", gd)):
        for mm in range(1, cfg.conormal_m + 1):
            conormal[(name, mm)] = float(np.sqrt(conormal_norm_sq(f, mm, grid)))

    return DiagnosticsRecord(
        t=state.t,
        kinetic=kinetic_energy(state.u, grid),
        elastic=elastic_energy(state.d, grid),
        visc_diss=viscous_dissipation(state.u, eps, B, grid),
        dir_diss=director_dissipation(state.d, grid),
        quartic=quartic_production(state.d, grid),
        boundary_work=boundary_work(state.u, eps, B, grid),
        energy_residual=er,
        unit_dev=unit_deviation(state.d),
        div_res=float(np.max(np.abs(discrete_divergence(state.u, grid)))),
        nm_value=conormal_energy(state, eps, B, grid, cfg.conormal_m,
                                 cfg.time_derivs),
        eta_trace=slip_mismatch_trace(state.u, B, grid),
        linf_grad_u=grad_u_linf(state.u, grid),
        p1_norm=float(np.sqrt(np.sum(p1 * p1) * vol)),
        p2_norm=float(np.sqrt(np.sum(p2 * p2) * vol)),
        conormal=conormal,
    )
