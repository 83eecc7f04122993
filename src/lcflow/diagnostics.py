"""Norms, energy budget, and per-step records.

Conormal norms: sums of squared L2 (or Linf) norms of repeated tangential
derivatives over all unique multi-indices up to the requested order (the
three operators commute discretely to round-off, so unordered counting is
well defined).  Face fields are averaged to cell centers before any norm is
taken; all L2 quadrature is the midpoint rule, cell volume per center.

All of them come from one walk (_walk) that builds the derivative tree
level by level, each multi-index once from its parent, keeping only the
previous level.  _conormal_sums reduces one walk to the cumulative sums of
every order 0..m (and the sup-type sums up to a requested order), summed in
the walk's order, so a walk to order m gives conormal_norm_sq(f, k) for
every k <= m bit for bit.  conormal_norm_sq, linf_conormal and
conormal_energy are thin wrappers over it; make_record builds the derived
fields (centered u, grad d, grad u, lap d, vorticity) once and walks each
field once, feeding the same private forms the public functions use.

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
                        _wall_tangential, advect_center, center_gradient,
                        curl_center, director_gradient,
                        fill_ghosts_navier_slip, grad_sq_director,
                        laplacian_center, laplacian_face, momentum_forcing,
                        velocity_gradient_center)
from .pressure import pressure_split


# ---------------------------------------------------------------------------
# conormal norms
# ---------------------------------------------------------------------------

def _walk(f: np.ndarray, m: int, grid: ChannelGrid):
    """Yield (|alpha|, Z^alpha f) for all unique multi-indices with
    |alpha| <= m, level by level.

    Each derivative is built from the parent that drops its first active
    direction, so every alpha is computed exactly once: a parent whose
    first active axis is a only adds axes 0..a.  Only the previous level is
    kept; the top level is handed out as it is built and never stored.
    """
    g = np.asarray(f, dtype=float)
    yield 0, g
    level = [(2, g)]            # (last axis a child may add, field)
    for k in range(1, m + 1):
        nxt = []
        for top, g in level:
            for ax in range(top + 1):
                h = conormal_derivative(g, ax, grid)
                yield k, h
                if k < m:
                    nxt.append((ax, h))
        level = nxt


def _conormal_sums(f: np.ndarray, m: int, grid: ChannelGrid, sup: int = -1):
    """One walk of f to order m; returns (l2, linf) cumulative per order.

    l2[k] is the squared L2 conormal norm of order k, the value of
    conormal_norm_sq(f, k, grid).  linf[k], for k <= sup <= m, is the sum of
    squared sup norms whose square root is linf_conormal(f, k, grid); vector
    input (leading axes) takes the pointwise Euclidean magnitude first.
    """
    vol = grid.cell_volume
    l2, linf = [0.0] * (m + 1), [0.0] * (sup + 1)
    total = sup_total = 0.0
    for k, g in _walk(f, m, grid):
        sq = g * g
        total += float(np.sum(sq)) * vol
        l2[k] = total
        if k <= sup:
            if g.ndim > 3:
                mag = np.sqrt(np.sum(sq, axis=tuple(range(g.ndim - 3))))
            else:
                mag = np.abs(g)
            sup_total += float(np.max(mag)) ** 2
            linf[k] = sup_total
    return l2, linf


def _linf(linf, k: int) -> float:
    return float(np.sqrt(linf[k]))


def conormal_norm_sq(f: np.ndarray, m: int, grid: ChannelGrid) -> float:
    """Sum over |alpha| <= m of the squared L2 norm of Z^alpha f; stacked
    leading axes are treated as extra components and summed."""
    if not (0 <= m <= M_MAX):
        raise ConfigError(f"conormal order must be in 0..{M_MAX}, got {m}")
    return _conormal_sums(f, m, grid)[0][m]


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
    return _linf(_conormal_sums(f, k, grid, sup=k)[1], k)


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


def _viscous_dissipation(w: np.ndarray, eps: float, grid: ChannelGrid) -> float:
    """eps |omega|^2 from the centered vorticity w."""
    return eps * grid.cell_volume * float(np.sum(w * w))


def viscous_dissipation(u: FaceField, eps: float, B: SlipMatrixB,
                        grid: ChannelGrid) -> float:
    if eps == 0.0:
        return 0.0
    return _viscous_dissipation(curl_center(u, B, grid), eps, grid)


def _director_dissipation(lap: np.ndarray, grid: ChannelGrid) -> float:
    """|lap d|^2 from the centered Laplacian of d."""
    return grid.cell_volume * float(np.sum(lap * lap))


def director_dissipation(d: np.ndarray, grid: ChannelGrid) -> float:
    return _director_dissipation(laplacian_center(d, grid), grid)


def _quartic_production(grad: np.ndarray, grid: ChannelGrid) -> float:
    """| |grad d|^2 |^2 from the director gradient tensor."""
    q = np.sum(grad * grad, axis=(0, 1))
    return grid.cell_volume * float(np.sum(q * q))


def quartic_production(d: np.ndarray, grid: ChannelGrid) -> float:
    return _quartic_production(director_gradient(d, grid), grid)


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


def _mismatch(w: np.ndarray, uc: np.ndarray, B: SlipMatrixB, n):
    """Tangential components of omega x n + (B u)_tau for the normal n e_z,
    from the centered vorticity w and velocity uc."""
    bu1, bu2 = B.apply(uc[0], uc[1])
    return w[1] * n + bu1, -w[0] * n + bu2


def slip_mismatch_field(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> np.ndarray:
    """chi * (omega x n + (B u)_tau), shape (2, nx, ny, nz).

    n is the outward normal of the nearest wall; the slip boundary
    condition makes the uncut field vanish on the walls, so this measures
    how far the state is from boundary compatibility, localized to the
    wall region by the cutoff.
    """
    zc = grid.z_centers()
    n3 = np.where(zc < 0.5 * grid.lz, -1.0, 1.0)[None, None, :]
    q1, q2 = _mismatch(curl_center(u, B, grid), face_to_center(u), B, n3)
    chi = wall_cutoff(grid)[None, None, :]
    return np.stack([chi * q1, chi * q2])


def _slip_mismatch_trace(w: np.ndarray, uc: np.ndarray, B: SlipMatrixB,
                         grid: ChannelGrid) -> float:
    """slip_mismatch_trace from the centered vorticity and velocity; only
    the two cell layers next to each wall enter the extrapolation."""
    da = grid.hx * grid.hy
    total = 0.0
    for n, layers, which in ((-1.0, [0, 1], "bottom"), (+1.0, [-2, -1], "top")):
        for q in _mismatch(w[..., layers], uc[..., layers], B, n):
            wall = _wall_tangential(q, which)
            total += float(np.sum(wall * wall)) * da
    return float(np.sqrt(total))


def slip_mismatch_trace(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> float:
    """L2 norm over both walls of the one-sided extrapolation of
    omega x n + (B u)_tau onto the wall planes."""
    return _slip_mismatch_trace(curl_center(u, B, grid), face_to_center(u),
                                B, grid)


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


def _grad_u_sums(gu: np.ndarray, m: int, grid: ChannelGrid):
    """One walk of grad u serving both |grad u|_{m-1}^2 and |grad u|_{1,inf}."""
    return _conormal_sums(gu, max(m - 1, 1), grid, sup=1)


def _functional(state: State, eps: float, B: SlipMatrixB, grid: ChannelGrid,
                m: int, time_derivs: int, u_sq: float, gd_sq: float, gu_sums,
                ld: np.ndarray) -> float:
    """conormal_energy from |u|_m^2 and |grad d|_m^2, the walk of grad u
    (_grad_u_sums) and the centered Laplacian ld of d."""
    gu_l2, gu_linf = gu_sums
    total = u_sq
    total += float(np.sum(state.d**2)) * grid.cell_volume
    total += gd_sq
    total += gu_l2[m - 1]
    total += conormal_norm_sq(ld, m - 1, grid)
    total += _linf(gu_linf, 1) ** 2

    if time_derivs:
        ut_c, dt_d = _time_derivatives(state, eps, B, grid)
        total += conormal_norm_sq(ut_c, m - 1, grid)
        total += conormal_norm_sq(director_gradient(dt_d, grid), m - 1, grid)
        if m >= 2:
            l2, linf = _conormal_sums(center_gradient(ut_c, grid), m - 2,
                                      grid, sup=0)
            total += l2[m - 2]
            total += conormal_norm_sq(laplacian_center(dt_d, grid), m - 2, grid)
            total += _linf(linf, 0) ** 2
    return float(total)


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
    return _functional(state, eps, B, grid, m, time_derivs,
                       conormal_norm_sq(uc, m, grid),
                       conormal_norm_sq(director_gradient(state.d, grid), m, grid),
                       _grad_u_sums(center_gradient(uc, grid), m, grid),
                       laplacian_center(state.d, grid))


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
    at this state (0.0 for the initial record or offline recomputation).

    The derived fields are built once and each field is walked through the
    tangential family once; the terms are the private forms of the public
    functions named in the record, applied to those shared arrays.
    """
    eps, m = cfg.eps, cfg.conormal_m
    vol = grid.cell_volume
    p1, p2 = pressure_split(state, eps, grid, cfg.solver_tol)
    er = 0.0
    if prev is not None and dt is not None:
        er = energy_balance_residual(prev, state, dt, eps, B, grid)

    uc = face_to_center(state.u)
    gd = director_gradient(state.d, grid)
    ld = laplacian_center(state.d, grid)
    w = curl_center(state.u, B, grid)
    l2 = {name: _conormal_sums(f, m, grid)[0]
          for name, f in (("u", uc), ("d", state.d), ("grad_d", gd))}
    gu_sums = _grad_u_sums(center_gradient(uc, grid), m, grid)
    conormal = {(name, mm): float(np.sqrt(sums[mm]))
                for name, sums in l2.items() for mm in range(1, m + 1)}

    return DiagnosticsRecord(
        t=state.t,
        kinetic=kinetic_energy(state.u, grid),
        elastic=elastic_energy(state.d, grid),
        # 0.0 at eps == 0, as viscous_dissipation returns without a curl
        visc_diss=_viscous_dissipation(w, eps, grid),
        dir_diss=_director_dissipation(ld, grid),
        quartic=_quartic_production(gd, grid),
        boundary_work=boundary_work(state.u, eps, B, grid),
        energy_residual=er,
        unit_dev=unit_deviation(state.d),
        div_res=float(np.max(np.abs(discrete_divergence(state.u, grid)))),
        nm_value=_functional(state, eps, B, grid, m, cfg.time_derivs,
                             l2["u"][m], l2["grad_d"][m], gu_sums, ld),
        eta_trace=_slip_mismatch_trace(w, uc, B, grid),
        linf_grad_u=_linf(gu_sums[1], 1),
        p1_norm=float(np.sqrt(np.sum(p1 * p1) * vol)),
        p2_norm=float(np.sqrt(np.sum(p2 * p2) * vol)),
        conormal=conormal,
    )
