"""Norms, energy budget, and per-step records.

Conormal norms: sums of squared L2 (or Linf) norms of repeated tangential
derivatives over all unique multi-indices up to the requested order (the
three operators commute discretely to round-off, so unordered counting is
well defined).  Face fields are averaged to cell centers before any norm is
taken; all L2 quadrature is the midpoint rule, cell volume per center.

All of them come from one walk (_walk) that builds the derivative tree
level by level, each multi-index once from its parent, keeping only the
previous level.  _conormal_sums reduces walks to the cumulative sums of
every order 0..m (and the sup-type sums up to a requested order).  A
stacked field is walked one component at a time, in C order of its leading
axes, so every walked member is one single-component array and the working
set of a walk is a few of them.  The L2 sums add member by member, in walk
order and then component order, so a walk to order m holds the order-k
sums of a walk to k, for every k <= m, bit for bit; for a stack they may
differ at round-off from summing the squares of whole-stack members.  The
sup sums add each member's squares across components in component order,
the arithmetic of np.sum over the leading axes, so they are bit-identical
to the whole-stack form.  A record is the one assembly of the per-state
diagnostics: make_record derives each field of the state once (centered u,
grad d, |grad d|^2, grad u, lap d, vorticity, momentum forcing F), walks
each once, and computes the functional, the budget rates (_budget_rates),
the sup norm of grad u and the slip trace from them.  The functional is a
sum over one list of walked terms (_functional_terms) plus |d|_0^2 and the
grad u walk that the sup norm shares.  F serves both the pressure split and
the time derivatives of the functional.

The energy budget pairs the quantities the scheme actually conserves:
kinetic energy on faces (the quadrature in which advection is exactly
antisymmetric) and elastic energy through the face-difference gradient
(the factorization lap = -G^T G of the centered Laplacian), so the
reported residual reflects the time discretization rather than quadrature
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .errors import ConfigError
from .fields import (FaceField, State, discrete_divergence, discrete_gradient,
                     face_to_center, unit_deviation)
from .grid import ChannelGrid, _shift_diff, conormal_derivative
from .operators import (SlipMatrixB, _slip_ghost_rows, _u_on_v_points,
                        _v_on_u_points, _wall_tangential, advect_center,
                        center_gradient, curl_center, director_gradient,
                        grad_sq_director, laplacian_center, laplacian_face,
                        momentum_forcing)
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

    l2[k] is the squared L2 conormal norm of order k: the sum over
    |alpha| <= k of the squared L2 norm of Z^alpha f, stacked leading axes
    summed as extra components.  linf[k], for k <= sup <= m, is the sum of
    squared sup norms whose square root is the order-k sup norm;
    vector input (leading axes) takes the pointwise Euclidean magnitude first.

    Stacked leading axes are walked one component at a time, in C order, so
    the walk's working set is a few single-component arrays.  Each member's
    sum of squares times the cell volume is added to l2[k] for every k at
    or above its order, in walk order and then component order; a walk to
    m thus holds every shorter walk's l2 bit for bit.  For the sup orders
    each member's squares are added across components in component order,
    the arithmetic of np.sum over the leading axes, so linf is bit-identical
    to the whole-stack form; stacked l2 may differ from a whole-stack sum of
    squares at round-off, scalar l2 does not.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-3:] != grid.shape:
        raise ConfigError(f"field shape {f.shape} does not end in {grid.shape}")
    vol = grid.cell_volume
    l2, linf = [0.0] * (m + 1), [0.0] * (sup + 1)
    buf = np.empty(grid.shape)
    sups = []          # per member of order <= sup: [order, |g| or sum of g^2]
    for c, comp in enumerate(f.reshape((-1,) + grid.shape)):
        for i, (k, g) in enumerate(_walk(comp, m, grid)):
            s = float(np.sum(np.multiply(g, g, out=buf))) * vol
            for j in range(k, m + 1):
                l2[j] += s
            if k > sup:
                continue
            if c == 0:
                sups.append([k, np.abs(g) if f.ndim == 3 else buf.copy()])
            else:
                sups[i][1] += buf
    sup_total = 0.0
    for k, mag in sups:
        if f.ndim > 3:
            np.sqrt(mag, out=mag)
        sup_total += float(np.max(mag)) ** 2
        linf[k] = sup_total
    return l2, linf


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
    gx = _shift_diff(d, -1, 0, -3, grid.hx)
    gy = _shift_diff(d, -1, 0, -2, grid.hy)
    gz = (d[..., 1:] - d[..., :-1]) / grid.hz
    vol = grid.cell_volume
    return 0.5 * vol * float(np.sum(gx * gx) + np.sum(gy * gy) + np.sum(gz * gz))


def boundary_work(u: FaceField, eps: float, B: SlipMatrixB,
                  grid: ChannelGrid) -> float:
    """eps * integral over both walls of (B u)_tau . u_tau.

    Wall values are the means of the slip end rows and the wall layers,
    i.e. exactly the values at which the Robin condition is imposed.
    """
    if eps == 0.0 or B.is_zero:
        return 0.0
    da = grid.hx * grid.hy
    total = 0.0
    for k, ug, vg in zip((0, -1), *_slip_ghost_rows(u, B, grid)):
        uw = 0.5 * (ug + u.x[:, :, k])
        vw = 0.5 * (vg + u.y[:, :, k])
        vw_on_u = _v_on_u_points(vw[:, :, None])[:, :, 0]
        uw_on_v = _u_on_v_points(uw[:, :, None])[:, :, 0]
        total += float(np.sum(B.b11 * uw**2 + B.b12 * uw * vw_on_u))
        total += float(np.sum(B.b22 * vw**2 + B.b12 * vw * uw_on_v))
    return eps * da * total


def _budget_rates(u: FaceField, w: np.ndarray, ld: np.ndarray,
                  grad_sq: np.ndarray, eps: float, B: SlipMatrixB,
                  grid: ChannelGrid):
    """(visc, dir, quartic, wall work) of the energy identity: eps |omega|^2,
    |lap d|^2 and | |grad d|^2 |^2 from the centered vorticity w of u, lap d
    (ld) and the pointwise |grad d|^2 (grad_sq), and boundary_work of u."""
    vol = grid.cell_volume
    return (eps * vol * float(np.sum(w * w)),
            vol * float(np.sum(ld * ld)),
            vol * float(np.sum(grad_sq * grad_sq)),
            boundary_work(u, eps, B, grid))


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
    # |grad d|^2 first: its temporaries are gone before the curl and lap d
    grad_sq = grad_sq_director(dm, grid)
    visc, dir_, quartic, wall = _budget_rates(
        um, curl_center(um, B, grid), laplacian_center(dm, grid), grad_sq,
        eps, B, grid)
    return de + visc + dir_ - quartic + wall


# ---------------------------------------------------------------------------
# slip mismatch (boundary-layer indicator)
# ---------------------------------------------------------------------------

def _slip_mismatch_trace(w: np.ndarray, uc: np.ndarray, B: SlipMatrixB,
                         grid: ChannelGrid) -> float:
    """L2 norm over both walls of the one-sided extrapolation of
    omega x n + (B u)_tau (n the outward normal) onto the wall planes, from
    the centered vorticity w and velocity uc, next-to-wall layers only."""
    da = grid.hx * grid.hy
    total = 0.0
    for n, layers, which in ((-1.0, [0, 1], "bottom"), (+1.0, [-2, -1], "top")):
        wl, ul = w[..., layers], uc[..., layers]
        bu1, bu2 = B.apply(ul[0], ul[1])
        for q in (wl[1] * n + bu1, -wl[0] * n + bu2):
            wall = _wall_tangential(q, which)
            total += float(np.sum(wall * wall)) * da
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# combined regularity functional
# ---------------------------------------------------------------------------

def _time_derivatives(state: State, F: FaceField, ld: np.ndarray,
                      grad_sq: np.ndarray, eps: float, B: SlipMatrixB,
                      grid: ChannelGrid):
    """(du/dt at centers, dd/dt at centers) read off the evolution
    equations, with the stored pressure, from the state's momentum forcing
    F, lap d (ld) and |grad d|^2 (grad_sq)."""
    gp = discrete_gradient(state.p, grid)
    lap = laplacian_face(state.u, B, grid)
    ut = FaceField(-F.x - gp.x + eps * lap.x,
                   -F.y - gp.y + eps * lap.y,
                   -F.z - gp.z + eps * lap.z)
    dt_d = -advect_center(state.u, state.d, grid) + ld + grad_sq * state.d
    return face_to_center(ut), dt_d


def _functional_terms(state: State, uc: np.ndarray, gd: np.ndarray,
                      ld: np.ndarray, grad_sq: np.ndarray, F: FaceField,
                      eps: float, B: SlipMatrixB, grid: ChannelGrid, m: int,
                      time_derivs: int):
    """Yield (field, L2 order, sup order or -1) for each walked term of the
    functional tracked for uniform boundedness, |u|_m^2 + |d|_0^2
    + |grad d|_m^2 + |grad u|_{m-1}^2 + |lap d|_{m-1}^2 + |grad u|_{1,inf}^2,
    all but |d|_0^2 and the grad u walk, which make_record adds.  For
    time_derivs=1 each Sobolev-type term also counts one time derivative (by
    substituting the evolution equations, from F, ld and grad_sq), one
    tangential order lower.  Each field is built when the sum asks for it.
    """
    yield uc, m, -1
    yield gd, m, -1
    yield ld, m - 1, -1
    if time_derivs:
        ut_c, dt_d = _time_derivatives(state, F, ld, grad_sq, eps, B, grid)
        yield ut_c, m - 1, -1
        yield director_gradient(dt_d, grid), m - 1, -1
        if m >= 2:
            yield center_gradient(ut_c, grid), m - 2, 0
            yield laplacian_center(dt_d, grid), m - 2, -1


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


def make_record(state: State, cfg: SimConfig, grid: ChannelGrid,
                B: SlipMatrixB, prev: State | None = None,
                dt: float | None = None) -> DiagnosticsRecord:
    """Assemble one record.  energy_residual spans the step that *ended*
    at this state (0.0 for the initial record or offline recomputation).

    The derived fields are built once and each field is walked through the
    tangential family once; the budget rates, the functional, the sup norm
    of grad u and the slip trace are computed here only.
    """
    eps, m = cfg.eps, cfg.conormal_m
    vol = grid.cell_volume
    gd = director_gradient(state.d, grid)
    ld = laplacian_center(state.d, grid)
    F = momentum_forcing(state.u, gd, ld, grid)
    p1, p2 = pressure_split(state.u, F, eps, grid, cfg.solver_tol)
    er = 0.0
    if prev is not None and dt is not None:
        er = energy_balance_residual(prev, state, dt, eps, B, grid)

    uc = face_to_center(state.u)
    grad_sq = np.sum(gd * gd, axis=(0, 1))
    w = curl_center(state.u, B, grid)
    visc, dir_, quartic, wall = _budget_rates(state.u, w, ld, grad_sq, eps,
                                              B, grid)
    gu_l2, gu_linf = _conormal_sums(center_gradient(uc, grid), max(m - 1, 1),
                                    grid, sup=1)
    nm = float(np.sum(state.d**2)) * vol + gu_l2[m - 1] + gu_linf[1]
    for f, k, sup in _functional_terms(state, uc, gd, ld, grad_sq, F, eps, B,
                                       grid, m, cfg.time_derivs):
        l2, linf = _conormal_sums(f, k, grid, sup)
        del f      # so this field is freed before the next one is built
        nm += l2[k] + (linf[sup] if sup >= 0 else 0.0)

    return DiagnosticsRecord(
        t=state.t,
        kinetic=kinetic_energy(state.u, grid),
        elastic=elastic_energy(state.d, grid),
        visc_diss=visc,
        dir_diss=dir_,
        quartic=quartic,
        boundary_work=wall,
        energy_residual=er,
        unit_dev=unit_deviation(state.d),
        div_res=float(np.max(np.abs(discrete_divergence(state.u, grid)))),
        nm_value=nm,
        eta_trace=_slip_mismatch_trace(w, uc, B, grid),
        linf_grad_u=float(np.sqrt(gu_linf[1])),
        p1_norm=float(np.sqrt(np.sum(p1 * p1) * vol)),
        p2_norm=float(np.sqrt(np.sum(p2 * p2) * vol)),
    )
