"""Norms, energy budget, and per-step records.

Conormal norms: sums of squared L2 (or Linf) norms of repeated tangential
derivatives over all unique multi-indices up to the requested order (the
three operators commute discretely to round-off, so unordered counting is
well defined).  Face fields are averaged to cell centers before any norm is
taken; all L2 quadrature is the midpoint rule, cell volume per center.

All of them come from one walk, _conormal_sums, a depth-first recursion
(_descend) that builds each multi-index once from its parent into one
buffer per order, so it holds only the members on the current path.  A
member is the raw stencil numerator, the x/y central difference or the
weighted z stencil with no 1/(2h), and its squared scale is carried as a
scalar.  A stacked field is walked one component at a time, so the
working set is a few single-component arrays: each L2 term is its scale
times one sum of squares (_sumsq, one read, no BLAS), appended to a list
for its order, and the lists are added in level order; only members of
order <= sup are squared into arrays.
A record is the one assembly of the per-state diagnostics: make_record
derives each field of the state once (centered u, grad d, |grad d|^2,
lap d, vorticity, momentum forcing F), walks each once, and computes the
functional, the budget rates (_budget_rates), the sup norm of grad u and
the slip trace from them.  grad d is one stream of parts
(operators._director_parts): each part is walked and then added into the
stress of F and into |grad d|^2.  F serves both the pressure split and
the time derivatives of the functional, which take their pressure from
that split, so a record depends on the state's (u, d) alone.

Each derived field lives only from its first reader to its last: the
stress until F is built, |grad d|^2 until the budget rates and the time
derivatives; the vorticity until the budget rates and the slip trace; the
centered u until its two walks; F and p1 + p2 until the time derivatives.
No gradient is stacked: grad d, grad u, grad u_t and grad d_t reach
_conormal_sums as streams of single components.  grad d is walked first,
with the stress and |grad d|^2 it feeds; the terms of the functional are
still summed in its own order, so every record is the eager assembly's
bit for bit.

The energy budget pairs the quantities the scheme actually conserves:
kinetic energy on faces (the quadrature in which advection is exactly
antisymmetric) and elastic energy through the face-difference gradient
(the factorization lap = -G^T G of the centered Laplacian), summed as
unscaled differences with 1/h^2 as scalars, so the reported residual
reflects the time discretization rather than quadrature mismatch.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .errors import ConfigError
from .fields import (FaceField, State, discrete_divergence, discrete_gradient,
                     face_to_center, unit_deviation)
from .grid import ChannelGrid, _dz_centered, _raw_derivative, _shift_op
from .operators import (SlipMatrixB, _add_stress, _director_parts,
                        _dz_reflect, _gradient_parts, _slip_ghost_rows,
                        _u_on_v_points, _v_on_u_points, _wall_tangential,
                        advect_center, advect_face, curl_center,
                        grad_sq_director, laplacian_center, laplacian_face)
from .pressure import pressure_split


# ---------------------------------------------------------------------------
# conormal norms
# ---------------------------------------------------------------------------

def _sumsq(a: np.ndarray) -> float:
    """Sum of the squares of a in one read: einsum per last-axis row of the
    C-order view (copied only for another layout), np.sum of the row sums.
    One flat einsum loses np.sum's accuracy on data repeated across rows.
    numpy's loops, not BLAS (np.dot, np.vdot): the sum does not depend on
    the BLAS thread count."""
    rows = np.reshape(a, (-1, a.shape[-1]))
    return float(np.sum(np.einsum("ij,ij->i", rows, rows)))


def _descend(g, k, last, s2, walk):
    """Take member g of order k into one component's walk, then its
    children depth first, by axis from 0 to last (g's own last axis), each
    built from g into the buffer of its order.  walk is (grid, unit, bufs,
    sq, terms, sups, its): g's L2 term goes onto terms[k], and its squares
    into the next entry of sups[k] (its[k] iterates it), or onto sups[k] on
    the first component.  Module level: a closure that calls itself is a
    reference cycle that keeps bufs alive until gc runs."""
    grid, unit, bufs, sq, terms, sups, its = walk
    if k < len(terms):
        terms[k].append(s2 * grid.cell_volume * _sumsq(g))
    if k < len(sups):
        acc = next(its[k], None)
        if acc is None:
            sups[k].append([s2, g * g])
        else:
            acc[1] += np.multiply(g, g, out=sq)
    if k < len(bufs):
        for ax in range(last + 1):
            _descend(_raw_derivative(g, ax, grid, bufs[k]), k + 1, ax,
                     s2 * unit[ax], walk)


def _conormal_sums(f, m: int, grid: ChannelGrid, sup: int = -1):
    """One walk of f to order max(m, sup); returns (l2, linf).

    f is a field whose shape ends in grid.shape, or an iterator of single
    components of such a field (_gradient_parts), walked as if stacked in
    the order it yields them; each is walked before the next is asked for.

    l2 is the squared L2 conormal norm of order m: the sum over |alpha| <= m
    of the squared L2 norm of Z^alpha f, stacked leading axes summed as
    extra components.  linf is the sum over |alpha| <= sup of the squared
    sup norms of Z^alpha f (0.0 when sup < 0), whose square root is the
    order-sup sup norm; stacked input takes the pointwise Euclidean
    magnitude first.

    Each component, in C order, is one depth-first recursion (_descend)
    that hands out raw numerators with their scales as scalars: l2 adds
    scale2 * vol * _sumsq(raw), one read and no squared array, and only
    members of order <= sup are squared into arrays, whose max is scaled
    once at the end.  Depth first meets each order's members in level
    order (parents in order, a parent's children by axis), so one list per
    order, added order by order, sums l2 in level order, then component
    order: that of a walk to m alone, so l2 does not depend on sup or on
    the stack's layout, bit for bit.  linf adds each member's squares
    across components in component order, the arithmetic of np.sum over
    the leading axes, so it equals that sum on the whole-stack raw members
    bit for bit and does not depend on m.
    """
    if not isinstance(f, Iterator):
        f = np.asarray(f, dtype=float)
        if f.shape[-3:] != grid.shape:
            raise ConfigError(f"field shape {f.shape} does not end in "
                              f"{grid.shape}")
        f = f.reshape((-1,) + grid.shape)
    unit = [(0.5 / h) ** 2 for h in (grid.hx, grid.hy, grid.hz)]
    bufs = [np.empty(grid.shape) for _ in range(max(m, sup))]
    sq = np.empty(grid.shape) if sup >= 0 else None
    sups = [[] for _ in range(sup + 1)]   # per order: [scale2, squares]
    l2 = 0.0
    for comp in f:
        terms = [[] for _ in range(m + 1)]
        _descend(comp, 0, 2, 1.0, (grid, unit, bufs, sq, terms, sups,
                                   [iter(s) for s in sups]))
        for level in terms:
            for term in level:
                l2 += term
    linf = 0.0
    for level in sups:
        for s2, squares in level:
            linf += s2 * float(np.max(squares))
    return l2, linf


# ---------------------------------------------------------------------------
# energy pieces
# ---------------------------------------------------------------------------

def kinetic_energy(u: FaceField, grid: ChannelGrid) -> float:
    """(1/2) sum over faces of |u|^2, midpoint quadrature."""
    vol = grid.cell_volume
    return 0.5 * vol * (_sumsq(u.x) + _sumsq(u.y) + _sumsq(u.z[:, :, 1:-1]))


def elastic_energy(d: np.ndarray, grid: ChannelGrid) -> float:
    """(1/2) |grad d|^2 via face differences (zero flux through walls).

    Each face difference is left unscaled in one reused buffer and its sum
    of squares divided by h^2 as a scalar.  The z differences d[k+1] - d[k]
    are one pass over the flattened arrays; the entries that straddle two
    rows, in the last layer, are set to 0.0 and add nothing.
    """
    buf = np.empty(d.shape)
    sx = _sumsq(_shift_op(np.subtract, d, -1, d, 0, -3, buf))
    sy = _sumsq(_shift_op(np.subtract, d, -1, d, 0, -2, buf))
    flat = np.reshape(d, -1)
    np.subtract(flat[1:], flat[:-1], out=np.reshape(buf, -1)[:-1])
    buf[..., -1] = 0.0
    sz = _sumsq(buf)
    return 0.5 * grid.cell_volume * (sx / grid.hx**2 + sy / grid.hy**2
                                     + sz / grid.hz**2)


def boundary_work(u: FaceField, eps: float, B: SlipMatrixB,
                  grid: ChannelGrid, rows=None) -> float:
    """eps * integral over both walls of (B u)_tau . u_tau.

    Wall values are the means of the slip end rows and the wall layers,
    i.e. exactly the values at which the Robin condition is imposed.  rows
    are those end rows (_slip_ghost_rows), built here unless the caller
    has them.
    """
    if eps == 0.0 or B.is_zero:
        return 0.0
    if rows is None:
        rows = _slip_ghost_rows(u, B, grid)
    da = grid.hx * grid.hy
    total = 0.0
    for k, ug, vg in zip((0, -1), *rows):
        uw = 0.5 * (ug + u.x[:, :, k])
        vw = 0.5 * (vg + u.y[:, :, k])
        vw_on_u = _v_on_u_points(vw[:, :, None])[:, :, 0]
        uw_on_v = _u_on_v_points(uw[:, :, None])[:, :, 0]
        total += float(np.sum(B.b11 * uw**2 + B.b12 * uw * vw_on_u))
        total += float(np.sum(B.b22 * vw**2 + B.b12 * vw * uw_on_v))
    return eps * da * total


def _budget_rates(u: FaceField, ld: np.ndarray, grad_sq: np.ndarray,
                  eps: float, B: SlipMatrixB, grid: ChannelGrid):
    """(w, (visc, dir, quartic, wall work)): the centered vorticity w of u
    and the rates of the energy identity, eps |omega|^2, |lap d|^2 and
    | |grad d|^2 |^2 from w, lap d (ld) and the pointwise |grad d|^2
    (grad_sq), and boundary_work of u.  The curl and the wall work share
    one build of u's slip end rows."""
    vol = grid.cell_volume
    rows = _slip_ghost_rows(u, B, grid)
    w = curl_center(u, B, grid, rows)
    return w, (eps * vol * float(np.sum(w * w)),
               vol * float(np.sum(ld * ld)),
               vol * float(np.sum(grad_sq * grad_sq)),
               boundary_work(u, eps, B, grid, rows))


def _energy_residual(prev: State, nxt: State, dt: float, e_nxt: float,
                     eps: float, B: SlipMatrixB, grid: ChannelGrid) -> float:
    """Rate-form residual of the energy identity across one step:

        d/dt [ E_kin + E_el ] + visc + dir - quartic + wall_work = r

    with the dissipation/production terms evaluated on midpoint-in-time
    fields; first order in dt for this scheme.  nxt's kinetic plus elastic
    energy is given as e_nxt, so a record that reports them derives each
    once.  dt must be positive and finite (ValueError otherwise).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    de = (e_nxt - kinetic_energy(prev.u, grid)
          - elastic_energy(prev.d, grid)) / dt
    um = FaceField(0.5 * (prev.u.x + nxt.u.x), 0.5 * (prev.u.y + nxt.u.y),
                   0.5 * (prev.u.z + nxt.u.z))
    dm = 0.5 * (prev.d + nxt.d)
    # |grad d|^2 first: its temporaries are gone before the curl and lap d
    grad_sq = grad_sq_director(dm, grid)
    _, (visc, dir_, quartic, wall) = _budget_rates(
        um, laplacian_center(dm, grid), grad_sq, eps, B, grid)
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

def _time_derivatives(state: State, p: np.ndarray, F: FaceField,
                      ld: np.ndarray, grad_sq: np.ndarray, eps: float,
                      B: SlipMatrixB, grid: ChannelGrid):
    """(du/dt at centers, dd/dt at centers) read off the evolution
    equations from the state's (u, d): the pressure p = p1 + p2 of
    pressure_split, the momentum forcing F, lap d (ld) and |grad d|^2
    (grad_sq).  state.p is not read.  Both are assembled in place, in the
    fresh arrays of the advection term and of grad p: lap d - u.grad d and
    eps lap u - (F + grad p) are -u.grad d + lap d and -F - grad p + eps
    lap u bit for bit, because negation is exact.  dd/dt is built first,
    so the advection's work arrays never meet u_t's, and the face
    Laplacian is dropped before u_t is centered."""
    dt_d = advect_center(state.u, state.d, grid)
    np.subtract(ld, dt_d, out=dt_d)
    for g, dc in zip(dt_d, state.d):
        g += grad_sq * dc
    ut = discrete_gradient(p, grid)
    lap = laplacian_face(state.u, B, grid)
    for g, f, lg in zip(ut.components(), F.components(), lap.components()):
        g += f
        lg *= eps
        np.subtract(lg, g, out=g)
    del lap
    return face_to_center(ut), dt_d


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
    at this state, from prev and dt, which come together: one without the
    other raises TypeError, and a dt that is not positive and finite
    raises ValueError.  Without them (the initial record, offline
    recomputation) energy_residual is 0.0.

    nm_value is the functional tracked for uniform boundedness, |u|_m^2
    + |d|_0^2 + |grad d|_m^2 + |grad u|_{m-1}^2 + |lap d|_{m-1}^2
    + |grad u|_{1,inf}^2; for time_derivs=1 each Sobolev-type term also
    counts one time derivative (by substituting the evolution equations,
    with the pressure p1 + p2 of the record's split), one tangential order
    lower.  Each derived field is built once, walked once and dropped
    after its last reader (see the module docstring); the terms are summed
    in the order of the functional above, whatever order they are walked
    in.
    """
    if (prev is None) != (dt is None):
        raise TypeError(f"make_record: {'dt' if dt is None else 'prev'} is "
                        "missing; pass both prev and dt or neither")
    eps, m = cfg.eps, cfg.conormal_m
    u, d = state.u, state.d
    vol = grid.cell_volume
    kinetic = kinetic_energy(u, grid)
    elastic = elastic_energy(d, grid)
    er = 0.0 if prev is None else _energy_residual(
        prev, state, dt, kinetic + elastic, eps, B, grid)

    # one pass over grad d's parts: its walk, the stress of F and |grad d|^2
    ld = laplacian_center(d, grid)
    sigma = np.empty((3,) + grid.shape)
    grad_sq = np.empty(grid.shape)
    gd_sums = _conormal_sums(_director_parts(d, grid, ld, sigma, grad_sq), m,
                             grid)
    F = _add_stress(advect_face(u, u, grid), sigma, grid)
    del sigma
    p1, p2 = pressure_split(u, F, eps, grid, cfg.solver_tol)
    p1_norm = float(np.sqrt(np.sum(p1 * p1) * vol))
    p2_norm = float(np.sqrt(np.sum(p2 * p2) * vol))
    # only the time derivatives read F and the pressure
    p, F = (p1 + p2, F) if cfg.time_derivs else (None, None)
    del p1, p2

    uc = face_to_center(u)
    w, (visc, dir_, quartic, wall) = _budget_rates(u, ld, grad_sq, eps, B,
                                                   grid)
    eta = _slip_mismatch_trace(w, uc, B, grid)
    del w
    uc_sums = _conormal_sums(uc, m, grid)
    gu_l2, gu_linf = _conormal_sums(_gradient_parts(uc, _dz_centered, grid),
                                    m - 1, grid, sup=1)
    del uc
    terms = [uc_sums, gd_sums, _conormal_sums(ld, m - 1, grid)]
    if cfg.time_derivs:
        ut_c, dt_d = _time_derivatives(state, p, F, ld, grad_sq, eps, B, grid)
        del p, F, ld, grad_sq
        terms += [_conormal_sums(ut_c, m - 1, grid),
                  _conormal_sums(_gradient_parts(dt_d, _dz_reflect, grid),
                                 m - 1, grid)]
        if m >= 2:
            terms += [_conormal_sums(_gradient_parts(ut_c, _dz_centered, grid),
                                     m - 2, grid, sup=0),
                      _conormal_sums(laplacian_center(dt_d, grid), m - 2,
                                     grid)]

    nm = float(np.sum(d**2)) * vol + gu_l2 + gu_linf
    for l2, linf in terms:
        nm += l2 + linf

    return DiagnosticsRecord(
        t=state.t,
        kinetic=kinetic,
        elastic=elastic,
        visc_diss=visc,
        dir_diss=dir_,
        quartic=quartic,
        boundary_work=wall,
        energy_residual=er,
        unit_dev=unit_deviation(d),
        div_res=float(np.max(np.abs(discrete_divergence(u, grid)))),
        nm_value=nm,
        eta_trace=eta,
        linf_grad_u=float(np.sqrt(gu_linf)),
        p1_norm=p1_norm,
        p2_norm=p2_norm,
    )
