"""Independent references shared by a few test modules.

loop_remainder_norms is written with explicit Python loops and scalar
stencil arithmetic on purpose: it re-derives the center-sampled remainder
fields from their definitions without touching the package's vectorized
kernels, so agreement is evidence and not tautology.  Only use on small
grids.  full_pressure is the superposition oracle of the pressure split:
one solve with the combined data of both split problems.  grids, seeds and
face_field generate the inputs of the property tests.  viscous_dissipation,
director_dissipation and quartic_production are the reference forms of the
record's budget rates, each built from the state with its own operator.
conormal_norm_sq is the order-m squared L2 conormal norm, the l2 sum of
one diagnostics._conormal_sums walk; scaled_conormal_sums is the loop
reference of that walk, every member built scaled by conormal_derivative
and squared into an array before it is summed, and raw_sup_sum is the
walk's sup sum from raw members built level by level on the whole stack.
conormal_derivative is that scaled member Z_axis f, built from _ddx,
_ddy, _dz_centered and the z weight, not from the walk's
grid._raw_derivative.  padded, padded_dz
and padded_lap7 are the oracle of the end-layer stencils: the same
formulas on an (nz+2) copy that holds the end layers as its first and
last layers; padded_dzz is the z part of the same Laplacian in
three-difference form, which the tests compare with it at round-off.
advect_center_flux and advect_face_flux are the advection oracle: the
split form as face-flux differences minus f/2 times the velocity
divergence, on np.roll copies, which the kernels' product form equals up
to round-off.
eager_record is the reference assembly of a record: every derived field
built up front and held to the end, the walked gradients as stacks, which
diagnostics.make_record must equal bit for bit.  elastic_stress and
stacked_grad_sq are the stacked forms of the director terms, one einsum
each over the gradient stack (grad_and_lap builds it with lap d), which
the package's streamed sums (director_terms) equal bit for bit;
stacked_error_norms is the sweep's error norms written on such stacks.
curl_two_stacks is the vorticity as the difference of two face-to-center
stacks, which operators.curl_center equals bit for bit.  peak_fields
measures the traced peak of one call in units of one field.
center_gradient and director_gradient are the gradient stacks (3,) +
f.shape, derivative axis first, each axis' difference taken on the whole
of f by _ddx, _ddy and _dz_centered or _dz_reflect; the package builds
no stack, only streams of parts (operators._gradient_parts), so these
are its oracle for layout and bits.
shear_twist_errors is the exact reference of a shear+twist sweep: its
velocity errors from a 1-D recurrence per member, derived from the
scheme and not from the package's 3-D kernels.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import strategies as hst
from scipy.linalg import solve_banded

from lcflow.diagnostics import (DiagnosticsRecord, _conormal_sums,
                                _energy_residual, _slip_mismatch_trace,
                                _time_derivatives, boundary_work,
                                elastic_energy, kinetic_energy)
from lcflow.errors import ConfigError
from lcflow.fields import (FaceField, discrete_divergence, face_to_center,
                           unit_deviation)
from lcflow.grid import ChannelGrid, _dz_centered, _raw_derivative, _z_weight
from lcflow.grid import _ddx as ddx, _ddy as ddy
from lcflow.operators import (_director_parts, _dz_ends, _dz_reflect,
                              _slip_ghost_rows, curl_center, grad_sq_director,
                              laplacian_center, momentum_forcing)
from lcflow.pressure import _wall_dzz_w, pressure_split, solve_poisson_neumann


# odd, even and anisotropic channels of 4..9 cells per axis
grids = hst.builds(
    ChannelGrid,
    hst.integers(4, 9), hst.integers(4, 9), hst.integers(4, 9),
    hst.sampled_from([1.0, 0.7, 2.5]), hst.sampled_from([1.0, 1.3]),
    hst.sampled_from([1.0, 0.4, 3.0]))
seeds = hst.integers(0, 2**32 - 1)


def _gradient_stack(f, dz, grid):
    """(3,) + f.shape: out[i] = d_i f, each axis' difference taken on the
    whole of f at once."""
    return np.stack([ddx(f, grid.hx), ddy(f, grid.hy), dz(f, grid.hz)])


def center_gradient(f, grid):
    """grad of centered f (scalar or stacked components), out[i] = d_i f,
    with the one-sided z closure of _dz_centered."""
    return _gradient_stack(f, _dz_centered, grid)


def director_gradient(d, grid):
    """grad of a director-type field, out[i, c] = d_i d_c, with reflected
    end layers (_dz_reflect)."""
    return _gradient_stack(d, _dz_reflect, grid)


def face_field(rng, grid):
    """Random staggered field, not solenoidal, with exact wall zeros in w."""
    z = rng.standard_normal((grid.nx, grid.ny, grid.nz + 1))
    z[:, :, 0] = z[:, :, -1] = 0.0
    return FaceField(rng.standard_normal(grid.shape),
                     rng.standard_normal(grid.shape), z)


def padded(f, ends):
    """f with its end layers (below, above) as extra layers in z."""
    return np.concatenate([ends[0][..., None], f, ends[1][..., None]], axis=-1)


def padded_dz(f_ext, hz):
    """Central z difference of a padded copy on its interior layers."""
    out = np.subtract(f_ext[..., 2:], f_ext[..., :-2])
    out /= 2.0 * hz
    return out


def padded_dzz(f_ext, hz):
    """Second z difference of a padded copy on its interior layers."""
    return (f_ext[..., 2:] - 2.0 * f_ext[..., 1:-1] + f_ext[..., :-2]) / hz**2


def padded_lap7(f, ends, grid):
    """The 7-point Laplacian of operators._lap7 on the padded copy of f, with
    np.roll in x and y, in the kernel's summation order: bit for bit."""
    ext = padded(f, ends)
    c = ext[..., 1:-1]
    out = (np.roll(c, 1, -3) + np.roll(c, -1, -3)) / grid.hx**2
    out += (np.roll(c, 1, -2) + np.roll(c, -1, -2)) / grid.hy**2
    out += (ext[..., :-2] + ext[..., 2:]) / grid.hz**2
    out -= 2.0 * (grid.hx**-2 + grid.hy**-2 + grid.hz**-2) * c
    return out


def _flux_form(f, ends, periodic, vz, grid):
    """The split form on one family of control volumes, with the arguments
    of operators._split_form but unscaled velocities: per axis the flux
    difference (upper face minus lower, over h, face values the two-point
    means of f), minus f/2 times the same differences of the velocity."""
    out = div = 0.0
    for a, v, s in periodic:
        ax, h, lo = a - 3, (grid.hx, grid.hy)[a], (1 - s) // 2
        flux = 0.5 * (f + np.roll(f, s, ax)) * v
        out = out + (np.roll(flux, lo - 1, ax) - np.roll(flux, lo, ax)) / h
        div = div + (np.roll(v, lo - 1, ax) - np.roll(v, lo, ax)) / h
    ext = padded(f, ends)
    flux = 0.5 * (ext[..., :-1] + ext[..., 1:]) * vz
    out = out + (flux[..., 1:] - flux[..., :-1]) / grid.hz
    div = div + (vz[..., 1:] - vz[..., :-1]) / grid.hz
    return out - 0.5 * f * div


def advect_center_flux(u, f, grid):
    """advect_center in flux form: the cell faces carry u itself."""
    return _flux_form(f, (f[..., 0], f[..., -1]), ((0, u.x, 1), (1, u.y, 1)),
                      u.z, grid)


def advect_face_flux(u, f, grid):
    """advect_face in flux form: each face family's volumes carry the
    two-point means of u; w's wall rows are 0."""
    def mean(c, s, axis):
        return 0.5 * (c + np.roll(c, s, axis))
    ax, ay = (_flux_form(g, (g[..., 0], g[..., -1]),
                         ((a, mean(own, -1, a), -1),
                          (1 - a, mean(other, 1, a), 1)),
                         mean(u.z, 1, a), grid)
              for a, g, own, other in ((0, f.x, u.x, u.y), (1, f.y, u.y, u.x)))
    xm, ym, zm = (0.5 * (c[:, :, :-1] + c[:, :, 1:]) for c in u.components())
    az = np.zeros_like(f.z)
    az[:, :, 1:-1] = _flux_form(f.z[:, :, 1:-1], (f.z[:, :, 0], f.z[:, :, -1]),
                                ((0, xm, 1), (1, ym, 1)), zm, grid)
    return FaceField(ax, ay, az)


def conormal_norm_sq(f, m, grid):
    """Sum over |alpha| <= m of the squared L2 norm of Z^alpha f; stacked
    leading axes are treated as extra components and summed."""
    return _conormal_sums(f, m, grid)[0]


def conormal_derivative(f, axis, grid):
    """One member of the tangential family on a cell-centered field.

    axis 0, 1: periodic central d/dx, d/dy.
    axis 2:    phi(zeta) * d/dz with the one-sided closure of _dz_centered.

    The three operators commute pairwise to round-off: the x/y shifts
    commute with each other, and the z stencil plus its z-only weight is
    translation invariant in x and y.  Input of any numeric dtype is taken
    as float.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-3:] != grid.shape:
        raise ConfigError(f"field shape {f.shape} does not end in {grid.shape}")
    if axis == 0:
        return ddx(f, grid.hx)
    if axis == 1:
        return ddy(f, grid.hy)
    if axis == 2:
        out = _dz_centered(f, grid.hz)
        out *= _z_weight(grid)
        return out
    raise ConfigError(f"axis must be 0, 1 or 2, got {axis}")


def scaled_conormal_sums(f, m, grid, sup=-1):
    """(l2, linf) of diagnostics._conormal_sums, from scaled members: each
    Z^alpha f is conormal_derivative applied to its parent, squared with
    np.multiply and summed with np.sum, one component at a time, and each
    sup term is the square of the root of its max."""
    f = np.asarray(f, dtype=float)
    vol = grid.cell_volume
    l2 = 0.0
    buf = np.empty(grid.shape)
    sups = []
    for c, comp in enumerate(f.reshape((-1,) + grid.shape)):
        members = [(0, comp)]
        level = [(2, comp)]
        for k in range(1, max(m, sup) + 1):
            level = [(ax, conormal_derivative(g, ax, grid))
                     for top, g in level for ax in range(top + 1)]
            members += [(k, g) for _, g in level]
        for i, (k, g) in enumerate(members):
            np.multiply(g, g, out=buf)
            if k <= m:
                l2 += float(np.sum(buf)) * vol
            if k <= sup:
                if c == 0:
                    sups.append(buf.copy())
                else:
                    sups[i] += buf
    linf = 0.0
    for sq in sups:
        linf += float(np.sqrt(np.max(sq))) ** 2
    return l2, linf


def raw_sup_sum(f, sup, grid):
    """The sup sum of diagnostics._conormal_sums from whole-stack raw
    members: each Z^alpha f with |alpha| <= sup is grid._raw_derivative
    applied to its parent on the whole stack, level by level (parents in
    order, a parent's children by axis, 0 to its last axis), and its term,
    scale2 times the max of its squares summed over the leading axes, is
    added in that level order."""
    unit = [(0.5 / h) ** 2 for h in (grid.hx, grid.hy, grid.hz)]
    lead = tuple(range(f.ndim - 3))
    level = [(2, 1.0, f)]
    linf = 0.0
    for k in range(sup + 1):
        if k:
            level = [(ax, s2 * unit[ax], _raw_derivative(g, ax, grid))
                     for last, s2, g in level for ax in range(last + 1)]
        for _, s2, g in level:
            linf += s2 * float(np.max(np.sum(g * g, axis=lead)))
    return linf


def peak_fields(call, unit):
    """Peak traced allocation of call() in units of unit bytes (one field):
    one warm call, then one call between tracemalloc's start and stop."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / unit


def curl_two_stacks(u, B, grid):
    """The vorticity as the crosswise difference of two face-to-center
    stacks, (du/dz, dv/dx, dw/dy) and (du/dy, dv/dz, dw/dx), each
    derivative taken on its component's own faces."""
    xe, ye = _slip_ghost_rows(u, B, grid)
    p = face_to_center(FaceField(_dz_ends(u.x, xe, grid.hz),
                                 ddx(u.y, grid.hx), ddy(u.z, grid.hy)))
    q = face_to_center(FaceField(ddy(u.x, grid.hy),
                                 _dz_ends(u.y, ye, grid.hz), ddx(u.z, grid.hx)))
    return np.stack([p[2] - q[1], p[0] - q[2], p[1] - q[0]])


def eager_record(state, cfg, grid, B, prev=None, dt=None):
    """The record of make_record assembled eagerly: every derived field is
    built before the first walk and held until return, grad u, grad u_t
    and grad d_t are walked as stacks, the curl and the wall work each
    build the slip end rows, and the terms of nm are summed in the order of
    the functional."""
    eps, m = cfg.eps, cfg.conormal_m
    vol = grid.cell_volume
    kinetic = kinetic_energy(state.u, grid)
    elastic = elastic_energy(state.d, grid)
    er = 0.0 if prev is None else _energy_residual(
        prev, state, dt, kinetic + elastic, eps, B, grid)
    gd, ld = grad_and_lap(state.d, grid)
    F = momentum_forcing(state.u, state.d, ld, grid)
    p1, p2 = pressure_split(state.u, F, eps, grid, cfg.solver_tol)
    uc = face_to_center(state.u)
    grad_sq = stacked_grad_sq(gd)
    w = curl_center(state.u, B, grid)
    gu_l2, gu_linf = _conormal_sums(center_gradient(uc, grid), m - 1, grid,
                                    sup=1)
    terms = [(uc, m, -1), (gd, m, -1), (ld, m - 1, -1)]
    if cfg.time_derivs:
        ut_c, dt_d = _time_derivatives(state, p1 + p2, F, ld, grad_sq, eps, B,
                                       grid)
        terms += [(ut_c, m - 1, -1), (director_gradient(dt_d, grid), m - 1, -1)]
        if m >= 2:
            terms += [(center_gradient(ut_c, grid), m - 2, 0),
                      (laplacian_center(dt_d, grid), m - 2, -1)]
    nm = float(np.sum(state.d**2)) * vol + gu_l2 + gu_linf
    for f, k, sup in terms:
        l2, linf = _conormal_sums(f, k, grid, sup)
        nm += l2 + linf
    return DiagnosticsRecord(
        t=state.t, kinetic=kinetic, elastic=elastic,
        visc_diss=eps * vol * float(np.sum(w * w)),
        dir_diss=vol * float(np.sum(ld * ld)),
        quartic=vol * float(np.sum(grad_sq * grad_sq)),
        boundary_work=boundary_work(state.u, eps, B, grid),
        energy_residual=er, unit_dev=unit_deviation(state.d),
        div_res=float(np.max(np.abs(discrete_divergence(state.u, grid)))),
        nm_value=nm, eta_trace=_slip_mismatch_trace(w, uc, B, grid),
        linf_grad_u=float(np.sqrt(gu_linf)),
        p1_norm=float(np.sqrt(np.sum(p1 * p1) * vol)),
        p2_norm=float(np.sqrt(np.sum(p2 * p2) * vol)))


def grad_and_lap(d, grid):
    """(grad d, lap d) of a centered director or scalar field: the inputs
    elastic_stress takes."""
    return director_gradient(d, grid), laplacian_center(d, grid)


def _as_stack(gd):
    """The (3, ncomp) + grid shape view of a gradient stack of a director
    (3, 3, ...) or of a scalar field (3, ...)."""
    return np.reshape(gd, (3, -1) + gd.shape[-3:])


def elastic_stress(gd, ld):
    """sigma_i = sum_c (d_i d_c) (lap d_c) at cell centers, one einsum over
    the director gradient gd and the centered Laplacian ld of d."""
    return np.einsum("icxyz,cxyz->ixyz", _as_stack(gd),
                     np.reshape(ld, (-1,) + ld.shape[-3:]))


def stacked_grad_sq(gd):
    """|grad d|^2 pointwise of a gradient stack gd (director_gradient): the
    sum over i and c of gd[i, c]^2, contracted in one einsum."""
    g = _as_stack(gd)
    return np.einsum("ij...,ij...->...", g, g)


def stacked_error_norms(u_a, d_a, u_b, d_b, grid):
    """sweep.error_norms from whole stacks: the velocity difference as a
    face field and centered, the director difference and its gradient
    stack, each norm summed over the stack at once."""
    vol = grid.cell_volume
    du = FaceField(u_a.x - u_b.x, u_a.y - u_b.y, u_a.z - u_b.z)
    dc = face_to_center(du)
    dd = d_a - d_b
    gd = director_gradient(dd, grid)
    return (2.0 * kinetic_energy(du, grid),
            vol * float(np.sum(dd * dd) + np.sum(gd * gd)),
            float(np.max(np.sqrt(np.sum(dc * dc, axis=0)))),
            max(float(np.max(np.sqrt(np.sum(dd * dd, axis=0)))),
                float(np.max(np.sqrt(stacked_grad_sq(gd))))))


def director_terms(d, grid):
    """(sigma, |grad d|^2) of the package's one pass over the stream of
    grad d's parts (operators._director_parts), with lap d its own."""
    sigma = np.empty((3,) + grid.shape)
    grad_sq = np.empty(grid.shape)
    for _ in _director_parts(d, grid, laplacian_center(d, grid), sigma,
                             grad_sq):
        pass
    return sigma, grad_sq


def viscous_dissipation(u, eps, B, grid):
    """eps |curl u|^2, midpoint quadrature at centers; 0.0 at eps = 0."""
    if eps == 0.0:
        return 0.0
    w = curl_center(u, B, grid)
    return eps * grid.cell_volume * float(np.sum(w * w))


def director_dissipation(d, grid):
    """|lap d|^2 of the centered Laplacian of d."""
    lap = laplacian_center(d, grid)
    return grid.cell_volume * float(np.sum(lap * lap))


def quartic_production(d, grid):
    """| |grad d|^2 |^2 of the pointwise |grad d|^2."""
    g = grad_sq_director(d, grid)
    return grid.cell_volume * float(np.sum(g * g))


def full_pressure(state, eps, grid):
    """Single-solve pressure with the combined right-hand side and boundary
    data of both problems of pressure_split."""
    F = momentum_forcing(state.u, state.d, laplacian_center(state.d, grid),
                         grid)
    rhs = -discrete_divergence(F, grid)
    bot, top = _wall_dzz_w(state.u, grid)
    return solve_poisson_neumann(rhs, -eps * bot, eps * top, grid)


def _centered_velocity(u, grid):
    nx, ny, nz = grid.shape
    uc = np.zeros((3, nx, ny, nz))
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                uc[0, i, j, k] = 0.5 * (u.x[i, j, k] + u.x[(i + 1) % nx, j, k])
                uc[1, i, j, k] = 0.5 * (u.y[i, j, k] + u.y[i, (j + 1) % ny, k])
                uc[2, i, j, k] = 0.5 * (u.z[i, j, k] + u.z[i, j, k + 1])
    return uc


def _ddx(f, i, j, k, grid):
    nx = grid.nx
    return (f[(i + 1) % nx, j, k] - f[(i - 1) % nx, j, k]) / (2.0 * grid.hx)


def _ddy(f, i, j, k, grid):
    ny = grid.ny
    return (f[i, (j + 1) % ny, k] - f[i, (j - 1) % ny, k]) / (2.0 * grid.hy)


def _ddz_onesided(f, i, j, k, grid):
    """Interior central difference, 3-point one-sided at the first and last
    layer (matches the no-assumption velocity gradient)."""
    nz, hz = grid.nz, grid.hz
    if k == 0:
        return (-3.0 * f[i, j, 0] + 4.0 * f[i, j, 1] - f[i, j, 2]) / (2.0 * hz)
    if k == nz - 1:
        return (3.0 * f[i, j, nz - 1] - 4.0 * f[i, j, nz - 2] + f[i, j, nz - 3]) / (2.0 * hz)
    return (f[i, j, k + 1] - f[i, j, k - 1]) / (2.0 * hz)


def _ddz_reflect(f, i, j, k, grid):
    """Central difference with even reflection at the walls (reflected
    end layers, matching the director gradient)."""
    nz, hz = grid.nz, grid.hz
    lo = f[i, j, k - 1] if k > 0 else f[i, j, 0]
    hi = f[i, j, k + 1] if k < nz - 1 else f[i, j, nz - 1]
    return (hi - lo) / (2.0 * hz)


def _lap_reflect(f, i, j, k, grid):
    nx, ny, nz = grid.shape
    lo = f[i, j, k - 1] if k > 0 else f[i, j, 0]
    hi = f[i, j, k + 1] if k < nz - 1 else f[i, j, nz - 1]
    return ((f[(i + 1) % nx, j, k] - 2.0 * f[i, j, k] + f[(i - 1) % nx, j, k]) / grid.hx ** 2
            + (f[i, (j + 1) % ny, k] - 2.0 * f[i, j, k] + f[i, (j - 1) % ny, k]) / grid.hy ** 2
            + (hi - 2.0 * f[i, j, k] + lo) / grid.hz ** 2)


def loop_remainder_norms(state_eps, state_0, eps, grid):
    """Slow re-derivation of the two remainder L2 norms.

    R1 = eps lap(u0) - (v.grad) u_eps - grad(d_eps).lap(phi) - grad(phi).lap(d0)
    R2 = -(v.grad) d_eps + (grad(phi):grad(d_eps + d0)) d_eps + |grad d0|^2 phi
    """
    nx, ny, nz = grid.shape
    uc_e = _centered_velocity(state_eps.u, grid)
    uc_0 = _centered_velocity(state_0.u, grid)
    d_e, d_0 = state_eps.d, state_0.d
    phi = d_e - d_0

    def dvec(f, axis, i, j, k, onesided):
        if axis == 0:
            return _ddx(f, i, j, k, grid)
        if axis == 1:
            return _ddy(f, i, j, k, grid)
        return (_ddz_onesided if onesided else _ddz_reflect)(f, i, j, k, grid)

    sum1 = 0.0
    sum2 = 0.0
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                v = [uc_e[c, i, j, k] - uc_0[c, i, j, k] for c in range(3)]
                gue = [[dvec(uc_e[c], ax, i, j, k, True) for c in range(3)]
                       for ax in range(3)]
                gde = [[dvec(d_e[c], ax, i, j, k, False) for c in range(3)]
                       for ax in range(3)]
                gd0 = [[dvec(d_0[c], ax, i, j, k, False) for c in range(3)]
                       for ax in range(3)]
                gphi = [[gde[ax][c] - gd0[ax][c] for c in range(3)]
                        for ax in range(3)]
                lap_u0 = [_lap_reflect(uc_0[c], i, j, k, grid) for c in range(3)]
                lap_phi = [_lap_reflect(phi[c], i, j, k, grid) for c in range(3)]
                lap_d0 = [_lap_reflect(d_0[c], i, j, k, grid) for c in range(3)]
                gsq0 = sum(gd0[ax][c] ** 2 for ax in range(3) for c in range(3))
                contraction = sum(gphi[ax][c] * (gde[ax][c] + gd0[ax][c])
                                  for ax in range(3) for c in range(3))
                for c in range(3):
                    r1 = (eps * lap_u0[c]
                          - sum(v[ax] * gue[ax][c] for ax in range(3))
                          - sum(gde[c][m] * lap_phi[m] for m in range(3))
                          - sum(gphi[c][m] * lap_d0[m] for m in range(3)))
                    r2 = (-sum(v[ax] * gde[ax][c] for ax in range(3))
                          + contraction * d_e[c, i, j, k]
                          + gsq0 * phi[c, i, j, k])
                    sum1 += r1 * r1
                    sum2 += r2 * r2
    vol = grid.cell_volume
    return math.sqrt(sum1 * vol), math.sqrt(sum2 * vol)


def shear_twist_errors(cfg, eps, steps):
    """(err_u_l2sq, err_u_linf) of the shear+twist member eps of a sweep
    of cfg against its inviscid reference, after each step count in steps.

    On this data u = a cos(2 pi y/ly) g(z) e_x and d = d(z): advection
    vanishes, the director evolves alike for every eps and the reference
    keeps g^0 = sin(pi z/lz) at the cell centres.  A member's g follows
    one viscous step per time step, with L_z the second difference whose
    end rows hold the Robin ghost a11 g (the slip_closure relation
    (g0 - ghost)/hz = b11 (g0 + ghost)/2) and lam_y = -(4/hy^2)
    sin^2(pi hy/ly) the discrete eigenvalue of the y mode: backward Euler,
    g <- (I - eps dt (L_z + lam_y))^-1 g, as a banded solve on the
    implicit path, forward Euler on the explicit one.  The norms take the
    y factor exactly: sum_y cos^2 = ny/2 and max_y |cos| = cos(pi/ny).
    """
    nx, ny, nz, a = cfg.nx, cfg.ny, cfg.nz, cfg.amplitude
    hy, hz = cfg.ly / ny, cfg.lz / nz
    vol = cfg.lx / nx * hy * hz
    a11 = (1.0 - 0.5 * hz * cfg.b11) / (1.0 + 0.5 * hz * cfg.b11)
    lam_y = -4.0 / hy**2 * math.sin(math.pi * hy / cfg.ly) ** 2
    diag = np.full(nz, -2.0 / hz**2 + lam_y)
    diag[[0, -1]] += a11 / hz**2
    c = eps * cfg.dt
    band = np.zeros((3, nz))
    band[0, 1:] = band[2, :-1] = -c / hz**2
    band[1] = 1.0 - c * diag
    g0 = np.sin(math.pi * (np.arange(nz) + 0.5) * hz / cfg.lz)
    g, done, out = g0.copy(), 0, []
    for n in steps:
        for _ in range(n - done):
            if cfg.visc_implicit:
                g = solve_banded((1, 1), band, g)
            else:
                lap = diag * g
                lap[1:] += g[:-1] / hz**2
                lap[:-1] += g[1:] / hz**2
                g = g + c * lap
        done = n
        dg = g - g0
        out.append((vol * nx * (ny / 2) * a**2 * float(np.sum(dg * dg)),
                    a * math.cos(math.pi / ny) * float(np.max(np.abs(dg)))))
    return out
