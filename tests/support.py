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
conormal_norm_sq is the order-m squared L2 conormal norm, read off one
walk of diagnostics._conormal_sums.  padded, padded_dz and padded_dzz are
the oracle of the end-layer z stencils: the same formulas on an (nz+2)
copy that holds the end layers as its first and last layers.
"""

import math

import numpy as np
from hypothesis import strategies as hst

from lcflow.diagnostics import _conormal_sums
from lcflow.fields import FaceField, discrete_divergence
from lcflow.grid import ChannelGrid
from lcflow.operators import (curl_center, director_gradient, grad_sq_director,
                              laplacian_center, momentum_forcing)
from lcflow.pressure import _wall_dzz_w, solve_poisson_neumann


# odd, even and anisotropic channels of 4..9 cells per axis
grids = hst.builds(
    ChannelGrid,
    hst.integers(4, 9), hst.integers(4, 9), hst.integers(4, 9),
    hst.sampled_from([1.0, 0.7, 2.5]), hst.sampled_from([1.0, 1.3]),
    hst.sampled_from([1.0, 0.4, 3.0]))
seeds = hst.integers(0, 2**32 - 1)


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


def conormal_norm_sq(f, m, grid):
    """Sum over |alpha| <= m of the squared L2 norm of Z^alpha f; stacked
    leading axes are treated as extra components and summed."""
    return _conormal_sums(f, m, grid)[0][m]


def grad_and_lap(d, grid):
    """(grad d, lap d) of a centered director: the inputs elastic_stress and
    momentum_forcing take."""
    return director_gradient(d, grid), laplacian_center(d, grid)


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
    F = momentum_forcing(state.u, *grad_and_lap(state.d, grid), grid)
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
