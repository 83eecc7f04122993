"""Poisson/Helmholtz solves, the projection, and the pressure split.

All solvers invert the exact 7-point stencils from the operators module by
diagonalizing in the periodic directions (FFT) and the wall-normal
direction: a cosine transform for the zero-flux closure, the same cosine
transform with a rank-2 correction of the two wall rows for the Robin
closure of the tangential velocities, and a sine transform for the
Dirichlet rows of the normal velocity.  Residuals are therefore round-off
level; the Poisson solve asserts its own.  The transforms act on the
trailing (x, y, z) axes, so a stack of fields (the three director
components, the two tangential velocities) is solved in one batched call.

Nothing physical is assembled here: pressure_split solves for the
momentum forcing its caller built in the operators module, and the
implicit viscous solve takes its Robin wall rows from
operators.slip_closure, the same closure the explicit face Laplacian uses.

Sign conventions: Neumann data is the *outward* normal derivative on each
wall, so at the bottom wall dp/dz = -g_bottom and at the top dp/dz =
+g_top.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .errors import SimulationError
from .fields import FaceField, discrete_divergence, discrete_gradient
from .grid import ChannelGrid
from .operators import SlipMatrixB, laplacian_center, slip_closure

# Defects up to this relative size are treated as discretization noise and
# projected out; anything larger means the problem was assembled wrong.
COMPAT_REJECT_TOL = 1e-3
# Below this absolute size the data itself is round-off dust (e.g. the
# normal-velocity boundary terms of a flow whose w is exactly zero up to
# projection noise) and the relative test is meaningless.
COMPAT_ABS_FLOOR = 1e-12
# Post-projection solvability must hold essentially exactly.
COMPAT_TOL = 1e-8
SOLVER_TOL = 1e-11


def _eig_periodic(n, h):
    k = np.arange(n)
    return -(2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / h**2


def _eig_reflect(n, h):
    k = np.arange(n)
    return -(2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


def _transform(f):
    """Forward transform over the trailing (x, y, z) axes; leading axes
    are a batch."""
    return sfft.rfft2(sfft.dct(f, type=2, axis=-1), axes=(-3, -2))


def _inverse(fh, nx, ny):
    return sfft.idct(sfft.irfft2(fh, s=(nx, ny), axes=(-3, -2)), type=2, axis=-1)


def _eig_sum(grid: ChannelGrid):
    """Eigenvalues of the 7-point stencil: the periodic x/y ones on the
    rfft2 mode plane plus the zero-flux z ones of the cosine modes."""
    return (_eig_periodic(grid.nx, grid.hx)[:, None, None]
            + _eig_periodic(grid.ny, grid.hy)[None, : grid.ny // 2 + 1, None]
            + _eig_reflect(grid.nz, grid.hz)[None, None, :])


def solve_helmholtz_neumann(b: np.ndarray, coef: float, grid: ChannelGrid) -> np.ndarray:
    """(I - coef * L) x = b with the zero-flux centered Laplacian L.

    coef >= 0 keeps the operator positive definite; used by the implicit
    director diffusion step.  Works on (..., nx, ny, nz) stacks.
    """
    denom = 1.0 - coef * _eig_sum(grid)
    return _inverse(_transform(b) / denom, grid.nx, grid.ny)


def solve_poisson_neumann(rhs: np.ndarray, g_bottom, g_top, grid: ChannelGrid,
                          tol: float = SOLVER_TOL) -> np.ndarray:
    """Solve lap p = rhs with outward normal derivative data on the walls.

    The boundary data is folded into the wall-adjacent cells, turning the
    problem into the homogeneous zero-flux one; the solvability defect
    (Gauss mismatch between the rhs integral and the boundary flux) is
    projected out when it is discretization-sized and rejected when it is
    structural.  Returns the zero-mean solution and asserts the residual of
    the actual 7-point stencil.
    """
    g_bottom = np.broadcast_to(np.asarray(g_bottom, dtype=float), (grid.nx, grid.ny))
    g_top = np.broadcast_to(np.asarray(g_top, dtype=float), (grid.nx, grid.ny))

    vol = grid.cell_volume
    da = grid.hx * grid.hy
    defect = float(np.sum(rhs) * vol - (np.sum(g_bottom) + np.sum(g_top)) * da)
    scale = float(np.sqrt(np.sum(rhs * rhs) * vol)
                  + np.sqrt((np.sum(g_bottom**2) + np.sum(g_top**2)) * da))
    # the negated comparisons also reject nan
    if not (abs(defect) <= COMPAT_REJECT_TOL * scale + COMPAT_ABS_FLOOR):
        raise SimulationError(
            f"incompatible Neumann problem: volume/boundary mismatch {defect:.3e} "
            f"exceeds {COMPAT_REJECT_TOL:.0e} of the data scale {scale:.3e}")

    b = rhs.astype(float, copy=True)
    b[:, :, 0] -= g_bottom / grid.hz
    b[:, :, -1] -= g_top / grid.hz
    b -= np.sum(b) / b.size  # mean removal == the defect projection above

    post = abs(float(np.sum(b) * vol))
    if not (post <= COMPAT_TOL * scale + COMPAT_ABS_FLOOR):
        raise SimulationError(f"compatibility projection failed: {post:.3e}")

    denom = _eig_sum(grid)
    denom[0, 0, 0] = 1.0
    ph = _transform(b) / denom
    ph[0, 0, 0] = 0.0
    p = _inverse(ph, grid.nx, grid.ny)
    p -= np.mean(p)

    res = laplacian_center(p, grid) - b
    rnorm = float(np.sqrt(np.sum(res * res)))
    bnorm = float(np.sqrt(np.sum(b * b)))
    if not (rnorm <= tol * max(bnorm, 1e-300) + tol):
        raise SimulationError(
            f"poisson residual {rnorm:.3e} above tol*|rhs| = {tol * bnorm:.3e}")
    return p


def project(u_star: FaceField, dt: float, grid: ChannelGrid,
            tol: float = SOLVER_TOL):
    """Remove the divergence of u_star; returns (u, dp) with
    u = u_star - dt * grad dp.  Homogeneous Neumann data (the wall faces of
    u_star already carry the impermeability zeros, which projection
    preserves)."""
    rhs = discrete_divergence(u_star, grid) / dt
    dp = solve_poisson_neumann(rhs, 0.0, 0.0, grid, tol)
    g = discrete_gradient(dp, grid)
    u = FaceField(u_star.x - dt * g.x, u_star.y - dt * g.y, u_star.z - dt * g.z)
    return u, dp


def _wall_dzz_w(u: FaceField, grid: ChannelGrid):
    """One-sided second z-derivative of the normal velocity on each wall
    (the only surviving part of lap(u).n there, since w vanishes on the
    whole wall plane)."""
    hz2 = grid.hz**2
    w = u.z
    bot = (-5.0 * w[:, :, 1] + 4.0 * w[:, :, 2] - w[:, :, 3]) / hz2
    top = (-5.0 * w[:, :, -2] + 4.0 * w[:, :, -3] - w[:, :, -4]) / hz2
    return bot, top


def pressure_split(u: FaceField, F: FaceField, eps: float, grid: ChannelGrid,
                   tol: float = SOLVER_TOL):
    """Two zero-mean pressures for the velocity u and its momentum forcing
    F = u.grad u + grad d . lap d on faces: the convective/elastic part p1
    (data -div F, boundary data -(u.grad u).n which vanishes identically on
    flat walls) and the viscous part p2 (harmonic, driven by eps * lap(u).n
    on the walls).  p2 is exactly linear in eps.
    """
    p1 = solve_poisson_neumann(-discrete_divergence(F, grid), 0.0, 0.0, grid, tol)

    if eps == 0.0:
        return p1, np.zeros_like(p1)
    bot, top = _wall_dzz_w(u, grid)
    # outward normal derivative: at the bottom n = -ez so g = -eps*lap w
    p2 = solve_poisson_neumann(np.zeros_like(p1), -eps * bot, eps * top, grid, tol)
    return p1, p2


# ---------------------------------------------------------------------------
# implicit viscosity (optional stiff-run path)
# ---------------------------------------------------------------------------

def solve_viscous_helmholtz(b: FaceField, coef: float, B: SlipMatrixB,
                            grid: ChannelGrid) -> FaceField:
    """(I - coef * lap) u = b with slip closure for the tangential
    components and exact wall zeros for the normal one.

    The diagonal of B is implicit through the Robin end row; the b12
    cross coupling is evaluated from b (lagged), which keeps first-order
    time accuracy and unconditional stability for diagonal-dominant B.

    A tangential column is the zero-flux operator A_N of
    solve_helmholtz_neumann (reflected end layers) plus delta on its two wall
    rows, delta = coef*(1 - alpha)/hz^2 >= 0 with alpha = a11 or a22 of
    slip_closure.  The rank-2 correction (capacitance matrix) is taken in
    cosine space: the channel's reflection symmetry makes the 2x2 wall
    block of A_N^-1 [[a, b], [b, a]], so it splits into one scalar solve
    for the even and one for the odd cosine modes.  The wall sums y_0 +-
    y_{n-1} of y = A_N^-1 rhs and a +- b are even/odd-mode sums of cosine
    coefficients, and the correction is subtracted in cosine space.
    One transform pair serves both tangential components.  The normal
    component has Dirichlet wall rows, which the type-I sine transform of
    its interior faces diagonalizes exactly.
    """
    nz, hz2 = grid.nz, grid.hz**2
    alphas, lags = slip_closure(b, B, grid)
    rhs = np.stack([b.x, b.y])
    for r, (lag_b, lag_t) in zip(rhs, lags):
        r[:, :, 0] -= coef * lag_b / hz2
        r[:, :, -1] -= coef * lag_t / hz2

    denom = 1.0 - coef * _eig_sum(grid)
    delta = coef * (1.0 - np.array(alphas))[:, None, None] / hz2
    # the cosine coefficients of e_0 (those of e_{n-1} alternate in sign)
    # and the idct weights that read a column's wall value off them
    e = 2.0 * np.cos(np.pi * np.arange(nz) / (2 * nz))
    wgt = e / nz
    wgt[0] /= 2.0
    e_d = e / denom
    xh = _transform(rhs) / denom
    for par in (slice(0, None, 2), slice(1, None, 2)):
        c = (delta * np.sum(wgt[par] * xh[..., par], axis=-1)
             / (1.0 + delta * np.sum(wgt[par] * e_d[..., par], axis=-1)))
        xh[..., par] -= c[..., None] * e_d[..., par]
    x, y = _inverse(xh, grid.nx, grid.ny)

    # the type-I sine spectrum of the nz - 1 interior faces is the cosine
    # spectrum above without its k = 0 entry
    z = np.zeros_like(b.z)
    zh = sfft.rfft2(sfft.dst(b.z[:, :, 1:-1], type=1, axis=-1), axes=(0, 1))
    zh /= denom[..., 1:]
    z[:, :, 1:-1] = sfft.idst(sfft.irfft2(zh, s=(grid.nx, grid.ny), axes=(0, 1)),
                              type=1, axis=-1)
    return FaceField(x, y, z)
