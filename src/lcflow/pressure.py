"""Poisson/Helmholtz solves, the projection, and the pressure split.

All solvers invert the exact 7-point stencils from the operators module by
diagonalizing in the periodic directions (FFT) and the wall-normal
direction (cosine transform for the zero-flux closure, tridiagonal solves
when a Robin row breaks the symmetry).  Residuals are therefore round-off
level and are asserted, not hoped for.  The transforms act on the trailing
(x, y, z) axes, so a stack of fields (the three director components) is
solved in one batched call.

Nothing physical is assembled here: the right-hand side of the pressure
problems is the divergence of operators.momentum_forcing, and the implicit
viscous solve takes its Robin wall rows from operators.slip_closure, the
same closure the explicit face Laplacian uses.  stress_to_faces lives in
operators and stays importable from this module.

Sign conventions: Neumann data is the *outward* normal derivative on each
wall, so at the bottom wall dp/dz = -g_bottom and at the top dp/dz =
+g_top.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .errors import SimulationError
from .fields import FaceField, State, discrete_divergence, discrete_gradient
from .grid import ChannelGrid
from .operators import (SlipMatrixB, laplacian_center, momentum_forcing,
                        slip_closure)
from .operators import stress_to_faces  # noqa: F401  (kept importable here)

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


def _mode_plane(grid: ChannelGrid):
    """Eigenvalues of the periodic x/y stencil on the rfft2 mode plane."""
    return (_eig_periodic(grid.nx, grid.hx)[:, None]
            + _eig_periodic(grid.ny, grid.hy)[None, : grid.ny // 2 + 1])


def _eig_sum(grid: ChannelGrid):
    return _mode_plane(grid)[:, :, None] + _eig_reflect(grid.nz, grid.hz)[None, None, :]


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
    if abs(defect) > COMPAT_REJECT_TOL * scale + COMPAT_ABS_FLOOR:
        raise SimulationError(
            f"incompatible Neumann problem: volume/boundary mismatch {defect:.3e} "
            f"exceeds {COMPAT_REJECT_TOL:.0e} of the data scale {scale:.3e}")

    b = rhs.astype(float, copy=True)
    b[:, :, 0] -= g_bottom / grid.hz
    b[:, :, -1] -= g_top / grid.hz
    b -= np.sum(b) / b.size  # mean removal == the defect projection above

    post = abs(float(np.sum(b) * vol))
    if post > COMPAT_TOL * scale + COMPAT_ABS_FLOOR:
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
    if rnorm > tol * max(bnorm, 1e-300) + tol:
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


def pressure_split(state: State, eps: float, grid: ChannelGrid,
                   tol: float = SOLVER_TOL):
    """Two zero-mean pressures: the convective/elastic part p1 (data
    -div(u.grad u + grad d . lap d), boundary data -(u.grad u).n which
    vanishes identically on flat walls) and the viscous part p2 (harmonic,
    driven by eps * lap(u).n on the walls).  p2 is exactly linear in eps.
    """
    rhs1 = -discrete_divergence(momentum_forcing(state.u, state.d, grid), grid)
    p1 = solve_poisson_neumann(rhs1, 0.0, 0.0, grid, tol)

    if eps == 0.0:
        return p1, np.zeros_like(p1)
    bot, top = _wall_dzz_w(state.u, grid)
    # outward normal derivative: at the bottom n = -ez so g = -eps*lap w
    p2 = solve_poisson_neumann(np.zeros_like(p1), -eps * bot, eps * top, grid, tol)
    return p1, p2


def full_pressure(state: State, eps: float, grid: ChannelGrid,
                  tol: float = SOLVER_TOL) -> np.ndarray:
    """Single-solve pressure with the combined right-hand side and boundary
    data of both split problems (used to check superposition)."""
    rhs = -discrete_divergence(momentum_forcing(state.u, state.d, grid), grid)
    bot, top = _wall_dzz_w(state.u, grid)
    return solve_poisson_neumann(rhs, -eps * bot, eps * top, grid, tol)


# ---------------------------------------------------------------------------
# implicit viscosity (optional stiff-run path)
# ---------------------------------------------------------------------------

def _thomas_batched(main_edge, main_in, off, rhs):
    """Tridiagonal solve along the last axis, vectorized over leading axes.

    Constant sub/super diagonal `off` (scalar); main diagonal `main_in`
    except the first and last rows, which share the one edge diagonal
    `main_edge` (the Robin rows of both walls are alike, and a Dirichlet
    column passes `main_in` there).  Both diagonals broadcast against
    rhs[..., 0].  Diagonally dominant by construction here, so no
    pivoting; the columns have at least two rows (make_grid).
    """
    n = rhs.shape[-1]
    cp = np.empty(rhs.shape, dtype=float)
    dp = np.empty_like(rhs)
    cp[..., 0] = off / main_edge
    dp[..., 0] = rhs[..., 0] / main_edge
    for k in range(1, n):
        mk = main_edge if k == n - 1 else main_in
        beta = mk - off * cp[..., k - 1]
        cp[..., k] = off / beta
        dp[..., k] = (rhs[..., k] - off * dp[..., k - 1]) / beta
    x = np.empty_like(rhs)
    x[..., -1] = dp[..., -1]
    for k in range(n - 2, -1, -1):
        x[..., k] = dp[..., k] - cp[..., k] * x[..., k + 1]
    return x


def solve_viscous_helmholtz(b: FaceField, coef: float, B: SlipMatrixB,
                            grid: ChannelGrid) -> FaceField:
    """(I - coef * lap) u = b with slip closure for the tangential
    components and exact wall zeros for the normal one.

    The diagonal of B is implicit through the Robin ghost row; the b12
    cross coupling is evaluated from b (lagged), which keeps first-order
    time accuracy and unconditional stability for diagonal-dominant B.
    Every component is one column solve: rfft2 in x/y, a tridiagonal
    solve per mode along z, irfft2 back.
    """
    hz2 = grid.hz**2
    lam = _mode_plane(grid)
    off = -coef / hz2
    main_in = 1.0 + coef * (2.0 / hz2) - coef * lam
    a11, a22, cu, cv, vw_b, vw_t, uw_b, uw_t = slip_closure(b, B, grid)

    def _column_solve(rhs, main_edge):
        xh = _thomas_batched(main_edge, main_in, off,
                             sfft.rfft2(rhs, axes=(0, 1)))
        return sfft.irfft2(xh, s=(grid.nx, grid.ny), axes=(0, 1))

    def _tan(comp, alpha, cross_b, cross_t, c12):
        rhs = comp.copy()
        rhs[:, :, 0] -= coef * c12 * cross_b / hz2
        rhs[:, :, -1] -= coef * c12 * cross_t / hz2
        return _column_solve(rhs, 1.0 + coef * ((2.0 - alpha) / hz2) - coef * lam)

    x = _tan(b.x, a11, vw_b, vw_t, cu)
    y = _tan(b.y, a22, uw_b, uw_t, cv)
    # normal component: Dirichlet zeros on the walls, interior columns
    z = np.zeros_like(b.z)
    z[:, :, 1:-1] = _column_solve(b.z[:, :, 1:-1], main_in)
    return FaceField(x, y, z)
