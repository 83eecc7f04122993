"""Manufactured steady solution for convergence studies.

The fields below solve the coupled system exactly once the symbolically
derived forcings are added to both equations:

    u  = (c1 sin(2 pi y) cos(pi z),  c2 sin(2 pi x) cos(pi z),  0)
    p  = cp cos(2 pi x) cos(pi z)
    d  = (sin beta, 0, cos beta),  beta = b cos(pi z) cos(2 pi x)

on the unit channel.  Every choice is deliberate:

  * u.x is x-independent and u.y is y-independent with u.z = 0, so the
    staggered face samples are discretely divergence-free to round-off,
    and the exact solution passes through the projection unchanged;
  * d(u)/dz, dp/dz and d(beta)/dz all vanish at z = 0, 1, so the solution
    is compatible with free-slip walls and zero-flux closures (no spurious
    wall layers polluting the order measurement);
  * the director is a unit vector by construction.

Forcings are F_u = (u.grad)u + grad p + grad(d).lap(d) - eps lap(u) and
F_d = (u.grad)d - lap d - |grad d|^2 d.  The forcing and the exact
solution share one sampler: their expressions are lambdified in one pass
and sampled once per grid on the staggered locations the integrator
expects, so the forcing reaches integrator.step as steady data.
"""

import numpy as np
import sympy as sp

from lcflow.fields import FaceField

C1, C2, CP, BTW = 0.3, 0.2, 0.1, 0.4


def _symbols():
    return sp.symbols("x y z")


def _exact_symbolic():
    x, y, z = _symbols()
    u = [C1 * sp.sin(2 * sp.pi * y) * sp.cos(sp.pi * z),
         C2 * sp.sin(2 * sp.pi * x) * sp.cos(sp.pi * z),
         sp.Integer(0)]
    p = CP * sp.cos(2 * sp.pi * x) * sp.cos(sp.pi * z)
    beta = BTW * sp.cos(sp.pi * z) * sp.cos(2 * sp.pi * x)
    d = [sp.sin(beta), sp.Integer(0), sp.cos(beta)]
    return u, p, d


def _lap(f, x, y, z):
    return sp.diff(f, x, 2) + sp.diff(f, y, 2) + sp.diff(f, z, 2)


def _sample(fn, xs, ys, zs, shape):
    val = fn(xs[:, None, None], ys[None, :, None], zs[None, None, :])
    return np.broadcast_to(np.asarray(val, dtype=float), shape).copy()


def _sample_staggered(grid, u, centered):
    """Lambdify the velocity triple u and the centered expressions in one
    pass and sample them where the integrator keeps them: each velocity
    component on its faces (w zero on the walls) and the rest at the cell
    centers.  Returns (FaceField, stacked centered samples)."""
    x, y, z = _symbols()
    fx, fy, fz, *fc = [sp.lambdify((x, y, z), f, "numpy")
                       for f in (*u, *centered)]
    xf, yf, zf = grid.x_faces(), grid.y_faces(), grid.z_faces()
    xc, yc, zc = grid.x_centers(), grid.y_centers(), grid.z_centers()
    shape = grid.shape
    uz = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    uz[:, :, 1:-1] = _sample(fz, xc, yc, zf[1:-1],
                             (grid.nx, grid.ny, grid.nz - 1))
    uf = FaceField(_sample(fx, xf, yc, zc, shape),
                   _sample(fy, xc, yf, zc, shape), uz)
    return uf, np.stack([_sample(f, xc, yc, zc, shape) for f in fc])


def build_forcing(eps, grid):
    """The steady forcing integrator.step takes, sampled on grid: (velocity
    forcing FaceField, director forcing array)."""
    x, y, z = _symbols()
    u, p, d = _exact_symbolic()
    lap_u = [_lap(ui, x, y, z) for ui in u]
    lap_d = [_lap(dc, x, y, z) for dc in d]
    gsq = sum(sp.diff(dc, v) ** 2 for dc in d for v in (x, y, z))

    def advect(f):
        return u[0] * sp.diff(f, x) + u[1] * sp.diff(f, y) + u[2] * sp.diff(f, z)

    fu_sym = []
    for i, v in enumerate((x, y, z)):
        sigma_i = sum(sp.diff(d[j], v) * lap_d[j] for j in range(3))
        fu_sym.append(advect(u[i]) + sp.diff(p, v) + sigma_i - eps * lap_u[i])
    fd_sym = [advect(d[c]) - lap_d[c] - gsq * d[c] for c in range(3)]
    return _sample_staggered(grid, fu_sym, fd_sym)


def exact_state_fields(grid):
    """Sample (u FaceField, p centers, d centers) on the staggered grid."""
    u, p, d = _exact_symbolic()
    uf, pd = _sample_staggered(grid, u, (p, *d))
    return uf, pd[0], pd[1:]


def mms_errors(grid, state):
    """L2 errors of (u, p, d) against the sampled exact solution.

    The pressure comparison is mean-free on both sides (the discrete
    pressure is only determined up to a constant).
    """
    uf, pc, dc = exact_state_fields(grid)
    vol = grid.cell_volume
    du = [state.u.x - uf.x, state.u.y - uf.y, state.u.z - uf.z]
    e_u = np.sqrt(vol * (np.sum(du[0] ** 2) + np.sum(du[1] ** 2)
                         + np.sum(du[2][:, :, 1:-1] ** 2)))
    dp = (state.p - state.p.mean()) - (pc - pc.mean())
    e_p = np.sqrt(vol * np.sum(dp ** 2))
    dd = state.d - dc
    e_d = np.sqrt(vol * np.sum(dd ** 2))
    return e_u, e_p, e_d
