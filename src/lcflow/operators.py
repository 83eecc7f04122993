"""Discrete spatial operators on the staggered channel grid.

Boundary handling happens through ghost layers in z (x and y wrap):

  * cell-centered director-type fields get even reflection (zero normal
    derivative through the wall faces);
  * tangential velocity components get a Robin ghost implementing the slip
    condition d(u_tau)/dz = +/- (B u)_tau (+ at the bottom wall, - at the
    top), derived from the vorticity form of the boundary condition with
    outward normals (0,0,-1) and (0,0,1);
  * the normal velocity needs no ghost: its wall faces hold the exact
    impermeability zeros.

Advection uses the divergence form with half the discrete velocity
divergence subtracted, which makes <f, advect(u, f)> telescope to zero
exactly (periodic wrap in x/y, zero mass flux through the walls), without
assuming the advecting field is divergence-free.  One kernel, _split_form,
writes it on the cells and on each face family; its callers supply the
field's end layers in z and the velocity on the volumes' faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FaceField, face_to_center
from .grid import (ChannelGrid, _ddx, _ddy, _dz_centered, _shift_diff,
                   _shift_mean, _shift_op)


@dataclass(frozen=True)
class SlipMatrixB:
    """Symmetric friction matrix acting on the tangential velocity."""
    b11: float = 0.0
    b12: float = 0.0
    b22: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.b11 == 0.0 and self.b12 == 0.0 and self.b22 == 0.0

    def apply(self, ut, vt):
        """(B u)_tau for tangential components (arrays or scalars)."""
        return (self.b11 * ut + self.b12 * vt,
                self.b12 * ut + self.b22 * vt)


def pad_neumann(f: np.ndarray) -> np.ndarray:
    """Even reflection ghost layer on both walls (last axis -> nz+2)."""
    return np.concatenate([f[..., :1], f, f[..., -1:]], axis=-1)


def _wall_tangential(f4, which):
    """Second-order extrapolation of a centered field onto a wall plane."""
    if which == "bottom":
        return 1.5 * f4[:, :, 0] - 0.5 * f4[:, :, 1]
    return 1.5 * f4[:, :, -1] - 0.5 * f4[:, :, -2]


def _v_on_u_points(v):
    # four-point average of y-face data onto x-face positions
    return _shift_mean(_shift_mean(v, 1, 0), -1, 1)


def _u_on_v_points(u):
    return _shift_mean(_shift_mean(u, -1, 0), 1, 1)


def slip_closure(u: FaceField, B: SlipMatrixB, grid: ChannelGrid):
    """Coefficients of the discrete Robin ghost row on both walls.

    The relation is discretized at the wall face with the wall value taken
    as the ghost/interior average, e.g. at the bottom for u:

        (u0 - ug)/hz = b11*(u0 + ug)/2 + b12 * v_wall

    so that ug = a11*u0 - cu*v_wall (and vg = a22*v0 - cv*u_wall).  The
    cross coupling uses the other component of u extrapolated to the wall
    at the matching staggered position, so b12 != 0 stays second order.

    Returns (a11, a22, cu, cv, vw_b, vw_t, uw_b, uw_t): the wall values of
    v on u points and of u on v points at the bottom/top, all 0.0 when
    b12 == 0.
    """
    hz = grid.hz
    a11 = (1.0 - 0.5 * hz * B.b11) / (1.0 + 0.5 * hz * B.b11)
    a22 = (1.0 - 0.5 * hz * B.b22) / (1.0 + 0.5 * hz * B.b22)
    cu = hz * B.b12 / (1.0 + 0.5 * hz * B.b11)
    cv = hz * B.b12 / (1.0 + 0.5 * hz * B.b22)
    if B.b12 != 0.0:
        v4 = _v_on_u_points(u.y)
        u4 = _u_on_v_points(u.x)
        vw_b = _wall_tangential(v4, "bottom")
        vw_t = _wall_tangential(v4, "top")
        uw_b = _wall_tangential(u4, "bottom")
        uw_t = _wall_tangential(u4, "top")
    else:
        vw_b = vw_t = uw_b = uw_t = 0.0
    return a11, a22, cu, cv, vw_b, vw_t, uw_b, uw_t


def _slip_ghost_rows(u: FaceField, B: SlipMatrixB, grid: ChannelGrid):
    """The ghost rows of slip_closure: ((ug, vg) bottom, (ug, vg) top)."""
    a11, a22, cu, cv, vw_b, vw_t, uw_b, uw_t = slip_closure(u, B, grid)
    return tuple((a11 * u.x[:, :, k] - cu * vw, a22 * u.y[:, :, k] - cv * uw)
                 for k, vw, uw in ((0, vw_b, uw_b), (-1, vw_t, uw_t)))


def fill_ghosts_navier_slip(u: FaceField, B: SlipMatrixB, grid: ChannelGrid):
    """Ghost-extended tangential velocities (each (nx, ny, nz+2)), with the
    ghost rows of slip_closure."""
    (ug_b, vg_b), (ug_t, vg_t) = _slip_ghost_rows(u, B, grid)
    x_ext = np.concatenate([ug_b[:, :, None], u.x, ug_t[:, :, None]], axis=2)
    y_ext = np.concatenate([vg_b[:, :, None], u.y, vg_t[:, :, None]], axis=2)
    return x_ext, y_ext


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _dz_ghost(f_ext, hz, out=None):
    out = np.subtract(f_ext[..., 2:], f_ext[..., :-2], out=out)
    out /= 2.0 * hz
    return out


def _dzz_ghost(f_ext, hz):
    return (f_ext[..., 2:] - 2.0 * f_ext[..., 1:-1] + f_ext[..., :-2]) / hz**2


def _lap_xy(f, grid: ChannelGrid):
    """Periodic x/y part of the 7-point Laplacian on the (x, y) axes
    (third- and second-from-last)."""
    f2 = 2.0 * f
    out = _shift_op(np.subtract, f, -1, f2, 0, -3)
    _shift_op(np.add, out, 0, f, 1, -3, out)
    out /= grid.hx**2
    t = _shift_op(np.subtract, f, -1, f2, 0, -2, f2)
    _shift_op(np.add, t, 0, f, 1, -2, t)
    t /= grid.hy**2
    out += t
    return out


def laplacian_center(f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """7-point Laplacian on centered data, zero-flux closure in z.

    This is the exact stencil the transform-based solvers invert; keeping a
    single definition here is what makes the projection residual land at
    round-off.
    """
    out = _lap_xy(f, grid)
    out += _dzz_ghost(pad_neumann(f), grid.hz)
    return out


def laplacian_face(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> FaceField:
    """Componentwise Laplacian of a velocity field.

    Tangential components close with the slip ghosts; the normal component
    uses its exact wall zeros (result on wall faces is set to zero -- those
    faces are constrained, not evolved).
    """
    x_ext, y_ext = fill_ghosts_navier_slip(u, B, grid)
    lu = _lap_xy(u.x, grid)
    lu += _dzz_ghost(x_ext, grid.hz)
    lv = _lap_xy(u.y, grid)
    lv += _dzz_ghost(y_ext, grid.hz)
    lw = np.zeros_like(u.z)
    lw[:, :, 1:-1] = _lap_xy(u.z, grid)[:, :, 1:-1] + _dzz_ghost(u.z, grid.hz)
    return FaceField(lu, lv, lw)


def curl_center(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> np.ndarray:
    """Vorticity at cell centers, (3, nx, ny, nz), second order.

    Each derivative is taken on the component's own faces and averaged to
    the centers: the first stack holds (du/dz, dv/dx, dw/dy), the second
    (du/dy, dv/dz, dw/dx), and the curl is their crosswise difference.
    """
    x_ext, y_ext = fill_ghosts_navier_slip(u, B, grid)
    p = face_to_center(FaceField(_dz_ghost(x_ext, grid.hz), _ddx(u.y, grid.hx),
                                 _ddy(u.z, grid.hy)))
    q = face_to_center(FaceField(_ddy(u.x, grid.hy), _dz_ghost(y_ext, grid.hz),
                                 _ddx(u.z, grid.hx)))
    return np.stack([p[2] - q[1], p[0] - q[2], p[1] - q[0]])


# ---------------------------------------------------------------------------
# advection (energy-conserving split form)
# ---------------------------------------------------------------------------

def _split_form(f, ends, periodic, vz, grid: ChannelGrid):
    """Split-form u . grad f on one family of control volumes: the flux
    differences (upper face minus lower, over h) minus f/2 times the same
    differences of the velocity.

    ends holds the layers of f just beyond it in z (below, above); periodic
    holds (axis 0 or 1, velocity v on the volumes' faces normal to it,
    offset s: face i of v lies between volumes i - s and i) for x and y in
    summation order, own axis first for a face family, which is x + y bit
    for bit as two terms commute; vz is the velocity on every z face.
    """
    diffs = []
    for a, v, s in periodic:
        ax, h, lo = a - 3, (grid.hx, grid.hy)[a], (1 - s) // 2
        flux = _shift_mean(f, s, ax)
        flux *= v
        diffs.append((_shift_diff(flux, lo - 1, lo, ax, h),
                      _shift_diff(v, lo - 1, lo, ax, h)))
    (out, div), (flux_diff, v_diff) = diffs
    out += flux_diff
    div += v_diff
    flux = np.empty(f.shape[:-1] + (f.shape[-1] + 1,))   # on the z faces
    np.add(ends[0], f[..., 0], out=flux[..., 0])
    np.add(f[..., :-1], f[..., 1:], out=flux[..., 1:-1])
    np.add(f[..., -1], ends[1], out=flux[..., -1])
    flux *= 0.5
    flux *= vz
    out += (flux[..., 1:] - flux[..., :-1]) / grid.hz
    div += (vz[..., 1:] - vz[..., :-1]) / grid.hz
    out -= 0.5 * f * div
    return out


def advect_center(u: FaceField, f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """u . grad f for cell-centered f (scalar or stacked components).

    Divergence form with -(f/2) div u correction; exactly antisymmetric in
    the L2 pairing with f.  Transport of a constant returns (c/2) div u,
    bounded by the divergence residual.  The cell faces carry u itself, so
    the wall faces carry exactly zero mass flux.
    """
    return _split_form(f, (f[..., 0], f[..., -1]), ((0, u.x, 1), (1, u.y, 1)),
                       u.z, grid)


def advect_face(u: FaceField, f: FaceField, grid: ChannelGrid) -> FaceField:
    """u . grad f for a staggered vector f (velocity self-advection when
    f is u): the split form on each component's own control volumes, whose
    faces carry the two-point means of u; w's wall rows of the result are 0."""
    ax, ay = (_split_form(g, (g[..., 0], g[..., -1]),
                          ((a, _shift_mean(own, -1, a), -1),
                           (1 - a, _shift_mean(other, 1, a), 1)),
                          _shift_mean(u.z, 1, a), grid)
              for a, g, own, other in ((0, f.x, u.x, u.y), (1, f.y, u.y, u.x)))
    xm, ym, zm = (0.5 * (g[:, :, :-1] + g[:, :, 1:]) for g in u.components())
    az = np.zeros_like(f.z)
    az[:, :, 1:-1] = _split_form(f.z[:, :, 1:-1], (f.z[:, :, 0], f.z[:, :, -1]),
                                 ((0, xm, 1), (1, ym, 1)), zm, grid)
    return FaceField(ax, ay, az)


# ---------------------------------------------------------------------------
# director couplings
# ---------------------------------------------------------------------------

def director_gradient(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """grad tensor of a centered (3,...) field with zero-flux z closure;
    out[i, j] = d_i d_j (derivative axis first)."""
    out = np.empty((3,) + d.shape)
    _ddx(d, grid.hx, out[0])
    _ddy(d, grid.hy, out[1])
    _dz_ghost(pad_neumann(d), grid.hz, out[2])
    return out


def elastic_stress(gd: np.ndarray, ld: np.ndarray) -> np.ndarray:
    """sigma_i = sum_j (d_i d_j) (lap d_j) at cell centers, from the
    director gradient gd and the centered Laplacian ld of d."""
    return np.einsum("icxyz,cxyz->ixyz", gd, ld)


def grad_sq_director(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """|grad d|^2 at centers."""
    grad = director_gradient(d, grid)
    return np.sum(grad * grad, axis=(0, 1))


def stress_to_faces(sigma: np.ndarray, grid: ChannelGrid) -> FaceField:
    """Average a centered vector (3, nx, ny, nz) onto faces; wall-normal
    entries on the walls are zero (consistent with zero boundary data in
    the pressure problems)."""
    fx = _shift_mean(sigma[0], 1, 0)
    fy = _shift_mean(sigma[1], 1, 1)
    fz = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    fz[:, :, 1:-1] = 0.5 * (sigma[2][:, :, :-1] + sigma[2][:, :, 1:])
    return FaceField(fx, fy, fz)


def momentum_forcing(u: FaceField, gd: np.ndarray, ld: np.ndarray,
                     grid: ChannelGrid) -> FaceField:
    """u . grad u + sigma(d) on faces: the explicit part of the momentum
    equation shared by the predictor, the pressure problems and the
    time-derivative diagnostics.  The stress comes from the caller's grad d
    (gd, director_gradient) and lap d (ld, laplacian_center)."""
    adv = advect_face(u, u, grid)
    sig = stress_to_faces(elastic_stress(gd, ld), grid)
    return FaceField(adv.x + sig.x, adv.y + sig.y, adv.z + sig.z)


# ---------------------------------------------------------------------------
# gradients at centers (no boundary-condition assumption)
# ---------------------------------------------------------------------------

def center_gradient(f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """grad of centered data (scalar or stacked components), out[i] = d_i f.

    Periodic central differences in x/y and the one-sided z closure of
    _dz_centered, so it does not bake in any wall condition.
    """
    out = np.empty((3,) + f.shape)
    _ddx(f, grid.hx, out[0])
    _ddy(f, grid.hy, out[1])
    _dz_centered(f, grid.hz, out[2])
    return out
