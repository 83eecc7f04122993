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
assuming the advecting field is divergence-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FaceField, discrete_divergence, face_to_center
from .grid import ChannelGrid, _ddx, _ddy, _dz_centered


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
    t = v + np.roll(v, 1, axis=0)
    return 0.25 * (t + np.roll(t, -1, axis=1))


def _u_on_v_points(u):
    t = u + np.roll(u, -1, axis=0)
    return 0.25 * (t + np.roll(t, 1, axis=1))


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


def fill_ghosts_navier_slip(u: FaceField, B: SlipMatrixB, grid: ChannelGrid):
    """Ghost-extended tangential velocities (each (nx, ny, nz+2)), with the
    ghost rows of slip_closure."""
    a11, a22, cu, cv, vw_b, vw_t, uw_b, uw_t = slip_closure(u, B, grid)
    ug_b = a11 * u.x[:, :, 0] - cu * vw_b
    ug_t = a11 * u.x[:, :, -1] - cu * vw_t
    vg_b = a22 * u.y[:, :, 0] - cv * uw_b
    vg_t = a22 * u.y[:, :, -1] - cv * uw_t

    x_ext = np.concatenate([ug_b[:, :, None], u.x, ug_t[:, :, None]], axis=2)
    y_ext = np.concatenate([vg_b[:, :, None], u.y, vg_t[:, :, None]], axis=2)
    return x_ext, y_ext


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _dz_ghost(f_ext, hz):
    return (f_ext[..., 2:] - f_ext[..., :-2]) / (2.0 * hz)


def _dzz_ghost(f_ext, hz):
    return (f_ext[..., 2:] - 2.0 * f_ext[..., 1:-1] + f_ext[..., :-2]) / hz**2


def _lap_xy(f, grid: ChannelGrid):
    """Periodic x/y part of the 7-point Laplacian on the (x, y) axes
    (third- and second-from-last)."""
    out = (np.roll(f, -1, axis=-3) - 2.0 * f + np.roll(f, 1, axis=-3)) / grid.hx**2
    out += (np.roll(f, -1, axis=-2) - 2.0 * f + np.roll(f, 1, axis=-2)) / grid.hy**2
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

def advect_center(u: FaceField, f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """u . grad f for cell-centered f (scalar or stacked components).

    Divergence form with -(f/2) div u correction; exactly antisymmetric in
    the L2 pairing with f.  Transport of a constant returns (c/2) div u,
    bounded by the divergence residual.
    """
    fx = 0.5 * (f + np.roll(f, 1, axis=-3))              # at x-faces
    fy = 0.5 * (f + np.roll(f, 1, axis=-2))              # at y-faces
    fz = 0.5 * (f[..., :-1] + f[..., 1:])                # at interior z-faces

    flux_x = u.x * fx
    flux_y = u.y * fy
    term = (np.roll(flux_x, -1, axis=-3) - flux_x) / grid.hx
    term += (np.roll(flux_y, -1, axis=-2) - flux_y) / grid.hy

    # interior z-face fluxes; wall faces carry exactly zero mass flux, so
    # cell k picks up +flux at its top face (k+1) and -flux at its bottom (k)
    flux_z = u.z[:, :, 1:-1] * fz
    term[..., :-1] += flux_z / grid.hz
    term[..., 1:] -= flux_z / grid.hz
    return term - 0.5 * f * discrete_divergence(u, grid)


def _advect_tangential(u_own, u_other, w, f, a, grid: ChannelGrid):
    """Split-form u . grad f on the control volumes of the x (a = 0) or
    y (a = 1) faces: u_own is the velocity normal to those faces, u_other
    the other tangential one, w the normal velocity.  Fluxes are summed
    own axis, other periodic axis, z; the divergence (own + other) + z,
    which is (x + y) + z bit for bit: a sum of two floats commutes."""
    b = 1 - a
    h = (grid.hx, grid.hy)
    Uc = 0.5 * (u_own + np.roll(u_own, -1, axis=a))      # at centers
    Von = 0.5 * (u_other + np.roll(u_other, 1, axis=a))  # at (xf, yf, zc)
    Won = 0.5 * (w + np.roll(w, 1, axis=a))              # at (own face, zf)
    fc = 0.5 * (f + np.roll(f, -1, axis=a))
    fo = 0.5 * (f + np.roll(f, 1, axis=b))
    fz = 0.5 * (f[:, :, :-1] + f[:, :, 1:])
    flux = Uc * fc
    out = (flux - np.roll(flux, 1, axis=a)) / h[a]
    flux = Von * fo
    out += (np.roll(flux, -1, axis=b) - flux) / h[b]
    flux = Won[:, :, 1:-1] * fz
    out[:, :, :-1] += flux / grid.hz
    out[:, :, 1:] -= flux / grid.hz
    div = ((Uc - np.roll(Uc, 1, axis=a)) / h[a]
           + (np.roll(Von, -1, axis=b) - Von) / h[b]
           + (Won[:, :, 1:] - Won[:, :, :-1]) / grid.hz)
    out -= 0.5 * f * div
    return out


def advect_face(u: FaceField, f: FaceField, grid: ChannelGrid) -> FaceField:
    """u . grad f for a staggered vector f (velocity self-advection when
    f is u).  Same split form per component on its own control volume."""
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    ax = _advect_tangential(u.x, u.y, u.z, f.x, 0, grid)
    ay = _advect_tangential(u.y, u.x, u.z, f.y, 1, grid)

    # --- z component (interior faces only) --------------------------------
    az = np.zeros_like(f.z)
    Wc = 0.5 * (u.z[:, :, :-1] + u.z[:, :, 1:])          # at centers
    Uon = 0.5 * (u.x[:, :, :-1] + u.x[:, :, 1:])         # at (xf, yc, zf int)
    Von = 0.5 * (u.y[:, :, :-1] + u.y[:, :, 1:])         # at (xc, yf, zf int)
    fzx = 0.5 * (f.z + np.roll(f.z, 1, axis=0))[:, :, 1:-1]
    fzy = 0.5 * (f.z + np.roll(f.z, 1, axis=1))[:, :, 1:-1]
    fzc = 0.5 * (f.z[:, :, :-1] + f.z[:, :, 1:])         # at centers
    flux = Uon * fzx
    az[:, :, 1:-1] = (np.roll(flux, -1, axis=0) - flux) / hx
    flux = Von * fzy
    az[:, :, 1:-1] += (np.roll(flux, -1, axis=1) - flux) / hy
    flux = Wc * fzc
    az[:, :, 1:-1] += (flux[:, :, 1:] - flux[:, :, :-1]) / hz
    divw = (np.roll(Uon, -1, axis=0) - Uon) / hx \
        + (np.roll(Von, -1, axis=1) - Von) / hy \
        + (Wc[:, :, 1:] - Wc[:, :, :-1]) / hz
    az[:, :, 1:-1] -= 0.5 * f.z[:, :, 1:-1] * divw

    return FaceField(ax, ay, az)


# ---------------------------------------------------------------------------
# director couplings
# ---------------------------------------------------------------------------

def director_gradient(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """grad tensor of a centered (3,...) field with zero-flux z closure;
    out[i, j] = d_i d_j (derivative axis first)."""
    d_ext = pad_neumann(d)
    return np.stack([
        _ddx(d, grid.hx),
        _ddy(d, grid.hy),
        _dz_ghost(d_ext, grid.hz),
    ])


def elastic_stress(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """sigma_i = sum_j (d_i d_j) (lap d_j) at cell centers."""
    grad = director_gradient(d, grid)
    lap = laplacian_center(d, grid)
    return np.einsum("icxyz,cxyz->ixyz", grad, lap)


def grad_sq_director(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """|grad d|^2 at centers."""
    grad = director_gradient(d, grid)
    return np.sum(grad * grad, axis=(0, 1))


def stress_to_faces(sigma: np.ndarray, grid: ChannelGrid) -> FaceField:
    """Average a centered vector (3, nx, ny, nz) onto faces; wall-normal
    entries on the walls are zero (consistent with zero boundary data in
    the pressure problems)."""
    fx = 0.5 * (sigma[0] + np.roll(sigma[0], 1, axis=0))
    fy = 0.5 * (sigma[1] + np.roll(sigma[1], 1, axis=1))
    fz = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    fz[:, :, 1:-1] = 0.5 * (sigma[2][:, :, :-1] + sigma[2][:, :, 1:])
    return FaceField(fx, fy, fz)


def momentum_forcing(u: FaceField, d: np.ndarray, grid: ChannelGrid) -> FaceField:
    """u . grad u + sigma(d) on faces: the explicit part of the momentum
    equation shared by the predictor, the pressure problems and the
    time-derivative diagnostics."""
    adv = advect_face(u, u, grid)
    sig = stress_to_faces(elastic_stress(d, grid), grid)
    return FaceField(adv.x + sig.x, adv.y + sig.y, adv.z + sig.z)


# ---------------------------------------------------------------------------
# gradients at centers (no boundary-condition assumption)
# ---------------------------------------------------------------------------

def center_gradient(f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """grad of centered data (scalar or stacked components), out[i] = d_i f.

    Periodic central differences in x/y and the one-sided z closure of
    _dz_centered, so it does not bake in any wall condition.
    """
    return np.stack([
        _ddx(f, grid.hx),
        _ddy(f, grid.hy),
        _dz_centered(f, grid.hz),
    ])


def velocity_gradient_center(u: FaceField, grid: ChannelGrid) -> np.ndarray:
    """grad u at cell centers, (3, 3, nx, ny, nz), out[i, j] = d_i u_j;
    used by diagnostics and remainders."""
    return center_gradient(face_to_center(u), grid)
