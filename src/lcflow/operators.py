"""Discrete spatial operators on the staggered channel grid.

x and y wrap; every z stencil sees a wall through the end layers of its
field, the rows just beyond it in z, passed as (below, above):

  * cell-centered director-type fields reflect evenly, taking their own
    first and last layers (zero normal derivative through the wall faces);
  * tangential velocity components take the Robin rows of the slip
    condition d(u_tau)/dz = +/- (B u)_tau (+ at the bottom wall, - at the
    top), derived from the vorticity form of the boundary condition with
    outward normals (0,0,-1) and (0,0,1);
  * the interior faces of the normal velocity take its wall faces, which
    hold the exact impermeability zeros.

Advection is the skew-symmetric split form (Morinishi et al., JCP 1998):
the divergence form with half the discrete velocity divergence
subtracted, which makes <f, advect(u, f)> telescope to zero exactly
(periodic wrap in x/y, zero mass flux through the walls), without assuming
the advecting field is divergence-free.  Its face fluxes and the
subtracted divergence cancel in the volume's own value of f, which leaves
the product form (v_R f[i+1] - v_L f[i-1]) / 2h per axis, v_L and v_R the
velocity on the volume's lower and upper faces.  One kernel, _split_form,
writes it on the cells and on each face family; its callers supply the
field's end layers in z and the velocity on the volumes' faces.  The
Laplacians of both field kinds are likewise one 7-point kernel, _lap7.
_lap7 and _dz_ends take their z neighbours from one flat pass, _z_pair.

The director couplings, the elastic stress sigma_i = sum_c (d_i d_c)
(lap d_c) of the momentum forcing and the pointwise |grad d|^2 of the
director's reaction term, are summed from a stream of grad d's parts
(_director_parts), one part in one buffer at a time.  Every gradient in
the package is such a stream of parts (_gradient_parts): none builds a
gradient stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FaceField, _face_mean
from .grid import ChannelGrid, _ddx, _ddy, _shift_mean, _shift_op, _z_pair


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
    """Coefficients of the discrete Robin end rows on both walls.

    The relation is discretized at the wall face with the wall value taken
    as the mean of the end row and the wall layer, e.g. at the bottom for u:

        (u0 - ug)/hz = b11*(u0 + ug)/2 + b12 * v_wall

    so that ug = a11*u0 - cu*v_wall (and vg = a22*v0 - cv*u_wall).  The
    cross coupling uses the other component of u extrapolated to the wall
    at the matching staggered position, so b12 != 0 stays second order.

    Returns ((a11, a22), lags): lags holds the (bottom, top) rows
    cu*v_wall and cv*u_wall of u and of v, with v_wall the four-point mean
    of v on u points (u_wall of u on v points), all 0.0 when b12 == 0.
    """
    hz = grid.hz
    a11 = (1.0 - 0.5 * hz * B.b11) / (1.0 + 0.5 * hz * B.b11)
    a22 = (1.0 - 0.5 * hz * B.b22) / (1.0 + 0.5 * hz * B.b22)
    if B.b12 == 0.0:
        return (a11, a22), ((0.0, 0.0), (0.0, 0.0))
    cu = hz * B.b12 / (1.0 + 0.5 * hz * B.b11)
    cv = hz * B.b12 / (1.0 + 0.5 * hz * B.b22)
    walls = [0, 1, -2, -1]   # the means are pointwise per layer
    return (a11, a22), tuple(
        (c * _wall_tangential(g, "bottom"), c * _wall_tangential(g, "top"))
        for c, g in ((cu, _v_on_u_points(u.y[:, :, walls])),
                     (cv, _u_on_v_points(u.x[:, :, walls]))))


def _slip_ghost_rows(u: FaceField, B: SlipMatrixB, grid: ChannelGrid):
    """The end layers of the tangential velocities under slip_closure,
    ((u below, u above), (v below, v above)), each alpha*f[wall] - lag."""
    alphas, lags = slip_closure(u, B, grid)
    return tuple((a * f[:, :, 0] - lag[0], a * f[:, :, -1] - lag[1])
                 for f, a, lag in zip((u.x, u.y), alphas, lags))


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _dz_ends(f, ends, hz, out=None):
    """Central z difference of f with end layers ends = (below, above)."""
    out = _z_pair(np.subtract, f, ends, out)
    out /= 2.0 * hz
    return out


def _lap7(f, ends, grid: ChannelGrid):
    """7-point Laplacian of f on the (x, y, z) axes (the last three): the
    two neighbours along each axis summed over that axis' h^2 (in z the end
    layers ends = (below, above), or None to leave the first and last
    layers to the caller), minus 2 (hx^-2 + hy^-2 + hz^-2) f."""
    out = _shift_op(np.add, f, 1, f, -1, -3)
    out /= grid.hx**2
    t = _shift_op(np.add, f, 1, f, -1, -2)
    t /= grid.hy**2
    out += t
    _z_pair(np.add, f, ends, t)
    t /= grid.hz**2
    out += t
    np.multiply(f, 2.0 * (grid.hx**-2 + grid.hy**-2 + grid.hz**-2), out=t)
    out -= t
    return out


def laplacian_center(f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """7-point Laplacian on centered data, zero-flux closure in z.

    This is the exact stencil the transform-based solvers invert; keeping a
    single definition here is what makes the projection residual land at
    round-off.
    """
    return _lap7(f, (f[..., 0], f[..., -1]), grid)


def laplacian_face(u: FaceField, B: SlipMatrixB, grid: ChannelGrid) -> FaceField:
    """Componentwise Laplacian of a velocity field.

    Tangential components close with the slip end rows; the normal
    component reads its exact wall zeros as z neighbours (result on wall
    faces is set to zero -- those faces are constrained, not evolved).
    """
    lu, lv = (_lap7(f, ends, grid) for f, ends
              in zip((u.x, u.y), _slip_ghost_rows(u, B, grid)))
    lw = _lap7(u.z, None, grid)
    lw[..., 0] = lw[..., -1] = 0.0
    return FaceField(lu, lv, lw)


def curl_center(u: FaceField, B: SlipMatrixB, grid: ChannelGrid,
                rows=None) -> np.ndarray:
    """Vorticity at cell centers, (3, nx, ny, nz), second order.

    Each derivative is taken on the component's own faces and averaged to
    the centers (_face_mean), and component i of the curl is the difference
    d_j u_k - d_k u_j of two of them, (i, j, k) cyclic: the first is
    averaged into the result, the second into one buffer subtracted from
    it.  rows are the slip end rows of u (_slip_ghost_rows), built here
    unless the caller has them.
    """
    ends = _slip_ghost_rows(u, B, grid) if rows is None else rows
    comps, h = u.components(), (grid.hx, grid.hy, grid.hz)

    def centered(k, j, out):
        # d_j u_k on the faces of u_k, averaged to the centers into out
        if j == 2:
            g = _dz_ends(comps[k], ends[k], grid.hz)
        else:
            g = (_ddx, _ddy)[j](comps[k], h[j])
        return _face_mean(g, k, out)

    w = np.empty((3,) + grid.shape)
    buf = np.empty(grid.shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        centered(k, j, w[i])
        w[i] -= centered(j, k, buf)
    return w


# ---------------------------------------------------------------------------
# advection (energy-conserving split form)
# ---------------------------------------------------------------------------

def _split_form(f, ends, periodic, vz, out=None):
    """Split-form u . grad f on one family of control volumes, in product
    form: per axis v_R f[i+1] - v_L f[i-1], v_L and v_R the velocity on the
    volume's lower and upper faces scaled by 1/(2h).  That is the flux
    difference over h (face values the two-point means of f) minus f/2
    times the velocity's, whose terms in the volume's own f cancel.

    ends holds the layers of f just beyond it in z (below, above); periodic
    holds (axis 0 or 1, scaled velocity v on the volumes' faces normal to
    it, offset s: face i of v lies between volumes i - s and i) for x and y
    in summation order, own axis first for a face family, which is x + y
    bit for bit as two terms commute; vz is the scaled velocity on every z
    face.  Per axis the term is shift(f v, -s) - v shift(f, s), which for
    s = -1 is v_L f[i-1] - v_R f[i+1]: there v is scaled by -1/(2h).  v and
    vz may be one component for a stacked f.  The result is built in out,
    any array of f's shape, when given.
    """
    q = np.empty(f.shape)
    terms = []
    for (a, v, s), dst in zip(periodic, (out, None)):
        v = np.broadcast_to(v, f.shape)
        np.multiply(f, v, out=q)
        t = _shift_op(np.multiply, v, 0, f, s, a - 3, dst)
        terms.append(_shift_op(np.subtract, q, -s, t, 0, a - 3, t))
    out, t = terms
    out += t
    np.multiply(f[..., 1:], vz[..., 1:-1], out=q[..., :-1])
    np.multiply(ends[1], vz[..., -1], out=q[..., -1])
    np.multiply(f[..., :-1], vz[..., 1:-1], out=t[..., 1:])
    np.multiply(ends[0], vz[..., 0], out=t[..., 0])
    q -= t
    out += q
    return out


def advect_center(u: FaceField, f: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """u . grad f for cell-centered f (scalar or stacked components).

    The split form, exactly antisymmetric in the L2 pairing with f, on the
    components of u scaled once by 1/(2h), one component of a stacked f at
    a time into one result array, so its work arrays are single fields.
    Transport of a constant c returns (c/2) div u, bounded by the
    divergence residual.  The cell faces carry u itself, so the wall faces
    carry exactly zero mass flux.
    """
    vx, vy, vz = (c * (0.5 / h) for c, h
                  in zip(u.components(), (grid.hx, grid.hy, grid.hz)))
    out = np.empty(f.shape)
    for g, dst in zip(np.reshape(f, (-1,) + grid.shape),
                      np.reshape(out, (-1,) + grid.shape)):
        _split_form(g, (g[..., 0], g[..., -1]), ((0, vx, 1), (1, vy, 1)), vz,
                    dst)
    return out


def advect_face(u: FaceField, f: FaceField, grid: ChannelGrid) -> FaceField:
    """u . grad f for a staggered vector f (velocity self-advection when
    f is u): the split form on each component's own control volumes, whose
    faces carry the two-point means of u, each formed as one sum times
    0.25/h (-0.25/h on the own-axis faces, offset -1); w's wall rows of the
    result are 0."""
    h = (grid.hx, grid.hy, grid.hz)
    ax, ay = (_split_form(g, (g[..., 0], g[..., -1]),
                          ((a, _shift_mean(own, -1, a, -0.25 / h[a]), -1),
                           (1 - a, _shift_mean(other, 1, a, 0.25 / h[1 - a]),
                            1)),
                          _shift_mean(u.z, 1, a, 0.25 / h[2]))
              for a, g, own, other in ((0, f.x, u.x, u.y), (1, f.y, u.y, u.x)))
    xm, ym, zm = (np.add(c[:, :, :-1], c[:, :, 1:]) for c in u.components())
    for m, hc in zip((xm, ym, zm), h):
        m *= 0.25 / hc
    az = np.empty(f.z.shape)
    _split_form(f.z[:, :, 1:-1], (f.z[:, :, 0], f.z[:, :, -1]),
                ((0, xm, 1), (1, ym, 1)), zm, az[:, :, 1:-1])
    az[:, :, 0] = az[:, :, -1] = 0.0
    return FaceField(ax, ay, az)


# ---------------------------------------------------------------------------
# director couplings
# ---------------------------------------------------------------------------

def _director_parts(d, grid: ChannelGrid, ld=None, sigma=None, grad_sq=None):
    """Yield the parts d_i d_c of grad d, _gradient_parts(d, _dz_reflect,
    grid) in one buffer, for d a director (3, ...) or a scalar field, and
    add each part, once it has been consumed, into the given arrays:

      sigma (3,) + grid.shape: sigma_i = sum_c (d_i d_c)(lap d_c), with
          ld = lap d (laplacian_center);
      grad_sq grid.shape: |grad d|^2 = sum_i sum_c (d_i d_c)^2.

    Each sum is built in part order, its first term written and the rest
    added, in the part's own buffer where nothing else reads the part.
    sigma then gets + 0.0, as if summed from +0.0: that turns a sum of
    -0.0 products only into +0.0 and leaves every other value as it is.
    A consumer that needs only the sums exhausts the stream; one that walks
    the parts (the record's conormal walk of grad d) gets all three from
    one pass.
    """
    ncomp = int(np.prod(d.shape[:-3]))
    lds = None if ld is None else np.reshape(ld, (ncomp,) + grid.shape)
    sq = (np.empty(grid.shape) if grad_sq is not None and sigma is not None
          else None)
    for k, g in enumerate(_gradient_parts(d, _dz_reflect, grid)):
        yield g
        i, c = divmod(k, ncomp)
        if grad_sq is not None:
            if k == 0:
                np.multiply(g, g, out=grad_sq)
            else:
                grad_sq += np.multiply(g, g, out=g if sigma is None else sq)
        if sigma is not None:
            if c == 0:
                np.multiply(g, lds[0], out=sigma[i])
            else:
                g *= lds[c]
                sigma[i] += g
    if sigma is not None:
        sigma += 0.0


def grad_sq_director(d: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """|grad d|^2 at centers, summed from the stream of grad d's parts
    (_director_parts): no gradient stack is built."""
    out = np.empty(grid.shape)
    for _ in _director_parts(d, grid, grad_sq=out):
        pass
    return out


def stress_to_faces(sigma: np.ndarray, grid: ChannelGrid) -> FaceField:
    """Average a centered vector (3, nx, ny, nz) onto faces; wall-normal
    entries on the walls are zero (consistent with zero boundary data in
    the pressure problems)."""
    fx = _shift_mean(sigma[0], 1, 0)
    fy = _shift_mean(sigma[1], 1, 1)
    fz = np.empty((grid.nx, grid.ny, grid.nz + 1))
    np.add(sigma[2][:, :, :-1], sigma[2][:, :, 1:], out=fz[:, :, 1:-1])
    fz[:, :, 1:-1] *= 0.5
    fz[:, :, 0] = fz[:, :, -1] = 0.0
    return FaceField(fx, fy, fz)


def _add_stress(adv: FaceField, sigma: np.ndarray,
                grid: ChannelGrid) -> FaceField:
    """adv + stress_to_faces(sigma), summed into adv's arrays."""
    for a, s in zip(adv.components(),
                    stress_to_faces(sigma, grid).components()):
        a += s
    return adv


def momentum_forcing(u: FaceField, d: np.ndarray, ld: np.ndarray,
                     grid: ChannelGrid) -> FaceField:
    """u . grad u + sigma(d) on faces: the explicit part of the momentum
    equation shared by the predictor, the pressure problems and the
    time-derivative diagnostics.  The stress sigma_i = sum_c (d_i d_c)
    (lap d_c) is summed from the stream of grad d's parts
    (_director_parts) of the director d and the caller's lap d (ld,
    laplacian_center), after the advection, so no gradient stack is built
    and the advection's work arrays never meet the stress."""
    adv = advect_face(u, u, grid)
    sigma = np.empty((3,) + grid.shape)
    for _ in _director_parts(d, grid, ld, sigma):
        pass
    return _add_stress(adv, sigma, grid)


# ---------------------------------------------------------------------------
# gradients at centers
# ---------------------------------------------------------------------------

def _dz_reflect(f, hz, out=None):
    """_dz_ends of a director-type field: its own first and last layers as
    end layers (zero normal derivative through the wall faces)."""
    return _dz_ends(f, (f[..., 0], f[..., -1]), hz, out)


def _gradient_parts(f, dz, grid: ChannelGrid):
    """Yield the gradient of centered f (scalar or stacked components) one
    part d_i f_c at a time, in the C order of its stack (3,) + f.shape:
    derivative axis i outer, component c inner.  d/dx and d/dy are _ddx
    and _ddy, d/dz is dz(g, hz, out) (_dz_centered, one-sided at the walls
    and so free of any wall condition, or _dz_reflect).  Every part is
    built into one buffer, valid until the next is yielded, so a walk over
    the parts never holds the stack."""
    comps = np.reshape(f, (-1,) + f.shape[-3:])
    buf = np.empty(comps.shape[1:])
    for op, h in ((_ddx, grid.hx), (_ddy, grid.hy), (dz, grid.hz)):
        for g in comps:
            yield op(g, h, buf)
