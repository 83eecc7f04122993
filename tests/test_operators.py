"""Spatial operators: wall end layers, curl, Laplacians, advection, director terms.

Analytic targets are manufactured trigonometric profiles; the elastic stress
is cross-checked against a symbolically computed reference (sympy), built
from the same continuum formula but evaluated by a completely separate code
path.
"""

import numpy as np
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from lcflow import ChannelGrid, InitialConditionSpec, SimConfig, SlipMatrixB, init_state
from lcflow.diagnostics import kinetic_energy
from lcflow.fields import FaceField, State, face_to_center, zero_face_field
from lcflow.integrator import step
from lcflow.operators import (
    _dz_ends,
    _dzz_ends,
    _lap_xy,
    _slip_ghost_rows,
    advect_center,
    advect_face,
    center_gradient,
    curl_center,
    director_gradient,
    elastic_stress,
    grad_sq_director,
    laplacian_center,
    laplacian_face,
)

from support import (face_field, grids, padded, padded_dz, padded_dzz, seeds,
                     viscous_dissipation)

B0 = SlipMatrixB(0.0, 0.0, 0.0)


def _grid(nx=8, ny=8, nz=16, lx=1.0, ly=1.0, lz=1.0):
    return ChannelGrid(nx, ny, nz, lx, ly, lz)


def _random_solenoidal(grid, amplitude=0.3, seed=1):
    return init_state(grid, InitialConditionSpec("random-solenoidal",
                                                 amplitude=amplitude, seed=seed)).u


def _shear_state(grid, profile):
    """u = (profile(z), 0, 0) with a rest director."""
    u = zero_face_field(grid)
    u.x[:] = profile(grid.z_centers())
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    return State(u, np.zeros(grid.shape), d, 0.0)


# -------------------------------------------------------------- end layers


def test_slip_matrix_basics():
    assert B0.is_zero
    B = SlipMatrixB(1.0, 0.5, 2.0)
    assert not B.is_zero
    bu, bv = B.apply(np.array(2.0), np.array(3.0))
    assert bu == 2.0 * 1.0 + 3.0 * 0.5
    assert bv == 2.0 * 0.5 + 3.0 * 2.0


def test_free_slip_ghosts_reflect():
    grid = _grid()
    u = _random_solenoidal(grid)
    (xb, xt), (yb, _) = _slip_ghost_rows(u, B0, grid)
    assert np.array_equal(xb, u.x[..., 0])
    assert np.array_equal(xt, u.x[..., -1])
    assert np.array_equal(yb, u.y[..., 0])


def test_zero_field_keeps_zero_ghosts():
    grid = _grid()
    u = zero_face_field(grid)
    xe, ye = _slip_ghost_rows(u, SlipMatrixB(1.0, 0.3, 2.0), grid)
    assert np.max(np.abs(xe)) == 0.0 and np.max(np.abs(ye)) == 0.0


def test_robin_ghost_satisfies_discrete_condition():
    # the ghost is defined by (u0 - ug)/hz = b*(u0 + ug)/2 + cross terms;
    # with a diagonal friction the relation must hold to round-off
    grid = _grid(nz=12)
    b = 0.8
    u = _random_solenoidal(grid, seed=5)
    (ug, _), _ = _slip_ghost_rows(u, SlipMatrixB(b, 0.0, b), grid)
    u0 = u.x[..., 0]
    lhs = (u0 - ug) / grid.hz
    rhs = b * (u0 + ug) / 2.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
    # closed form: ug = u0 * (1 - b hz/2) / (1 + b hz/2)
    a11 = (1.0 - grid.hz * b / 2.0) / (1.0 + grid.hz * b / 2.0)
    assert np.max(np.abs(ug - a11 * u0)) <= 1e-13


# positive-semidefinite slip matrices: b12 = rho * sqrt(b11 * b22)
_psd_slip = hst.builds(
    lambda b11, b22, rho: SlipMatrixB(b11, rho * np.sqrt(b11 * b22), b22),
    hst.floats(0.0, 20.0), hst.floats(0.0, 20.0), hst.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds, B=_psd_slip)
def test_robin_ghost_satisfies_slip_relation_on_both_walls(grid, seed, B):
    # the discrete relation, at the bottom for u,
    #     (u0 - ug)/hz = b11*(u0 + ug)/2 + b12 * v_wall,
    # with v_wall the four-point mean of v around the u point extrapolated
    # linearly from the two wall-adjacent layers; at the top the outward
    # normal flips the sign of both sides, so the same relation holds with
    # the top layer.  v mirrors it with b22 and u_wall.
    u = face_field(np.random.default_rng(seed), grid)
    xe, ye = _slip_ghost_rows(u, B, grid)
    # u.x[i, j] sits at x = i hx, y = (j + 1/2) hy; u.y[i, j] at
    # x = (i + 1/2) hx, y = j hy; np.roll(f, s, axis)[i] = f[i - s]
    v_on_u = 0.25 * (u.y + np.roll(u.y, 1, 0) + np.roll(u.y, -1, 1)
                     + np.roll(u.y, (1, -1), (0, 1)))
    u_on_v = 0.25 * (u.x + np.roll(u.x, -1, 0) + np.roll(u.x, 1, 1)
                     + np.roll(u.x, (-1, 1), (0, 1)))
    for inner, end, near in ((0, 0, 1), (-1, 1, -2)):
        for f, g, other, b in ((u.x, xe, v_on_u, B.b11),
                               (u.y, ye, u_on_v, B.b22)):
            f0, fg = f[:, :, inner], g[end]
            wall = 1.5 * other[:, :, inner] - 0.5 * other[:, :, near]
            res = (f0 - fg) / grid.hz - (b * (f0 + fg) / 2.0 + B.b12 * wall)
            scale = ((np.max(np.abs(f0)) + np.max(np.abs(fg))) / grid.hz
                     + b * np.max(np.abs(f0 + fg))
                     + abs(B.b12) * np.max(np.abs(wall)))
            assert np.max(np.abs(res)) <= 1e-13 * scale


def test_robin_ghost_tracks_smooth_extension():
    # For a profile that satisfies the slip condition at both walls the
    # ghost value tracks the analytic continuation at third order in hz.
    b = 1.0
    errs = []
    for nz in (16, 32, 64):
        grid = _grid(nx=4, ny=4, nz=nz)
        U = lambda z: np.sin(np.pi * z / grid.lz) + np.pi / (b * grid.lz)
        u = zero_face_field(grid)
        u.x[:] = U(grid.z_centers())
        (xb, xt), _ = _slip_ghost_rows(u, SlipMatrixB(b, 0.0, b), grid)
        errs.append(max(np.max(np.abs(xb - U(-grid.hz / 2))),
                        np.max(np.abs(xt - U(grid.lz + grid.hz / 2)))))
    assert errs[0] / errs[1] > 6.0
    assert errs[1] / errs[2] > 6.0
    assert errs[2] < 1e-5


def test_neumann_ghosts_reflect():
    # the director operators close z by even reflection: their z parts are
    # the padded formulas on f with its own wall layers copied beyond it
    grid = _grid()
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3,) + grid.shape)
    ext = padded(f, (f[..., 0], f[..., -1]))
    assert ext.shape == f.shape[:-1] + (grid.nz + 2,)
    assert np.array_equal(ext[..., 0], f[..., 0])
    assert np.array_equal(ext[..., -1], f[..., -1])
    assert np.array_equal(director_gradient(f, grid)[2],
                          padded_dz(ext, grid.hz))
    assert np.array_equal(laplacian_center(f, grid),
                          _lap_xy(f, grid) + padded_dzz(ext, grid.hz))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds, B=_psd_slip, stacked=hst.booleans())
def test_end_layer_stencils_match_padded_copies(grid, seed, B, stacked):
    # the z stencils read their wall closure from end layers; on reflected
    # and on Robin ends (b12 != 0 included) they give bit for bit what the
    # same formula gives on an (nz+2) padded copy
    rng = np.random.default_rng(seed)
    u = face_field(rng, grid)
    robin = _slip_ghost_rows(u, B, grid)
    if stacked:
        d = rng.standard_normal((3,) + grid.shape)
        f = np.stack([u.x, u.y, u.x])
        ends = tuple(np.stack([xe, ye, xe]) for xe, ye in zip(*robin))
        cases = [(d, (d[..., 0], d[..., -1])), (f, ends)]
    else:
        cases = [(u.x, (u.x[..., 0], u.x[..., -1])), (u.x, robin[0]),
                 (u.y, robin[1])]
    for f, ends in cases:
        ext = padded(f, ends)
        assert np.array_equal(_dz_ends(f, ends, grid.hz), padded_dz(ext, grid.hz))
        out = np.empty(f.shape)
        assert _dz_ends(f, ends, grid.hz, out) is out
        assert np.array_equal(out, padded_dz(ext, grid.hz))
        assert np.array_equal(_dzz_ends(f, ends, grid.hz),
                              padded_dzz(ext, grid.hz))


# -------------------------------------------------------------------- curl


def test_curl_of_uniform_flow_vanishes():
    grid = _grid()
    u = zero_face_field(grid)
    u.x += 1.0
    u.y += -2.0
    om = curl_center(u, B0, grid)
    assert np.max(np.abs(om)) == 0.0


def test_curl_shear_profile():
    # u = (sin(pi z/lz), 0, 0): omega = (0, (pi/lz) cos(pi z/lz), 0).  The
    # profile violates the free-slip condition at the walls, so the ghost
    # closure is O(1) wrong on the first/last layer; the interior converges
    # at second order and the wall layers stay bounded.
    errs = []
    for nz in (32, 64):
        grid = _grid(nx=4, ny=4, nz=nz)
        zc = grid.z_centers()
        u = zero_face_field(grid)
        u.x[:] = np.sin(np.pi * zc / grid.lz)
        om = curl_center(u, B0, grid)
        want = (np.pi / grid.lz) * np.cos(np.pi * zc / grid.lz)
        err = np.abs(om[1] - want)
        assert np.max(np.abs(om[0])) == 0.0 and np.max(np.abs(om[2])) == 0.0
        assert np.max(err[..., [0, -1]]) <= np.pi / grid.lz
        errs.append(np.max(err[..., 1:-1]))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_curl_compatible_profile_full_grid():
    # cos(pi z/lz) has zero wall slope, so reflection ghosts are consistent
    # and the error is second order on every layer including the walls
    errs = []
    for nz in (32, 64):
        grid = _grid(nx=4, ny=4, nz=nz)
        zc = grid.z_centers()
        u = zero_face_field(grid)
        u.x[:] = np.cos(np.pi * zc / grid.lz)
        om = curl_center(u, B0, grid)
        want = -(np.pi / grid.lz) * np.sin(np.pi * zc / grid.lz)
        errs.append(np.max(np.abs(om[1] - want)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6
    assert errs[1] < 2e-3


def test_curl_of_gradient_vanishes():
    # discrete gradients are curl-free to round-off: the averaged cross
    # differences in the center-sampled curl cancel exactly on a gradient
    from lcflow import discrete_gradient
    for n in (16, 32):
        grid = _grid(nx=n, ny=4, nz=n)
        xc = grid.x_centers()[:, None, None]
        zc = grid.z_centers()[None, None, :]
        chi = np.sin(2 * np.pi * xc / grid.lx) * np.cos(np.pi * zc / grid.lz) \
            * np.ones(grid.shape)
        g = discrete_gradient(chi, grid)
        om = curl_center(g, B0, grid)
        scale = max(np.max(np.abs(g.x)), np.max(np.abs(g.z))) / grid.hz
        assert np.max(np.abs(om)) <= 1e-13 * scale


# -------------------------------------------------------------- laplacians


def test_laplacian_center_constant():
    grid = _grid()
    assert np.max(np.abs(laplacian_center(np.full(grid.shape, 3.3), grid))) == 0.0


def test_laplacian_center_periodic_mode():
    # cos(2 pi x/lx) is an exact eigenvector of the discrete stencil; the
    # mismatch with the continuum eigenvalue -(2 pi/lx)^2 is k^4 h^2/12
    for nx in (16, 32):
        grid = _grid(nx=nx, ny=4, nz=4)
        k = 2 * np.pi / grid.lx
        xc = grid.x_centers()[:, None, None]
        f = np.cos(k * xc) * np.ones(grid.shape)
        got = laplacian_center(f, grid)
        err = np.max(np.abs(got + k ** 2 * f))
        assert err <= 1.2 * k ** 4 * grid.hx ** 2 / 12.0


def test_laplacian_center_wall_mode():
    # cos(pi z/lz) is compatible with the reflective closure, so the error
    # is uniformly second order including the first and last layers
    errs = []
    for nz in (16, 32):
        grid = _grid(nx=4, ny=4, nz=nz)
        k = np.pi / grid.lz
        zc = grid.z_centers()[None, None, :]
        f = np.cos(k * zc) * np.ones(grid.shape)
        err = np.abs(laplacian_center(f, grid) + k ** 2 * f)
        assert np.max(err[..., [0, -1]]) <= 1.2 * k ** 4 * grid.hz ** 2 / 12.0
        errs.append(np.max(err))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


# --------------------------------------------------------------- advection


def test_advect_by_zero_velocity():
    grid = _grid()
    u = zero_face_field(grid)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    assert np.max(np.abs(advect_center(u, f, grid))) == 0.0
    g = _random_solenoidal(grid)
    a = advect_face(u, g, grid)
    assert np.max(np.abs(a.x)) == 0.0 and np.max(np.abs(a.z)) == 0.0


def test_advect_constant_scalar():
    # transporting a constant by a discretely solenoidal field leaves only
    # c/2 * div(u), which is round-off here
    grid = _grid(nx=12, ny=10, nz=14)
    u = _random_solenoidal(grid)
    f = np.full(grid.shape, 2.0)
    assert np.max(np.abs(advect_center(u, f, grid))) <= 1e-12


def test_advect_center_skew_symmetry():
    grid = ChannelGrid(12, 10, 14, 1.0, 1.3, 0.9)
    u = _random_solenoidal(grid)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid.shape)
    ip = np.sum(f * advect_center(u, f, grid)) * grid.cell_volume
    norm = np.sum(f * f) * grid.cell_volume
    assert abs(ip) <= 1e-10 * norm


def test_advect_face_skew_symmetry():
    grid = ChannelGrid(12, 10, 14, 1.0, 1.3, 0.9)
    u = _random_solenoidal(grid, seed=1)
    g = _random_solenoidal(grid, amplitude=0.5, seed=9)
    a = advect_face(u, g, grid)
    ip = (np.sum(g.x * a.x) + np.sum(g.y * a.y)
          + np.sum(g.z[:, :, 1:-1] * a.z[:, :, 1:-1])) * grid.cell_volume
    norm = (np.sum(g.x ** 2) + np.sum(g.y ** 2)
            + np.sum(g.z[:, :, 1:-1] ** 2)) * grid.cell_volume
    assert abs(ip) <= 1e-10 * norm


_XYZ = sp.symbols("x y z")
_X, _Y, _Z = _XYZ
_ADV_U = (sp.sin(2 * sp.pi * _X) * sp.cos(2 * sp.pi * _Y) * sp.cos(sp.pi * _Z),
          sp.cos(2 * sp.pi * _X) * sp.sin(4 * sp.pi * _Y) * sp.cos(sp.pi * _Z)
          + 0.3,
          sp.cos(2 * sp.pi * _X) * sp.cos(2 * sp.pi * _Y) * sp.sin(sp.pi * _Z))
_ADV_F = (sp.cos(2 * sp.pi * _X) * sp.sin(2 * sp.pi * _Y) * sp.cos(sp.pi * _Z),
          sp.sin(4 * sp.pi * _X) * sp.cos(2 * sp.pi * _Y)
          * sp.cos(2 * sp.pi * _Z),
          sp.sin(2 * sp.pi * _X) * sp.cos(2 * sp.pi * _Y) * sp.sin(sp.pi * _Z),
          sp.cos(2 * sp.pi * _X + 0.6) * sp.sin(2 * sp.pi * _Y)
          * sp.cos(sp.pi * _Z))


def _sample(expr, x, y, z):
    vals = sp.lambdify(_XYZ, expr, "numpy")(x[:, None, None], y[None, :, None],
                                            z[None, None, :])
    return np.broadcast_to(vals, (len(x), len(y), len(z))).astype(float)


def _advection_errors(n):
    """Max errors of advect_face on the x, y and interior w faces and of
    advect_center, against u . grad f + (f/2) div u, which the split form
    approximates for any u."""
    grid = _grid(n, n, n)
    xc, yc, zc = grid.x_centers(), grid.y_centers(), grid.z_centers()
    xf, yf, zf = grid.x_faces(), grid.y_faces(), grid.z_faces()
    pos = ((xf, yc, zc), (xc, yf, zc), (xc, yc, zf), (xc, yc, zc))
    div = sum(sp.diff(c, v) for c, v in zip(_ADV_U, _XYZ))
    want = [_sample(sum(c * sp.diff(f, v) for c, v in zip(_ADV_U, _XYZ))
                    + f * div / 2, *p) for f, p in zip(_ADV_F, pos)]
    u = FaceField(*(_sample(c, *p) for c, p in zip(_ADV_U, pos)))
    a = advect_face(u, FaceField(*(_sample(f, *p) for f, p
                                   in zip(_ADV_F[:3], pos))), grid)
    got = [a.x, a.y, a.z, advect_center(u, _sample(_ADV_F[3], *pos[3]), grid)]
    got[2], want[2] = got[2][:, :, 1:-1], want[2][:, :, 1:-1]
    return np.array([np.max(np.abs(g - w)) for g, w in zip(got, want)])


def test_advection_converges_at_second_order():
    # the antisymmetry and transposition properties hold for any face
    # offsets applied alike to both axes; a wrong one is first order here
    ratio = _advection_errors(16) / _advection_errors(32)
    assert np.all(ratio >= 3.0), ratio


# ------------------------------------- properties on generated grids/fields

def _swap_xy(f):
    """The same field with the x and y axes (and components) exchanged."""
    if isinstance(f, FaceField):
        return FaceField(_swap_xy(f.y), _swap_xy(f.x), _swap_xy(f.z))
    return np.swapaxes(f, -3, -2)


def _swapped_grid(g):
    return ChannelGrid(g.ny, g.nx, g.nz, g.ly, g.lx, g.lz)


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_advection_skew_symmetric_per_component(grid, seed):
    # each family's split form telescopes on its own control volumes,
    # whatever the divergence of u, once the wall normal values vanish: the
    # faces' components and a scalar and a stacked field on the cells
    rng = np.random.default_rng(seed)
    u, g = face_field(rng, grid), face_field(rng, grid)
    s = rng.standard_normal(grid.shape)
    d = rng.standard_normal((3,) + grid.shape)
    pairs = list(zip(g.components(), advect_face(u, g, grid).components()))
    pairs.append((s, advect_center(u, s, grid)))
    pairs.extend(zip(d, advect_center(u, d, grid)))
    for gc, ac in pairs:
        assert abs(np.sum(gc * ac)) <= 1e-13 * np.sum(np.abs(gc * ac))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_advection_transposes_under_xy_swap(grid, seed):
    rng = np.random.default_rng(seed)
    u, f = face_field(rng, grid), face_field(rng, grid)
    d = rng.standard_normal((3,) + grid.shape)
    su, sgrid = _swap_xy(u), _swapped_grid(grid)
    want = _swap_xy(advect_face(u, f, grid))
    got = advect_face(su, _swap_xy(f), sgrid)
    for g_c, w_c in zip(got.components(), want.components()):
        assert np.array_equal(g_c, w_c)
    for c in (d[0], d):
        assert np.array_equal(advect_center(su, _swap_xy(c), sgrid),
                              _swap_xy(advect_center(u, c, grid)))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds, b11=hst.sampled_from([0.0, 0.5, 2.0]),
       b12=hst.sampled_from([0.0, 0.4, -1.0]),
       b22=hst.sampled_from([0.0, 0.5, 2.0]))
def test_laplacian_and_curl_transpose_under_xy_swap(grid, seed, b11, b12, b22):
    # round-off, not exact: the b12 four-point wall averages add their
    # terms in a different order once x and y trade places
    rng = np.random.default_rng(seed)
    u = face_field(rng, grid)
    B, B_sw = SlipMatrixB(b11, b12, b22), SlipMatrixB(b22, b12, b11)
    grid_sw = _swapped_grid(grid)

    lap = laplacian_face(u, B, grid)
    got = laplacian_face(_swap_xy(u), B_sw, grid_sw)
    scale = max(np.max(np.abs(c)) for c in lap.components())
    for g_c, w_c in zip(got.components(), _swap_xy(lap).components()):
        assert np.max(np.abs(g_c - w_c)) <= 1e-13 * scale

    # the swap reverses orientation, so the curl changes sign
    w = curl_center(u, B, grid)
    got = curl_center(_swap_xy(u), B_sw, grid_sw)
    want = -_swap_xy(w[[1, 0, 2]])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(w))


# ----------------------------------------------------------- director terms


def test_elastic_stress_of_uniform_director():
    grid = _grid()
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    assert np.max(np.abs(elastic_stress(director_gradient(d, grid),
                         laplacian_center(d, grid)))) == 0.0


def test_elastic_stress_z_only_profile():
    # a director that varies only in z produces stress only in the z slot
    grid = _grid(nz=24)
    beta = 0.5 * np.cos(np.pi * grid.z_centers() / grid.lz)
    d = np.stack([np.broadcast_to(np.sin(beta), grid.shape),
                  np.zeros(grid.shape),
                  np.broadcast_to(np.cos(beta), grid.shape)])
    sig = elastic_stress(director_gradient(d, grid),
                         laplacian_center(d, grid))
    assert np.max(np.abs(sig[0])) == 0.0
    assert np.max(np.abs(sig[1])) == 0.0
    assert np.max(np.abs(sig[2])) > 0.1


def test_elastic_stress_against_symbolic_reference():
    # independent reference: sigma_i = sum_j d_i(d_j) * lap(d_j) computed
    # symbolically for a twist angle modulated in x and z, with zero wall
    # slope so the reflective closure is uniformly second order
    x, z = sp.symbols("x z")
    b = 0.4
    beta = b * sp.cos(sp.pi * z) * sp.cos(2 * sp.pi * x)
    d_sym = (sp.sin(beta), sp.Integer(0), sp.cos(beta))
    lap_sym = [sp.diff(dj, x, 2) + sp.diff(dj, z, 2) for dj in d_sym]
    fs = [sp.lambdify((x, z), sum(sp.diff(d_sym[j], v) * lap_sym[j] for j in range(3)), "numpy")
          for v in (x, sp.Symbol("y"), z)]

    errs, scale = [], 1.0
    for n in (16, 32):
        grid = _grid(nx=n, ny=4, nz=n)
        xc = grid.x_centers()[:, None, None]
        zc = grid.z_centers()[None, None, :]
        ones = np.ones(grid.shape)
        beta_n = b * np.cos(np.pi * zc) * np.cos(2 * np.pi * xc) * ones
        d = np.stack([np.sin(beta_n), np.zeros(grid.shape), np.cos(beta_n)])
        got = elastic_stress(director_gradient(d, grid),
                         laplacian_center(d, grid))
        want = np.stack([np.broadcast_to(f(xc, zc) * ones, grid.shape) for f in fs])
        errs.append(np.max(np.abs(got - want)))
        scale = np.max(np.abs(want))
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert errs[1] <= 0.02 * scale


def test_director_gradient_layout():
    # out[i, c] = d_i(d_c): check on a linear-in-x component
    grid = _grid()
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    d[0] = 0.1 * np.sin(2 * np.pi * grid.x_centers() / grid.lx)[:, None, None]
    g = director_gradient(d, grid)
    assert g.shape == (3, 3) + grid.shape
    assert np.max(np.abs(g[1])) == 0.0 and np.max(np.abs(g[2])) == 0.0
    assert np.max(np.abs(g[0, 1])) == 0.0
    assert np.max(np.abs(g[0, 0])) > 0.1


def _director_source(d, grid):
    # the reaction term |grad d|^2 d exactly as the director update forms it
    return grad_sq_director(d, grid) * d


def test_director_source_constant_director():
    grid = _grid()
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    assert np.max(np.abs(_director_source(d, grid))) == 0.0
    assert np.max(np.abs(grad_sq_director(d, grid))) == 0.0


def test_director_source_geodesic_profile():
    # d = (sin(pi z/lz), 0, cos(pi z/lz)): Delta d + |grad d|^2 d = 0, i.e.
    # the source equals (pi/lz)^2 d.  The profile has nonzero wall slope,
    # so only the interior converges at second order.
    errs = []
    for nz in (32, 64):
        grid = _grid(nx=4, ny=4, nz=nz)
        beta = np.pi * grid.z_centers() / grid.lz
        d = np.stack([np.broadcast_to(np.sin(beta), grid.shape),
                      np.zeros(grid.shape),
                      np.broadcast_to(np.cos(beta), grid.shape)])
        src = _director_source(d, grid)
        want = (np.pi / grid.lz) ** 2 * d
        err = np.abs(src - want)
        assert np.max(err[..., [0, -1]]) <= 2.0 * (np.pi / grid.lz) ** 2
        errs.append(np.max(err[..., 2:-2]))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_director_source_compatible_profile_full_grid():
    # beta = 0.7 cos(pi z/lz) has zero wall slope, so the reflective closure
    # is consistent and the error against the symbolic continuum value
    # |grad d|^2 d is second order on the whole grid
    z = sp.symbols("z")
    beta_sym = 0.7 * sp.cos(sp.pi * z)
    d_sym = (sp.sin(beta_sym), sp.Integer(0), sp.cos(beta_sym))
    gsq_sym = sum(sp.diff(dj, z) ** 2 for dj in d_sym)
    src_sym = [gsq_sym * dj for dj in d_sym]
    fs = [sp.lambdify(z, s, "numpy") for s in src_sym]

    errs = []
    for nz in (32, 64):
        grid = _grid(nx=4, ny=4, nz=nz)
        zc = grid.z_centers()
        beta = 0.7 * np.cos(np.pi * zc / grid.lz)
        d = np.stack([np.broadcast_to(np.sin(beta), grid.shape),
                      np.zeros(grid.shape),
                      np.broadcast_to(np.cos(beta), grid.shape)])
        src = _director_source(d, grid)
        want = np.stack([np.broadcast_to(np.asarray(f(zc), dtype=float), grid.shape)
                         for f in fs])
        errs.append(np.max(np.abs(src - want)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


# ------------------------------------------------------- velocity gradient


def test_velocity_gradient_linear_shear():
    # u = (z, 0, 0): the only nonzero entry is d_z u_x = 1, exactly, since
    # every stencil in the gradient is exact on linear data
    grid = _grid(nz=12)
    u = zero_face_field(grid)
    u.x[:] = grid.z_centers()
    gu = center_gradient(face_to_center(u), grid)
    assert gu.shape == (3, 3) + grid.shape
    assert np.max(np.abs(gu[2, 0] - 1.0)) <= 1e-12
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 0] = False
    for i, j in zip(*np.nonzero(mask)):
        assert np.max(np.abs(gu[i, j])) <= 1e-12


# -------------------------------------------------------- energy invariant


def test_free_slip_shear_decays_viscously():
    # With B = 0 and a rest director, a pure shear mode loses kinetic energy
    # only through the viscous term: over 10 explicit steps the energy drop
    # matches the trapezoid quadrature of eps*||curl u||^2 within 1%.
    grid = _grid(nx=8, ny=8, nz=32)
    st = _shear_state(grid, lambda z: 0.3 * np.cos(np.pi * z / grid.lz))
    cfg = SimConfig(nx=grid.nx, ny=grid.ny, nz=grid.nz, eps=0.05, dt=2e-4,
                    t_final=1.0, adaptive_dt=False, visc_implicit=False)
    e0 = kinetic_energy(st.u, grid)
    drained = 0.0
    for _ in range(10):
        nxt = step(st, cfg, grid, B0, cfg.dt)
        drained += cfg.dt * 0.5 * (viscous_dissipation(st.u, cfg.eps, B0, grid)
                                   + viscous_dissipation(nxt.u, cfg.eps, B0, grid))
        st = nxt
    de = e0 - kinetic_energy(st.u, grid)
    assert de > 0.0
    assert abs(de - drained) <= 0.01 * drained
