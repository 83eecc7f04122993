"""Staggered fields: initial families, divergence/gradient stencils, director safety."""

import numpy as np
import pytest
from hypothesis import given, settings

from lcflow import (
    ChannelGrid,
    InitialConditionSpec,
    SimulationError,
    discrete_divergence,
    discrete_gradient,
    face_to_center,
    init_state,
    renormalize_director,
)
from lcflow.fields import max_face_speed, unit_deviation, zero_face_field
from lcflow.operators import laplacian_center

from support import face_field, grids, seeds


def _grid(nx=8, ny=8, nz=16, lx=1.0, ly=1.0, lz=1.0):
    return ChannelGrid(nx, ny, nz, lx, ly, lz)


def _ic(name, **kw):
    return InitialConditionSpec(name=name, **kw)


# ---------------------------------------------------------------- families


def test_rest_state():
    grid = _grid()
    st = init_state(grid, _ic("rest"))
    assert np.all(st.u.x == 0.0) and np.all(st.u.y == 0.0) and np.all(st.u.z == 0.0)
    assert np.all(st.d[2] == 1.0) and np.all(st.d[:2] == 0.0)
    assert np.all(st.p == 0.0)
    assert st.t == 0.0


def test_shear_twist_zero_amplitude_is_rest():
    # with both the shear amplitude and the twist angle at zero the family
    # degenerates to the rest state bitwise
    grid = _grid()
    st = init_state(grid, _ic("shear+twist", amplitude=0.0, twist=0.0))
    rest = init_state(grid, _ic("rest"))
    assert np.array_equal(st.u.x, rest.u.x)
    assert np.array_equal(st.u.z, rest.u.z)
    assert np.array_equal(st.d, rest.d)
    # zero amplitude alone still stills the velocity
    st2 = init_state(grid, _ic("shear+twist", amplitude=0.0, twist=0.5))
    assert np.all(st2.u.x == 0.0)


def test_shear_twist_director_is_unit():
    grid = _grid()
    st = init_state(grid, _ic("shear+twist", amplitude=0.1, twist=0.5))
    assert unit_deviation(st.d) <= 1e-14
    # peak of the sampled profile: offset centers never hit the crests exactly
    peak = 0.1 * np.max(np.sin(np.pi * grid.z_centers() / grid.lz)) \
        * np.max(np.abs(np.cos(2 * np.pi * grid.y_centers() / grid.ly)))
    assert np.max(np.abs(st.u.x)) == pytest.approx(peak, rel=1e-12)


def test_impermeability_all_families():
    grid = _grid()
    for name in ("rest", "shear+twist", "slipflow", "random-solenoidal"):
        st = init_state(grid, _ic(name, slip_b11=1.0))
        assert np.all(st.u.z[:, :, 0] == 0.0)
        assert np.all(st.u.z[:, :, -1] == 0.0)


def test_slipflow_profile_matches_friction():
    # the slipflow shear satisfies d(u)/dz = +b*u at z=0 and -b*u at z=lz
    # for the continuum profile it samples
    b, lz = 1.0, 1.0
    prof = lambda z: np.sin(np.pi * z / lz) + np.pi / (b * lz)
    dprof = lambda z: (np.pi / lz) * np.cos(np.pi * z / lz)
    assert dprof(0.0) == pytest.approx(b * prof(0.0))
    assert dprof(lz) == pytest.approx(-b * prof(lz))
    grid = _grid()
    st = init_state(grid, _ic("slipflow", amplitude=0.2, twist=0.4, slip_b11=b))
    z = grid.z_centers()
    want = 0.2 * prof(z)
    assert np.allclose(st.u.x[0, 0, :], want * np.cos(2 * np.pi * grid.y_centers()[0] / grid.ly))
    # the twist is x-modulated, so the director actually varies in x
    assert np.max(np.abs(st.d[0, 0, 0, :] - st.d[0, grid.nx // 2, 0, :])) > 1e-3


def test_random_solenoidal_is_divergence_free():
    grid = _grid(nx=12, ny=10, nz=14)
    st = init_state(grid, _ic("random-solenoidal", amplitude=0.1, seed=7))
    div = discrete_divergence(st.u, grid)
    scale = max(1.0, max_face_speed(st.u)) / min(grid.hx, grid.hy, grid.hz)
    assert np.max(np.abs(div)) <= 1e-12 * scale
    assert unit_deviation(st.d) <= 1e-13
    # distinct seeds give distinct fields
    st2 = init_state(grid, _ic("random-solenoidal", amplitude=0.1, seed=8))
    assert np.max(np.abs(st.u.x - st2.u.x)) > 1e-6


def test_random_solenoidal_is_reproducible():
    grid = _grid()
    a = init_state(grid, _ic("random-solenoidal", seed=3))
    b = init_state(grid, _ic("random-solenoidal", seed=3))
    assert np.array_equal(a.u.x, b.u.x)
    assert np.array_equal(a.d, b.d)


# ------------------------------------------------------- director handling


def test_renormalize_simple_vectors():
    d = np.zeros((3, 1, 1, 1))
    d[2] = 2.0
    out = renormalize_director(d)
    assert out[0, 0, 0, 0] == 0.0 and out[1, 0, 0, 0] == 0.0
    assert out[2, 0, 0, 0] == 1.0

    d = np.ones((3, 1, 1, 1))
    out = renormalize_director(d)
    for c in range(3):
        assert out[c, 0, 0, 0] == pytest.approx(0.5773502691896258, abs=1e-16)


def test_renormalize_rejects_degenerate():
    d = np.zeros((3, 2, 2, 2))
    with pytest.raises(SimulationError,
                       match=r"degenerate director: .* at cell \(0, 0, 0\)$"):
        renormalize_director(d)
    # a magnitude sitting below the floor is degenerate too
    d[2] = 1e-9
    with pytest.raises(SimulationError, match="degenerate director"):
        renormalize_director(d, floor=1e-8)


def test_renormalize_idempotent():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((3, 6, 6, 6)) + 2.0  # safely away from zero
    once = renormalize_director(d)
    twice = renormalize_director(once)
    assert unit_deviation(once) <= 1e-15
    assert np.max(np.abs(twice - once)) <= 1e-15


def test_unit_deviation_values():
    d = np.zeros((3, 2, 2, 2))
    d[2] = 1.0
    assert unit_deviation(d) == 0.0
    d[2] = 1.1
    assert unit_deviation(d) == pytest.approx(0.1)


# --------------------------------------------------- divergence / gradient


def test_divergence_of_constant_field_is_zero():
    grid = _grid()
    u = zero_face_field(grid)
    u.x += 1.3
    u.y -= 0.4
    # constant w must still honor the wall faces; use interior-only constant
    u.z[:, :, 1:-1] = 0.0
    assert np.max(np.abs(discrete_divergence(u, grid))) == 0.0


def test_divergence_analytic_second_order():
    # u = (sin(2 pi x / lx) * g(z), 0, 0) on x-faces; the face-difference
    # divergence is a midpoint-centered stencil, second order in hx
    errs = []
    for nx in (16, 32):
        grid = _grid(nx=nx, ny=4, nz=8)
        xf = grid.x_faces()[:, None, None]
        zc = grid.z_centers()[None, None, :]
        g = zc * (grid.lz - zc)
        u = zero_face_field(grid)
        u.x[:] = np.sin(2 * np.pi * xf / grid.lx) * g
        xc = grid.x_centers()[:, None, None]
        want = (2 * np.pi / grid.lx) * np.cos(2 * np.pi * xc / grid.lx) * g
        errs.append(np.max(np.abs(discrete_divergence(u, grid) - want)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert errs[1] < 0.05


def test_div_grad_equals_center_laplacian():
    # the projection identity: div(grad p) must be the same stencil as the
    # 7-point center Laplacian, entry for entry
    grid = _grid(nx=8, ny=6, nz=10, lx=1.0, ly=1.2, lz=0.8)
    rng = np.random.default_rng(2)
    p = rng.standard_normal(grid.shape)
    via_faces = discrete_divergence(discrete_gradient(p, grid), grid)
    direct = laplacian_center(p, grid)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(via_faces - direct)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_divergence_is_minus_adjoint_of_gradient(grid, seed):
    # <div u, p> over cells = -<u, grad p> over faces for impermeable u:
    # the identity the projection and the energy budget rest on
    rng = np.random.default_rng(seed)
    u = face_field(rng, grid)
    p = rng.standard_normal(grid.shape)
    g = discrete_gradient(p, grid)
    assert np.all(g.z[:, :, 0] == 0.0) and np.all(g.z[:, :, -1] == 0.0)
    lhs_terms = p * discrete_divergence(u, grid)
    rhs_terms = [u.x * g.x, u.y * g.y, u.z * g.z]
    lhs = np.sum(lhs_terms)
    rhs = sum(np.sum(t) for t in rhs_terms)
    scale = np.sum(np.abs(lhs_terms)) + sum(np.sum(np.abs(t)) for t in rhs_terms)
    assert abs(lhs + rhs) <= 1e-13 * scale


def test_gradient_annihilates_constants_with_zero_wall_flux():
    grid = _grid()
    g = discrete_gradient(np.full(grid.shape, 4.2), grid)
    assert np.max(np.abs(g.x)) == 0.0
    assert np.max(np.abs(g.y)) == 0.0
    assert np.max(np.abs(g.z)) == 0.0
    assert g.z.shape == (grid.nx, grid.ny, grid.nz + 1)


# ------------------------------------------------------------ small utils


def test_face_to_center_constant():
    grid = _grid()
    u = zero_face_field(grid)
    u.x += 2.0
    u.y += -1.0
    u.z += 0.5
    uc = face_to_center(u)
    assert uc.shape == (3,) + grid.shape
    assert np.allclose(uc[0], 2.0) and np.allclose(uc[1], -1.0) and np.allclose(uc[2], 0.5)


def test_max_face_speed_scalar():
    grid = _grid()
    u = zero_face_field(grid)
    u.y[3, 2, 1] = -7.0
    s = max_face_speed(u)
    assert np.isscalar(s) or isinstance(s, float)
    assert s == 7.0


def test_state_copy_is_deep():
    grid = _grid()
    st = init_state(grid, _ic("shear+twist"))
    cp = st.copy()
    cp.u.x[0, 0, 0] += 1.0
    cp.d[0, 0, 0, 0] += 1.0
    assert st.u.x[0, 0, 0] != cp.u.x[0, 0, 0]
    assert st.d[0, 0, 0, 0] != cp.d[0, 0, 0, 0]


def test_facefield_components_and_copy():
    grid = _grid()
    u = zero_face_field(grid)
    names = [c.shape for c in u.components()]
    assert names == [u.x.shape, u.y.shape, u.z.shape]
    v = u.copy()
    v.x += 1.0
    assert np.all(u.x == 0.0)


def test_unknown_family_rejected():
    grid = _grid()
    with pytest.raises(Exception):
        init_state(grid, _ic("vortex-sheet"))
