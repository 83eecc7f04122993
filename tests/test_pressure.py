"""Pressure solves: transform Poisson/Helmholtz, projection, two-part split."""

import numpy as np
import pytest

from lcflow import (
    ChannelGrid,
    InitialConditionSpec,
    SimulationError,
    SlipMatrixB,
    discrete_divergence,
    discrete_gradient,
    init_state,
    pressure_split,
    project,
    solve_poisson_neumann,
)
from lcflow.fields import FaceField, State, max_face_speed, zero_face_field
from lcflow.operators import (_slip_ghost_rows, laplacian_center,
                              laplacian_face, momentum_forcing)
from lcflow.pressure import solve_helmholtz_neumann, solve_viscous_helmholtz

from hypothesis import given, settings
from hypothesis import strategies as hst

from support import face_field, full_pressure, grad_and_lap, grids, seeds


def _grid(nx=8, ny=8, nz=16, lx=1.0, ly=1.0, lz=1.0):
    return ChannelGrid(nx, ny, nz, lx, ly, lz)


def _random_state(grid, seed=0, amplitude=0.2):
    return init_state(grid, InitialConditionSpec("random-solenoidal",
                                                 amplitude=amplitude, seed=seed))


# ----------------------------------------------------------- basic solves


def test_helmholtz_zero_coef_is_identity():
    grid = _grid()
    rng = np.random.default_rng(3)
    b = rng.standard_normal(grid.shape)
    x = solve_helmholtz_neumann(b, 0.0, grid)
    assert np.max(np.abs(x - b)) <= 1e-13 * np.max(np.abs(b))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_helmholtz_residual_small(grid, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(grid.shape)
    coef = 3e-3
    x = solve_helmholtz_neumann(b, coef, grid)
    res = x - coef * laplacian_center(x, grid) - b
    assert np.max(np.abs(res)) <= 1e-11 * np.max(np.abs(b))


def test_poisson_zero_data_gives_zero():
    grid = _grid()
    zero2 = np.zeros((grid.nx, grid.ny))
    p = solve_poisson_neumann(np.zeros(grid.shape), zero2, zero2, grid)
    assert np.max(np.abs(p)) == 0.0


def test_poisson_cosine_mode():
    # rhs = cos(2 pi x/lx) -> p = -(lx/2pi)^2 cos(2 pi x/lx), approached at
    # second order as nx grows
    errs = []
    for nx in (16, 32):
        grid = _grid(nx=nx, ny=4, nz=4)
        xc = grid.x_centers()[:, None, None]
        rhs = np.cos(2 * np.pi * xc / grid.lx) * np.ones(grid.shape)
        zero2 = np.zeros((grid.nx, grid.ny))
        p = solve_poisson_neumann(rhs, zero2, zero2, grid)
        want = -(grid.lx / (2 * np.pi)) ** 2 * rhs
        errs.append(np.max(np.abs(p - want)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert errs[1] <= 1e-3


def test_poisson_solution_is_mean_free_and_consistent():
    grid = _grid(nx=12, ny=8, nz=10)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(grid.shape)
    rhs -= rhs.mean()
    zero2 = np.zeros((grid.nx, grid.ny))
    p = solve_poisson_neumann(rhs, zero2, zero2, grid)
    assert abs(p.mean()) <= 1e-13
    res = laplacian_center(p, grid) - rhs
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(rhs))


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_poisson_inverts_center_laplacian(grid, seed):
    # compatible random data: the wall fluxes fold into the wall-adjacent
    # cells, so lap p must equal rhs minus the outward flux over hz there
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(grid.shape)
    g_bot = rng.standard_normal((grid.nx, grid.ny))
    g_top = rng.standard_normal((grid.nx, grid.ny))
    rhs += ((np.sum(g_bot) + np.sum(g_top)) * grid.hx * grid.hy
            / grid.cell_volume - np.sum(rhs)) / rhs.size
    p = solve_poisson_neumann(rhs, g_bot, g_top, grid)
    want = rhs.copy()
    want[:, :, 0] -= g_bot / grid.hz
    want[:, :, -1] -= g_top / grid.hz
    res = laplacian_center(p, grid) - want
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(want))
    assert abs(p.mean()) <= 1e-13 * max(1.0, np.max(np.abs(p)))


def test_poisson_rejects_incompatible_data():
    # rhs = 1 with zero boundary flux has no solution; the defect must be
    # reported, not silently projected away
    grid = _grid()
    zero2 = np.zeros((grid.nx, grid.ny))
    with pytest.raises(SimulationError, match="incompatible Neumann problem"):
        solve_poisson_neumann(np.ones(grid.shape), zero2, zero2, grid)


def test_poisson_rejects_nan_data():
    # a nan compares false against every bound, so each check must be
    # phrased to fail on it rather than pass
    grid = _grid(8, 8, 8)
    zero2 = np.zeros((grid.nx, grid.ny))
    rhs = np.zeros(grid.shape)
    rhs[3, 4, 5] = np.nan
    with pytest.raises(SimulationError):
        solve_poisson_neumann(rhs, zero2, zero2, grid)
    g_top = zero2.copy()
    g_top[1, 2] = np.nan
    with pytest.raises(SimulationError):
        solve_poisson_neumann(np.zeros(grid.shape), zero2, g_top, grid)


def test_poisson_boundary_data_enter_with_outward_sign():
    # manufactured p = cos(pi z/(2 lz)) has dp/dz = -pi/(2 lz) sin(...):
    # inward/outward bookkeeping is checked by reconstructing p from its
    # own stencil residual and wall fluxes
    grid = _grid(nx=4, ny=4, nz=64)
    zc = grid.z_centers()[None, None, :]
    k = np.pi / (2 * grid.lz)
    p_exact = np.cos(k * zc) * np.ones(grid.shape)
    p_exact -= p_exact.mean()
    rhs = -k ** 2 * np.cos(k * zc) * np.ones(grid.shape)
    dpdz = lambda z: -k * np.sin(k * z)
    g_bottom = np.full((grid.nx, grid.ny), -dpdz(0.0))   # outward = -z at bottom
    g_top = np.full((grid.nx, grid.ny), dpdz(grid.lz))   # outward = +z at top
    p = solve_poisson_neumann(rhs, g_bottom, g_top, grid)
    assert np.max(np.abs(p - p_exact)) <= 5e-4


# --------------------------------------------------------------- projection


def test_project_removes_divergence():
    grid = _grid(nx=12, ny=10, nz=14)
    rng = np.random.default_rng(1)
    us = zero_face_field(grid)
    us.x[:] = rng.standard_normal(us.x.shape)
    us.y[:] = rng.standard_normal(us.y.shape)
    us.z[:, :, 1:-1] = rng.standard_normal(us.z[:, :, 1:-1].shape)
    dt = 1e-3
    u, dp = project(us, dt, grid)
    div = discrete_divergence(u, grid)
    scale = max(1.0, max_face_speed(u)) / min(grid.hx, grid.hy, grid.hz)
    assert np.max(np.abs(div)) <= 1e-10 * scale
    assert np.all(u.z[:, :, 0] == 0.0) and np.all(u.z[:, :, -1] == 0.0)


def test_project_fixes_solenoidal_fields():
    grid = _grid()
    u0 = _random_state(grid, seed=2).u
    u, dp = project(u0, 1e-3, grid)
    assert np.max(np.abs(u.x - u0.x)) <= 1e-11
    assert np.max(np.abs(dp)) <= 1e-8  # pressure increment is pure dust


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_project_is_idempotent_and_solenoidal(grid, seed):
    # the divergence bound is the one of test_project_removes_divergence;
    # a second projection changes the field only at the solver's round-off
    rng = np.random.default_rng(seed)
    us = face_field(rng, grid)
    dt = 1e-3
    u, _ = project(us, dt, grid)
    scale = max(1.0, max_face_speed(u)) / min(grid.hx, grid.hy, grid.hz)
    assert np.max(np.abs(discrete_divergence(u, grid))) <= 1e-10 * scale
    assert np.all(u.z[:, :, 0] == 0.0) and np.all(u.z[:, :, -1] == 0.0)
    u2, _ = project(u, dt, grid)
    for c, c2 in zip(u.components(), u2.components()):
        assert np.max(np.abs(c2 - c)) <= 1e-12 * max(1.0, max_face_speed(u))


def test_project_annihilates_pure_gradients():
    # u* = grad(chi) with zero wall flux: the projection returns u ~ 0 and
    # recovers chi/dt as the pressure increment (up to its mean)
    grid = _grid(nx=16, ny=8, nz=24)
    xc = grid.x_centers()[:, None, None]
    zc = grid.z_centers()[None, None, :]
    chi = np.sin(2 * np.pi * xc / grid.lx) * np.cos(np.pi * zc / grid.lz) \
        * np.ones(grid.shape)
    chi -= chi.mean()
    us = discrete_gradient(chi, grid)
    dt = 2e-3
    u, dp = project(us, dt, grid)
    gscale = max_face_speed(us)
    assert np.max(np.abs(u.x)) <= 1e-10 * gscale
    assert np.max(np.abs(u.y)) <= 1e-10 * gscale
    assert np.max(np.abs(u.z)) <= 1e-10 * gscale
    assert np.max(np.abs(dp - chi / dt)) <= 1e-9 * np.max(np.abs(chi)) / dt


def test_project_is_idempotent():
    grid = _grid()
    rng = np.random.default_rng(8)
    us = zero_face_field(grid)
    us.x[:] = rng.standard_normal(us.x.shape)
    us.z[:, :, 1:-1] = rng.standard_normal(us.z[:, :, 1:-1].shape)
    u1, _ = project(us, 1e-3, grid)
    u2, dp2 = project(u1, 1e-3, grid)
    assert np.max(np.abs(u2.x - u1.x)) <= 1e-11
    assert np.max(np.abs(dp2)) <= 1e-7


# ----------------------------------------------------------- pressure split


def test_split_trivial_state_is_zero():
    grid = _grid()
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    st = State(zero_face_field(grid), np.zeros(grid.shape), d, 0.0)
    F = momentum_forcing(st.u, *grad_and_lap(st.d, grid), grid)
    p1, p2 = pressure_split(st.u, F, 0.3, grid)
    assert np.max(np.abs(p1)) == 0.0
    assert np.max(np.abs(p2)) == 0.0


def test_split_inviscid_kills_boundary_part():
    grid = _grid()
    st = _random_state(grid, seed=5)
    F = momentum_forcing(st.u, *grad_and_lap(st.d, grid), grid)
    _, p2 = pressure_split(st.u, F, 0.0, grid)
    assert np.max(np.abs(p2)) == 0.0


def test_split_superposes_to_full_pressure():
    grid = _grid(nx=12, ny=10, nz=14)
    tol = 1e-11
    worst = 0.0
    for seed in range(5):
        st = _random_state(grid, seed=seed)
        F = momentum_forcing(st.u, *grad_and_lap(st.d, grid), grid)
        p1, p2 = pressure_split(st.u, F, 0.3, grid)
        pf = full_pressure(st, 0.3, grid)
        scale = max(1.0, np.max(np.abs(pf)))
        worst = max(worst, np.max(np.abs(p1 + p2 - pf)) / scale)
    assert worst <= 10 * tol


def test_split_boundary_part_scales_linearly_in_eps():
    grid = _grid()
    st = _random_state(grid, seed=6)
    F = momentum_forcing(st.u, *grad_and_lap(st.d, grid), grid)
    _, p2_unit = pressure_split(st.u, F, 1.0, grid)
    for eps in (0.5, 0.125, 1e-3):
        _, p2 = pressure_split(st.u, F, eps, grid)
        scale = max(np.max(np.abs(p2_unit)), 1e-30)
        assert np.max(np.abs(p2 - eps * p2_unit)) <= 1e-11 * eps * scale + 1e-15


def test_wall_stress_flux_second_order():
    # smooth wall-compatible director: the elastic stress has zero normal
    # component at the walls in the continuum, so its extrapolated trace
    # shrinks at second order
    from lcflow.operators import elastic_stress
    traces = []
    for nz in (16, 32):
        grid = _grid(nx=8, ny=4, nz=nz)
        xc = grid.x_centers()[:, None, None]
        zc = grid.z_centers()[None, None, :]
        beta = 0.4 * np.cos(np.pi * zc / grid.lz) * np.cos(2 * np.pi * xc / grid.lx) \
            * np.ones(grid.shape)
        d = np.stack([np.sin(beta), np.zeros(grid.shape), np.cos(beta)])
        sig = elastic_stress(*grad_and_lap(d, grid))
        bot = 1.5 * sig[2][:, :, 0] - 0.5 * sig[2][:, :, 1]
        top = 1.5 * sig[2][:, :, -1] - 0.5 * sig[2][:, :, -2]
        traces.append(max(np.max(np.abs(bot)), np.max(np.abs(top))))
    assert traces[0] / traces[1] >= 3.0


# ------------------------------------------------------- viscous Helmholtz


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds, b11=hst.floats(0.0, 1000.0),
       b22=hst.floats(0.0, 1000.0), coef=hst.floats(0.0, 5.0))
def test_viscous_helmholtz_inverts_face_laplacian(grid, seed, b11, b22, coef):
    # with a diagonal slip matrix the solve must invert (I - coef*L) for the
    # ghost-based face Laplacian exactly (the b12 coupling is lagged, so the
    # identity is only exact when b12 = 0)
    B = SlipMatrixB(b11, 0.0, b22)
    rng = np.random.default_rng(seed)
    b = zero_face_field(grid)
    b.x[:] = rng.standard_normal(b.x.shape)
    b.y[:] = rng.standard_normal(b.y.shape)
    b.z[:, :, 1:-1] = rng.standard_normal(b.z[:, :, 1:-1].shape)
    x = solve_viscous_helmholtz(b, coef, B, grid)
    lap = laplacian_face(x, B, grid)
    for got, rhs, lp in ((x.x, b.x, lap.x), (x.y, b.y, lap.y), (x.z, b.z, lap.z)):
        res = got - coef * lp - rhs
        assert np.max(np.abs(res)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))
    assert np.all(x.z[:, :, 0] == 0.0) and np.all(x.z[:, :, -1] == 0.0)


def test_viscous_helmholtz_cross_coupling_is_the_lagged_ghost():
    # with b12 != 0 the solve takes the cross term of the Robin ghost from b
    # while laplacian_face takes it from x; interior rows still invert the
    # stencil, and the wall-row residual is exactly the ghost difference
    # that lag produces
    grid = _grid(nx=10, ny=8, nz=12)
    B = SlipMatrixB(1.2, 0.4, 0.7)
    B_diag = SlipMatrixB(B.b11, 0.0, B.b22)
    rng = np.random.default_rng(13)
    b = zero_face_field(grid)
    b.x[:] = rng.standard_normal(b.x.shape)
    b.y[:] = rng.standard_normal(b.y.shape)
    b.z[:, :, 1:-1] = rng.standard_normal(b.z[:, :, 1:-1].shape)
    coef = 4e-3
    x = solve_viscous_helmholtz(b, coef, B, grid)
    lap = laplacian_face(x, B, grid)
    diff = FaceField(x.x - b.x, x.y - b.y, x.z - b.z)
    gx, gy = _slip_ghost_rows(x, B, grid)
    hx, hy = _slip_ghost_rows(b, B, grid)
    dx, dy = _slip_ghost_rows(diff, B_diag, grid)
    tol = 1e-11 * max(1.0, np.max(np.abs(b.x)), np.max(np.abs(b.y)))
    for got, rhs, lp, g, h, dg in ((x.x, b.x, lap.x, gx, hx, dx),
                                   (x.y, b.y, lap.y, gy, hy, dy)):
        res = got - coef * lp - rhs
        assert np.max(np.abs(res[:, :, 1:-1])) <= tol
        lagged = [-coef / grid.hz**2 * (gr - hr - dr)
                  for gr, hr, dr in zip(g, h, dg)]
        for wall, end in ((0, 0), (-1, 1)):
            assert np.max(np.abs(lagged[end])) > 1e3 * tol
            assert np.max(np.abs(res[:, :, wall] - lagged[end])) <= tol
    res_z = x.z - coef * lap.z - b.z
    assert np.max(np.abs(res_z[:, :, 1:-1])) <= tol


def test_viscous_helmholtz_zero_rhs():
    grid = _grid()
    b = zero_face_field(grid)
    x = solve_viscous_helmholtz(b, 1e-3, SlipMatrixB(1.0, 0.3, 1.0), grid)
    assert np.max(np.abs(x.x)) == 0.0
    assert np.max(np.abs(x.y)) == 0.0
    assert np.max(np.abs(x.z)) == 0.0
