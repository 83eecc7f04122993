"""Conormal norms, energy budget, boundary-layer indicators, records."""

import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from lcflow import SimConfig, diagnostics, operators, pressure, run, step
from lcflow.diagnostics import (_conormal_sums, _walk, boundary_work,
                                elastic_energy, energy_balance_residual,
                                kinetic_energy, make_record)
from lcflow.errors import ConfigError
from lcflow.fields import (FaceField, InitialConditionSpec, State,
                           face_to_center, init_state, zero_face_field)
from lcflow.grid import ChannelGrid, conormal_derivative, make_grid
from lcflow.operators import (SlipMatrixB, center_gradient, director_gradient,
                              laplacian_center, momentum_forcing)

from support import (conormal_norm_sq, director_dissipation, grids,
                     quartic_production, viscous_dissipation)


def _grid(nx=8, ny=8, nz=16, **kw):
    cfg = SimConfig(nx=nx, ny=ny, nz=nz, eps=0.1, b11=1.0, b22=1.0,
                    dt=1e-3, t_final=1e-3, **kw)
    return make_grid(cfg)


def _zfield(grid, profile):
    return np.broadcast_to(profile[None, None, :], grid.shape).copy()


def _record(st, grid, B, m=2, time_derivs=0, eps=0.1):
    """The record of st on grid: the one place the functional, the sup
    norm of grad u and the slip trace are computed."""
    cfg = SimConfig(nx=grid.nx, ny=grid.ny, nz=grid.nz, lx=grid.lx,
                    ly=grid.ly, lz=grid.lz, eps=eps, b11=B.b11, b12=B.b12,
                    b22=B.b22, dt=1e-3, t_final=1e-3, conormal_m=m,
                    time_derivs=time_derivs)
    return make_record(st, cfg, grid, B)


# -- weighted norm family --------------------------------------------------

def test_conormal_norm_of_f_equals_z_matches_quadrature_oracle():
    # f = z on the unit box, order 1: the only surviving derivative is the
    # weighted normal one, phi(zeta) = zeta/(1+zeta) with zeta the wall
    # distance, so
    #   |f|_1^2 = int z^2 + int phi(min(z,1-z))^2
    #           = 1/3 + 2*[t - 2 ln(1+t) - 1/(1+t)]_0^(1/2) = 2 - 4 ln(3/2)
    exact = 2.0 - 4.0 * math.log(1.5)

    # dense midpoint oracle for the same integral, as a cross-check on the
    # closed form itself
    n = 200_000
    z = (np.arange(n) + 0.5) / n
    zeta = np.minimum(z, 1.0 - z)
    phi = zeta / (1.0 + zeta)
    dense = float(np.sum(z**2 + phi**2) / n)
    assert abs(dense - exact) <= 1e-9

    errs = {}
    for nz in (16, 32):
        grid = _grid(nz=nz)
        f = _zfield(grid, grid.z_centers())
        errs[nz] = conormal_norm_sq(f, 1, grid) - exact
    assert abs(errs[16]) <= 6e-4
    assert 3.4 <= errs[16] / errs[32] <= 4.6      # midpoint rule is O(h^2)


def test_conormal_norm_of_constant_is_volume_scaled():
    grid = _grid(nz=16, lz=2.0)
    f = np.full(grid.shape, 0.7)
    vol = grid.lx * grid.ly * grid.lz
    for m in (0, 1, 3):
        assert conormal_norm_sq(f, m, grid) == pytest.approx(0.49 * vol,
                                                             rel=1e-12)
    assert math.sqrt(conormal_norm_sq(f, 0, grid)) == pytest.approx(
        0.7 * math.sqrt(vol), rel=1e-12)


def test_conormal_order_zero_is_plain_l2():
    grid = _grid()
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    assert conormal_norm_sq(f, 0, grid) == pytest.approx(
        float(np.sum(f * f)) * grid.cell_volume, rel=1e-14)


def test_conormal_norm_monotone_in_order():
    grid = _grid()
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid.shape)
    vals = [conormal_norm_sq(f, m, grid) for m in range(5)]
    for a, b in zip(vals, vals[1:]):
        assert b > a                               # derivatives add mass


def test_conormal_sums_reject_bad_shapes():
    # a field that does not end in the grid shape is refused before the
    # walk splits it into components, at every order
    grid = _grid()
    bad = np.zeros((2,) + grid.shape[:-1] + (2 * grid.nz,))
    for m in (0, 2):
        with pytest.raises(ConfigError, match="does not end in"):
            _conormal_sums(bad, m, grid)


def test_sup_norm_family_values():
    grid = _grid()
    c = np.full(grid.shape, -2.5)
    assert math.sqrt(_conormal_sums(c, 0, grid, sup=0)[1][0]) == 2.5

    vec = np.zeros((3,) + grid.shape)
    vec[0] = 3.0
    vec[1] = 4.0                                   # Euclidean before the sup
    assert math.sqrt(_conormal_sums(vec, 0, grid, sup=0)[1][0]) == 5.0


def test_sup_norm_of_sine_converges_to_closed_form():
    # k = 1 on sin(2 pi x): sqrt(sup|f|^2 + sup|df/dx|^2) -> sqrt(1 + 4 pi^2)
    target = math.sqrt(1.0 + (2.0 * math.pi) ** 2)
    deficit = {}
    for nx in (16, 32):
        grid = _grid(nx=nx)
        f = np.broadcast_to(np.sin(2 * np.pi * grid.x_centers())[:, None, None],
                            grid.shape).copy()
        v = math.sqrt(_conormal_sums(f, 1, grid, sup=1)[1][1])
        assert v < target                          # discrete sups undershoot
        deficit[nx] = target - v
    assert deficit[32] <= 0.015 * target
    assert 3.4 <= deficit[16] / deficit[32] <= 4.6


# -- the single walk ---------------------------------------------------------

def _multi_index_oracle(f, m, grid):
    """Per-multi-index enumeration of the order-m sums: every alpha with
    |alpha| <= m once, each Z^alpha f built by applying its x, y and z
    factors directly (no parent sharing).  Returns (l2 sum, squared sups)."""
    vol = grid.cell_volume
    l2, sup = 0.0, 0.0
    for a in range(m + 1):
        for b in range(m + 1 - a):
            for c in range(m + 1 - a - b):
                g = f
                for ax, times in ((0, a), (1, b), (2, c)):
                    for _ in range(times):
                        g = conormal_derivative(g, ax, grid)
                l2 += float(np.sum(g * g)) * vol
                mag = np.sqrt(np.sum(g * g, axis=tuple(range(g.ndim - 3))))
                sup += float(np.max(mag)) ** 2
    return l2, sup


@settings(max_examples=40, deadline=None)
@given(grid=grids, lead=hst.sampled_from([(), (2,), (3,), (3, 3)]),
       m=hst.integers(0, 4), seed=hst.integers(0, 2**32 - 1))
def test_walk_sums_are_the_public_norms(grid, lead, m, seed):
    f = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    sup = min(m, 2)
    l2, linf = _conormal_sums(f, m, grid, sup=sup)
    assert len(l2) == m + 1 and len(linf) == sup + 1
    # a walk to m holds the sums of every shorter walk, bit for bit: the
    # record reads orders below m off one walk
    for k in range(m + 1):
        assert l2[k] == conormal_norm_sq(f, k, grid)
    for k in range(sup + 1):
        assert linf[k] == _conormal_sums(f, k, grid, sup=k)[1][k]
    # cumulative in k, and equal to the plain enumeration of multi-indices
    assert all(a <= b for a, b in zip(l2, l2[1:]))
    want_l2, want_sup = _multi_index_oracle(f, m, grid)
    assert l2[m] == pytest.approx(want_l2, rel=1e-12)
    if m <= 2:
        assert linf[m] == pytest.approx(want_sup, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(grid=grids, m=hst.integers(0, 3), sup=hst.integers(0, 2),
       seed=hst.integers(0, 2**32 - 1))
def test_component_walk_is_layout_free(grid, m, sup, seed):
    # the walk goes one component at a time; how the stack is laid out in
    # memory must not change a bit of its sums
    sup = min(sup, m)
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((3, 3, 2 * grid.nx) + grid.shape[1:])
    strided = wide[:, :, ::2]
    fortran = np.asfortranarray(strided)
    c_copy = np.ascontiguousarray(strided)
    assert not strided.flags.c_contiguous and fortran.flags.f_contiguous
    want = _conormal_sums(c_copy, m, grid, sup=sup)
    assert _conormal_sums(strided, m, grid, sup=sup) == want
    assert _conormal_sums(fortran, m, grid, sup=sup) == want
    # the sup orders are those of the whole-stack members, bit for bit
    total, linf = 0.0, [0.0] * (sup + 1)
    for k, g in _walk(c_copy, sup, grid):
        total += float(np.max(np.sqrt(np.sum(g * g, axis=(0, 1))))) ** 2
        linf[k] = total
    assert want[1] == linf


def test_component_walk_working_set():
    # A (3, 3) stack is walked one 16x16x32 component (64 KiB) at a time.
    # Measured peak: 12.7 components (the kept level-1 members, the sup
    # sums of the four order <= 1 members, one square buffer and the member
    # being built).  The bound of 16 leaves a margin for numpy temporaries;
    # walking the whole stack at once peaked at 58 components.
    grid = ChannelGrid(16, 16, 32, 1.0, 1.0, 1.0)
    f = np.random.default_rng(0).standard_normal((3, 3) + grid.shape)
    unit = f[0, 0].nbytes
    _conormal_sums(f, 2, grid, sup=1)
    tracemalloc.start()
    try:
        _conormal_sums(f, 2, grid, sup=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * unit


# -- energy pieces ---------------------------------------------------------

def test_kinetic_energy_of_uniform_stream():
    grid = _grid()
    u = zero_face_field(grid)
    u.x[:] = 0.7
    assert kinetic_energy(u, grid) == pytest.approx(0.5 * 0.49, rel=1e-14)


def test_elastic_energy_of_uniform_director_is_zero():
    grid = _grid()
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    assert elastic_energy(d, grid) == 0.0


def test_viscous_dissipation_vanishes_without_viscosity():
    grid = _grid()
    st = init_state(grid, InitialConditionSpec("random-solenoidal", seed=2))
    B = SlipMatrixB(1, 0, 1)
    assert _record(st, grid, B, eps=0.0).visc_diss == 0.0
    assert _record(st, grid, B, eps=0.3).visc_diss > 0.0


def test_energy_residual_is_first_order_in_dt():
    # same record times for both runs (diag_every scales with 1/dt),
    # otherwise the comparison mixes different transient stages
    def profile(dt, diag_every):
        cfg = SimConfig(nx=8, ny=8, nz=16, eps=0.1, b11=1.0, b22=1.0,
                        dt=dt, t_final=0.02, adaptive_dt=False,
                        visc_implicit=True, ic_name="slipflow",
                        amplitude=0.3, twist=0.4, diag_every=diag_every)
        _, records, _ = run(cfg)
        return records

    r1 = profile(1e-3, 4)
    r2 = profile(5e-4, 8)
    assert [r.t for r in r1] == pytest.approx([r.t for r in r2])
    m1 = max(abs(r.energy_residual) for r in r1[1:])
    m2 = max(abs(r.energy_residual) for r in r2[1:])
    assert 1.7 <= m1 / m2 <= 2.3


# -- boundary-layer indicators ----------------------------------------------

def test_slip_mismatch_vanishes_at_rest():
    grid = _grid()
    B = SlipMatrixB(1.0, 0.3, 1.5)
    st = init_state(grid, InitialConditionSpec("rest"))
    assert _record(st, grid, B).eta_trace == 0.0


def test_slip_mismatch_trace_second_order_for_consistent_profile():
    # initial field built to satisfy the slip closure: trace is pure
    # discretization error, O(hz^2); the incompatible control keeps an O(1)
    # trace no matter the resolution
    B = SlipMatrixB(1.0, 0.0, 1.0)

    def trace(nz, name):
        grid = _grid(nz=nz)
        st = init_state(grid, InitialConditionSpec(
            name, amplitude=0.3, twist=0.4, slip_b11=1.0))
        return _record(st, grid, B).eta_trace

    assert trace(32, "slipflow") / trace(64, "slipflow") >= 3.0
    assert trace(32, "shear+twist") / trace(64, "shear+twist") <= 1.5


def test_grad_u_linf_values():
    grid = _grid(nz=64)
    B = SlipMatrixB(1.0, 0.0, 1.0)
    st = init_state(grid, InitialConditionSpec("rest"))
    assert _record(st, grid, B).linf_grad_u == 0.0

    # U(z) = sin(pi z): sup|U'| = pi, sup|phi U''| = pi^2 phi(1/2) = pi^2/3,
    # so the order-1 sup norm is sqrt(pi^2 + pi^4/9); discrete sups
    # undershoot by O(h) (the weight has a kink at mid-channel)
    st.u.x[:] = np.sin(np.pi * grid.z_centers())[None, None, :]
    target = math.pi * math.sqrt(1.0 + math.pi ** 2 / 9.0)
    v = _record(st, grid, B).linf_grad_u
    assert v < target
    assert target - v <= 0.008 * target


# -- combined functional -----------------------------------------------------

def test_conormal_energy_of_rest_is_box_volume():
    B = SlipMatrixB(1.0, 0.0, 1.0)
    for lz, vol in ((1.0, 1.0), (2.0, 2.0)):
        grid = _grid(lz=lz)
        st = init_state(grid, InitialConditionSpec("rest"))
        for m in (1, 2):
            assert _record(st, grid, B, m).nm_value \
                == pytest.approx(vol, rel=1e-12)
        assert _record(st, grid, B, 2, time_derivs=1).nm_value \
            == pytest.approx(vol, rel=1e-12)


def test_conormal_energy_velocity_terms_are_quadratic():
    grid = _grid()
    B = SlipMatrixB(1.0, 0.0, 1.0)
    st = init_state(grid, InitialConditionSpec("slipflow", amplitude=0.3,
                                               twist=0.4, slip_b11=1.0))
    from lcflow.fields import FaceField
    st0 = State(zero_face_field(grid), st.p.copy(), st.d.copy(), 0.0)
    st2 = State(FaceField(2 * st.u.x, 2 * st.u.y, 2 * st.u.z),
                st.p.copy(), st.d.copy(), 0.0)
    for m in (1, 2):
        e0, e1, e2 = (_record(s, grid, B, m).nm_value for s in (st0, st, st2))
        assert (e2 - e0) == pytest.approx(4.0 * (e1 - e0), rel=1e-12)


def test_conormal_energy_time_derivatives_add_mass():
    grid = _grid()
    B = SlipMatrixB(1.0, 0.0, 1.0)
    st = init_state(grid, InitialConditionSpec("slipflow", amplitude=0.3,
                                               twist=0.4, slip_b11=1.0))
    for m in (1, 2):
        assert _record(st, grid, B, m, time_derivs=1).nm_value \
            > _record(st, grid, B, m).nm_value


# -- records -----------------------------------------------------------------

def test_record_of_rest_state():
    cfg = SimConfig(nx=8, ny=8, nz=16, eps=0.1, b11=1.0, b22=1.0,
                    dt=1e-3, t_final=1e-3, conormal_m=2)
    grid = make_grid(cfg)
    st = init_state(grid, InitialConditionSpec("rest"))
    rec = make_record(st, cfg, grid, SlipMatrixB(1.0, 0.0, 1.0))
    assert rec.t == 0.0
    for name in ("kinetic", "elastic", "visc_diss", "dir_diss", "quartic",
                 "boundary_work", "energy_residual", "unit_dev", "div_res",
                 "eta_trace", "linf_grad_u", "p1_norm", "p2_norm"):
        assert getattr(rec, name) == 0.0, name
    assert rec.nm_value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("time_derivs", [0, 1])
def test_record_builds_momentum_forcing_once(monkeypatch, time_derivs):
    # the pressure split and the time derivatives share one forcing, built
    # from the record's own grad d and lap d; count the calls at every
    # module that could reach the operators
    calls, grads = [], []

    def counting(u, gd, ld, grid):
        calls.append((gd, ld))
        return operators.momentum_forcing(u, gd, ld, grid)

    def counting_gradient(d, grid):
        grads.append(1)
        return operators.director_gradient(d, grid)

    for mod in (diagnostics, pressure):
        if hasattr(mod, "momentum_forcing"):
            monkeypatch.setattr(mod, "momentum_forcing", counting)
    monkeypatch.setattr(diagnostics, "director_gradient", counting_gradient)
    cfg = SimConfig(nx=8, ny=6, nz=12, eps=0.05, b11=1.0, b22=1.0, dt=1e-3,
                    t_final=1e-3, ic_name="random-solenoidal", amplitude=0.2,
                    seed=3, time_derivs=time_derivs).validate()
    grid = make_grid(cfg)
    st = init_state(grid, cfg.ic)
    make_record(st, cfg, grid, SlipMatrixB(1.0, 0.0, 1.0))
    assert len(calls) == 1
    gd, ld = calls[0]
    assert np.array_equal(gd, operators.director_gradient(st.d, grid))
    assert np.array_equal(ld, operators.laplacian_center(st.d, grid))
    # grad d of the state, plus grad of dd/dt for the time derivatives
    assert len(grads) == 1 + time_derivs


def _record_case(m, time_derivs):
    """(cfg, grid, state, B) of a random 3-D state with b12 != 0."""
    cfg = SimConfig(nx=8, ny=6, nz=12, eps=0.05, b11=1.0, b12=0.4, b22=2.0,
                    dt=1e-3, t_final=1e-3, ic_name="random-solenoidal",
                    amplitude=0.2, seed=4, conormal_m=m,
                    time_derivs=time_derivs).validate()
    grid = make_grid(cfg)
    return (cfg, grid, init_state(grid, cfg.ic),
            SlipMatrixB(cfg.b11, cfg.b12, cfg.b22))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("time_derivs", [0, 1])
def test_record_fields_are_their_public_functions(m, time_derivs):
    # the record builds its derived fields once and shares them; every
    # budget rate must still be, bit for bit, its reference form, which
    # builds its own field from the state
    cfg, grid, st, B = _record_case(m, time_derivs)
    rec = make_record(st, cfg, grid, B)
    assert rec.visc_diss == viscous_dissipation(st.u, cfg.eps, B, grid)
    assert rec.dir_diss == director_dissipation(st.d, grid)
    assert rec.quartic == quartic_production(st.d, grid)
    assert rec.boundary_work == boundary_work(st.u, cfg.eps, B, grid)


def test_energy_residual_is_the_reference_rates():
    # the residual's rates are, bit for bit, the reference forms applied to
    # the midpoint-in-time fields, summed in the order of the identity
    cfg, grid, prev, B = _record_case(2, 0)
    nxt = step(prev, cfg, grid, B, cfg.dt)
    de = (kinetic_energy(nxt.u, grid) + elastic_energy(nxt.d, grid)
          - kinetic_energy(prev.u, grid) - elastic_energy(prev.d, grid)) / cfg.dt
    um = FaceField(0.5 * (prev.u.x + nxt.u.x), 0.5 * (prev.u.y + nxt.u.y),
                   0.5 * (prev.u.z + nxt.u.z))
    dm = 0.5 * (prev.d + nxt.d)
    want = (de + viscous_dissipation(um, cfg.eps, B, grid)
            + director_dissipation(dm, grid) - quartic_production(dm, grid)
            + boundary_work(um, cfg.eps, B, grid))
    assert energy_balance_residual(prev, nxt, cfg.dt, cfg.eps, B, grid) == want


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("time_derivs", [0, 1])
def test_nm_value_is_the_sum_of_its_terms(m, time_derivs):
    # the functional written out term by term: |u|_m, |d|_0, |grad d|_m,
    # |grad u|_{m-1}, |lap d|_{m-1} and |grad u|_{1,inf}, then one time
    # derivative of each Sobolev-type term one order lower
    cfg, grid, st, B = _record_case(m, time_derivs)
    uc = face_to_center(st.u)
    gd = director_gradient(st.d, grid)
    ld = laplacian_center(st.d, grid)
    gu = center_gradient(uc, grid)
    want = (conormal_norm_sq(uc, m, grid) + conormal_norm_sq(st.d, 0, grid)
            + conormal_norm_sq(gd, m, grid) + conormal_norm_sq(gu, m - 1, grid)
            + conormal_norm_sq(ld, m - 1, grid)
            + _conormal_sums(gu, 1, grid, sup=1)[1][1])
    if time_derivs:
        F = momentum_forcing(st.u, gd, ld, grid)
        ut, dt_d = diagnostics._time_derivatives(
            st, F, ld, np.sum(gd * gd, axis=(0, 1)), cfg.eps, B, grid)
        want += (conormal_norm_sq(ut, m - 1, grid)
                 + conormal_norm_sq(director_gradient(dt_d, grid), m - 1, grid))
        if m >= 2:
            gut = center_gradient(ut, grid)
            want += (conormal_norm_sq(gut, m - 2, grid)
                     + conormal_norm_sq(laplacian_center(dt_d, grid), m - 2,
                                        grid)
                     + _conormal_sums(gut, 0, grid, sup=0)[1][0])
    assert make_record(st, cfg, grid, B).nm_value == pytest.approx(want,
                                                                   rel=1e-13)


@pytest.mark.parametrize("m, time_derivs, walks",
                         [(1, 0, 4), (2, 0, 4), (3, 0, 4),
                          (1, 1, 6), (2, 1, 8), (3, 1, 8)])
def test_record_walks_each_term_once(monkeypatch, m, time_derivs, walks):
    # u, grad d, lap d and grad u; with time derivatives also u_t and
    # grad d_t, and from m = 2 on grad u_t and lap d_t
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return _conormal_sums(*args, **kw)

    monkeypatch.setattr(diagnostics, "_conormal_sums", counting)
    cfg, grid, st, B = _record_case(m, time_derivs)
    make_record(st, cfg, grid, B)
    assert len(calls) == walks


@pytest.mark.parametrize("time_derivs, with_prev, fills",
                         [(0, False, 1), (0, True, 2), (1, False, 2),
                          (1, True, 3)])
def test_record_fills_ghosts_once_per_curl(monkeypatch, time_derivs,
                                           with_prev, fills):
    # the slip end rows are built once for the curl of u, once for the curl
    # of the midpoint velocity of the energy residual and once for the face
    # Laplacian of u_t (fills), and once more for the wall work beside each
    # curl
    curls = 1 + with_prev
    calls = []
    rows = operators._slip_ghost_rows

    def counting(*args, **kw):
        calls.append(1)
        return rows(*args, **kw)

    monkeypatch.setattr(operators, "_slip_ghost_rows", counting)
    monkeypatch.setattr(diagnostics, "_slip_ghost_rows", counting)
    cfg, grid, st, B = _record_case(1, time_derivs)
    prev = st.copy() if with_prev else None
    make_record(st, cfg, grid, B, prev=prev, dt=cfg.dt)
    assert len(calls) == fills + curls


@pytest.mark.parametrize("m", [2, 3])
def test_record_working_set(m):
    # One time_derivs = 1 record on 16x16x64, in units of one scalar field
    # (128 KiB).  The record before the functional became a list of terms
    # peaked at 55.02 fields at m = 2 and 3; the bound is that plus 10%.
    # Each term's field is built when the sum reaches it: building the
    # list eagerly peaks at 60.65 fields.
    cfg = SimConfig(nx=16, ny=16, nz=64, eps=0.05, b11=1.0, b12=0.4, b22=2.0,
                    dt=1e-3, t_final=1e-3, ic_name="random-solenoidal",
                    amplitude=0.2, seed=4, conormal_m=m,
                    time_derivs=1).validate()
    grid = make_grid(cfg)
    st = init_state(grid, cfg.ic)
    B = SlipMatrixB(cfg.b11, cfg.b12, cfg.b22)
    make_record(st, cfg, grid, B)
    tracemalloc.start()
    try:
        make_record(st, cfg, grid, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.10 * 55.02 * st.p.nbytes
