"""Conormal norms, energy budget, boundary-layer indicators, records."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from lcflow import SimConfig, diagnostics, operators, pressure, run, step
from lcflow.diagnostics import (_conormal_sums, boundary_work,
                                elastic_energy, kinetic_energy, make_record)
from lcflow.errors import ConfigError
from lcflow.fields import (FaceField, InitialConditionSpec, State,
                           face_to_center, init_state, zero_face_field)
from lcflow.grid import ChannelGrid, _dz_centered, make_grid
from lcflow.operators import (SlipMatrixB, _gradient_parts, laplacian_center,
                              momentum_forcing)

from support import (center_gradient, conormal_derivative, conormal_norm_sq,
                     director_dissipation, director_gradient, eager_record,
                     grids, peak_fields, quartic_production, raw_sup_sum,
                     scaled_conormal_sums, viscous_dissipation)


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
    assert math.sqrt(_conormal_sums(c, 0, grid, sup=0)[1]) == 2.5

    vec = np.zeros((3,) + grid.shape)
    vec[0] = 3.0
    vec[1] = 4.0                                   # Euclidean before the sup
    assert math.sqrt(_conormal_sums(vec, 0, grid, sup=0)[1]) == 5.0


def test_sup_norm_of_sine_converges_to_closed_form():
    # k = 1 on sin(2 pi x): sqrt(sup|f|^2 + sup|df/dx|^2) -> sqrt(1 + 4 pi^2)
    target = math.sqrt(1.0 + (2.0 * math.pi) ** 2)
    deficit = {}
    for nx in (16, 32):
        grid = _grid(nx=nx)
        f = np.broadcast_to(np.sin(2 * np.pi * grid.x_centers())[:, None, None],
                            grid.shape).copy()
        v = math.sqrt(_conormal_sums(f, 1, grid, sup=1)[1])
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
    l2 = [conormal_norm_sq(f, k, grid) for k in range(m + 1)]
    linf = [_conormal_sums(f, 0, grid, sup=s)[1] for s in range(sup + 1)]
    # one walk gives the order-k l2 and the order-s sup sum of the walks to
    # k and to s alone, bit for bit, whichever of the two it walks past:
    # the record reads grad u's two sums off one walk
    for k in range(m + 1):
        assert _conormal_sums(f, k, grid) == (l2[k], 0.0)
        for s in range(sup + 1):
            assert _conormal_sums(f, k, grid, sup=s) == (l2[k], linf[s])
    # non-decreasing in k, and equal to the plain enumeration of
    # multi-indices
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
    # memory must not change a bit of its sums.  sup may walk past m.
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((3, 3, 2 * grid.nx) + grid.shape[1:])
    strided = wide[:, :, ::2]
    fortran = np.asfortranarray(strided)
    c_copy = np.ascontiguousarray(strided)
    assert not strided.flags.c_contiguous and fortran.flags.f_contiguous
    want = _conormal_sums(c_copy, m, grid, sup=sup)
    assert _conormal_sums(strided, m, grid, sup=sup) == want
    assert _conormal_sums(fortran, m, grid, sup=sup) == want
    # l2 is that of the walk to m alone, for every sup that walks past m
    assert want[0] == _conormal_sums(c_copy, m, grid)[0]
    # the sup sum is that of the whole-stack raw members, bit for bit, for
    # every L2 order
    linf = raw_sup_sum(c_copy, sup, grid)
    for k in range(m + 1):
        assert _conormal_sums(strided, k, grid, sup=sup)[1] == linf


@settings(max_examples=40, deadline=None)
@given(grid=grids, lead=hst.sampled_from([(), (3,), (3, 3)]),
       m=hst.integers(0, 4), sup=hst.integers(0, 2),
       seed=hst.integers(0, 2**32 - 1))
def test_raw_walk_is_the_scaled_walk(grid, lead, m, sup, seed):
    # the walk carries each 1/(2h) as a scalar and sums squares in one read;
    # the loop reference divides every member and sums squared arrays, so
    # the two agree to round-off (the tolerance was fixed before measuring)
    f = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    l2, linf = _conormal_sums(f, m, grid, sup=sup)
    want_l2, want_linf = scaled_conormal_sums(f, m, grid, sup=sup)
    assert l2 == pytest.approx(want_l2, rel=1e-13)
    assert linf == pytest.approx(want_linf, rel=1e-13)


def test_component_walk_working_set():
    # A (3, 3) stack is walked one 16x16x32 component (64 KiB) at a time.
    # Measured peak: 9.7 components (one buffer per order of the depth-
    # first walk, the sup sums of the four order <= 1 members, one square
    # buffer).  The bound of 16 leaves a margin for numpy temporaries;
    # walking the whole stack at once peaked at 58 components.
    grid = ChannelGrid(16, 16, 32, 1.0, 1.0, 1.0)
    f = np.random.default_rng(0).standard_normal((3, 3) + grid.shape)
    assert peak_fields(lambda: _conormal_sums(f, 2, grid, sup=1),
                       f[0, 0].nbytes) < 16


def test_streamed_gradient_walk_working_set():
    # The grad u walk of a record (order m - 1 = 1, sup 1) over the stream
    # of _gradient_parts, in units of one 16x16x64 component (128 KiB).
    # The bound, fixed before measuring, is one 9-field stack: the walk
    # cannot hold the stack of the center_gradient oracle.  Measured: 8.5
    # (the stream's buffer, the top-level buffer, the sup sums of the four
    # order <= 1 members, one square buffer); the stack and its walk
    # peaked at 16.5.
    grid = ChannelGrid(16, 16, 64, 1.0, 1.0, 1.0)
    uc = np.random.default_rng(0).standard_normal((3,) + grid.shape)
    want = _conormal_sums(center_gradient(uc, grid), 1, grid, sup=1)
    assert _conormal_sums(_gradient_parts(uc, _dz_centered, grid), 1, grid,
                          sup=1) == want
    assert peak_fields(
        lambda: _conormal_sums(_gradient_parts(uc, _dz_centered, grid), 1,
                               grid, sup=1), uc[0].nbytes) < 9


@pytest.mark.parametrize("stream", [False, True])
def test_walk_leaves_nothing_behind(stream):
    # With gc off only reference counts free memory, so a walk that formed
    # a reference cycle (a nested function that calls itself) would leave
    # its order buffers and sup squares behind when it returns: seven
    # 16x16x32 components (64 KiB each) here.  The bound is one.
    grid = ChannelGrid(16, 16, 32, 1.0, 1.0, 1.0)
    uc = np.random.default_rng(0).standard_normal((3,) + grid.shape)

    def call():
        f = _gradient_parts(uc, _dz_centered, grid) if stream else uc
        return _conormal_sums(f, 2, grid, sup=1)

    call()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < uc[0].nbytes


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
    # the pressure split and the time derivatives share one forcing, whose
    # stress comes from the pass over grad d's parts that also walks grad
    # d and sums |grad d|^2; every gradient is a stream, none a stack
    forcings, grads = [], []
    add_stress, parts = operators._add_stress, operators._gradient_parts

    def counting(adv, sigma, grid):
        forcings.append(add_stress(adv, sigma, grid))
        return forcings[-1]

    def counting_parts(f, dz, grid):
        grads.append(dz.__name__)
        return parts(f, dz, grid)

    monkeypatch.setattr(diagnostics, "_add_stress", counting)
    monkeypatch.setattr(diagnostics, "_gradient_parts", counting_parts)
    monkeypatch.setattr(operators, "_gradient_parts", counting_parts)
    cfg = SimConfig(nx=8, ny=6, nz=12, eps=0.05, b11=1.0, b22=1.0, dt=1e-3,
                    t_final=1e-3, ic_name="random-solenoidal", amplitude=0.2,
                    seed=3, time_derivs=time_derivs).validate()
    grid = make_grid(cfg)
    st = init_state(grid, cfg.ic)
    make_record(st, cfg, grid, SlipMatrixB(1.0, 0.0, 1.0))
    assert len(forcings) == 1
    monkeypatch.undo()
    want = momentum_forcing(st.u, st.d, laplacian_center(st.d, grid), grid)
    for got, w in zip(forcings[0].components(), want.components()):
        assert np.array_equal(got, w)
    # grad d once, and grad u; for the time derivatives grad of dd/dt and
    # grad u_t
    assert grads == (["_dz_reflect", "_dz_centered"]
                     + ["_dz_reflect", "_dz_centered"] * time_derivs)


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
    assert make_record(nxt, cfg, grid, B, prev, cfg.dt).energy_residual == want


@pytest.mark.parametrize("dt", [0.0, math.nan, -1e-3, math.inf])
def test_energy_residual_refuses_a_bad_dt(dt):
    # dt = 0 used to raise a bare ZeroDivisionError, nan gave a nan
    # residual and a negative dt flipped its sign
    cfg, grid, prev, B = _record_case(2, 0)
    nxt = step(prev, cfg, grid, B, cfg.dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        make_record(nxt, cfg, grid, B, prev=prev, dt=dt)


def test_record_derives_each_energy_once(monkeypatch):
    # the record's kinetic and elastic columns and its residual share the
    # state's energies: one call each for the state and one for prev
    calls = []
    for name in ("kinetic_energy", "elastic_energy"):
        real = getattr(diagnostics, name)
        monkeypatch.setattr(diagnostics, name,
                            lambda f, grid, _r=real, _n=name:
                            calls.append(_n) or _r(f, grid))
    cfg, grid, prev, B = _record_case(2, 0)
    nxt = step(prev, cfg, grid, B, cfg.dt)
    rec = make_record(nxt, cfg, grid, B, prev=prev, dt=cfg.dt)
    assert sorted(calls) == ["elastic_energy"] * 2 + ["kinetic_energy"] * 2
    monkeypatch.undo()
    assert rec.energy_residual == make_record(
        nxt, cfg, grid, B, prev, cfg.dt).energy_residual
    assert (rec.kinetic, rec.elastic) == (kinetic_energy(nxt.u, grid),
                                          elastic_energy(nxt.d, grid))


_BLAS_RECORD = """
import dataclasses
from lcflow import SimConfig
from lcflow.diagnostics import make_record
from lcflow.fields import init_state
from lcflow.grid import make_grid
from lcflow.operators import SlipMatrixB
cfg = SimConfig(nx=32, ny=32, nz=32, eps=0.05, b11=1.0, b12=0.4, b22=2.0,
                dt=1e-3, t_final=1e-3, ic_name="random-solenoidal",
                amplitude=0.2, seed=4, conormal_m=2, time_derivs=1).validate()
grid = make_grid(cfg)
rec = make_record(init_state(grid, cfg.ic), cfg, grid,
                  SlipMatrixB(cfg.b11, cfg.b12, cfg.b22))
print(repr(dataclasses.astuple(rec)))
"""


def test_record_does_not_depend_on_blas_threads():
    # every sum of a record is numpy's own loop: a BLAS reduction (np.dot,
    # np.vdot) splits long vectors across its threads and rounds otherwise
    src = str(Path(diagnostics.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _BLAS_RECORD], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(done.stdout)
    assert out[0] == out[1] and out[0].startswith("(0.0, ")


@pytest.mark.parametrize("given, missing", [("prev", "dt"), ("dt", "prev")])
def test_record_refuses_half_a_step(given, missing):
    # the energy residual spans a step, so it needs both prev and dt; one
    # without the other used to record energy_residual = 0.0 silently
    cfg, grid, st, B = _record_case(2, 0)
    step_ends = {"prev": st.copy(), "dt": cfg.dt}
    with pytest.raises(TypeError, match=f"{missing} is missing"):
        make_record(st, cfg, grid, B, **{given: step_ends[given]})


def test_record_does_not_read_the_stored_pressure():
    # the time derivatives take their pressure from the record's own split,
    # so a record depends on (u, d) alone: state.p is the last projection's
    # pressure, all zeros at t = 0 and only close to the split's later
    cfg, grid, st, B = _record_case(2, 1)
    st = step(st, cfg, grid, B, cfg.dt)
    assert np.abs(st.p).max() > 0.0
    want = make_record(st, cfg, grid, B)
    rng = np.random.default_rng(0)
    for p in (np.zeros(grid.shape), rng.standard_normal(grid.shape)):
        got = make_record(State(u=st.u, p=p, d=st.d, t=st.t), cfg, grid, B)
        assert got == want


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
            + _conormal_sums(gu, 1, grid, sup=1)[1])
    if time_derivs:
        F = momentum_forcing(st.u, st.d, ld, grid)
        p1, p2 = pressure.pressure_split(st.u, F, cfg.eps, grid,
                                         cfg.solver_tol)
        ut, dt_d = diagnostics._time_derivatives(
            st, p1 + p2, F, ld, np.sum(gd * gd, axis=(0, 1)), cfg.eps, B,
            grid)
        want += (conormal_norm_sq(ut, m - 1, grid)
                 + conormal_norm_sq(director_gradient(dt_d, grid), m - 1, grid))
        if m >= 2:
            gut = center_gradient(ut, grid)
            want += (conormal_norm_sq(gut, m - 2, grid)
                     + conormal_norm_sq(laplacian_center(dt_d, grid), m - 2,
                                        grid)
                     + _conormal_sums(gut, 0, grid, sup=0)[1])
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
    # Laplacian of u_t; the wall work beside each curl shares the curl's
    calls = []
    rows = operators._slip_ghost_rows

    def counting(*args, **kw):
        calls.append(1)
        return rows(*args, **kw)

    monkeypatch.setattr(operators, "_slip_ghost_rows", counting)
    monkeypatch.setattr(diagnostics, "_slip_ghost_rows", counting)
    cfg, grid, st, B = _record_case(1, time_derivs)
    prev, dt = (st.copy(), cfg.dt) if with_prev else (None, None)
    make_record(st, cfg, grid, B, prev=prev, dt=dt)
    assert len(calls) == fills


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("time_derivs", [0, 1])
@pytest.mark.parametrize("with_prev", [False, True])
@pytest.mark.parametrize("eps", [0.05, 0.0])
def test_record_is_the_eager_record(m, time_derivs, with_prev, eps):
    # dropping each field after its last reader, streaming the walked
    # gradients and sharing the slip end rows change no bit of a record:
    # every field equals the eager assembly's, signed zeros included
    cfg, grid, st, B = _record_case(m, time_derivs)
    cfg = replace(cfg, eps=eps).validate()
    prev, dt = None, None
    if with_prev:
        prev, dt = st, cfg.dt
        st = step(st, cfg, grid, B, dt)
    got = make_record(st, cfg, grid, B, prev, dt)
    want = eager_record(st, cfg, grid, B, prev, dt)
    assert got == want
    assert [x.hex() for x in astuple(got)] == [x.hex() for x in astuple(want)]
    if eps == 0.0:
        assert got.p2_norm == 0.0


# A time_derivs = 1 record on 16x16x64 in units of one scalar field
# (128 KiB), per order m.  Measured: 19.60 fields at m = 2 and 20.54 at
# m = 3; the bound is that plus 10%.  With grad d walked and held as a
# 9-field stack through the stress of F, both peaked at 22.55; the eager
# assembly (support.eager_record's lifetimes) at 44.6.
RECORD_PEAK_FIELDS = {2: 19.60, 3: 20.54}


@pytest.mark.parametrize("m", [2, 3])
def test_record_working_set(m):
    cfg = SimConfig(nx=16, ny=16, nz=64, eps=0.05, b11=1.0, b12=0.4, b22=2.0,
                    dt=1e-3, t_final=1e-3, ic_name="random-solenoidal",
                    amplitude=0.2, seed=4, conormal_m=m,
                    time_derivs=1).validate()
    grid = make_grid(cfg)
    st = init_state(grid, cfg.ic)
    B = SlipMatrixB(cfg.b11, cfg.b12, cfg.b22)
    assert (peak_fields(lambda: make_record(st, cfg, grid, B), st.p.nbytes)
            < 1.10 * RECORD_PEAK_FIELDS[m])
