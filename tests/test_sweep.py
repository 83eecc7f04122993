"""Rate fitting, error norms, remainders, and the sweep driver itself."""

import numpy as np
import pytest

from lcflow import (
    ChannelGrid,
    ConfigError,
    InitialConditionSpec,
    SimConfig,
    error_norms,
    fit_rate,
    init_state,
    remainder_norms,
    run_sweep,
)
from lcflow.fields import State, zero_face_field
from lcflow.operators import laplacian_center
from lcflow.fields import face_to_center

from support import loop_remainder_norms


def _grid(nx=8, ny=8, nz=16, lx=1.0, ly=1.0, lz=1.0):
    return ChannelGrid(nx, ny, nz, lx, ly, lz)


def _random_state(grid, seed=0, amplitude=0.2):
    return init_state(grid, InitialConditionSpec("random-solenoidal",
                                                 amplitude=amplitude, seed=seed))


def _sweep_cfg(**kw):
    base = dict(nx=8, ny=8, nz=16, eps=0.0, dt=2e-3, t_final=0.02,
                ic_name="slipflow", b11=1.0, b22=1.0, amplitude=0.1,
                adaptive_dt=False, visc_implicit=True, diag_every=5,
                conormal_m=1)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------- fit_rate


def test_fit_rate_exact_power_law():
    pts = [(0.1, 7.0 * 0.1 ** 1.5), (0.01, 7.0 * 0.01 ** 1.5)]
    slope, intercept, r2 = fit_rate(pts)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(np.log(7.0), abs=1e-12)
    assert r2 == 1.0


def test_fit_rate_needs_two_points():
    with pytest.raises(ValueError, match="at least 2 points"):
        fit_rate([(0.1, 0.5)])


def test_fit_rate_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive data"):
        fit_rate([(0.1, 0.0), (0.01, 1.0)])
    with pytest.raises(ValueError, match="positive data"):
        fit_rate([(-0.1, 0.5), (0.01, 1.0)])


def test_fit_rate_rejects_non_finite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite positive data"):
            fit_rate([(0.1, bad), (0.01, 1.0)])
        with pytest.raises(ValueError, match="finite positive data"):
            fit_rate([(bad, 0.5), (0.01, 1.0)])


def test_fit_rate_rejects_degenerate_abscissa():
    with pytest.raises(ValueError, match="distinct eps"):
        fit_rate([(0.1, 0.5), (0.1, 0.6)])


def test_fit_rate_noisy_r2_below_one():
    rng = np.random.default_rng(0)
    eps = [2.0 ** -k for k in range(3, 9)]
    pts = [(e, e ** 1.2 * np.exp(0.05 * rng.standard_normal())) for e in eps]
    slope, _, r2 = fit_rate(pts)
    assert 1.0 < slope < 1.4
    assert 0.9 < r2 < 1.0


# ------------------------------------------------------------- error norms


def test_error_norms_of_identical_states():
    grid = _grid()
    st = _random_state(grid, seed=1)
    out = error_norms(st.u, st.d, st.u, st.d, grid)
    assert out == (0.0, 0.0, 0.0, 0.0)


def test_error_norms_simple_offset():
    # b = a + constant velocity offset: the L2 error is |offset|^2 * volume
    # and the Linf error is the centered magnitude of the offset
    grid = _grid()
    a = _random_state(grid, seed=2)
    b = a.copy()
    b.u.x += 0.25
    volume = grid.lx * grid.ly * grid.lz
    e_l2sq, e_h1sq, e_linf, e_w1inf = error_norms(b.u, b.d, a.u, a.d, grid)
    assert e_l2sq == pytest.approx(0.25 ** 2 * volume, rel=1e-12)
    assert e_linf == pytest.approx(0.25, rel=1e-12)
    assert e_h1sq == 0.0 and e_w1inf == 0.0


def test_error_norms_director_gradient_part():
    grid = _grid()
    a = _random_state(grid, seed=3)
    b = a.copy()
    bump = 0.1 * np.sin(2 * np.pi * grid.x_centers() / grid.lx)[:, None, None]
    b.d = a.d + np.stack([bump * np.ones(grid.shape),
                          np.zeros(grid.shape), np.zeros(grid.shape)])
    _, e_h1sq, _, e_w1inf = error_norms(b.u, b.d, a.u, a.d, grid)
    # independent evaluation: ||bump||^2 + ||grad bump||^2 over the grid
    gx = (np.roll(bump, -1, axis=0) - np.roll(bump, 1, axis=0)) / (2 * grid.hx)
    direct = grid.cell_volume * (np.sum(bump ** 2) + np.sum(gx ** 2)) * grid.ny * grid.nz
    assert e_h1sq == pytest.approx(direct, rel=1e-12)
    assert e_w1inf == pytest.approx(max(np.max(np.abs(bump)), np.max(np.abs(gx))), rel=1e-12)


# -------------------------------------------------------------- remainders


def test_remainders_vanish_for_identical_inviscid_pair():
    grid = _grid()
    st = _random_state(grid, seed=4)
    r1, r2 = remainder_norms(st, st, 0.0, grid)
    assert r1 == 0.0 and r2 == 0.0


def test_remainder_r1_reduces_to_viscous_term():
    # identical states with eps > 0: every difference term dies and
    # R1 = eps * lap(u) evaluated at centers
    grid = _grid()
    st = _random_state(grid, seed=5)
    eps = 0.3
    r1, r2 = remainder_norms(st, st, eps, grid)
    lap = laplacian_center(face_to_center(st.u), grid)
    want = eps * np.sqrt(np.sum(lap * lap) * grid.cell_volume)
    assert r1 == pytest.approx(want, rel=1e-13)
    assert r2 == 0.0


def test_remainders_match_loop_reference():
    # full cross-check against the explicit-loop re-derivation in support.py
    grid = _grid(nx=6, ny=6, nz=8)
    a = _random_state(grid, seed=6, amplitude=0.15)
    b = _random_state(grid, seed=7, amplitude=0.15)
    got = remainder_norms(a, b, 0.25, grid)
    want = loop_remainder_norms(a, b, 0.25, grid)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


# ------------------------------------------------------------ sweep driver


def test_sweep_ladder_validation():
    cfg = _sweep_cfg()
    with pytest.raises(ConfigError, match="ladder is empty"):
        run_sweep(cfg, eps_ladder=())
    with pytest.raises(ConfigError, match=r"in \(0, 1\]"):
        run_sweep(cfg, eps_ladder=(0.5, 0.0))
    with pytest.raises(ConfigError, match="strictly decreasing"):
        run_sweep(cfg, eps_ladder=(0.25, 0.25))
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_sweep(cfg, eps_ladder=(0.25, 0.125), jobs=0)


def test_sweep_resolution_guard():
    # hz = 1/16 so eps_min = 1/16: members below it are excluded and flagged
    cfg = _sweep_cfg()
    res = run_sweep(cfg, eps_ladder=(0.25, 0.03125))
    assert res.eps_min == pytest.approx((4.0 / 16.0) ** 2)
    assert res.included == (0.25,)
    assert res.excluded == (0.03125,)
    assert any("resolution guard" in f for f in res.flags)
    assert res.fit_note == "insufficient-points"
    assert np.isnan(res.fitted_slope_l2)


def test_sweep_force_overrides_guard():
    cfg = _sweep_cfg()
    res = run_sweep(cfg, eps_ladder=(0.25, 0.03125), force=True)
    assert res.included == (0.25, 0.03125)
    assert any("under-resolution" in f for f in res.flags)


def test_sweep_basic_result_shape():
    cfg = _sweep_cfg()
    ladder = (0.25, 0.125, 0.0625)
    res = run_sweep(cfg, eps_ladder=ladder)
    assert res.included == ladder
    assert set(res.errors_max) == set(ladder)
    for e in ladder:
        rows = res.errors_by_time[e]
        assert len(rows) >= 2
        for t, tup in rows:
            assert len(tup) == 4 and all(v >= 0.0 for v in tup)
        # max-over-time dominates the final-time row
        for k in range(4):
            assert res.errors_max[e][k] >= rows[-1][1][k] - 1e-18
    # smaller eps -> smaller error against the inviscid reference
    l2 = [res.errors_max[e][0] + res.errors_max[e][1] for e in ladder]
    assert l2[0] > l2[1] > l2[2] > 0.0
    assert np.isfinite(res.fitted_slope_l2)
    assert res.config_hash != ""
    assert res.failed == ()


def test_sweep_is_deterministic_rerun():
    cfg = _sweep_cfg()
    ladder = (0.25, 0.125)
    a = run_sweep(cfg, eps_ladder=ladder)
    b = run_sweep(cfg, eps_ladder=ladder)
    assert a.errors_max == b.errors_max
    assert a.errors_by_time == b.errors_by_time
    assert a.fitted_slope_l2 == b.fitted_slope_l2


def test_sweep_member_failure_aborts_with_partials():
    # explicit viscosity gives the member a diffusive stability bound that
    # the shared fixed dt violates, so the first member must fail loudly
    cfg = _sweep_cfg(visc_implicit=False, dt=6e-3, t_final=0.024)
    res = run_sweep(cfg, eps_ladder=(0.25, 0.125))
    assert len(res.failed) == 1 and res.failed[0][0] == 0.25
    assert "stability limit" in res.failed[0][1]
    assert any("aborted" in f for f in res.flags)
    # the pooled path applies the same rule: nothing after the first failure
    pooled = run_sweep(cfg, eps_ladder=(0.25, 0.125), jobs=2)
    assert pooled.failed == res.failed
    assert pooled.errors_by_time == res.errors_by_time == {}
    assert pooled.flags == res.flags


def test_error_injection_recovers_rate():
    # inject u_eps = eps^0.75 * g against a zero reference: the fitted slope
    # of the squared norms must be 1.5 to high accuracy
    grid = _grid()
    g = _random_state(grid, seed=8, amplitude=1.0)
    zero_u = zero_face_field(grid)
    zero_d = np.zeros((3,) + grid.shape)
    pts = []
    for eps in (2.0 ** -k for k in range(4, 11)):
        fac = eps ** 0.75
        ue = type(g.u)(fac * g.u.x, fac * g.u.y, fac * g.u.z)
        de = fac * g.d
        e_l2, e_h1, _, _ = error_norms(ue, de, zero_u, zero_d, grid)
        pts.append((eps, e_l2 + e_h1))
    slope, _, r2 = fit_rate(pts)
    assert abs(slope - 1.5) <= 1e-6
    assert r2 > 1.0 - 1e-12
