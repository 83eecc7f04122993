"""Rate fitting, error norms, remainders, and the sweep driver itself."""

import dataclasses
import math
import multiprocessing as mp
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings

from lcflow import (
    ChannelGrid,
    ConfigError,
    InitialConditionSpec,
    SimConfig,
    SimulationError,
    error_norms,
    fit_rate,
    init_state,
    remainder_norms,
    run_sweep,
    write_rate_report,
)
from lcflow.fields import State, zero_face_field
from lcflow.grid import make_grid
from lcflow.integrator import step
from lcflow.operators import SlipMatrixB, laplacian_center
from lcflow.fields import face_to_center
from lcflow import sweep
from lcflow.cli import cli
from lcflow.io import FAMILIES, SWEEP_COLUMNS
from lcflow.sweep import _compare_member, _member_job, _plan

from support import (face_field, grids, loop_remainder_norms, peak_fields,
                     seeds, shear_twist_errors, stacked_error_norms)


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


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=seeds)
def test_error_norms_are_the_stacked_norms(grid, seed):
    # one velocity component and a stream of grad's parts at a time: the
    # same sums in the same order as on whole stacks, bit for bit, but for
    # the H1 part of d, which sums |grad (d_a - d_b)|^2 pointwise first
    rng = np.random.default_rng(seed)
    u_a, u_b = face_field(rng, grid), face_field(rng, grid)
    d_a, d_b = (rng.standard_normal((3,) + grid.shape) for _ in range(2))
    got = error_norms(u_a, d_a, u_b, d_b, grid)
    want = stacked_error_norms(u_a, d_a, u_b, d_b, grid)
    assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
    assert got[1] == pytest.approx(want[1], rel=1e-13)


def test_error_norms_working_set():
    # Two 16x16x64 states a step apart, in units of one scalar field
    # (128 KiB).  Measured: 8.50 fields; the bound is that plus 10%.  The
    # differences as whole stacks, with grad of the director difference
    # and its square, peaked at 27.03.
    cfg = SimConfig(nx=16, ny=16, nz=64, eps=0.01, b11=1.0, b12=0.4,
                    b22=2.0, dt=1e-3, t_final=1e-3,
                    ic_name="random-solenoidal", amplitude=0.2,
                    seed=4).validate()
    grid = make_grid(cfg)
    a = init_state(grid, cfg.ic)
    b = step(a, cfg, grid, SlipMatrixB(cfg.b11, cfg.b12, cfg.b22), cfg.dt)
    assert (peak_fields(lambda: error_norms(b.u, b.d, a.u, a.d, grid),
                        a.p.nbytes) < 1.10 * 8.50)


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


@settings(max_examples=6, deadline=None)
@given(grid=grids, seed=seeds)
def test_remainders_match_loop_reference(grid, seed):
    # full cross-check against the explicit-loop re-derivation in
    # support.py
    a = _random_state(grid, seed=seed, amplitude=0.15)
    b = _random_state(grid, seed=seed + 1, amplitude=0.15)
    got = remainder_norms(a, b, 0.25, grid)
    want = loop_remainder_norms(a, b, 0.25, grid)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


@settings(max_examples=6, deadline=None)
@given(grid=grids, seed=seeds)
def test_remainders_match_loop_reference_on_rough_data(grid, seed):
    # non-solenoidal face velocities and standard-normal directors put the
    # norms near 1e4, where an absolute 1e-12 is below round-off; the
    # relative bound of 1e-14 was fixed before measuring
    rng = np.random.default_rng(seed)
    a, b = (State(u=face_field(rng, grid), p=np.zeros(grid.shape),
                  d=rng.standard_normal((3,) + grid.shape), t=0.0)
            for _ in range(2))
    got = remainder_norms(a, b, 0.25, grid)
    want = loop_remainder_norms(a, b, 0.25, grid)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_remainder_norms_refuse_mismatched_shapes():
    # states on another grid than the one given, or on two grids
    small, large = _grid(nx=6, ny=6, nz=8), _grid()
    a, b = _random_state(large, seed=8), _random_state(small, seed=9)
    with pytest.raises(ConfigError, match=r"\(3, 8, 8, 16\) does not match "
                                          r"\(3, 6, 6, 8\) on grid "
                                          r"\(6, 6, 8\)"):
        remainder_norms(a, a, 0.25, small)
    for pair in ((a, b), (b, a)):
        with pytest.raises(ConfigError, match=r"\(3, 8, 8, 16\) does not "
                                              r"match"):
            remainder_norms(*pair, 0.25, small)
    bad = State(u=dataclasses.replace(b.u, z=b.u.z[:, :, :-1]), p=b.p,
                d=b.d, t=b.t)
    with pytest.raises(ConfigError, match=r"u\.z shape \(6, 6, 8\) does "
                                          r"not match \(6, 6, 9\)"):
        remainder_norms(b, bad, 0.25, small)


def test_remainder_norms_working_set():
    # One call on two 32^3 states, in units of one scalar field (256 KiB),
    # the states themselves aside.  The bound was fixed at 32 before the
    # final measurement; measured: 25.7.  The einsum form over whole
    # gradient stacks peaked at 80.0.
    grid = ChannelGrid(32, 32, 32, 1.0, 1.0, 1.0)
    a = _random_state(grid, seed=10)
    b = _random_state(grid, seed=11, amplitude=0.15)
    assert peak_fields(lambda: remainder_norms(a, b, 0.25, grid),
                       a.p.nbytes) < 32


# ------------------------------------------------------------ sweep driver


def test_sweep_ladder_validation():
    with pytest.raises(ConfigError, match="ladder is empty"):
        run_sweep(_sweep_cfg(eps_ladder=()))
    with pytest.raises(ConfigError, match=r"in \(0, 1\]"):
        run_sweep(_sweep_cfg(eps_ladder=(0.5, 0.0)))
    with pytest.raises(ConfigError, match="strictly decreasing"):
        run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.25)))
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.125)), jobs=0)


def test_sweep_resolution_guard():
    # hz = 1/16 so eps_min = 1/16: members below it are excluded and flagged
    res = run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.03125)))
    assert res.eps_min == pytest.approx((4.0 / 16.0) ** 2)
    assert res.included == (0.25,)
    assert res.excluded == (0.03125,)
    assert any("resolution guard" in f for f in res.flags)
    assert res.fit_note == "insufficient-points"
    assert np.isnan(res.fits["l2"].slope)


def test_sweep_guard_excluding_every_member_fails_before_any_run(
        tmp_path, monkeypatch, capsys):
    # hz = 1/16 so eps_min = 1/16: the whole ladder is below it, and the
    # sweep must say so at once instead of running the reference first
    ran = []
    monkeypatch.setattr(sweep, "_member_job",
                        lambda *args: ran.append(args) or _member_job(*args))
    with pytest.raises(ConfigError, match=r"eps \[0.03, 0.01\] below "
                                          r"eps_min = 0.0625; --force"):
        run_sweep(_sweep_cfg(eps_ladder=(0.03, 0.01)))
    assert ran == []
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[grid]\nnx = 8\nny = 8\nnz = 16\n"
                        "[physics]\neps = 0.05\n"
                        "[time]\ndt = 2e-3\nt_final = 0.02\n"
                        "[sweep]\neps_ladder = 0.03 0.01\n")
    out = tmp_path / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "eps_min = 0.0625" in err and "--force" in err
    assert ran == [] and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("t_final", ["0", "1e-13"])
def test_sweep_without_a_step_fails_before_any_run(tmp_path, monkeypatch,
                                                   capsys, t_final):
    # no run would take a step, so every member would match the reference
    # at t = 0 only: zero errors and nothing to fit
    ran = []
    monkeypatch.setattr(sweep, "_member_job",
                        lambda *args: ran.append(args) or _member_job(*args))
    with pytest.raises(ConfigError, match="t_final"):
        run_sweep(_sweep_cfg(t_final=float(t_final), eps_ladder=(0.25, 0.125)))
    assert ran == []
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[grid]\nnx = 8\nny = 8\nnz = 16\n"
                        "[physics]\neps = 0.05\n"
                        f"[time]\ndt = 2e-3\nt_final = {t_final}\n"
                        "[sweep]\neps_ladder = 0.25 0.125\n")
    out = tmp_path / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "t_final" in capsys.readouterr().err
    assert ran == [] and not (out / "sweep.csv").exists()


_CLI_SWEEP_CFG = ("[grid]\nnx = 8\nny = 8\nnz = 16\n"
                  "[physics]\neps = 0.05\nb11 = 1.0\nb22 = 1.0\n"
                  "[time]\ndt = 2e-3\nt_final = {t_final}\nadaptive_dt = no\n"
                  "visc_implicit = yes\n"
                  "[ic]\nname = shear+twist\namplitude = 0.1\ntwist = 0.5\n"
                  "[diag]\ndiag_every = 5\n"
                  "[sweep]\neps_ladder = {ladder}\n")


@pytest.mark.parametrize("t_final, ladder", [("0", "0.25 0.125"),
                                             ("0.02", "0.03 0.01")])
def test_refused_sweep_leaves_no_output_directory(tmp_path, monkeypatch,
                                                  capsys, t_final, ladder):
    # no step at this t_final, or a ladder the resolution guard empties:
    # run_sweep refuses before any run, and the --out this call created
    # (with its parents) goes again; an existing --out stays as it was
    ran = []
    monkeypatch.setattr(sweep, "_member_job",
                        lambda *args: ran.append(args) or _member_job(*args))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_CLI_SWEEP_CFG.format(t_final=t_final, ladder=ladder))
    out = tmp_path / "fresh" / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not (tmp_path / "fresh").exists()
    out.mkdir(parents=True)
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert out.is_dir() and list(out.iterdir()) == []
    assert ran == []
    capsys.readouterr()


@pytest.mark.parametrize("name", ["sweep.csv", "rate_report.txt"])
def test_sweep_refuses_a_config_it_would_overwrite(tmp_path, monkeypatch,
                                                   capsys, name):
    # a config saved under the name of an output in --out, given directly
    # or through a --out that does not exist yet (missing/.. resolves to
    # the config's directory, and creating --out would create missing):
    # exit 2 before any run, and nothing written or created
    ran = []
    monkeypatch.setattr(sweep, "_member_job",
                        lambda *args: ran.append(args) or _member_job(*args))
    cfg_path = tmp_path / name
    cfg_path.write_text(_CLI_SWEEP_CFG.format(t_final="0.02", ladder="0.25"))
    before = cfg_path.read_bytes()
    missing = tmp_path / "missing"
    for out in (tmp_path, missing / ".."):
        assert cli(["sweep", "--config", str(cfg_path),
                    "--out", str(out)]) == 2
        assert "same file" in capsys.readouterr().err
    assert cfg_path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cfg_path]
    assert ran == []


def test_sweep_into_an_unwritable_out_fails_before_any_run(tmp_path,
                                                          monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(sweep, "_member_job",
                        lambda *args: ran.append(args) or _member_job(*args))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_CLI_SWEEP_CFG.format(t_final="0.02",
                                              ladder="0.25 0.125"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli(["sweep", "--config", str(cfg_path),
                "--out", str(blocker / "out")]) == 2
    assert ran == [] and "lcflow sweep:" in capsys.readouterr().err


def _dying_member_job(base, eps, workdir):
    """_member_job whose worker process ends at once (as under the OOM
    killer) for every member; the reference runs as usual."""
    if eps != 0.0:
        os._exit(9)
    return _member_job(base, eps, workdir)


def test_sweep_dead_worker_is_a_member_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "_member_job", _dying_member_job)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_CLI_SWEEP_CFG.format(t_final="0.02",
                                              ladder="0.25 0.125"))
    out = tmp_path / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out),
                "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert "aborted: member eps=0.25 failed: its worker process ended" \
        in captured.err
    report = (out / "rate_report.txt").read_text()
    assert captured.out == report and "ABORTED: eps=0.25: " in report
    assert not (out / "sweep.csv").exists()


# hz = 1/16 in _sweep_cfg, so eps_min = (4/16)^2 = 0.0625
_FORCED = ("under-resolution: forced members below eps_min = 0.0625 "
           "(boundary layer thinner than 4 cells)")


@pytest.mark.parametrize("ladder, force, included, excluded, flags", [
    ((0.5, 0.25), False, (0.5, 0.25), (), []),
    ((0.5, 0.25), True, (0.5, 0.25), (), []),
    ((0.25, 0.03125), False, (0.25,), (0.03125,),
     ["resolution guard: excluded eps [0.03125] below eps_min = 0.0625"]),
    ((0.25, 0.03125), True, (0.25, 0.03125), (), [_FORCED]),
    # forced below the guard throughout: run and flagged, not refused
    ((0.03, 0.01), True, (0.03, 0.01), (), [_FORCED]),
])
def test_plan_applies_the_resolution_guard(monkeypatch, ladder, force,
                                           included, excluded, flags):
    monkeypatch.setattr(sweep, "run", None)    # the plan runs nothing
    plan = _plan(_sweep_cfg(eps_ladder=ladder), 2, force)
    assert plan == (ladder, included, excluded, 0.0625, flags)


@pytest.mark.parametrize("changes, jobs, match", [
    (dict(eps_ladder=()), 1, "eps ladder is empty"),
    (dict(eps_ladder=(0.25, 0.125)), 0, r"jobs must be >= 1, got 0"),
    (dict(eps_ladder=(0.25, 0.125), t_final=0.0), 1,
     r"t_final = 0 takes no step"),
    (dict(eps_ladder=(0.03, 0.01)), 1,
     r"resolution guard excludes every member: eps \[0.03, 0.01\]"),
])
def test_plan_refusals(monkeypatch, changes, jobs, match):
    monkeypatch.setattr(sweep, "run", None)
    with pytest.raises(ConfigError, match=match):
        _plan(_sweep_cfg(**changes), jobs, False)


def test_sweep_with_no_jobs_creates_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_CLI_SWEEP_CFG.format(t_final="0.02",
                                              ladder="0.25 0.125"))
    out = tmp_path / "fresh" / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out),
                "--jobs", "0"]) == 1
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_sweep_force_overrides_guard():
    res = run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.03125)), force=True)
    assert res.included == (0.25, 0.03125)
    assert any("under-resolution" in f for f in res.flags)


def test_sweep_basic_result_shape():
    ladder = (0.25, 0.125, 0.0625)
    res = run_sweep(_sweep_cfg(eps_ladder=ladder))
    assert res.included == ladder
    assert set(res.errors_max) == set(ladder)
    for e in ladder:
        rows = res.errors_by_time[e]
        assert len(rows) >= 2
        for row in rows:
            assert row._fields == ("t",) + SWEEP_COLUMNS[1:5]
            assert all(getattr(row, f) >= 0.0 for f in SWEEP_COLUMNS[1:5])
        # max-over-time dominates the final-time row
        for f in SWEEP_COLUMNS[1:5]:
            assert getattr(res.errors_max[e], f) >= getattr(rows[-1], f)
    # smaller eps -> smaller error against the inviscid reference
    l2 = [sum(getattr(res.errors_max[e], f) for f in FAMILIES["l2"])
          for e in ladder]
    assert l2[0] > l2[1] > l2[2] > 0.0
    assert np.isfinite(res.fits["l2"].slope)
    assert res.config_hash != ""
    assert res.failed == ()


def test_sweep_is_deterministic_rerun():
    cfg = _sweep_cfg(eps_ladder=(0.25, 0.125))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a.errors_max == b.errors_max
    assert a.errors_by_time == b.errors_by_time
    assert a.fits["l2"].slope == b.fits["l2"].slope


def test_sweep_member_failure_aborts_with_partials():
    # explicit viscosity gives the member a diffusive stability bound that
    # the shared fixed dt violates, so the first member must fail loudly
    cfg = _sweep_cfg(visc_implicit=False, dt=6e-3, t_final=0.024,
                     eps_ladder=(0.25, 0.125))
    res = run_sweep(cfg)
    assert len(res.failed) == 1 and res.failed[0][0] == 0.25
    assert "stability limit" in res.failed[0][1]
    assert any("aborted" in f for f in res.flags)
    # the pooled path applies the same rule: nothing after the first failure
    pooled = run_sweep(cfg, jobs=2)
    assert pooled.failed == res.failed
    assert pooled.errors_by_time == res.errors_by_time == {}
    assert pooled.flags == res.flags
    # only the reference completed, so only its records are kept
    assert set(pooled.records) == set(res.records) == {0.0}
    assert pooled.records[0.0] == res.records[0.0]


def test_sweep_keeps_the_records_of_every_run():
    # every completed run, the reference under 0.0, hands back its records;
    # the pooled path pickles them across the process boundary unchanged
    ladder = (0.25, 0.125)
    res = run_sweep(_sweep_cfg(eps_ladder=ladder))
    pooled = run_sweep(_sweep_cfg(eps_ladder=ladder), jobs=2)
    completed = [e for e in res.included if e in res.errors_max]
    assert completed == list(ladder)
    assert set(res.records) == set(res.wall_times) == {0.0, *completed}
    assert pooled.records == res.records
    for e in completed:
        assert ([r.t for r in res.records[e]]
                == [row.t for row in res.errors_by_time[e]])


def test_sweep_reports_a_monotonicity_violation_by_family(monkeypatch,
                                                          tmp_path):
    # every comparison returns a larger sup error than the one before, and
    # the members are compared by decreasing eps, so the linf family grows
    # as eps falls while the l2 family keeps its true values
    real = sweep.error_norms
    calls = []

    def growing_linf(*args):
        calls.append(args)
        e_l2sq, e_h1sq, _, _ = real(*args)
        return e_l2sq, e_h1sq, float(len(calls)), 0.0

    monkeypatch.setattr(sweep, "error_norms", growing_linf)
    # two members and two records (t = 0 and t = 0.01): one comparison
    res = run_sweep(_sweep_cfg(t_final=0.01, eps_ladder=(0.25, 0.125)))
    assert [len(rows) for rows in res.errors_by_time.values()] == [2, 2]
    assert res.monotone == {"l2": True, "linf": False}
    linf_flags = [f for f in res.flags if "linf" in f]
    assert linf_flags == ["monotonicity violated at t=0.01 in the linf "
                          "family: consider under-resolution"]
    assert not any("l2" in f for f in res.flags)
    text = write_rate_report(res, tmp_path / "report.txt")
    assert ("monotone along ladder at every recorded time: l2 yes, linf NO"
            in text)


def test_errors_max_is_the_field_wise_max_of_every_row(monkeypatch):
    # err_d_w1inf falls with every comparison, so within each member its
    # largest value is the t = 0 row's: errors_max must take that row too
    real = sweep.error_norms
    calls = []

    def falling_w1inf(*args):
        calls.append(args)
        return tuple(real(*args))[:3] + (1.0 / len(calls),)

    monkeypatch.setattr(sweep, "error_norms", falling_w1inf)
    res = run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.125, 0.0625)))
    assert list(res.errors_max) == [0.25, 0.125, 0.0625]
    for e, rows in res.errors_by_time.items():
        assert rows[0].t == 0.0 and len(rows) == 3
        want = tuple(max(getattr(r, f) for r in rows)
                     for f in SWEEP_COLUMNS[1:5])
        assert res.errors_max[e] == want
        assert res.errors_max[e]._fields == SWEEP_COLUMNS[1:5]
        assert res.errors_max[e].err_d_w1inf == rows[0].err_d_w1inf


def test_sweep_refuses_a_nan_error_instead_of_dropping_it(monkeypatch):
    # only an exact zero is dropped from a fit; a nan is no zero, and the
    # fit refuses it
    real = sweep.error_norms
    monkeypatch.setattr(sweep, "error_norms",
                        lambda *args: (math.nan,) + tuple(real(*args))[1:])
    with pytest.raises(ValueError, match="finite positive data"):
        run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.125)))


def test_sweep_zero_family_is_dropped_and_flagged_once(monkeypatch, tmp_path):
    # a family whose errors are all exactly zero has nothing to fit; it is
    # named once in the flags, and the other family is still fitted
    real = sweep.error_norms
    monkeypatch.setattr(sweep, "error_norms",
                        lambda *args: (0.0, 0.0) + real(*args)[2:])
    res = run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.125)))
    assert [f for f in res.flags if "dropped" in f] == [
        "fit l2: dropped members with exactly zero error"]
    assert res.fit_note == "insufficient-points"
    assert np.isnan(res.fits["l2"].slope)
    assert np.isfinite(res.fits["linf"].slope)
    text = write_rate_report(res, tmp_path / "report.txt")
    assert "l2 family   (err_u_l2sq + err_d_h1sq) : not fitted " \
           "(insufficient-points)" in text
    assert "linf family (err_u_linf + err_d_w1inf): slope = " in text


def test_member_job_is_spawn_safe(tmp_path):
    # a member takes everything as arguments: a spawned worker, which
    # inherits no module state from this process, returns the same values
    # and leaves the same checkpoint bytes as an inline call
    cfg = _sweep_cfg()
    inline, spawned = tmp_path / "inline", tmp_path / "spawned"
    inline.mkdir()
    spawned.mkdir()
    a = _member_job(cfg, 0.25, str(inline))
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=mp.get_context("spawn")) as pool:
        b = pool.submit(_member_job, cfg, 0.25, str(spawned)).result()
    assert a[0] == b[0]
    names = sorted(p.name for p in inline.iterdir())
    assert len(names) == len(a[0]) >= 2
    assert sorted(p.name for p in spawned.iterdir()) == names
    for n in names:
        assert (inline / n).read_bytes() == (spawned / n).read_bytes()


def test_compare_member_checks_record_count_and_times(tmp_path):
    cfg = _sweep_cfg()
    grid = make_grid(cfg)
    ref_records = _member_job(cfg, 0.0, str(tmp_path))[0]
    records = _member_job(cfg, 0.25, str(tmp_path))[0]
    assert len(records) == len(ref_records) >= 3
    n = len(ref_records)
    with pytest.raises(SimulationError,
                       match=f"member eps=0.25 produced {n - 1} records, "
                             f"reference has {n}"):
        _compare_member(0.25, records[:-1], ref_records, str(tmp_path), grid)
    last = records[-1]
    off = records[:-1] + [dataclasses.replace(last, t=last.t + 1e-6)]
    with pytest.raises(SimulationError, match="record times diverged: "
                                              "member eps=0.25"):
        _compare_member(0.25, off, ref_records, str(tmp_path), grid)


def test_compare_member_deletes_what_it_reads(tmp_path):
    # the member's checkpoints go as they are compared; the reference's
    # stay for the next member
    cfg = _sweep_cfg()
    ref_records = _member_job(cfg, 0.0, str(tmp_path))[0]
    ref_files = sorted(p.name for p in tmp_path.iterdir())
    records = _member_job(cfg, 0.25, str(tmp_path))[0]
    assert len(list(tmp_path.iterdir())) == 2 * len(ref_files)
    per_time = _compare_member(0.25, records, ref_records, str(tmp_path),
                               make_grid(cfg))
    assert [row.t for row in per_time] == [r.t for r in records]
    assert sorted(p.name for p in tmp_path.iterdir()) == ref_files
    assert len(ref_files) == len(ref_records)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_reference_failure_raises_and_cleans_up(tmp_path, monkeypatch,
                                                      jobs):
    # dt is above the advective CFL bound, and a sweep never adapts it, so
    # the inviscid reference itself fails on its first step
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = _sweep_cfg(dt=0.05, t_final=0.1, adaptive_dt=True,
                     eps_ladder=(0.25, 0.125))
    with pytest.raises(SimulationError, match="exceeds the stability limit"):
        run_sweep(cfg, jobs=jobs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_success_leaves_temp_dir_empty(tmp_path, monkeypatch, jobs):
    # the reference's checkpoints outlive every comparison; the sweep's
    # work directory must still take them, and the members', away
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    res = run_sweep(_sweep_cfg(eps_ladder=(0.25, 0.125)), jobs=jobs)
    assert res.failed == () and set(res.errors_max) == {0.25, 0.125}
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("b, implicit, dt", [
    (0.0, True, 2e-3), (1.0, True, 2e-3), (1000.0, True, 2e-3),
    (1.0, False, 1e-4)])
def test_shear_twist_sweep_rows_follow_the_exact_recurrence(b, implicit, dt):
    # every row of every member against shear_twist_errors at 1e-11
    # relative (the largest gap reads 4e-14 to 8e-14); the director
    # evolves alike for every eps, so its errors are round-off, most of
    # them exactly zero
    cfg = _sweep_cfg(nz=32, ic_name="shear+twist", b11=b, b22=b, dt=dt,
                     visc_implicit=implicit, diag_every=round(0.004 / dt),
                     eps_ladder=(2.0**-4, 2.0**-5, 2.0**-6))
    res = run_sweep(cfg)
    assert res.failed == () and list(res.errors_by_time) == [*cfg.eps_ladder]
    for e, rows in res.errors_by_time.items():
        want = shear_twist_errors(cfg, e, [round(r.t / dt) for r in rows])
        assert len(rows) == 6
        for row, (l2sq, linf) in zip(rows, want):
            assert abs(row.err_u_l2sq - l2sq) <= 1e-11 * l2sq
            assert abs(row.err_u_linf - linf) <= 1e-11 * linf
            assert row.err_d_h1sq <= 1e-28 and row.err_d_w1inf <= 1e-13
