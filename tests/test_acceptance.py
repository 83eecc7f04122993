"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with -s (or read the captured output on failure) to see the verdict
lines; the test names themselves carry the criterion numbers, so plain
``pytest -v`` already reports one PASS/FAIL line per criterion.

The heavyweight fixtures (the 32x32x64 budget runs and the 32x32x128
viscosity sweep) are module-scoped and shared between criteria; the
manufactured-solution study comes from the session fixture in conftest.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from lcflow import SimConfig, run
from lcflow.cli import cli
from lcflow.fields import InitialConditionSpec, init_state
from lcflow.grid import ChannelGrid
from lcflow.io import write_sweep_csv
from lcflow.operators import laplacian_center, momentum_forcing
from lcflow.pressure import pressure_split
from lcflow.sweep import remainder_norms, run_sweep

from support import full_pressure, loop_remainder_norms


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


# ------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def budget_runs():
    """Twist relaxation at 32x32x64: dt and dt/2 with matching record
    times (diag_every scales with 1/dt)."""
    def go(dt, diag_every):
        cfg = SimConfig(nx=32, ny=32, nz=64, eps=0.01, dt=dt, t_final=0.5,
                        adaptive_dt=False, ic_name="shear+twist",
                        amplitude=0.1, twist=0.5, diag_every=diag_every)
        _, records, _ = run(cfg)
        return records

    return go(1e-3, 25), go(5e-4, 50)


@pytest.fixture(scope="module")
def viscosity_sweep():
    """Full-ladder sweep at 32x32x128 (hz = 1/128 admits eps down to
    (4 hz)^2 = 2^-10, exactly the default ladder floor)."""
    cfg = SimConfig(nx=32, ny=32, nz=128, eps=1.0, b11=1.0, b22=1.0,
                    dt=2e-3, t_final=0.25, adaptive_dt=False,
                    visc_implicit=True, ic_name="shear+twist",
                    amplitude=0.1, twist=0.5, diag_every=10, conormal_m=2)
    return run_sweep(cfg, jobs=4)


# ------------------------------------------------------------ criteria

def test_criterion_01_constraint_preservation(budget_runs):
    records, _ = budget_runs
    max_unit = max(r.unit_dev for r in records)
    max_div = max(r.div_res for r in records)
    _verdict(1, "unit length and incompressibility hold over 500 steps",
             max_unit <= 1e-12 and max_div <= 1e-9,
             f"max unit_dev = {max_unit:.3e} (<= 1e-12), "
             f"max div_res = {max_div:.3e} (<= 1e-9)")


def test_criterion_02_energy_identity_first_order(budget_runs):
    full, half = budget_runs
    m1 = max(abs(r.energy_residual) for r in full[1:])
    m2 = max(abs(r.energy_residual) for r in half[1:])
    ratio = m1 / m2
    signs_ok = all(r.visc_diss >= 0.0 and r.dir_diss >= 0.0
                   for r in full + half)
    _verdict(2, "energy residual halves with dt; dissipations nonnegative",
             1.7 <= ratio <= 2.3 and signs_ok,
             f"max|residual| {m1:.3e} vs {m2:.3e}, ratio = {ratio:.3f} "
             f"(in [1.7, 2.3]); dissipation signs ok = {signs_ok}")


def test_criterion_03_manufactured_solution_orders(mms_study):
    orders = mms_study["orders"]
    ok = all(1.7 <= orders[k] <= 2.3 for k in ("u", "d", "p"))
    _verdict(3, "observed spatial orders are second order",
             ok,
             "orders: " + ", ".join(f"{k} = {orders[k]:.3f}"
                                    for k in ("u", "p", "d"))
             + " (each in [1.7, 2.3])")


def test_criterion_04_slip_trace_convergence():
    # consistent pair: initial field satisfies the slip closure; dt scales
    # with hz^2 so the splitting's O(dt) wall perturbation refines along
    # with the O(hz^2) trace signal
    def final_eta(nz, dt):
        cfg = SimConfig(nx=8, ny=8, nz=nz, eps=0.1, b11=1.0, b22=1.0,
                        dt=dt, t_final=0.02, adaptive_dt=False,
                        visc_implicit=True, ic_name="slipflow",
                        amplitude=0.3, twist=0.4, diag_every=10**9)
        _, records, _ = run(cfg)
        return records[-1].eta_trace

    def initial_eta(nz):
        cfg = SimConfig(nx=8, ny=8, nz=nz, eps=0.1, b11=1.0, b22=1.0,
                        dt=1e-3, t_final=0.0, ic_name="shear+twist",
                        amplitude=0.3, twist=0.4)
        _, records, _ = run(cfg)
        return records[0].eta_trace

    good = final_eta(32, 1e-3) / final_eta(64, 2.5e-4)
    bad = initial_eta(32) / initial_eta(64)
    _verdict(4, "eta trace is O(hz^2) when consistent, O(1) when violated",
             good >= 3.0 and bad <= 1.5,
             f"consistent ratio = {good:.2f} (>= 3), "
             f"violating ratio = {bad:.2f} (<= 1.5)")


def test_criterion_05_pressure_split_superposition():
    grid = ChannelGrid(8, 8, 16, 1.0, 1.0, 1.0)
    tol = 1e-11
    worst_sup = 0.0
    for seed in range(20):
        st = init_state(grid, InitialConditionSpec("random-solenoidal",
                                                   amplitude=0.2, seed=seed))
        F = momentum_forcing(st.u, st.d, laplacian_center(st.d, grid), grid)
        p1, p2 = pressure_split(st.u, F, 0.3, grid)
        pf = full_pressure(st, 0.3, grid)
        scale = max(1.0, np.max(np.abs(pf)))
        worst_sup = max(worst_sup, np.max(np.abs(p1 + p2 - pf)) / scale)

    worst_lin = 0.0
    for seed in range(5):
        st = init_state(grid, InitialConditionSpec("random-solenoidal",
                                                   amplitude=0.2, seed=seed))
        F = momentum_forcing(st.u, st.d, laplacian_center(st.d, grid), grid)
        _, p2_unit = pressure_split(st.u, F, 1.0, grid)
        scale = max(np.max(np.abs(p2_unit)), 1e-30)
        for eps in (0.5, 2.0**-4, 2.0**-8):
            _, p2 = pressure_split(st.u, F, eps, grid)
            dev = np.max(np.abs(p2 - eps * p2_unit)) / (eps * scale + 1e-15)
            worst_lin = max(worst_lin, dev)

    _verdict(5, "pressure parts superpose and the viscous part is linear "
                "in eps",
             worst_sup <= 10 * tol and worst_lin <= 10 * tol,
             f"worst superposition dev = {worst_sup:.2e}, worst linearity "
             f"dev = {worst_lin:.2e} (both <= {10 * tol:g})")


def test_criterion_06_uniform_regularity_trend(viscosity_sweep):
    res = viscosity_sweep
    members = list(res.included)
    # maxima over t > 0: every member's t = 0 record is the same initial
    # state, and where it holds the maximum it hides the trend in eps
    later = [[r for r in res.records[e] if r.t > 0.0] for e in members]
    nm = [max(r.nm_value for r in recs) for recs in later]
    spread = (max(nm) - min(nm)) / min(nm)
    lg = [max(r.linf_grad_u for r in recs) for recs in later]
    slope = float(np.polyfit(np.log(members), np.log(lg), 1)[0])
    _verdict(6, "regularity functional uniform in eps; no gradient blowup",
             spread < 0.20 and abs(slope) <= 0.15,
             f"t > 0 nm_max in [{min(nm):.4g}, {max(nm):.4g}], spread = "
             f"{spread:.3f} (< 0.20), linf_grad_u max in [{min(lg):.4g}, "
             f"{max(lg):.4g}], slope = {slope:.3f} (|.| <= 0.15)")


def test_criterion_07_vanishing_viscosity_rates(viscosity_sweep):
    res = viscosity_sweep
    s_l2 = res.fits["l2"].slope
    in_band = 1.2 <= s_l2 <= 1.8
    if in_band:
        ok = (res.fits["l2"].r2 >= 0.98 and res.fits["linf"].slope >= 0.25
              and res.monotone["l2"] and res.monotone["linf"])
        detail = (f"slope_l2 = {s_l2:.3f} (in [1.2, 1.8]), "
                  f"r2 = {res.fits['l2'].r2:.4f} (>= 0.98), "
                  f"slope_linf = {res.fits['linf'].slope:.3f} (>= 0.25), "
                  f"monotone = {res.monotone['l2']}/{res.monotone['linf']}")
    else:
        # out-of-band slopes are only acceptable when the run says why
        flagged = (bool(res.excluded) or bool(res.fit_note)
                   or any("resolution" in f for f in res.flags))
        ok = flagged
        detail = (f"slope_l2 = {s_l2:.3f} out of band; guard fired = "
                  f"{flagged} (flags: {res.flags!r})")
    _verdict(7, "squared-error rate near eps^1.5 with honest reporting",
             ok, detail)


def test_criterion_08_remainder_oracle_agreement():
    grid = ChannelGrid(6, 6, 8, 1.0, 1.0, 1.0)
    worst = 0.0
    for k in range(10):
        a = init_state(grid, InitialConditionSpec("random-solenoidal",
                                                  amplitude=0.2, seed=100 + k))
        b = init_state(grid, InitialConditionSpec("random-solenoidal",
                                                  amplitude=0.15, seed=200 + k))
        got = remainder_norms(a, b, 0.25, grid)
        want = loop_remainder_norms(a, b, 0.25, grid)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    _verdict(8, "remainder norms match the loop-built oracle",
             worst <= 1e-12,
             f"worst |difference| over 10 pairs = {worst:.2e} (<= 1e-12)")


SWEEP_CFG = """\
[grid]
nx = 8
ny = 8
nz = 16

[physics]
eps = 1.0
b11 = 1.0
b22 = 1.0

[time]
dt = 2e-3
t_final = 0.02
adaptive_dt = no
visc_implicit = yes

[ic]
name = slipflow
amplitude = 0.1

[diag]
diag_every = 5
conormal_m = 1

[sweep]
eps_ladder = 0.25 0.125 0.0625
"""


def test_criterion_09_sweep_determinism_across_jobs(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SWEEP_CFG)
    out1 = tmp_path / "serial"
    out8 = tmp_path / "parallel"
    assert cli(["sweep", "--config", str(cfg_path), "--jobs", "1",
                "--out", str(out1)]) == 0
    assert cli(["sweep", "--config", str(cfg_path), "--jobs", "8",
                "--out", str(out8)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    b8 = (out8 / "sweep.csv").read_bytes()
    _verdict(9, "sweep CSV is byte-identical for --jobs 1 and --jobs 8",
             b1 == b8, f"{len(b1)} bytes each")


def test_criterion_10_synthetic_rate_recovery(tmp_path, capsys):
    ladder = tuple(2.0**-k for k in range(4, 11))
    injected = {e: (0.3 * e**1.5, 0.7 * e**1.5, 0.6 * e**0.3, 0.4 * e**0.3)
                for e in ladder}
    fake = SimpleNamespace(errors_max=injected)
    path = tmp_path / "synthetic.csv"
    write_sweep_csv(fake, path)

    assert cli(["rate-fit", "--csv", str(path)]) == 0
    printed = capsys.readouterr().out
    m = re.search(r"l2 family.*slope = ([0-9eE+.-]+)", printed)
    assert m, printed
    slope = float(m.group(1))
    with capsys.disabled():
        _verdict(10, "rate-fit recovers the injected eps^1.5 squared rate",
                 abs(slope - 1.5) <= 1e-6,
                 f"fitted slope = {slope:.9f} (|slope - 1.5| <= 1e-6)")
