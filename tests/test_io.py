"""File formats (diagnostics CSV, sweep CSV, binary checkpoint) and the CLI."""

import types

import numpy as np
import pytest

from lcflow import (
    ChannelGrid,
    ConfigError,
    SimConfig,
    make_grid,
    read_checkpoint,
    read_diag_csv,
    read_sweep_csv,
    run,
    run_sweep,
    write_checkpoint,
    write_diag_csv,
    write_rate_report,
    write_sweep_csv,
)
from lcflow.cli import cli
from lcflow.config import config_hash
from lcflow.io import CHECKPOINT_MAGIC, DIAG_COLUMNS, SWEEP_COLUMNS

CFG_TEXT = """\
[grid]
nx = 8
ny = 8
nz = 16

[physics]
eps = 0.05
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
"""


def _tiny_cfg(**kw):
    base = dict(nx=8, ny=8, nz=16, eps=0.05, b11=1.0, b22=1.0, dt=2e-3,
                t_final=0.02, adaptive_dt=False, visc_implicit=True,
                ic_name="slipflow", amplitude=0.1, diag_every=5, conormal_m=1)
    base.update(kw)
    return SimConfig(**base)


def _tiny_run():
    cfg = _tiny_cfg()
    state, records, nstep = run(cfg)
    return cfg, state, records, nstep


# --------------------------------------------------------- diagnostics CSV


def test_diag_csv_roundtrip_bit_exact():
    cfg, state, records, _ = _tiny_run()
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diag.csv")
        write_diag_csv(records, path)
        rows = read_diag_csv(path)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        for col in DIAG_COLUMNS:
            assert row[col] == getattr(rec, col), col  # 17 digits round-trip


def test_diag_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="nothing to write"):
        write_diag_csv([], tmp_path / "diag.csv")


def test_diag_csv_header_check(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="expected diagnostics header"):
        read_diag_csv(path)


def test_diag_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_diag_csv(tmp_path / "missing.csv")


# --------------------------------------------------------------- sweep CSV


def test_sweep_csv_roundtrip(tmp_path):
    cfg = _tiny_cfg(eps=0.0)
    res = run_sweep(cfg, eps_ladder=(0.25, 0.125))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(res, path)
    rows = read_sweep_csv(path)
    assert [r["eps"] for r in rows] == [0.25, 0.125]
    for row in rows:
        e = row["eps"]
        want = res.errors_max[e]
        got = (row["err_u_l2sq"], row["err_d_h1sq"],
               row["err_u_linf"], row["err_d_w1inf"])
        assert got == want
        assert row["wall_time_s"] == 0.0  # pinned for byte-stability


def test_sweep_csv_refuses_empty(tmp_path):
    res = types.SimpleNamespace(included=(), errors_max={})
    with pytest.raises(ValueError, match="nothing to write"):
        write_sweep_csv(res, tmp_path / "sweep.csv")


def test_sweep_csv_header_check(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("eps,oops\n0.1,1\n")
    with pytest.raises(ConfigError, match="expected sweep header"):
        read_sweep_csv(path)


def test_sweep_csv_accepts_duck_typed_results(tmp_path):
    # synthetic errors through the same writer the sweep uses
    ladder = (0.25, 0.125, 0.0625)
    errors = {e: (e ** 1.5, 0.0, e ** 0.75, 0.0) for e in ladder}
    res = types.SimpleNamespace(included=ladder, errors_max=errors)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(res, path)
    rows = read_sweep_csv(path)
    assert rows[0]["err_u_l2sq"] == 0.25 ** 1.5


# -------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg, state, records, nstep = _tiny_run()
    grid = make_grid(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state, cfg, grid, nstep)
    back, sha, steps = read_checkpoint(path, grid)
    assert steps == nstep
    assert sha == config_hash(cfg)
    assert back.t == state.t
    assert np.array_equal(back.u.x, state.u.x)
    assert np.array_equal(back.u.y, state.u.y)
    assert np.array_equal(back.u.z, state.u.z)
    assert np.array_equal(back.p, state.p)
    assert np.array_equal(back.d, state.d)
    # reductions must agree bitwise with the in-memory originals
    assert np.sum(back.u.x) == np.sum(state.u.x)
    assert float(np.sum(back.d * back.d)) == float(np.sum(state.d * state.d))


def test_checkpoint_rejects_wrong_grid(tmp_path):
    cfg, state, _, nstep = _tiny_run()
    grid = make_grid(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state, cfg, grid, nstep)
    other = ChannelGrid(8, 8, 8, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="do not match the target grid"):
        read_checkpoint(path, other)


def test_checkpoint_rejects_bad_magic(tmp_path):
    cfg, state, _, nstep = _tiny_run()
    grid = make_grid(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state, cfg, grid, nstep)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTLCFL\0"
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match="not a checkpoint"):
        read_checkpoint(path, grid)


def test_checkpoint_rejects_truncation(tmp_path):
    cfg, state, _, nstep = _tiny_run()
    grid = make_grid(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state, cfg, grid, nstep)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ConfigError, match="expected .* bytes"):
        read_checkpoint(path, grid)
    path.write_bytes(raw[:10])
    with pytest.raises(ConfigError, match="truncated checkpoint header"):
        read_checkpoint(path, grid)


def test_checkpoint_magic_is_versioned():
    assert CHECKPOINT_MAGIC == b"LCFLOW1\0"


# ------------------------------------------------------------- rate report


def test_rate_report_contents(tmp_path):
    cfg = _tiny_cfg(eps=0.0)
    res = run_sweep(cfg, eps_ladder=(0.25, 0.125, 0.0625))
    path = tmp_path / "report.txt"
    text = write_rate_report(res, path)
    assert path.read_text() == text
    assert "rate report" in text
    assert res.config_hash in text
    assert "slope" in text and "r^2" in text
    assert "monotone along ladder" in text


# --------------------------------------------------------------------- CLI


def test_cli_simulate_and_diagnose_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    ckpt = tmp_path / "state.ckpt"
    diag = tmp_path / "diag.csv"
    rc = cli(["simulate", "--config", str(cfg_path),
              "--checkpoint-out", str(ckpt), "--diag-out", str(diag)])
    assert rc == 0
    assert ckpt.exists() and diag.exists()
    rows = read_diag_csv(diag)
    assert len(rows) >= 2 and rows[0]["t"] == 0.0

    diag2 = tmp_path / "diag2.csv"
    rc = cli(["diagnose", "--checkpoint", str(ckpt),
              "--config", str(cfg_path), "--out", str(diag2)])
    assert rc == 0
    row = read_diag_csv(diag2)[0]
    # the offline recomputation reproduces the final in-run record exactly
    # for every state-only column (residual/trace columns recomputed on the
    # same state must agree bitwise thanks to the C-order reload)
    last = rows[-1]
    for col in ("t", "kinetic", "elastic", "unit_dev", "div_res", "nm_value",
                "eta_trace", "linf_grad_u", "p1_norm", "p2_norm"):
        assert row[col] == last[col], col


def test_cli_sweep_and_rate_fit(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT + "\n[sweep]\neps_ladder = 0.25 0.125 0.0625\n")
    out = tmp_path / "out"
    rc = cli(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "rate_report.txt").exists()

    rc = cli(["rate-fit", "--csv", str(out / "sweep.csv")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "l2 family" in printed and "linf family" in printed
    assert "slope = " in printed


def test_cli_exit_code_for_bad_config(tmp_path, capsys):
    rc = cli(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "lcflow:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG_TEXT.replace("eps = 0.05", "eps = 5.0"))
    rc = cli(["simulate", "--config", str(bad)])
    assert rc == 1


def test_cli_exit_code_for_usage_errors(capsys):
    assert cli(["simulate"]) == 1            # missing --config
    assert cli(["no-such-command"]) == 1
    capsys.readouterr()


def test_cli_exit_code_for_runtime_failure(tmp_path, capsys):
    # valid config, but the fixed dt violates the stability bound mid-run
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT
                        .replace("visc_implicit = yes", "visc_implicit = no")
                        .replace("eps = 0.05", "eps = 0.5")
                        .replace("dt = 2e-3", "dt = 4e-3"))
    rc = cli(["simulate", "--config", str(cfg_path)])
    assert rc == 2
    assert "exceeds the stability limit" in capsys.readouterr().err


def test_cli_exit_code_for_unwritable_output(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    rc = cli(["simulate", "--config", str(cfg_path),
              "--diag-out", str(tmp_path / "no" / "such" / "dir" / "d.csv")])
    assert rc == 2
    capsys.readouterr()


def test_cli_rate_fit_insufficient_rows(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    res = types.SimpleNamespace(included=(0.25,),
                                errors_max={0.25: (1e-3, 1e-4, 1e-2, 1e-2)})
    write_sweep_csv(res, path)
    rc = cli(["rate-fit", "--csv", str(path)])
    assert rc == 1
    assert "at least 2 points" in capsys.readouterr().err


@pytest.mark.parametrize("ladder", ["0.1 0.2", "2.0"])
def test_cli_sweep_bad_ladder_is_a_config_error(tmp_path, capsys, ladder):
    # rejected while the config loads: exit 1, and no output directory
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT + f"\n[sweep]\neps_ladder = {ladder}\n")
    out = tmp_path / "out"
    rc = cli(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "lcflow: " in capsys.readouterr().err


@pytest.mark.parametrize("row, cause", [
    ("0.125,1e-3,abc,1e-2,1e-2,0", "could not convert"),
    ("0.125,1e-3,1e-4", "expected 6 fields, got 3"),
])
def test_cli_rate_fit_malformed_csv(tmp_path, capsys, row, cause):
    path = tmp_path / "sweep.csv"
    path.write_text(",".join(SWEEP_COLUMNS) + "\n"
                    + "0.25,1e-3,1e-4,1e-2,1e-2,0\n" + row + "\n")
    with pytest.raises(ConfigError, match=f"line 3: {cause}"):
        read_sweep_csv(path)
    rc = cli(["rate-fit", "--csv", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("lcflow: ") and str(path) in err and cause in err


def test_diag_csv_malformed_row(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text(",".join(DIAG_COLUMNS) + "\n0.0,1.0\n")
    with pytest.raises(ConfigError, match="line 2: expected 15 fields, got 2"):
        read_diag_csv(path)


def test_cli_rate_fit_rejects_nan(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    res = types.SimpleNamespace(
        included=(0.25, 0.125),
        errors_max={0.25: (1e-3, 1e-4, 1e-2, 1e-2),
                    0.125: (float("nan"), 1e-4, 1e-2, 1e-2)})
    write_sweep_csv(res, path)
    rc = cli(["rate-fit", "--csv", str(path)])
    assert rc == 1
    assert "finite positive data" in capsys.readouterr().err
