"""File formats (diagnostics CSV, sweep CSV, binary checkpoint) and the CLI."""

import ast
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import lcflow
from lcflow import (
    ChannelGrid,
    ConfigError,
    SimConfig,
    init_state,
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
from lcflow.diagnostics import DiagnosticsRecord
from lcflow.io import (_HEADER, CHECKPOINT_MAGIC, DIAG_COLUMNS, FAMILY_LABELS,
                       SWEEP_COLUMNS)
from lcflow.sweep import FAMILIES

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


def test_diag_csv_header_is_pinned(tmp_path):
    # the header is the file's contract with its readers: the record's
    # fields in declaration order
    path = tmp_path / "diag.csv"
    write_diag_csv([DiagnosticsRecord(*map(float, range(15)))], path)
    assert path.read_text().splitlines()[0] == (
        "t,kinetic,elastic,visc_diss,dir_diss,quartic,boundary_work,"
        "energy_residual,unit_dev,div_res,nm_value,eta_trace,linf_grad_u,"
        "p1_norm,p2_norm")


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
    res = run_sweep(_tiny_cfg(eps=0.0, eps_ladder=(0.25, 0.125)))
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
    res = types.SimpleNamespace(errors_max={})
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
    res = types.SimpleNamespace(errors_max=errors)
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
    for arr in (back.u.x, back.u.y, back.u.z, back.p, back.d):
        assert arr.flags.c_contiguous and arr.flags.writeable
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


@pytest.mark.parametrize("dims", [(8, 6, 16), (5, 4, 7)])
def test_checkpoint_size(tmp_path, dims):
    # u, v, p and the three director components hold nz layers each, w
    # holds nz + 1: 8 nx ny (7 nz + 1) bytes after the header
    nx, ny, nz = dims
    cfg = _tiny_cfg(nx=nx, ny=ny, nz=nz)
    grid = make_grid(cfg)
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, init_state(grid, cfg.ic), cfg, grid, 0)
    assert _HEADER.size == 68
    assert path.stat().st_size == 8 * nx * ny * (7 * nz + 1) + 68


def test_checkpoint_magic_is_versioned():
    assert CHECKPOINT_MAGIC == b"LCFLOW1\0"


# ------------------------------------------------------------- rate report


def test_rate_report_contents(tmp_path):
    res = run_sweep(_tiny_cfg(eps=0.0, eps_ladder=(0.25, 0.125, 0.0625)))
    path = tmp_path / "report.txt"
    text = write_rate_report(res, path)
    assert path.read_text() == text
    assert "rate report" in text
    assert res.config_hash in text
    assert "slope" in text and "r^2" in text
    assert "monotone along ladder" in text


def test_rate_report_of_unfitted_sweep(tmp_path):
    # the one-member guard case of test_sweep_resolution_guard: neither
    # family has two points
    res = run_sweep(_tiny_cfg(eps=0.0, eps_ladder=(0.25, 0.03125)))
    text = write_rate_report(res, tmp_path / "report.txt")
    for name in ("l2", "linf"):
        assert (f"{FAMILY_LABELS[name]}: not fitted (insufficient-points)"
                in text)


def _error_column_strings(tree):
    """Lines of the module whose string constants, docstrings aside, name
    a sweep error column."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            and any(c in node.value for c in SWEEP_COLUMNS[1:5])]


def test_error_columns_are_spelled_only_in_io():
    # the families are column pairs in sweep.FAMILIES and names in io;
    # a column name spelled anywhere else is a second definition of one
    sources = sorted(Path(lcflow.__file__).parent.glob("*.py"))
    found = {path.name: _error_column_strings(ast.parse(path.read_text()))
             for path in sources}
    assert found.pop("io.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself sees keys, plain and f-string text, and passes a
    # docstring
    for line in ('r["err_u_l2sq"]', "x = 'err_d_w1inf'",
                 'f"l2 family (err_u_l2sq + err_d_h1sq): {s}"'):
        assert _error_column_strings(ast.parse("x = 1\n" + line)) == [2], line
    assert _error_column_strings(
        ast.parse('def f():\n    """err_u_linf"""\n')) == []


def test_rate_report_and_rate_fit_name_families_alike(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT + "\n[sweep]\neps_ladder = 0.25 0.125 0.0625\n")
    out = tmp_path / "out"
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "rate_report.txt").read_text()
    capsys.readouterr()
    assert cli(["rate-fit", "--csv", str(out / "sweep.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(FAMILIES)
    for name, line in zip(FAMILIES, printed):
        label, _, rest = line.partition(": slope = ")
        assert label == FAMILY_LABELS[name]
        # each label names the columns its family sums
        assert f"({' + '.join(SWEEP_COLUMNS[1 + k] for k in FAMILIES[name])})" \
            in label
        m = re.search(re.escape(label) + r": slope = (\S+)", report)
        assert m, report
        assert m.group(1) == f"{float(rest.split()[0]):.6f}"


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


def test_cli_diagnose_rejects_checkpoint_of_another_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT.replace("eps = 0.05", "eps = 0.1"))
    ckpt = tmp_path / "state.ckpt"
    assert cli(["simulate", "--config", str(cfg_path),
                "--checkpoint-out", str(ckpt)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(CFG_TEXT.replace("eps = 0.05", "eps = 0.9"))
    capsys.readouterr()
    out = tmp_path / "diag.csv"
    rc = cli(["diagnose", "--checkpoint", str(ckpt), "--config", str(other),
              "--out", str(out)])
    assert rc == 1
    assert "config hash" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose_rejects_non_finite_checkpoint(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    ckpt = tmp_path / "state.ckpt"
    assert cli(["simulate", "--config", str(cfg_path),
                "--checkpoint-out", str(ckpt)]) == 0
    raw = ckpt.read_bytes()
    grid = make_grid(_tiny_cfg())
    out = tmp_path / "diag.csv"
    # a NaN as the first value of u, an inf as the last value of d
    for block, at, bad in (("u", _HEADER.size, np.nan),
                           ("d", len(raw) - 8, np.inf)):
        ckpt.write_bytes(raw[:at] + np.float64(bad).astype("<f8").tobytes()
                         + raw[at + 8:])
        with pytest.raises(ConfigError, match=f"non-finite values in block "
                                              f"{block}"):
            read_checkpoint(ckpt, grid)
        capsys.readouterr()
        rc = cli(["diagnose", "--checkpoint", str(ckpt),
                  "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"block {block}" in err
        assert not out.exists()


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_cli_diagnose_rejects_bad_checkpoint_time(tmp_path, capsys, bad):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    ckpt = tmp_path / "state.ckpt"
    assert cli(["simulate", "--config", str(cfg_path),
                "--checkpoint-out", str(ckpt)]) == 0
    raw = ckpt.read_bytes()
    header = list(_HEADER.unpack_from(raw))
    header[5] = bad                               # magic, sha, 3 dims, t
    ckpt.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size:])
    with pytest.raises(ConfigError, match="checkpoint time"):
        read_checkpoint(ckpt, make_grid(_tiny_cfg()))
    capsys.readouterr()
    out = tmp_path / "diag.csv"
    assert cli(["diagnose", "--checkpoint", str(ckpt),
                "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "checkpoint time" in err
    assert not out.exists()


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


def test_cli_sweep_whose_first_member_fails(tmp_path, capsys):
    # the config of test_sweep_member_failure_aborts_with_partials: explicit
    # viscosity at dt = 6e-3 breaks the first member's stability limit, so
    # no member completes; the report and stderr still say why, and the CSV
    # a completed sweep left in the same directory is gone
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT + "\n[sweep]\neps_ladder = 0.25\n")
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    capsys.readouterr()
    cfg_path.write_text(CFG_TEXT
                        .replace("visc_implicit = yes", "visc_implicit = no")
                        .replace("dt = 2e-3", "dt = 6e-3")
                        .replace("t_final = 0.02", "t_final = 0.024")
                        + "\n[sweep]\neps_ladder = 0.25 0.125\n")
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "lcflow sweep: aborted: member eps=0.25 failed: " in captured.err
    assert "stability limit" in captured.err
    assert "eps=0.125" not in captured.err
    assert not (out / "sweep.csv").exists()
    report = (out / "rate_report.txt").read_text()
    assert captured.out == report
    assert "members run : none" in report
    assert "ABORTED: eps=0.25: " in report


def test_cli_exit_code_for_unwritable_output(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    rc = cli(["simulate", "--config", str(cfg_path),
              "--diag-out", str(tmp_path / "no" / "such" / "dir" / "d.csv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["missing/out", "adir", "previous",
                                 "run.cfg"])
@pytest.mark.parametrize("flag, other", [("--diag-out", "--checkpoint-out"),
                                         ("--checkpoint-out", "--diag-out")])
def test_cli_simulate_checks_its_outputs_before_the_first_step(
        tmp_path, monkeypatch, capsys, bad, flag, other):
    # an output path in a missing directory, naming a directory, or naming
    # the other output's file or the config fails before any step, and the
    # other output (an earlier run's) stays as it was
    steps = []
    step = lcflow.integrator.step
    monkeypatch.setattr(lcflow.integrator, "step",
                        lambda *args: steps.append(args) or step(*args))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    (tmp_path / "adir").mkdir()
    previous = tmp_path / "previous"
    previous.write_bytes(b"an earlier run")
    before = sorted(tmp_path.rglob("*"))
    rc = cli(["simulate", "--config", str(cfg_path),
              flag, str(tmp_path / bad), other, str(previous)])
    assert rc == 2 and steps == []
    assert (f"lcflow simulate: cannot write {tmp_path / bad}"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before
    assert previous.read_bytes() == b"an earlier run"
    assert cfg_path.read_text() == CFG_TEXT


@pytest.mark.parametrize("bad", ["missing/out.csv", "adir",
                                 "adir/../state.ckpt"])
def test_cli_diagnose_checks_its_output_before_reading(tmp_path, monkeypatch,
                                                       capsys, bad):
    # an --out that is a directory, in a missing directory, or the
    # checkpoint's own file under another spelling, fails with simulate's
    # message and exit code before the checkpoint is read or a record is
    # built
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG_TEXT)
    ckpt = tmp_path / "state.ckpt"
    assert cli(["simulate", "--config", str(cfg_path),
                "--checkpoint-out", str(ckpt)]) == 0
    (tmp_path / "adir").mkdir()
    calls = []
    for name in ("read_checkpoint", "make_record"):
        real = getattr(lcflow.cli, name)
        monkeypatch.setattr(lcflow.cli, name,
                            lambda *a, _r=real, _n=name, **k:
                            calls.append(_n) or _r(*a, **k))
    before = sorted(tmp_path.rglob("*"))
    data = ckpt.read_bytes()
    capsys.readouterr()
    rc = cli(["diagnose", "--checkpoint", str(ckpt), "--config",
              str(cfg_path), "--out", str(tmp_path / bad)])
    assert rc == 2 and calls == []
    assert (f"lcflow diagnose: cannot write {tmp_path / bad}"
            in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before
    assert ckpt.read_bytes() == data


def test_cli_rate_fit_insufficient_rows(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    res = types.SimpleNamespace(errors_max={0.25: (1e-3, 1e-4, 1e-2, 1e-2)})
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
        errors_max={0.25: (1e-3, 1e-4, 1e-2, 1e-2),
                    0.125: (float("nan"), 1e-4, 1e-2, 1e-2)})
    write_sweep_csv(res, path)
    rc = cli(["rate-fit", "--csv", str(path)])
    assert rc == 1
    assert "finite positive data" in capsys.readouterr().err
