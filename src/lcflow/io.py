"""CSV emission, checkpointing, and the rate report.

All CSV floats are written with 17 significant digits, which round-trips
IEEE-754 doubles exactly; headers and row order are fixed so output is
byte-stable across platforms and job counts.  The checkpoint is a small
versioned binary header followed by raw little-endian float64 blocks in
x-fastest order.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import fields

import numpy as np

from .config import SimConfig, config_hash
from .diagnostics import DiagnosticsRecord
from .errors import ConfigError
from .fields import FaceField, State
from .grid import ChannelGrid

DIAG_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))

SWEEP_COLUMNS = ("eps", "err_u_l2sq", "err_d_h1sq", "err_u_linf",
                 "err_d_w1inf", "wall_time_s")

# the error families fitted against eps, each the sum of two error
# columns, and their labels (of one width) in the report and rate-fit
FAMILIES = {"l2": SWEEP_COLUMNS[1:3], "linf": SWEEP_COLUMNS[3:5]}
FAMILY_LABELS = {n: f"{n + ' family':<12}{'(' + ' + '.join(p) + ')':<26}"
                 for n, p in FAMILIES.items()}

CHECKPOINT_MAGIC = b"LCFLOW1\0"
_HEADER = struct.Struct("<8s32s3IdQ")   # magic, sha256, dims, time, steps


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_csv(path, what, columns, rows):
    """Header `columns`, then one line per row of already formatted fields."""
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(columns)
            w.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} CSV {path}: {exc}") from exc


def _read_csv(path, what, columns):
    """Rows back as dicts of floats, in file order.  A wrong header, a row
    with the wrong number of fields or an unparsable value is a
    ConfigError naming the file (and line)."""
    try:
        with open(path, newline="") as f:
            rd = csv.reader(f)
            header = next(rd, None)
            if header is None or tuple(header) != columns:
                raise ConfigError(
                    f"{path}: expected {what} header {','.join(columns)}")
            rows = []
            for row in rd:
                where = f"{path}, line {rd.line_num}"
                if len(row) != len(columns):
                    raise ConfigError(f"{where}: expected {len(columns)} "
                                      f"fields, got {len(row)}")
                try:
                    rows.append(dict(zip(columns, map(float, row))))
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
            return rows
    except OSError as exc:
        raise OSError(f"cannot read {what} CSV {path}: {exc}") from exc


def write_diag_csv(records, path):
    """One row per DiagnosticsRecord, columns exactly DIAG_COLUMNS."""
    records = list(records)
    if not records:
        raise ValueError(f"nothing to write: no records for {path}")
    _write_csv(path, "diagnostics", DIAG_COLUMNS,
               ([_fmt(getattr(r, c)) for c in DIAG_COLUMNS] for r in records))


def read_diag_csv(path):
    """Rows back as dicts of floats, in file order."""
    return _read_csv(path, "diagnostics", DIAG_COLUMNS)


def write_sweep_csv(result, path):
    """One row per completed ladder member, columns exactly SWEEP_COLUMNS.

    Errors are the max-over-recorded-times values (the sup-in-time bound is
    the one with a guaranteed rate).  wall_time_s is emitted as 0.0 so the
    file is byte-identical across job counts and machines; measured times
    live in the rate report and in SweepResult.wall_times.
    """
    maxima = result.errors_max
    if not maxima:
        raise ValueError(f"nothing to write: no completed members for {path}")
    _write_csv(path, "sweep", SWEEP_COLUMNS,
               ([_fmt(e)] + [_fmt(v) for v in errs] + [_fmt(0.0)]
                for e, errs in maxima.items()))


def read_sweep_csv(path):
    return _read_csv(path, "sweep", SWEEP_COLUMNS)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

def write_checkpoint(path, state: State, cfg: SimConfig, grid: ChannelGrid,
                     step_count: int):
    """Binary state dump; see module docstring for the layout."""
    try:
        with open(path, "wb") as f:
            f.write(_HEADER.pack(CHECKPOINT_MAGIC, config_hash(cfg),
                                 grid.nx, grid.ny, grid.nz,
                                 float(state.t), int(step_count)))
            for arr in (state.u.x, state.u.y, state.u.z, state.p,
                        state.d[0], state.d[1], state.d[2]):
                f.write(np.asarray(arr, dtype="<f8").tobytes(order="F"))
    except OSError as exc:
        raise OSError(f"cannot write checkpoint {path}: {exc}") from exc


def read_checkpoint(path, grid: ChannelGrid):
    """Returns (state, config_sha256, step_count); dims must match grid,
    and a time or a block (u, v, w, p or d) holding NaN or inf, or a
    negative time, is a ConfigError."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise OSError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise ConfigError(f"{path}: truncated checkpoint header")
    magic, sha, nx, ny, nz, t, steps = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint (bad magic {magic!r})")
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"{path}: checkpoint time {t!r} is not finite and "
                          f"non-negative")
    if (nx, ny, nz) != (grid.nx, grid.ny, grid.nz):
        raise ConfigError(
            f"{path}: checkpoint dims {(nx, ny, nz)} do not match the "
            f"target grid {(grid.nx, grid.ny, grid.nz)}")
    # u, v, w, p, then the three director blocks read as one
    shapes = [(nx, ny, nz), (nx, ny, nz), (nx, ny, nz + 1), (nx, ny, nz),
              (nx, ny, nz, 3)]
    need = _HEADER.size + 8 * sum(int(np.prod(s)) for s in shapes)
    if len(raw) != need:
        raise ConfigError(
            f"{path}: expected {need} bytes for these dims, got {len(raw)}")
    off = _HEADER.size
    blocks = []
    for s in shapes:
        n = int(np.prod(s))
        blocks.append(np.frombuffer(raw, dtype="<f8", count=n, offset=off)
                      .reshape(s, order="F"))
        off += 8 * n
    blocks[4] = np.moveaxis(blocks[4], -1, 0)
    # one C-contiguous copy per block, so downstream reductions see the
    # same memory order as the arrays the run itself held
    u, v, w, p, d = (b.astype(float, order="C") for b in blocks)
    for name, b in zip("uvwpd", (u, v, w, p, d)):
        if not np.isfinite(b).all():
            raise ConfigError(f"{path}: non-finite values in block {name}")
    return State(u=FaceField(u, v, w), p=p, d=d, t=float(t)), sha, int(steps)


# ---------------------------------------------------------------------------
# rate report
# ---------------------------------------------------------------------------

def write_rate_report(result, path):
    """Human-readable summary of a sweep; everything here is commentary,
    the machine-readable truth is the sweep CSV.  Every summary line is
    formatted from what sweep.summarize derived for the result."""
    lines = []
    add = lines.append
    add("vanishing-viscosity rate report")
    add("=" * 31)
    add(f"config hash : {result.config_hash}")
    add(f"ladder      : {', '.join(f'{e:g}' for e in result.eps_ladder)}")
    add(f"guard       : eps_min = (4 hz)^2 = {result.eps_min:.6g}")
    if result.excluded:
        add(f"excluded    : {', '.join(f'{e:g}' for e in result.excluded)} "
            f"(below eps_min; rerun with --force to include)")
    maxima = result.errors_max
    add(f"members run : {', '.join(f'{e:g}' for e in maxima) or 'none'}")
    add("")
    add("max-over-recorded-times errors")
    add(f"{'eps':>12} " + "".join(f"{c:>14} " for c in SWEEP_COLUMNS[1:5])
        + f"{'seconds':>9}")
    for e, errs in maxima.items():
        add(f"{e:>12.6g} " + "".join(f"{v:>14.6e} " for v in errs)
            + f"{result.wall_times.get(e, float('nan')):>9.2f}")
    add("")
    for name, fit in result.fits.items():
        if math.isnan(fit.slope):
            add(f"{FAMILY_LABELS[name]}: not fitted ({result.fit_note})")
        else:
            add(f"{FAMILY_LABELS[name]}: slope = {fit.slope:.6f}  "
                f"intercept = {fit.intercept:.6f}  r^2 = {fit.r2:.6f}")
    add("")
    mono = ", ".join(f"{name} {'yes' if ok else 'NO'}"
                     for name, ok in result.monotone.items())
    add(f"monotone along ladder at every recorded time: {mono}")
    if result.nm_spread:
        lo, hi = result.nm_spread
        add(f"nm_value max-over-(t > 0) spread across members: "
            f"[{lo:.6g}, {hi:.6g}]  (hi/lo = {hi / lo:.4f})")
    if result.failed:
        add("")
        add("ABORTED: " + "; ".join(f"eps={e:g}: {m}" for e, m in result.failed))
    if result.flags:
        add("")
        add("flags:")
        for fl in result.flags:
            add(f"  - {fl}")
    add("")
    text = "\n".join(lines)
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write rate report {path}: {exc}") from exc
    return text
