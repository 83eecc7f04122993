"""Command-line entry points.

    lcflow simulate --config F [--checkpoint-out P] [--diag-out C]
    lcflow sweep    --config F --out D [--jobs N] [--force]
    lcflow diagnose --checkpoint P --config F --out C
    lcflow rate-fit --csv C

Exit codes: 0 success, 1 validation error (bad arguments, config, or input
files), 2 runtime failure (solver errors, output I/O).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import config_hash, load_config
from .diagnostics import make_record
from .errors import ConfigError, SimulationError
from .grid import make_grid
from .integrator import run
from .io import (FAMILY_LABELS, read_checkpoint, read_sweep_csv,
                 write_checkpoint, write_diag_csv, write_rate_report,
                 write_sweep_csv)
from .operators import SlipMatrixB
from .sweep import Comparison, Errors, _plan, run_sweep, summarize


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented contract wants 1
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    p = _Parser(prog="lcflow",
                description="channel-flow liquid crystal simulator and "
                            "vanishing-viscosity harness")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = sub.add_parser("simulate", help="run one simulation")
    s.set_defaults(func=_cmd_simulate)
    s.add_argument("--config", required=True)
    s.add_argument("--checkpoint-out", default=None)
    s.add_argument("--diag-out", default=None)

    s = sub.add_parser("sweep", help="run the viscosity ladder experiment")
    s.set_defaults(func=_cmd_sweep)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--force", action="store_true",
                   help="run ladder members below the resolution guard")

    s = sub.add_parser("diagnose", help="recompute diagnostics offline")
    s.set_defaults(func=_cmd_diagnose)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)

    s = sub.add_parser("rate-fit", help="fit slopes from an existing sweep CSV")
    s.set_defaults(func=_cmd_rate_fit)
    s.add_argument("--csv", required=True)
    return p


def _check_outputs(inputs, *paths, new_dirs=False):
    """Raise OSError for the first given output path that is a directory,
    whose directory does not exist (unless new_dirs: the caller creates
    it), or that is the same file as one of the input paths or an earlier
    output: refused before any work, creating and truncating nothing."""
    seen = {os.path.realpath(p) for p in inputs}
    for path in filter(None, paths):
        if os.path.isdir(path) or not (
                new_dirs or os.path.isdir(os.path.dirname(path) or ".")):
            raise OSError(f"cannot write {path}: it is a directory or "
                          f"its directory does not exist")
        real = os.path.realpath(path)
        if real in seen:
            raise OSError(f"cannot write {path}: it is the same file as an "
                          f"input or another output")
        seen.add(real)


def _cmd_simulate(args):
    cfg = load_config(args.config)
    try:
        _check_outputs([args.config], args.diag_out, args.checkpoint_out)
        state, records, nsteps = run(cfg)
        grid = make_grid(cfg)
        if args.diag_out:
            write_diag_csv(records, args.diag_out)
        if args.checkpoint_out:
            write_checkpoint(args.checkpoint_out, state, cfg, grid, nsteps)
    except (SimulationError, OSError) as exc:
        print(f"lcflow simulate: {exc}", file=sys.stderr)
        return 2
    last = records[-1]
    print(f"simulate: t = {state.t:.6g}, steps = {nsteps}, "
          f"records = {len(records)}, unit_dev = {last.unit_dev:.3e}, "
          f"div_res = {last.div_res:.3e}")
    return 0


def _cmd_sweep(args):
    cfg = load_config(args.config)
    _plan(cfg, args.jobs, args.force)   # a refusal creates nothing
    csv = os.path.join(args.out, "sweep.csv")
    report = os.path.join(args.out, "rate_report.txt")
    try:
        _check_outputs([args.config], csv, report, new_dirs=True)
        os.makedirs(args.out, exist_ok=True)
        result = run_sweep(cfg, jobs=args.jobs, force=args.force)
        # a sweep whose first member failed has no rows, only a report, and
        # an earlier sweep's rows must not stand beside that report
        if result.errors_max:
            write_sweep_csv(result, csv)
        elif os.path.exists(csv):
            os.remove(csv)
        text = write_rate_report(result, report)
    except (SimulationError, OSError, ValueError) as exc:
        print(f"lcflow sweep: {exc}", file=sys.stderr)
        return 2
    print(text, end="")
    for e, msg in result.failed:
        print(f"lcflow sweep: aborted: member eps={e:g} failed: {msg}",
              file=sys.stderr)
    return 2 if result.failed else 0


def _cmd_diagnose(args):
    cfg = load_config(args.config)
    try:
        # before the checkpoint is read
        _check_outputs([args.checkpoint, args.config], args.out)
    except OSError as exc:
        print(f"lcflow diagnose: {exc}", file=sys.stderr)
        return 2
    grid = make_grid(cfg)
    state, sha, _ = read_checkpoint(args.checkpoint, grid)
    if sha != config_hash(cfg):
        raise ConfigError(f"{args.checkpoint}: checkpoint config hash does "
                          f"not match {args.config}")
    try:
        B = SlipMatrixB(cfg.b11, cfg.b12, cfg.b22)
        # offline recomputation has no previous step, so energy_residual
        # is reported as 0.0 by convention
        rec = make_record(state, cfg, grid, B)
        write_diag_csv([rec], args.out)
    except (SimulationError, OSError) as exc:
        print(f"lcflow diagnose: {exc}", file=sys.stderr)
        return 2
    print(f"diagnose: t = {state.t:.6g} -> {args.out}")
    return 0


def _cmd_rate_fit(args):
    # a line holds one member's max-over-time errors: one row, at no time
    members = [(r["eps"], [Comparison(None, *map(r.get, Errors._fields))])
               for r in read_sweep_csv(args.csv)]
    try:
        summary = summarize(members, {})
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    for fl in summary.flags:
        print(f"lcflow rate-fit: {fl}", file=sys.stderr)
    if summary.fit_note:
        raise ConfigError(f"{args.csv}: rate fit needs at least 2 points")
    for name, fit in summary.fits.items():
        print(f"{FAMILY_LABELS[name]}: slope = {fit.slope:.12g}  "
              f"intercept = {fit.intercept:.12g}  r^2 = {fit.r2:.12g}")
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        # everything reaching here failed before any real work started
        print(f"lcflow: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
