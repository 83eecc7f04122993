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
from .io import (FAMILY_LABELS, SWEEP_COLUMNS, read_checkpoint,
                 read_sweep_csv, write_checkpoint, write_diag_csv,
                 write_rate_report, write_sweep_csv)
from .operators import SlipMatrixB
from .sweep import FAMILIES, fit_rate, run_sweep


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
    s.add_argument("--config", required=True)
    s.add_argument("--checkpoint-out", default=None)
    s.add_argument("--diag-out", default=None)

    s = sub.add_parser("sweep", help="run the viscosity ladder experiment")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--force", action="store_true",
                   help="run ladder members below the resolution guard")

    s = sub.add_parser("diagnose", help="recompute diagnostics offline")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)

    s = sub.add_parser("rate-fit", help="fit slopes from an existing sweep CSV")
    s.add_argument("--csv", required=True)
    return p


def _cmd_simulate(args):
    cfg = load_config(args.config)
    try:
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
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    # the directories that makedirs creates, innermost first
    made, path = [], os.path.abspath(args.out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(args.out, exist_ok=True)
        try:
            result = run_sweep(cfg, jobs=args.jobs, force=args.force)
        except ConfigError:
            # refused before any run: leave no directory of this call behind
            for made_dir in made:
                os.rmdir(made_dir)
            raise
        csv = os.path.join(args.out, "sweep.csv")
        # a sweep whose first member failed has no rows, only a report, and
        # an earlier sweep's rows must not stand beside that report
        if result.errors_max:
            write_sweep_csv(result, csv)
        elif os.path.exists(csv):
            os.remove(csv)
        text = write_rate_report(result, os.path.join(args.out,
                                                      "rate_report.txt"))
    except ConfigError:
        raise   # a validation error, exit 1 (ConfigError is a ValueError)
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
    rows = read_sweep_csv(args.csv)
    try:
        # error_norms entry k is the sweep CSV column after eps
        fits = {name: fit_rate((r["eps"], r[SWEEP_COLUMNS[1 + k1]]
                                + r[SWEEP_COLUMNS[1 + k2]]) for r in rows)
                for name, (k1, k2) in FAMILIES.items()}
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    for name, fit in fits.items():
        print(f"{FAMILY_LABELS[name]}: slope = {fit.slope:.12g}  "
              f"intercept = {fit.intercept:.12g}  r^2 = {fit.r2:.12g}")
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "rate-fit":
            return _cmd_rate_fit(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError) as exc:
        # everything reaching here failed before any real work started
        print(f"lcflow: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
