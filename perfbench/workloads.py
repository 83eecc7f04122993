"""The three benchmark workloads, each run through the real CLI path
``lcflow.cli.cli([...])`` in this process.

An operation is what ``failed_frac`` counts: one simulate run (``budget``),
one sweep member (``sweep``) or one diagnosed checkpoint (``diagnose``).
It fails on a non-zero exit, an exception, or an output check that fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

# Agreement with the stored reference outputs, relative to the largest
# magnitude in each column.  Reordered sums change results by ~1e-15 of the
# column scale; anything past 1e-9 is a change in the numbers, not round-off.
RTOL = 1e-9
# criterion-1 invariants
UNIT_DEV_MAX = 1e-12
DIV_RES_MAX = 1e-9
# round-off-level columns: gated by the invariants above, not by the reference
ROUNDOFF_COLUMNS = ("unit_dev", "div_res")


@dataclass
class OpResult:
    seconds: float           # wall time of the CLI call alone
    attempted: int
    failed: int
    deviation: float = 0.0   # largest deviation from the expected output
    message: str = ""


def call_cli(argv):
    """(exit code, captured stdout+stderr, exception text, seconds)."""
    from lcflow.cli import cli
    buf = io.StringIO()
    err = ""
    code = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            code = cli([str(a) for a in argv])
        except Exception as exc:   # an escaped exception is a failed operation
            err = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, buf.getvalue(), err, seconds


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def column_scales(ref, floors=None):
    """Largest magnitude per column, raised to floors[col] where a column
    holds round-off-level values of a quantity with a larger natural scale."""
    floors = floors or {}
    return {col: max([abs(q[col]) for q in ref] + [floors.get(col, 0.0)])
            for col in ref[0]}


def row_deviation(row, want, scales, skip=()):
    """Largest column-scaled deviation of row from want; a column that is
    all zero in the reference must match exactly."""
    if row.keys() != want.keys():
        return math.inf
    worst = 0.0
    for col, w in want.items():
        if col in skip:
            continue
        diff = abs(row[col] - w)
        if scales[col] == 0.0:
            if diff != 0.0:
                return math.inf
        else:
            worst = max(worst, diff / scales[col])
    return worst


def _failure(seconds, attempted, message):
    return OpResult(seconds, attempted, attempted, math.inf, message)


@contextlib.contextmanager
def capture_return(namespace, attr, sink):
    """Temporarily route namespace.attr through a shim that appends each
    return value to sink."""
    orig = getattr(namespace, attr)

    def shim(*args, **kwargs):
        out = orig(*args, **kwargs)
        sink.append(out)
        return out

    setattr(namespace, attr, shim)
    try:
        yield sink
    finally:
        setattr(namespace, attr, orig)


def _state_bytes(cfg):
    cells = cfg.nx * cfg.ny * cfg.nz
    # u.x, u.y, p and three director components on cells; u.z on nz+1 faces
    return 8 * (6 * cells + cfg.nx * cfg.ny * (cfg.nz + 1))


def _initial_state(cfg):
    from lcflow.fields import init_state, max_face_speed
    from lcflow.grid import make_grid
    from lcflow.pressure import project
    grid = make_grid(cfg)
    state = init_state(grid, cfg.ic)
    if max_face_speed(state.u) > 0.0:
        state.u, _ = project(state.u, 1.0, grid, cfg.solver_tol)
    return grid, state


def _peak_alloc_mb(fn):
    """Peak bytes allocated (tracemalloc) while fn runs, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def alloc_pass(cfg, state=None, with_step=True):
    """{"integrator.step.peak_alloc_mb", "diagnostics.make_record.peak_alloc_mb"}
    for one step and one record on cfg (the step is skipped, and reported
    as 0, where the workload takes none)."""
    from lcflow.diagnostics import make_record
    from lcflow.grid import make_grid
    from lcflow.integrator import step
    from lcflow.operators import SlipMatrixB
    B = SlipMatrixB(cfg.b11, cfg.b12, cfg.b22)
    if state is None:
        grid, state = _initial_state(cfg)
    else:
        grid = make_grid(cfg)
    step_mb = 0.0
    if with_step:
        prev = state
        state = step(prev, cfg, grid, B, cfg.dt)   # warm-up, untracked
        prev, state = state, step(state, cfg, grid, B, cfg.dt)
        step_mb = _peak_alloc_mb(lambda: step(state, cfg, grid, B, cfg.dt))
        rec_mb = _peak_alloc_mb(
            lambda: make_record(state, cfg, grid, B, prev, cfg.dt))
    else:
        make_record(state, cfg, grid, B)
        rec_mb = _peak_alloc_mb(lambda: make_record(state, cfg, grid, B))
    return {"integrator.step.peak_alloc_mb": step_mb,
            "diagnostics.make_record.peak_alloc_mb": rec_mb}


class Workload:
    name = ""
    config_name = ""
    # operations in the traced pass; fixed, so traced counts repeat exactly
    trace_ops = 1
    # whether operations run in forked workers, whose peak RSS then counts
    forks = False
    # operations (for failed_frac) in one CLI call
    ops_per_call = 1

    def __init__(self, work, seed, config=None, reference=None):
        self.work = Path(work)
        self.seed = seed
        self.config = Path(config) if config else CONFIGS / self.config_name
        self.reference = Path(reference) if reference else REFERENCE

    def load_config(self):
        from lcflow.config import load_config
        return load_config(str(self.config))

    def prepare(self):
        """Untimed set-up of inputs; excluded from every metric."""

    def argv(self, i):
        """CLI arguments of operation i."""
        raise NotImplementedError

    def check(self, i):
        """(failed operations, largest deviation, message) for the output
        of operation i."""
        raise NotImplementedError

    def op(self, i) -> OpResult:
        code, text, err, secs = call_cli(self.argv(i))
        n = self.ops_per_call
        if code != 0 or err:
            return _failure(secs, n, f"exit {code} {err} {text[-500:]}")
        try:
            failed, dev, message = self.check(i)
        except (OSError, ValueError, KeyError) as exc:
            return _failure(secs, n, f"unreadable output: {exc!r}")
        return OpResult(secs, n, failed, dev, message)

    def alloc(self):
        return alloc_pass(self.load_config())

    def layer_metrics(self, stats):
        """Per-layer metrics only some workloads produce; 0 where the
        workload never runs the layer.  stats: tracer.summarize output."""
        return {"sweep.reference_s": 0.0, "sweep.member_s": 0.0,
                "sweep.parallel_eff": 0.0, "io.checkpoint_bytes": 0}

    def working_set_bytes(self):
        return _state_bytes(self.load_config())


class Budget(Workload):
    """`lcflow simulate --diag-out` on the criterion 1-2 energy-budget config
    (32x32x64 shear+twist, eps = 0.01, explicit viscosity, dt = 1e-3,
    diag_every = 25), cut to 50 steps.

    Why: time goes to integrator.step on the explicit path (advection,
    laplacian_face, director Helmholtz, projection); records are about a
    quarter.  Kernel work shows here and diagnostics work barely does.
    Ignores the seed: it is an acceptance config.
    """
    name = "budget"
    config_name = "budget.cfg"

    def prepare(self):
        self.ref = read_csv(self.reference / "budget_diag.csv")
        # p2 (viscous-boundary pressure) is round-off here, as B = 0;
        # measure it on the pressure scale of p1
        self.scales = column_scales(
            self.ref, {"p2_norm": max(abs(q["p1_norm"]) for q in self.ref)})
        self.out = self.work / "budget_diag.csv"

    def argv(self, i):
        self.out.unlink(missing_ok=True)
        return ["simulate", "--config", self.config, "--diag-out", self.out]

    def check(self, i):
        rows = read_csv(self.out)
        if not all(math.isfinite(v) for row in rows for v in row.values()):
            return 1, math.inf, "non-finite value in diagnostics CSV"
        unit = max(r["unit_dev"] for r in rows)
        div = max(r["div_res"] for r in rows)
        if unit > UNIT_DEV_MAX or div > DIV_RES_MAX:
            return 1, math.inf, f"invariants: unit_dev {unit:.3e}, div_res {div:.3e}"
        if len(rows) != len(self.ref):
            return 1, math.inf, f"{len(rows)} records, reference has {len(self.ref)}"
        dev = max(row_deviation(r, q, self.scales, ROUNDOFF_COLUMNS)
                  for r, q in zip(rows, self.ref))
        return int(dev > RTOL), dev, f"reference deviation {dev:.3e}"


class Sweep(Workload):
    """`lcflow sweep --jobs 2` on the criterion 6-9 config (32x32x128,
    implicit viscosity, b11 = b22 = 1, dt = 2e-3, diag_every = 10) with the
    ladder 2^-4 .. 2^-7, cut to 20 steps per run.

    Why: the only workload that runs solve_viscous_helmholtz /
    _thomas_batched, error_norms and the process pool.  Four members above
    the resolution guard split evenly over two workers, so both cores are
    busy and a change that adds threads pays for it here.  Records are a
    large share of each run.  Ignores the seed: it is an acceptance config.
    """
    name = "sweep"
    config_name = "sweep.cfg"
    jobs = 2
    forks = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results = []   # SweepResult of each invocation

    def prepare(self):
        self.ref = read_csv(self.reference / "sweep.csv")
        self.ops_per_call = len(self.ref)
        # director errors are round-off here (the director evolves the same
        # for every eps); measure them against the unit length of d
        self.scales = column_scales(self.ref,
                                    {"err_d_h1sq": 1.0, "err_d_w1inf": 1.0})
        self.out = self.work / "sweep_out"

    def argv(self, i):
        shutil.rmtree(self.out, ignore_errors=True)
        return ["sweep", "--config", self.config, "--out", self.out,
                "--jobs", self.jobs]

    def op(self, i):
        import lcflow.cli
        with capture_return(lcflow.cli, "run_sweep", self.results):
            return super().op(i)

    def check(self, i):
        if "slope =" not in (self.out / "rate_report.txt").read_text():
            return len(self.ref), math.inf, "rate report has no fitted slopes"
        rows = {r["eps"]: r for r in read_csv(self.out / "sweep.csv")}
        devs = [row_deviation(rows[q["eps"]], q, self.scales)
                if q["eps"] in rows else math.inf for q in self.ref]
        failed = sum(dev > RTOL for dev in devs)
        if len(rows) != len(self.ref):
            failed = len(self.ref)
        return failed, max(devs), f"{failed} member(s) off the reference"

    def layer_metrics(self, stats):
        # from the last (traced) invocation's SweepResult.wall_times
        walls = self.results[-1].wall_times
        members = [secs for e, secs in walls.items() if e > 0.0]
        member_phase = stats["sweep.run_sweep"]["durations"][-1] - walls[0.0]
        return dict(super().layer_metrics(stats), **{
            "sweep.reference_s": walls[0.0],
            "sweep.member_s": statistics.median(members),
            "sweep.parallel_eff": sum(members) / (self.jobs * member_phase)})

    def working_set_bytes(self):
        cfg = self.load_config()
        nrec = round(cfg.t_final / cfg.dt) // cfg.diag_every + 1
        # the parent keeps the reference snapshots (u and d at each record)
        # on top of one live state per process
        snap = 8 * cfg.nx * cfg.ny * (5 * cfg.nz + 1)
        return _state_bytes(cfg) + nrec * snap

    def alloc(self):
        cfg = self.load_config()
        member = replace(cfg, eps=cfg.eps_ladder[0], adaptive_dt=False)
        return alloc_pass(member)


class Diagnose(Workload):
    """`lcflow diagnose` over checkpoints of a random-solenoidal 32x32x128
    state (conormal_m = 2, time_derivs = 1, IC seed = the benchmark seed).

    Why: diagnostics only, no step calls, so record-level caching shows its
    full effect here.  Random 3-D data avoids the y/z-only symmetry of
    shear+twist, and the workload also runs read_checkpoint and
    _time_derivatives.  Each diagnosed record must equal the record the
    simulating run took at that state (all columns but energy_residual).
    """
    name = "diagnose"
    config_name = "diagnose.cfg.in"
    trace_ops = 12   # three passes over the checkpoints

    def prepare(self):
        text = self.config.read_text().replace("@SEED@", str(self.seed % 2**32))
        self.config = self.work / "diagnose.cfg"
        self.config.write_text(text)
        ckdir = self.work / "checkpoints"
        shutil.rmtree(ckdir, ignore_errors=True)
        src = Path(sys.modules["lcflow"].__file__).resolve().parents[1]
        # a separate process, so preparation adds nothing to this process's
        # peak resident set
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
             "workloads.prepare_checkpoints(sys.argv[3], sys.argv[4])",
             str(src), str(HERE), str(self.config), str(ckdir)],
            check=True, timeout=170)
        self.expected = read_csv(ckdir / "records.csv")
        self.checkpoints = sorted(ckdir.glob("ck*.bin"))
        if len(self.checkpoints) != len(self.expected) or not self.checkpoints:
            raise RuntimeError("checkpoint preparation produced no usable set")
        self.out = self.work / "diagnose.csv"

    def argv(self, i):
        self.out.unlink(missing_ok=True)
        return ["diagnose", "--checkpoint",
                self.checkpoints[i % len(self.checkpoints)],
                "--config", self.config, "--out", self.out]

    def check(self, i):
        k = i % len(self.checkpoints)
        rows = read_csv(self.out)
        want = dict(self.expected[k], energy_residual=0.0)
        if len(rows) != 1 or rows[0].keys() != want.keys():
            return 1, math.inf, f"checkpoint {k}: malformed diagnostics CSV"
        got = dict(rows[0], energy_residual=0.0)
        dev = max(abs(got[c] - w) / max(abs(w), 1e-300) for c, w in want.items())
        return int(got != want), dev, f"checkpoint {k}: record differs from the run's"

    def layer_metrics(self, stats):
        return dict(super().layer_metrics(stats), **{
            "io.checkpoint_bytes": self.checkpoints[0].stat().st_size})

    def alloc(self):
        from lcflow.grid import make_grid
        from lcflow.io import read_checkpoint
        cfg = self.load_config()
        state, _, _ = read_checkpoint(str(self.checkpoints[0]), make_grid(cfg))
        return alloc_pass(cfg, state, with_step=False)


def prepare_checkpoints(config, out_dir):
    """Run the simulation in config, writing a checkpoint at every record
    point and the run's own records to records.csv."""
    from lcflow.config import load_config
    from lcflow.grid import make_grid
    from lcflow.integrator import run
    from lcflow.io import write_checkpoint, write_diag_csv
    cfg = load_config(config)
    grid = make_grid(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kept = []

    def keep(state, rec):
        write_checkpoint(str(out / f"ck{len(kept):03d}.bin"), state, cfg,
                         grid, len(kept))
        kept.append(rec)

    run(cfg, on_record=keep)
    write_diag_csv(kept, str(out / "records.csv"))


WORKLOADS = {w.name: w for w in (Budget, Sweep, Diagnose)}
