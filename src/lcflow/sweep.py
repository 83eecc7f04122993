"""Vanishing-viscosity experiment driver.

Runs an inviscid reference and a ladder of viscous members from identical
initial data, with one fixed dt shared by every run so the time
discretization error cancels in the differences.  Every run, the reference
included, is one explicit job: it takes its config, its eps and a work
directory as arguments and leaves one checkpoint per record there, so any
process start method can run it.  The reference runs in the calling
process beside the member workers and its checkpoints stay until the
sweep ends; the caller reads both runs' checkpoints back bit for bit,
computes every error norm itself and deletes each member checkpoint once
compared, which makes the emitted CSV independent of the job count.

Error norms follow the convention: velocity differences are measured in
the face quadrature (L2) and as the sup of the centered magnitude (Linf);
director differences use the centered gradient with reflected end layers
for the H1 and W1inf parts.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import time
from collections import namedtuple
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import multiprocessing as mp

import numpy as np

from .config import SimConfig, config_hash
from .diagnostics import _sumsq
from .errors import ConfigError, SimulationError
from .fields import FaceField, State, _face_mean, face_to_center
from .grid import ChannelGrid, _dz_centered, make_grid
from .integrator import run
from .io import read_checkpoint, write_checkpoint
from .operators import (_dz_reflect, _gradient_parts, grad_sq_director,
                        laplacian_center)

RECORD_TIME_TOL = 1e-9

# the error families fitted against eps: each sums two error_norms entries
FAMILIES = {"l2": (0, 1), "linf": (2, 3)}


# ---------------------------------------------------------------------------
# error norms between two states on the shared grid
# ---------------------------------------------------------------------------

def error_norms(u_a: FaceField, d_a: np.ndarray, u_b: FaceField,
                d_b: np.ndarray, grid: ChannelGrid):
    """(err_u_l2sq, err_d_h1sq, err_u_linf, err_d_w1inf) of (a - b).

    The velocity difference is taken one component at a time, for its sum
    of squares on the faces (twice kinetic_energy, in its sums and their
    order) and its centered square, added into one field;
    |grad (d_a - d_b)|^2 is summed from a stream of parts
    (grad_sq_director).  Each sup is taken before its square root, which is
    monotone, so it is the sup of the pointwise magnitude.
    """
    vol = grid.cell_volume
    sums = []
    mag, buf = np.empty(grid.shape), np.empty(grid.shape)
    for a, (fa, fb) in enumerate(zip(u_a.components(), u_b.components())):
        du = fa - fb
        sums.append(_sumsq(du[:, :, 1:-1] if a == 2 else du))
        c = _face_mean(du, a, buf)
        del du
        if a == 0:
            np.multiply(c, c, out=mag)
        else:
            c *= c
            mag += c
    e_u_l2sq = vol * (sums[0] + sums[1] + sums[2])
    e_u_linf = float(np.sqrt(np.max(mag)))
    del mag, buf

    dd = d_a - d_b
    sq = dd * dd
    dd_sq = np.sum(sq)
    dd_mag = np.sum(sq, axis=0)
    del sq
    gd_sq = grad_sq_director(dd, grid)
    e_d_h1sq = vol * float(dd_sq + np.sum(gd_sq))
    e_d_w1inf = max(float(np.sqrt(np.max(dd_mag))),
                    float(np.sqrt(np.max(gd_sq))))
    return e_u_l2sq, e_d_h1sq, e_u_linf, e_d_w1inf


def remainder_norms(state_eps: State, state_0: State, eps: float,
                    grid: ChannelGrid):
    """L2 norms of the two error-equation remainders.

    With v = u_eps - u and phi = d_eps - d (reference fields unsubscripted):

        R1 = eps lap(u) - (v . grad) u_eps - grad(d_eps) . lap(phi)
             - grad(phi) . lap(d)
        R2 = -(v . grad) d_eps + (grad(phi) : grad(d_eps + d)) d_eps
             + |grad d|^2 phi

    Everything is assembled at cell centers: velocities through the
    second-order face average, velocity gradients one-sided at the walls,
    director gradients with reflected end layers, Laplacians with the
    zero-flux centered stencil.  Every contraction is summed one gradient
    part at a time, as _director_parts sums the stress: the parts d_j u_i
    of grad u_eps from one stream, then those of grad d_eps, grad phi and
    grad d from three streams in step, so no gradient stack is built.  At
    32^3 one call peaks at about 26 fields, the two states aside.
    """
    want = ((3,) + grid.shape, grid.shape, grid.shape,
            grid.shape[:2] + (grid.nz + 1,))
    for st in (state_eps, state_0):
        for name, a, w in zip(("d", "u.x", "u.y", "u.z"),
                              (st.d,) + st.u.components(), want):
            if a.shape != w:
                raise ConfigError(f"state {name} shape {a.shape} does not "
                                  f"match {w} on grid {grid.shape}")
    uc_e = face_to_center(state_eps.u)
    v = face_to_center(state_0.u)
    r1 = laplacian_center(v, grid)
    r1 *= eps
    np.subtract(uc_e, v, out=v)
    t = np.empty(grid.shape)
    for k, g in enumerate(_gradient_parts(uc_e, _dz_centered, grid)):
        j, i = divmod(k, 3)                      # g = d_j u_eps,i
        r1[i] -= np.multiply(v[j], g, out=t)
    del uc_e

    d_e, d_0 = state_eps.d, state_0.d
    phi = d_e - d_0
    lap_phi = laplacian_center(phi, grid)
    lap_d0 = laplacian_center(d_0, grid)
    r2 = np.zeros((3,) + grid.shape)
    contraction, gsq_0 = np.zeros(grid.shape), np.zeros(grid.shape)
    streams = [_gradient_parts(f, _dz_reflect, grid) for f in (d_e, phi, d_0)]
    for k, (ge, gp, g0) in enumerate(zip(*streams)):
        i, c = divmod(k, 3)                      # ge = d_i d_eps,c
        r1[i] -= np.multiply(ge, lap_phi[c], out=t)
        r1[i] -= np.multiply(gp, lap_d0[c], out=t)
        r2[c] -= np.multiply(v[i], ge, out=t)
        gsq_0 += np.multiply(g0, g0, out=t)
        g0 += ge
        contraction += np.multiply(gp, g0, out=t)
    for c in range(3):
        r2[c] += np.multiply(contraction, d_e[c], out=t)
        r2[c] += np.multiply(gsq_0, phi[c], out=t)

    vol = grid.cell_volume
    return (float(np.sqrt(_sumsq(r1) * vol)),
            float(np.sqrt(_sumsq(r2) * vol)))


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

Fit = namedtuple("Fit", "slope intercept r2")


def fit_rate(points):
    """Ordinary least squares of log(err) on log(eps).

    points: iterable of (eps, err) pairs, all positive and finite, at
    least two.
    Returns Fit(slope, intercept, r2).
    """
    pts = [(float(e), float(r)) for e, r in points]
    if len(pts) < 2:
        raise ValueError(f"rate fit needs at least 2 points, got {len(pts)}")
    for e, r in pts:
        # the negated comparisons also reject nan
        if not (0.0 < e < math.inf and 0.0 < r < math.inf):
            raise ValueError(
                f"rate fit needs finite positive data, got ({e}, {r})")
    x = np.log([e for e, _ in pts])
    y = np.log([r for _, r in pts])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("rate fit needs at least two distinct eps values")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return Fit(slope, intercept, r2)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    eps_ladder: tuple            # requested ladder, strictly decreasing
    included: tuple              # members actually run (guard applied)
    excluded: tuple              # members refused by the resolution guard
    eps_min: float               # the guard threshold (4 hz)^2
    errors_max: dict             # eps -> 4-tuple, max over recorded times,
                                 # completed members only, in ladder order
    errors_by_time: dict         # eps -> list of (t, 4-tuple)
    records: dict                # eps -> DiagnosticsRecord list (0.0 = ref)
    wall_times: dict             # eps -> measured seconds, same keys;
                                 # members are timed while they share the
                                 # cores with the reference
    fits: dict                   # family -> Fit, all nan when not fitted
    fit_note: str                # "" or "insufficient-points"
    monotone: dict               # family -> errors never grow as eps falls
    flags: list = field(default_factory=list)
    config_hash: str = ""
    failed: tuple = ()


def _record_path(workdir, eps, i):
    """Where the run with viscosity eps leaves its state at record i."""
    return os.path.join(workdir, f"eps{eps!r}-record{i}.ckpt")


def _member_job(cfg, eps, workdir):
    """Run cfg with viscosity eps and write the state at each record to
    _record_path(workdir, eps, i) with io.write_checkpoint.

    The sweep runs every ladder member and the eps = 0 reference through
    this job.  Everything comes in as arguments, so any process start
    method works.  Returns (records, seconds): the run's DiagnosticsRecord
    list, one per checkpoint, and its measured wall time.
    """
    cfg = replace(cfg, eps=eps)
    grid = make_grid(cfg)
    index = itertools.count()

    def save(state, rec):
        # the sweep steps with a fixed dt, so the step count follows from t
        # (only the last step may be short)
        steps = math.ceil(state.t / cfg.dt - 1e-6)
        write_checkpoint(_record_path(workdir, eps, next(index)), state, cfg,
                         grid, steps)

    t0 = time.perf_counter()
    _, records, _ = run(cfg, on_record=save)
    return records, time.perf_counter() - t0


def _compare_member(eps, records, ref_records, workdir, grid):
    """Per-record (t, error_norms) of member eps against the reference,
    from the checkpoints _member_job left in workdir for both; each member
    checkpoint is deleted once it is read, and the reference's are kept
    for the next member.  A member whose records do not match the
    reference's in number or time raises SimulationError."""
    if len(records) != len(ref_records):
        raise SimulationError(
            f"member eps={eps:g} produced {len(records)} records, "
            f"reference has {len(ref_records)}")
    per_time = []
    for i, (r, r_ref) in enumerate(zip(records, ref_records)):
        if abs(r.t - r_ref.t) > RECORD_TIME_TOL:
            raise SimulationError(
                f"record times diverged: member eps={eps:g} at t={r.t!r}, "
                f"reference at t={r_ref.t!r}")
        path = _record_path(workdir, eps, i)
        state, _, _ = read_checkpoint(path, grid)
        os.remove(path)
        ref, _, _ = read_checkpoint(_record_path(workdir, 0.0, i), grid)
        per_time.append((r.t, error_norms(state.u, state.d, ref.u, ref.d,
                                          grid)))
    return per_time


def _plan(cfg, jobs, force):
    """(ladder, included, excluded, eps_min, flags) of a sweep, or the
    ConfigError refusing it: an invalid config, jobs < 1, a t_final at
    which a run takes no step, or a ladder that the resolution guard
    (members below eps_min = (4 hz)^2, kept and flagged with force) empties.
    """
    ladder = tuple(cfg.validate().eps_ladder)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # the end test of integrator.run's step loop: no step, nothing to compare
    if cfg.t_final <= 1e-12 * max(cfg.t_final, 1.0):
        raise ConfigError(f"t_final = {cfg.t_final:g} takes no step; a sweep "
                          f"needs t_final > 0")

    eps_min = (4.0 * make_grid(cfg).hz) ** 2
    below = tuple(e for e in ladder if e < eps_min)
    excluded = () if force else below
    included = tuple(e for e in ladder if e not in excluded)
    if not included:
        raise ConfigError(
            f"resolution guard excludes every member: eps {list(excluded)} "
            f"below eps_min = {eps_min:g}; --force runs them anyway")
    flags = []
    if excluded:
        flags.append(f"resolution guard: excluded eps {list(excluded)} below "
                     f"eps_min = {eps_min:g}")
    elif below:
        flags.append(
            f"under-resolution: forced members below eps_min = {eps_min:g} "
            f"(boundary layer thinner than 4 cells)")
    return ladder, included, excluded, eps_min, flags


def run_sweep(cfg: SimConfig, jobs: int = 1, force: bool = False) -> SweepResult:
    """Run the ladder experiment.  See SweepResult for what comes back.

    _plan decides the members, and raises every refusal before any run.
    With jobs > 1 the members start first, in up to `jobs` forked workers,
    and the reference (eps = 0) runs in this process beside them; with
    jobs = 1 the members run inline after the reference.  Every run goes
    through _member_job and leaves one checkpoint per record in a directory
    under the system temp dir, 8*nx*ny*(7*nz + 1) bytes plus the header
    each, and returns its records, which SweepResult.records keeps by eps
    (the reference under 0.0) for every run that completed.  This process
    compares each member checkpoint with the reference's and deletes it;
    the reference's stay until the sweep ends.  Adaptive stepping is
    disabled so every run takes the identical step sequence; a member whose
    fixed dt violates its stability bound, or whose worker process ends,
    fails loudly and the sweep aborts with the completed members flagged.
    A failing reference raises its SimulationError.
    """
    ladder, included, excluded, eps_min, flags = _plan(cfg, jobs, force)
    grid = make_grid(cfg)
    base = replace(cfg, eps=0.0, adaptive_dt=False)

    wall_times = {}
    records = {}
    results = {}
    failed = []
    pool = None
    with tempfile.TemporaryDirectory(prefix="lcflow-sweep-") as workdir:
        try:
            if jobs > 1:
                pool = ProcessPoolExecutor(
                    max_workers=min(jobs, len(included)),
                    mp_context=mp.get_context("fork"))
                calls = [pool.submit(_member_job, base, e, workdir).result
                         for e in included]
            else:
                calls = [partial(_member_job, base, e, workdir)
                         for e in included]
            records[0.0], wall_times[0.0] = _member_job(base, 0.0, workdir)
            # the first failure ends the sweep: no later member starts
            for e, call in zip(included, calls):
                try:
                    recs, secs = call()
                    results[e] = _compare_member(e, recs, records[0.0],
                                                 workdir, grid)
                except SimulationError as exc:
                    failed.append((e, str(exc)))
                    break
                except BrokenExecutor as exc:
                    failed.append((e, f"its worker process ended: {exc}"))
                    break
                records[e], wall_times[e] = recs, secs
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    for e, msg in failed:
        flags.append(f"aborted: member eps={e:g} failed: {msg}")

    completed = tuple(e for e in included if e in results)
    errors_max = {e: tuple(max(row[1][k] for row in results[e]) for k in range(4))
                  for e in completed}

    # fits over the max-over-time errors (the sup-in-time bound is the
    # quantity with a guaranteed rate)
    fits = {}
    fit_note = ""
    for name, (k1, k2) in FAMILIES.items():
        pts = [(e, errors_max[e][k1] + errors_max[e][k2]) for e in completed]
        pts = [(e, r) for e, r in pts if r > 0.0]
        if len(pts) < len(completed):
            flags.append(f"fit {name}: dropped members with exactly zero error")
        try:
            fits[name] = fit_rate(pts)
        except ValueError:
            fits[name] = Fit(math.nan, math.nan, math.nan)
            fit_note = "insufficient-points"

    # the members' (t, errors) rows at each record time, by decreasing eps
    by_time = list(zip(*(results[e] for e in completed)))
    monotone = dict.fromkeys(FAMILIES, True)
    for name, (k1, k2) in FAMILIES.items():
        for rows in by_time[1:]:
            vals = [errs[k1] + errs[k2] for _, errs in rows]
            for a, b in zip(vals, vals[1:]):
                if b > a * (1.0 + 1e-12):
                    flags.append(
                        f"monotonicity violated at t={rows[0][0]:g} in the "
                        f"{name} family: consider under-resolution")
                    monotone[name] = False

    return SweepResult(
        eps_ladder=ladder,
        included=included,
        excluded=excluded,
        eps_min=eps_min,
        errors_max=errors_max,
        errors_by_time={e: results[e] for e in completed},
        records=records,
        wall_times=wall_times,
        fits=fits,
        fit_note=fit_note,
        monotone=monotone,
        flags=flags,
        config_hash=config_hash(cfg).hex(),
        failed=tuple(failed),
    )
