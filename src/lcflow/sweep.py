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
from .diagnostics import kinetic_energy
from .errors import ConfigError, SimulationError
from .fields import FaceField, State, face_to_center
from .grid import ChannelGrid, make_grid
from .integrator import run
from .io import read_checkpoint, write_checkpoint
from .operators import (center_gradient, director_gradient, grad_sq_director,
                        laplacian_center)

RECORD_TIME_TOL = 1e-9

# the error families fitted against eps: each sums two error_norms entries
FAMILIES = {"l2": (0, 1), "linf": (2, 3)}


# ---------------------------------------------------------------------------
# error norms between two states on the shared grid
# ---------------------------------------------------------------------------

def error_norms(u_a: FaceField, d_a: np.ndarray, u_b: FaceField,
                d_b: np.ndarray, grid: ChannelGrid):
    """(err_u_l2sq, err_d_h1sq, err_u_linf, err_d_w1inf) of (a - b)."""
    vol = grid.cell_volume
    du = FaceField(u_a.x - u_b.x, u_a.y - u_b.y, u_a.z - u_b.z)
    e_u_l2sq = 2.0 * kinetic_energy(du, grid)
    dc = face_to_center(du)
    e_u_linf = float(np.max(np.sqrt(np.sum(dc * dc, axis=0))))

    dd = d_a - d_b
    gd = director_gradient(dd, grid)
    e_d_h1sq = vol * float(np.sum(dd * dd) + np.sum(gd * gd))
    e_d_w1inf = max(float(np.max(np.sqrt(np.sum(dd * dd, axis=0)))),
                    float(np.max(np.sqrt(np.sum(gd * gd, axis=(0, 1))))))
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
    zero-flux centered stencil.
    """
    uc_e = face_to_center(state_eps.u)
    uc_0 = face_to_center(state_0.u)
    v = uc_e - uc_0
    phi = state_eps.d - state_0.d

    gu_e = center_gradient(uc_e, grid)                   # [j, i] = d_j u_i
    lap_u0 = laplacian_center(uc_0, grid)
    gd_e = director_gradient(state_eps.d, grid)          # [i, c] = d_i d_c
    lap_phi = laplacian_center(phi, grid)
    g_phi = director_gradient(phi, grid)
    lap_d0 = laplacian_center(state_0.d, grid)

    v_grad_ue = np.einsum("jxyz,jixyz->ixyz", v, gu_e)
    gde_lapphi = np.einsum("icxyz,cxyz->ixyz", gd_e, lap_phi)
    gphi_lapd0 = np.einsum("icxyz,cxyz->ixyz", g_phi, lap_d0)
    r1 = eps * lap_u0 - v_grad_ue - gde_lapphi - gphi_lapd0

    v_grad_de = np.einsum("jxyz,jcxyz->cxyz", v, gd_e)
    g_sum = gd_e + director_gradient(state_0.d, grid)
    contraction = np.einsum("icxyz,icxyz->xyz", g_phi, g_sum)
    r2 = (-v_grad_de + contraction[None] * state_eps.d
          + grad_sq_director(state_0.d, grid) * phi)

    vol = grid.cell_volume
    return (float(np.sqrt(np.sum(r1 * r1) * vol)),
            float(np.sqrt(np.sum(r2 * r2) * vol)))


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
    errors_max: dict             # eps -> 4-tuple, max over recorded times
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


def run_sweep(cfg: SimConfig, jobs: int = 1, force: bool = False) -> SweepResult:
    """Run the ladder experiment.  See SweepResult for what comes back.

    With jobs > 1 the members start first, in up to `jobs` forked workers,
    and the reference (eps = 0) runs in this process beside them; with
    jobs = 1 the members run inline after the reference.  Every run goes
    through _member_job and leaves one checkpoint per record in a directory
    under the system temp dir, 8*nx*ny*(7*nz + 1) bytes plus the header
    each, and returns its records, which SweepResult.records keeps by eps
    (the reference under 0.0) for every run that completed.  This process
    compares each member checkpoint with the reference's and deletes it;
    the reference's stay until the sweep ends.  A t_final at which a run
    takes no step, or a ladder that the resolution guard empties, raises
    ConfigError before any run.  Adaptive stepping is disabled so every
    run takes the identical step sequence; a member whose fixed dt violates
    its stability bound, or whose worker process ends, fails loudly and
    the sweep aborts with the completed members flagged.  A failing
    reference raises its SimulationError.
    """
    ladder = tuple(cfg.validate().eps_ladder)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # the end test of integrator.run's step loop: no step, nothing to compare
    if cfg.t_final <= 1e-12 * max(cfg.t_final, 1.0):
        raise ConfigError(f"t_final = {cfg.t_final:g} takes no step; a sweep "
                          f"needs t_final > 0")

    grid = make_grid(cfg)
    eps_min = (4.0 * grid.hz) ** 2
    flags = []
    if force:
        included = ladder
        excluded = ()
        if any(e < eps_min for e in ladder):
            flags.append(
                f"under-resolution: forced members below eps_min = {eps_min:g} "
                f"(boundary layer thinner than 4 cells)")
    else:
        included = tuple(e for e in ladder if e >= eps_min)
        excluded = tuple(e for e in ladder if e < eps_min)
        if not included:
            raise ConfigError(
                f"resolution guard excludes every member: eps {list(excluded)} "
                f"below eps_min = {eps_min:g}; --force runs them anyway")
        if excluded:
            flags.append(
                f"resolution guard: excluded eps {list(excluded)} below "
                f"eps_min = {eps_min:g}")

    base = replace(cfg, eps=0.0, adaptive_dt=False,
                   forcing_u=None, forcing_d=None)

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
