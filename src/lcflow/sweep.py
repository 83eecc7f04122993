"""Vanishing-viscosity experiment driver.

Runs an inviscid reference and a ladder of viscous members from identical
initial data, with one fixed dt shared by every run so the time
discretization error cancels in the differences.  Members are independent
processes (fork) reading the reference trajectory snapshots from module
globals; only error scalars cross process boundaries, which makes the
emitted CSV independent of the job count.

Error norms follow the convention: velocity differences are measured in
the face quadrature (L2) and as the sup of the centered magnitude (Linf);
director differences use the centered gradient with zero-flux ghosts for
the H1 and W1inf parts.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
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
from .operators import (director_gradient, grad_sq_director,
                        laplacian_center, velocity_gradient_center)

RECORD_TIME_TOL = 1e-9


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
    director gradients with zero-flux ghosts, Laplacians with the
    zero-flux centered stencil.
    """
    uc_e = face_to_center(state_eps.u)
    uc_0 = face_to_center(state_0.u)
    v = uc_e - uc_0
    phi = state_eps.d - state_0.d

    gu_e = velocity_gradient_center(state_eps.u, grid)   # [j, i] = d_j u_i
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

def fit_rate(points):
    """Ordinary least squares of log(err) on log(eps).

    points: iterable of (eps, err) pairs, all positive and finite, at
    least two.
    Returns (slope, intercept, r_squared).
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
    return slope, intercept, r2


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
    nm_max: dict                 # eps -> max-over-time nm_value (0.0 = ref)
    linf_grad_u_max: dict        # eps -> max-over-time linf_grad_u
    wall_times: dict             # eps -> measured seconds (0.0 = ref)
    fitted_slope_l2: float
    fitted_intercept_l2: float
    fitted_r2_l2: float
    fitted_slope_linf: float
    fitted_intercept_linf: float
    fitted_r2_linf: float
    fit_note: str                # "" or "insufficient-points"
    monotone_l2: bool
    monotone_linf: bool
    flags: list = field(default_factory=list)
    config_hash: str = ""
    failed: tuple = ()


# reference trajectory snapshots, set in the parent before workers fork
_REF_SNAPSHOTS = None
_REF_CFG = None


def _collecting_run(cfg):
    """Run cfg and return (snapshots, records) where snapshots is a list of
    (t, u, d) copies at the record times."""
    snaps = []

    def keep(state, rec):
        snaps.append((state.t, state.u.copy(), state.d.copy()))

    _, records, _ = run(cfg, on_record=keep)
    return snaps, records


def _member_job(eps):
    """Run one viscous member against the forked-in reference snapshots.

    Returns (eps, per_time list of (t, 4-tuple), nm_max, linf_max, seconds).
    """
    cfg = replace(_REF_CFG, eps=eps)
    grid = make_grid(cfg)
    ref = _REF_SNAPSHOTS
    per_time = []
    idx = [0]

    def compare(state, rec):
        i = idx[0]
        if i >= len(ref):
            raise SimulationError(
                f"member eps={eps:g} produced more records than the reference")
        t_ref, ru, rd = ref[i]
        if abs(state.t - t_ref) > RECORD_TIME_TOL:
            raise SimulationError(
                f"record times diverged: member eps={eps:g} at t={state.t!r}, "
                f"reference at t={t_ref!r}")
        per_time.append((state.t, error_norms(state.u, state.d, ru, rd, grid)))
        idx[0] += 1

    t0 = time.perf_counter()
    _, records, _ = run(cfg, on_record=compare)
    seconds = time.perf_counter() - t0
    if idx[0] != len(ref):
        raise SimulationError(
            f"member eps={eps:g} produced {idx[0]} records, "
            f"reference has {len(ref)}")
    nm_max = max(r.nm_value for r in records)
    linf_max = max(r.linf_grad_u for r in records)
    return eps, per_time, nm_max, linf_max, seconds


def run_sweep(cfg: SimConfig, eps_ladder=None, jobs: int = 1,
              force: bool = False) -> SweepResult:
    """Run the ladder experiment.  See SweepResult for what comes back.

    The reference (eps = 0) runs first in this process; members run either
    inline (jobs = 1) or in forked workers.  Adaptive stepping is disabled
    so every run takes the identical step sequence; a member whose fixed dt
    violates its stability bound fails loudly and the sweep aborts with the
    completed members flagged.
    """
    ladder = tuple(float(e) for e in (eps_ladder if eps_ladder is not None
                                      else cfg.eps_ladder))
    replace(cfg, eps_ladder=ladder).validate()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

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
        if excluded:
            flags.append(
                f"resolution guard: excluded eps {list(excluded)} below "
                f"eps_min = {eps_min:g}")

    base = replace(cfg, eps=0.0, adaptive_dt=False,
                   forcing_u=None, forcing_d=None)

    global _REF_SNAPSHOTS, _REF_CFG
    t0 = time.perf_counter()
    _REF_SNAPSHOTS, ref_records = _collecting_run(base)
    ref_seconds = time.perf_counter() - t0
    _REF_CFG = base

    wall_times = {0.0: ref_seconds}
    nm_max = {0.0: max(r.nm_value for r in ref_records)}
    linf_max = {0.0: max(r.linf_grad_u for r in ref_records)}
    results = {}
    failed = []
    pool = None
    try:
        if jobs > 1 and len(included) > 1:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(included)),
                                       mp_context=mp.get_context("fork"))
            calls = [(e, pool.submit(_member_job, e).result) for e in included]
        else:
            calls = [(e, partial(_member_job, e)) for e in included]
        # the first failure ends the sweep: no later member starts
        for e, call in calls:
            try:
                _, per_time, nm, lg, secs = call()
            except SimulationError as exc:
                failed.append((e, str(exc)))
                break
            results[e] = per_time
            nm_max[e] = nm
            linf_max[e] = lg
            wall_times[e] = secs
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _REF_SNAPSHOTS = None
        _REF_CFG = None

    if failed:
        for e, msg in failed:
            flags.append(f"aborted: member eps={e:g} failed: {msg}")

    completed = tuple(e for e in included if e in results)
    errors_max = {e: tuple(max(row[1][k] for row in results[e]) for k in range(4))
                  for e in completed}

    # fits over the max-over-time errors (the sup-in-time bound is the
    # quantity with a guaranteed rate)
    def _fit(k1, k2):
        pts = [(e, errors_max[e][k1] + errors_max[e][k2]) for e in completed]
        pts = [(e, r) for e, r in pts if r > 0.0]
        if len(pts) < len(completed):
            flags.append("fit: dropped members with exactly zero error")
        try:
            return fit_rate(pts), ""
        except ValueError:
            return (math.nan, math.nan, math.nan), "insufficient-points"

    (s_l2, i_l2, r2_l2), note1 = _fit(0, 1)
    (s_li, i_li, r2_li), note2 = _fit(2, 3)
    fit_note = note1 or note2

    def _monotone(k1, k2):
        ok = True
        nrec = min((len(results[e]) for e in completed), default=0)
        for irec in range(1, nrec):
            vals = [results[e][irec][1][k1] + results[e][irec][1][k2]
                    for e in completed]   # completed is decreasing in eps
            for a, b in zip(vals, vals[1:]):
                if b > a * (1.0 + 1e-12):
                    t_bad = results[completed[0]][irec][0]
                    flags.append(
                        f"monotonicity violated at t={t_bad:g} "
                        f"(family {k1},{k2}): consider under-resolution")
                    ok = False
        return ok

    mono_l2 = _monotone(0, 1) if len(completed) >= 2 else True
    mono_li = _monotone(2, 3) if len(completed) >= 2 else True

    return SweepResult(
        eps_ladder=ladder,
        included=included,
        excluded=excluded,
        eps_min=eps_min,
        errors_max=errors_max,
        errors_by_time={e: results[e] for e in completed},
        nm_max=nm_max,
        linf_grad_u_max=linf_max,
        wall_times=wall_times,
        fitted_slope_l2=s_l2,
        fitted_intercept_l2=i_l2,
        fitted_r2_l2=r2_l2,
        fitted_slope_linf=s_li,
        fitted_intercept_linf=i_li,
        fitted_r2_linf=r2_li,
        fit_note=fit_note,
        monotone_l2=mono_l2,
        monotone_linf=mono_li,
        flags=flags,
        config_hash=config_hash(cfg).hex(),
        failed=tuple(failed),
    )
