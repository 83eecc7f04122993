"""State containers, initial data, and the div/grad pair.

The divergence and gradient here are the adjoint pair that the projection
relies on: gradient takes cell-centered scalars to faces (zero flux through
the walls), divergence takes face fields back to centers, and their
composition is exactly the 7-point Laplacian the Poisson solver inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import InitialConditionSpec
from .errors import ConfigError, SimulationError
from .grid import ChannelGrid, _shift_diff, _shift_op


@dataclass
class FaceField:
    """Staggered vector field; see grid module for the face layout."""
    x: np.ndarray  # (nx, ny, nz)
    y: np.ndarray  # (nx, ny, nz)
    z: np.ndarray  # (nx, ny, nz+1); [...,0] and [...,nz] on the walls

    def copy(self) -> "FaceField":
        return FaceField(self.x.copy(), self.y.copy(), self.z.copy())

    def components(self):
        return (self.x, self.y, self.z)


def zero_face_field(grid: ChannelGrid) -> FaceField:
    return FaceField(
        np.zeros(grid.shape), np.zeros(grid.shape),
        np.zeros((grid.nx, grid.ny, grid.nz + 1)),
    )


@dataclass
class State:
    u: FaceField
    p: np.ndarray          # (nx, ny, nz) cell centers, zero mean
    d: np.ndarray          # (3, nx, ny, nz) unit director at centers
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.u.copy(), self.p.copy(), self.d.copy(), self.t)


def renormalize_director(d: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Project onto unit length pointwise; idempotent to round-off.

    Cells where |d| has collapsed below `floor` indicate a defect the scheme
    cannot continue through; refuse loudly and name the first offender.
    """
    mag = np.sqrt(np.sum(d * d, axis=0))
    if np.any(mag <= floor):
        idx = tuple(int(i) for i in np.unravel_index(np.argmin(mag), mag.shape))
        raise SimulationError(
            f"degenerate director: magnitude {mag[idx]:.3e} <= floor "
            f"{floor:.1e} at cell {idx}")
    return d / mag


def unit_deviation(d: np.ndarray) -> float:
    """max over cells of | |d| - 1 |."""
    return float(np.max(np.abs(np.sqrt(np.sum(d * d, axis=0)) - 1.0)))


def discrete_divergence(u: FaceField, grid: ChannelGrid) -> np.ndarray:
    """Face-flux divergence at cell centers (periodic x/y wrap)."""
    out = _shift_diff(u.x, -1, 0, 0, grid.hx)
    out += _shift_diff(u.y, -1, 0, 1, grid.hy)
    out += (u.z[:, :, 1:] - u.z[:, :, :-1]) / grid.hz
    return out


def discrete_gradient(p: np.ndarray, grid: ChannelGrid) -> FaceField:
    """Center-to-face gradient, zero flux through the walls.

    Adjoint (up to sign) of discrete_divergence; div(grad(p)) is the 7-point
    Laplacian with reflective closure in z.
    """
    gx = _shift_diff(p, 0, 1, 0, grid.hx)
    gy = _shift_diff(p, 0, 1, 1, grid.hy)
    gz = np.zeros((grid.nx, grid.ny, grid.nz + 1))
    gz[:, :, 1:-1] = (p[:, :, 1:] - p[:, :, :-1]) / grid.hz
    return FaceField(gx, gy, gz)


def _face_mean(f: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Component `axis` of face_to_center: the mean of f over the two faces
    of each cell along axis (periodic in x and y), into out."""
    if axis < 2:
        _shift_op(np.add, f, 0, f, -1, axis, out)
    else:
        np.add(f[:, :, :-1], f[:, :, 1:], out=out)
    out *= 0.5
    return out


def face_to_center(u: FaceField) -> np.ndarray:
    """Second-order average of a face field to cell centers, (3, nx, ny, nz)."""
    out = np.empty((3,) + u.x.shape)
    for a, f in enumerate(u.components()):
        _face_mean(f, a, out[a])
    return out


def max_face_speed(u: FaceField) -> float:
    """Largest face-value magnitude over all components, for CFL control."""
    return max(float(np.max(np.abs(u.x))), float(np.max(np.abs(u.y))),
               float(np.max(np.abs(u.z))))


def _cos_z_modes(rng, z, lz, kmax):
    """Random smooth z-profile from the first kmax wall-compatible cosine
    modes (d/dz vanishes at both walls for every mode)."""
    out = np.zeros_like(z)
    for k in range(1, kmax + 1):
        out += rng.standard_normal() * np.cos(k * np.pi * z / lz)
    return out


def init_state(grid: ChannelGrid, ic: InitialConditionSpec) -> State:
    """Build an initial state; u is impermeable at the walls exactly and d
    is unit length to round-off.

    Families:
      rest              u = 0, d = ez.
      shear+twist       x-shear with a sin(pi z/lz) profile (slip mismatch
                        at the walls is intentional), twisted director in
                        the xz-plane, twist angle b*cos(pi z/lz).
      slipflow          x-shear whose profile satisfies the slip condition
                        for the configured friction: d(u)/dz = +b11*u at the
                        bottom wall and -b11*u at the top (sin(pi z/lz) +
                        pi/(b11 lz), degenerating to cos(pi z/lz) when
                        b11 = 0); the twist angle is modulated in x so the
                        director is transported nontrivially.
      random-solenoidal band-limited random velocity (discretely
                        divergence-free up to the curl construction;
                        integrator.run projects it before the first
                        record) and a smoothly perturbed director.
    """
    zc = grid.z_centers()
    yc = grid.y_centers()
    a, b = ic.amplitude, ic.twist

    u = zero_face_field(grid)
    d = np.zeros((3,) + grid.shape)

    if ic.name == "rest":
        d[2] = 1.0

    elif ic.name in ("shear+twist", "slipflow"):
        if ic.name == "shear+twist":
            prof = np.sin(np.pi * zc / grid.lz)
        elif ic.slip_b11 > 0.0:
            prof = (np.sin(np.pi * zc / grid.lz)
                    + np.pi / (ic.slip_b11 * grid.lz))
        else:
            prof = np.cos(np.pi * zc / grid.lz)
        # u_x on x-faces: value depends on (y,z) only, hence discretely
        # divergence-free as it stands.
        u.x[:] = a * prof[None, None, :] * np.cos(2.0 * np.pi * yc / grid.ly)[None, :, None]
        beta = b * np.cos(np.pi * zc / grid.lz)[None, None, :]
        if ic.name == "slipflow":
            xc = grid.x_centers()
            beta = beta * np.cos(2.0 * np.pi * xc / grid.lx)[:, None, None]
        d[0] = np.sin(beta) * np.ones(grid.shape)
        d[2] = np.cos(beta) * np.ones(grid.shape)

    elif ic.name == "random-solenoidal":
        rng = np.random.default_rng(ic.seed)
        # Discrete vector potential on cell edges; taking its staggered curl
        # makes the velocity divergence-free to round-off by construction.
        # The tangential potential components carry a z-profile that is zero
        # on both walls, so the wall w-faces vanish exactly.
        xf, yf = grid.x_faces(), grid.y_faces()
        xc = grid.x_centers()
        zf = grid.z_faces()
        s_f = np.sin(np.pi * zf / grid.lz) ** 2          # 0 on both walls
        s_f[0] = s_f[-1] = 0.0   # exactly, not just sin(pi)**2 ~ 1e-32
        s_c = np.sin(np.pi * zc / grid.lz) ** 2

        def band(x, y, kmax=2):
            out = np.zeros((len(x), len(y)))
            for kx in range(kmax + 1):
                for ky in range(kmax + 1):
                    if kx == 0 and ky == 0:
                        continue
                    cx = np.cos(2 * np.pi * kx * x / grid.lx + rng.uniform(0, 2 * np.pi))
                    cy = np.cos(2 * np.pi * ky * y / grid.ly + rng.uniform(0, 2 * np.pi))
                    out += rng.standard_normal() * np.outer(cx, cy)
            return out

        a1 = band(xc, yf)[:, :, None] * s_f[None, None, :]   # x-edges (xc, yf, zf)
        a2 = band(xf, yc)[:, :, None] * s_f[None, None, :]   # y-edges (xf, yc, zf)
        a3 = band(xf, yf)[:, :, None] * s_c[None, None, :]   # z-edges (xf, yf, zc)
        u.x[:] = a * (_shift_diff(a3, -1, 0, 1, grid.hy)
                      - (a2[:, :, 1:] - a2[:, :, :-1]) / grid.hz)
        u.y[:] = a * ((a1[:, :, 1:] - a1[:, :, :-1]) / grid.hz
                      - _shift_diff(a3, -1, 0, 0, grid.hx))
        u.z[:] = a * (_shift_diff(a2, -1, 0, 0, grid.hx)
                      - _shift_diff(a1, -1, 0, 1, grid.hy))

        pert = np.zeros((3,) + grid.shape)
        for c in range(3):
            pert[c] = band(xc, yc)[:, :, None] \
                * _cos_z_modes(rng, zc, grid.lz, 3)[None, None, :]
        # keep the perturbed director safely away from the zero section
        mag = np.max(np.sqrt(np.sum(pert * pert, axis=0)))
        if mag > 0:
            pert *= 0.4 / mag
        d = np.zeros((3,) + grid.shape)
        d[2] = 1.0
        d += pert

    else:
        raise ConfigError(f"unknown initial condition '{ic.name}'")

    d = renormalize_director(d)
    return State(u=u, p=np.zeros(grid.shape), d=d, t=0.0)
