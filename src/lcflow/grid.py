"""Channel geometry and the wall-weighted tangential derivative family.

The domain is a 3D channel, periodic in x and y, with solid walls at z = 0
and z = lz.  Scalars (pressure, director components) live at cell centers
(i+1/2)h; velocity components live on the faces normal to their direction
(standard staggered arrangement):

    u : x-normal faces, shape (nx, ny, nz),   u[i,j,k] at (i*hx,   yc_j, zc_k)
    v : y-normal faces, shape (nx, ny, nz),   v[i,j,k] at (xc_i, j*hy,   zc_k)
    w : z-normal faces, shape (nx, ny, nz+1), w[i,j,k] at (xc_i, yc_j, k*hz)

w[..., 0] and w[..., nz] sit on the walls and carry the impermeability
condition exactly.

The tangential derivative family is: plain d/dx and d/dy, plus the weighted
normal derivative phi(zeta) * d/dz where zeta = min(z, lz - z) is the
distance to the nearest wall and phi(s) = s/(1+s).  phi vanishes linearly at
both walls, so the weighted derivative stays bounded for fields that are
merely bounded in the normal direction near the boundary.

Periodic differences and averages in x and y are slab slices (_shift_op):
no stencil makes a rolled copy of its operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

M_MAX = 4  # largest tangential-derivative order the diagnostics support


@dataclass(frozen=True)
class ChannelGrid:
    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def hz(self) -> float:
        return self.lz / self.nz

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy * self.hz

    @property
    def shape(self):
        return (self.nx, self.ny, self.nz)

    def x_centers(self):
        return (np.arange(self.nx) + 0.5) * self.hx

    def y_centers(self):
        return (np.arange(self.ny) + 0.5) * self.hy

    def z_centers(self):
        return (np.arange(self.nz) + 0.5) * self.hz

    def x_faces(self):
        return np.arange(self.nx) * self.hx

    def y_faces(self):
        return np.arange(self.ny) * self.hy

    def z_faces(self):
        return np.arange(self.nz + 1) * self.hz


def make_grid(config) -> ChannelGrid:
    for name in ("nx", "ny", "nz"):
        n = getattr(config, name)
        if not isinstance(n, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {n!r}")
        if n < 4:
            raise ConfigError(f"{name} too small: {name} must be >= 4, got {n}")
    for name in ("lx", "ly", "lz"):
        v = getattr(config, name)
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{name} must be positive and finite, got {v}")
    return ChannelGrid(config.nx, config.ny, config.nz,
                       float(config.lx), float(config.ly), float(config.lz))


def conormal_weight(z, grid: ChannelGrid):
    """Wall-distance weight phi(min(z, lz-z)), phi(s) = s/(1+s).

    Accepts scalars or arrays of z coordinates in [0, lz]; values outside
    the channel are rejected.  The result lies in [0, 1) and vanishes
    exactly on both walls.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > grid.lz):
        raise ConfigError(f"z out of channel range [0, {grid.lz}]")
    zeta = np.minimum(z, grid.lz - z)
    out = zeta / (1.0 + zeta)
    return float(out) if out.ndim == 0 else out


def _shift_op(op, a, sa, b, sb, axis, out=None):
    """op(np.roll(a, sa, axis), np.roll(b, sb, axis)) with no rolled copy.

    Every periodic stencil of the package goes through here.  Along `axis`
    the output is three slabs, its first index, its interior and its last
    index; each slab is one call of op on slices of a and b at the shifted
    offsets, and only the two one-index slabs wrap.  Every element is op of
    the same two floats as with np.roll, so results are bit-identical.

    op is np.add or np.subtract, sa and sb are -1, 0 or 1, and a and b have
    the same shape.  out may be a or b only where that operand's shift is
    0: a slab written first would otherwise be read later as a shifted
    neighbour.
    """
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, b))
    n = a.shape[axis]
    lead = (slice(None),) * (axis % a.ndim)
    for lo, hi in ((0, 1), (1, n - 1), (n - 1, n)):
        ia, ib = (lo - sa) % n, (lo - sb) % n
        op(a[lead + (slice(ia, ia + hi - lo),)],
           b[lead + (slice(ib, ib + hi - lo),)],
           out=out[lead + (slice(lo, hi),)])
    return out


def _shift_diff(f, s0, s1, axis, h, out=None):
    """(np.roll(f, s0, axis) - np.roll(f, s1, axis)) / h by _shift_op; out
    must not be f unless both shifts are 0."""
    out = _shift_op(np.subtract, f, s0, f, s1, axis, out)
    out /= h
    return out


def _shift_mean(f, s, axis):
    """0.5 * (f + np.roll(f, s, axis)) by _shift_op: the periodic
    two-point average."""
    out = _shift_op(np.add, f, 0, f, s, axis)
    out *= 0.5
    return out


def _ddx(f, h, out=None):
    """Periodic central d/dx on the third-from-last axis.  The difference
    is taken on slab slices of f (_shift_op), so out must not be f."""
    return _shift_diff(f, -1, 1, -3, 2.0 * h, out)


def _ddy(f, h, out=None):
    """Periodic central d/dy on the second-from-last axis.  The difference
    is taken on slab slices of f (_shift_op), so out must not be f."""
    return _shift_diff(f, -1, 1, -2, 2.0 * h, out)


def _dz_centered(f, hz, out=None):
    """Second-order d/dz on cell-centered data along the last axis.

    Central differences inside, one-sided three-point stencils on the first
    and last interior layers (no end layers are assumed).  out must not
    be f.

    When f and out are both C-contiguous the central difference is one
    subtract and one divide over the flattened arrays: the entries whose
    two operands straddle two rows are exactly the first and last layer,
    and the one-sided rows overwrite them.  Other layouts take the same
    difference on last-axis slices.  Each entry is the same arithmetic on
    the same floats either way, so both paths are bit-identical.
    """
    if out is None:
        out = np.empty_like(f)
    h2 = 2.0 * hz
    if f.flags.c_contiguous and out.flags.c_contiguous:
        ff, of = f.reshape(-1), out.reshape(-1)
        np.subtract(ff[2:], ff[:-2], out=of[1:-1])
        of[1:-1] /= h2
    else:
        np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
        out[..., 1:-1] /= h2
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / h2
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / h2
    return out


@lru_cache(maxsize=8)
def _z_weight(grid: ChannelGrid) -> np.ndarray:
    """conormal_weight at the cell centers of grid, built on first use and
    shared read-only by every later call with an equal grid."""
    w = conormal_weight(grid.z_centers(), grid)
    w.flags.writeable = False
    return w


def conormal_derivative(f: np.ndarray, axis: int, grid: ChannelGrid) -> np.ndarray:
    """One member of the tangential family on a cell-centered field.

    axis 0, 1: periodic central d/dx, d/dy.
    axis 2:    phi(zeta) * d/dz with the one-sided closure of _dz_centered.

    The three operators commute pairwise to round-off: the x/y shifts
    commute with each other, and the z stencil plus its z-only weight is
    translation invariant in x and y.  Input of any numeric dtype is taken
    as float.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-3:] != grid.shape:
        raise ConfigError(f"field shape {f.shape} does not end in {grid.shape}")
    if axis == 0:
        return _ddx(f, grid.hx)
    if axis == 1:
        return _ddy(f, grid.hy)
    if axis == 2:
        out = _dz_centered(f, grid.hz)
        out *= _z_weight(grid)
        return out
    raise ConfigError(f"axis must be 0, 1 or 2, got {axis}")
