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
merely bounded in the normal direction near the boundary.  _raw_derivative
is the one definition of a member, as its unscaled stencil numerator.

Periodic differences and averages in x and y are slab slices (_shift_op),
so no stencil makes a rolled copy of its operand; every z-neighbour pass is
one flat call, _z_pair, and the centered z stencil is one function,
_dz_numerator, which _dz_centered divides by 2 hz.
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
    the channel, nan included, are rejected.  The result lies in [0, 1)
    and vanishes exactly on both walls.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0.0) & (z <= grid.lz)):   # negated: nan fails it
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

    op is np.add, np.subtract or np.multiply, sa and sb are -1, 0 or 1, and
    a and b have the same shape; either may be a broadcast view of that
    shape (np.broadcast_to).  out may be a or b only where that operand's
    shift is 0: a slab written first would otherwise be read later as a
    shifted neighbour.
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


def _shift_mean(f, s, axis, scale=0.5):
    """scale * (f + np.roll(f, s, axis)) by _shift_op, scaled in place: the
    periodic two-point average, or with scale = 0.25/h that average over
    2h in the same two passes."""
    out = _shift_op(np.add, f, 0, f, s, axis)
    out *= scale
    return out


def _ddx(f, h, out=None):
    """Periodic central d/dx on the third-from-last axis.  The difference
    is taken on slab slices of f (_shift_op), so out must not be f."""
    return _shift_diff(f, -1, 1, -3, 2.0 * h, out)


def _ddy(f, h, out=None):
    """Periodic central d/dy on the second-from-last axis.  The difference
    is taken on slab slices of f (_shift_op), so out must not be f."""
    return _shift_diff(f, -1, 1, -2, 2.0 * h, out)


def _z_pair(op, f, ends, out=None):
    """op(f[..., k+1], f[..., k-1]) on the last axis as one call of op on
    the flattened arrays.  The entries that straddle two rows are the first
    and last layers, which are then written from the end layers ends =
    (below, above), or left to the caller when ends is None.  f may have
    any layout; out must be C-contiguous and must not be f."""
    out = np.empty(f.shape) if out is None else out
    ff = np.reshape(f, -1)
    op(ff[2:], ff[:-2], out=np.reshape(out, -1, copy=False)[1:-1])
    if ends is not None:
        op(f[..., 1], ends[0], out=out[..., 0])
        op(ends[1], f[..., -2], out=out[..., -1])
    return out


def _dz_numerator(f, out=None):
    """2 hz times the d/dz of _dz_centered, before its one divide: the
    _z_pair difference inside, one-sided three-point stencils on the first
    and last layers (no end layers assumed); out C-contiguous, not f."""
    out = _z_pair(np.subtract, f, None, out)
    out[..., 0] = -3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]
    out[..., -1] = 3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]
    return out


def _dz_centered(f, hz, out=None):
    """Second-order d/dz on cell-centered data along the last axis: the
    _dz_numerator stencil over 2 hz; out C-contiguous, not f."""
    out = _dz_numerator(f, out)
    out /= 2.0 * hz
    return out


@lru_cache(maxsize=8)
def _z_weight(grid: ChannelGrid) -> np.ndarray:
    """conormal_weight at the cell centers of grid, built on first use and
    shared read-only by every later call with an equal grid."""
    w = conormal_weight(grid.z_centers(), grid)
    w.flags.writeable = False
    return w


def _raw_derivative(g, axis, grid, out=None):
    """The unscaled numerator of the family member Z_axis on a cell-centered
    field: the periodic central difference g[i+1] - g[i-1] in x or y, or
    the _dz_numerator stencil times the z weight; Z_axis g is this over
    2 h_axis.  out must not be g."""
    if axis < 2:
        return _shift_op(np.subtract, g, -1, g, 1, axis - 3, out)
    out = _dz_numerator(g, out)
    out *= _z_weight(grid)
    return out
