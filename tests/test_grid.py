"""Grid geometry, the wall-distance weight, and the tangential derivative family."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import lcflow
from lcflow import ChannelGrid, ConfigError, conormal_weight, make_grid
from lcflow.diagnostics import _conormal_sums
from lcflow.grid import M_MAX, _dz_centered, _raw_derivative, _shift_op

from support import grids


class _Geom:
    """Bare attribute bag standing in for a config object."""

    def __init__(self, nx=8, ny=8, nz=8, lx=1.0, ly=1.0, lz=1.0):
        self.nx, self.ny, self.nz = nx, ny, nz
        self.lx, self.ly, self.lz = lx, ly, lz


def _smooth_field(grid, fx=1, fy=1, kz=1.0):
    """A band-limited field that is periodic in x, y and smooth in z."""
    x = grid.x_centers()[:, None, None]
    y = grid.y_centers()[None, :, None]
    z = grid.z_centers()[None, None, :]
    return (np.sin(2 * np.pi * fx * x / grid.lx)
            * np.cos(2 * np.pi * fy * y / grid.ly)
            * np.cos(kz * np.pi * z / grid.lz))


def test_make_grid_spacing():
    grid = make_grid(_Geom(nx=8, lx=1.0))
    assert grid.hx == 0.125
    assert grid.shape == (8, 8, 8)
    assert grid.cell_volume == pytest.approx(0.125 ** 3)


def test_make_grid_rejects_tiny_counts():
    with pytest.raises(ConfigError, match="nz too small"):
        make_grid(_Geom(nz=3))
    with pytest.raises(ConfigError, match="nx too small"):
        make_grid(_Geom(nx=0))
    with pytest.raises(ConfigError, match="must be an integer"):
        make_grid(_Geom(ny=8.0))
    with pytest.raises(ConfigError, match="must be positive"):
        make_grid(_Geom(lz=-1.0))


def test_centers_and_faces():
    grid = ChannelGrid(4, 4, 4, 2.0, 2.0, 1.0)
    assert np.allclose(grid.z_centers(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(grid.z_faces(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.x_faces()[0] == 0.0
    assert grid.x_centers()[0] == 0.25


def test_conormal_weight_values():
    grid = ChannelGrid(4, 4, 4, 1.0, 1.0, 2.0)
    # exact wall zeros and the midpoint value phi(1) = 1/2
    assert conormal_weight(0.0, grid) == 0.0
    assert conormal_weight(grid.lz, grid) == 0.0
    assert conormal_weight(1.0, grid) == 0.5
    # interior values stay inside [0, 1)
    z = np.linspace(0.0, grid.lz, 101)
    w = conormal_weight(z, grid)
    assert w.shape == z.shape
    assert np.all(w >= 0.0) and np.all(w < 1.0)
    # symmetric about the mid-plane
    assert np.allclose(w, w[::-1])


def test_conormal_weight_rejects_outside():
    grid = ChannelGrid(4, 4, 4, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="out of channel range"):
        conormal_weight(-0.1, grid)
    with pytest.raises(ConfigError, match="out of channel range"):
        conormal_weight(np.array([0.5, 1.1]), grid)
    with pytest.raises(ConfigError, match="out of channel range"):
        conormal_weight(float("nan"), grid)
    with pytest.raises(ConfigError, match="out of channel range"):
        conormal_weight(np.array([0.5, np.nan]), grid)


def _member(f, axis, grid):
    """Z_axis f as the walk represents it: the _raw_derivative numerator
    times its scale 1 / (2 h_axis)."""
    h = (grid.hx, grid.hy, grid.hz)[axis]
    return _raw_derivative(f, axis, grid) * (0.5 / h)


def test_conormal_derivative_kills_constants():
    grid = ChannelGrid(8, 8, 8, 1.0, 1.0, 1.0)
    f = np.full(grid.shape, 3.7)
    # x and y shifts cancel bitwise; the one-sided z closure leaves only
    # round-off (-3c + 4c - c is not exactly zero in binary for c = 3.7).
    assert np.max(np.abs(_member(f, 0, grid))) == 0.0
    assert np.max(np.abs(_member(f, 1, grid))) == 0.0
    assert np.max(np.abs(_member(f, 2, grid))) <= 1e-14


def test_conormal_derivative_x_second_order():
    # Z_1 sin(2 pi x / lx) -> (2 pi / lx) cos(2 pi x / lx); central
    # differences converge at second order with the classical k^3 h^2 / 6
    # leading constant.
    errs = []
    for nx in (16, 32):
        grid = ChannelGrid(nx, 4, 4, 1.0, 1.0, 1.0)
        x = grid.x_centers()[:, None, None]
        f = np.sin(2 * np.pi * x / grid.lx) * np.ones(grid.shape)
        want = (2 * np.pi / grid.lx) * np.cos(2 * np.pi * x / grid.lx) * np.ones(grid.shape)
        errs.append(np.max(np.abs(_member(f, 0, grid) - want)))
    k = 2 * np.pi
    assert errs[1] <= 1.1 * k ** 3 * (1.0 / 32) ** 2 / 6.0
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_conormal_derivative_z_linear_exact():
    # f = z is in the kernel error-wise: every stencil (central and the
    # one-sided closures) differentiates a linear function exactly, so
    # Z_3 z equals phi(zeta(z_c)) to round-off at every cell.
    grid = ChannelGrid(4, 4, 32, 1.0, 1.0, 1.0)
    z = grid.z_centers()
    f = np.broadcast_to(z, grid.shape).copy()
    got = _member(f, 2, grid)
    want = np.broadcast_to(conormal_weight(z, grid), grid.shape)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_conormal_derivative_commutes_pairwise():
    grid = ChannelGrid(12, 10, 14, 1.0, 1.3, 0.9)
    f = _smooth_field(grid, fx=2, fy=1, kz=2.0)
    scale = np.max(np.abs(f))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ab = _member(_member(f, a, grid), b, grid)
        ba = _member(_member(f, b, grid), a, grid)
        assert np.max(np.abs(ab - ba)) <= 1e-12 * max(1.0, scale)


def test_conormal_derivative_linearity():
    grid = ChannelGrid(8, 8, 12, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape)
    for axis in range(3):
        lhs = _member(2.5 * f - 0.3 * g, axis, grid)
        rhs = 2.5 * _member(f, axis, grid) - 0.3 * _member(g, axis, grid)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_conormal_derivative_wall_damping():
    # The weight suppresses the normal derivative near the walls: on the
    # first cell layer |Z_3 f| is bounded by phi(hz/2) times the slope scale,
    # no matter how steep f is in z.
    grid = ChannelGrid(4, 4, 64, 1.0, 1.0, 1.0)
    z = grid.z_centers()
    f = np.broadcast_to(np.sin(3.0 * z), grid.shape).copy()
    got = _member(f, 2, grid)
    layer = max(np.max(np.abs(got[..., 0])), np.max(np.abs(got[..., -1])))
    phi_first = conormal_weight(grid.hz / 2, grid)
    assert layer <= 1.05 * phi_first * 3.0
    assert phi_first < 0.01


def test_conormal_derivative_takes_integer_input_as_float():
    # integer input is cast to float once, before the walk's first member,
    # so its sums are the float field's bit for bit
    grid = ChannelGrid(8, 8, 8, 1.0, 1.0, 1.0)
    f = np.arange(512).reshape(grid.shape)
    got = _conormal_sums(f, 2, grid, sup=2)
    assert got == _conormal_sums(f.astype(float), 2, grid, sup=2)


def test_m_max_is_four():
    assert M_MAX == 4


# ----------------------------------------------------- periodic slab kernel

@settings(max_examples=40, deadline=None)
@given(cells=hst.tuples(hst.integers(4, 9), hst.integers(4, 9),
                        hst.integers(4, 9)),
       stack=hst.sampled_from([(), (3,), (3, 3)]),
       axis=hst.sampled_from([-3, -2, 0, 1]),
       sa=hst.sampled_from([-1, 0, 1]), sb=hst.sampled_from([-1, 0, 1]),
       op=hst.sampled_from([np.add, np.subtract, np.multiply]),
       b_is_a=hst.booleans(), a_broadcast=hst.booleans(),
       out=hst.sampled_from(["new", "given", "a", "b"]),
       seed=hst.integers(0, 2**32 - 1))
def test_shift_op_is_op_of_rolled_operands(cells, stack, axis, sa, sb, op,
                                           b_is_a, a_broadcast, out, seed):
    # bit for bit the np.roll expression it replaces, on every slab
    # boundary; out may alias only an operand that is not shifted, and a
    # may be one component broadcast over the stack (read-only)
    rng = np.random.default_rng(seed)
    if a_broadcast:
        a = np.broadcast_to(rng.standard_normal(cells), stack + cells)
        assume(out != "a" and not (out == "b" and b_is_a))
    else:
        a = rng.standard_normal(stack + cells)
    b = a if b_is_a else rng.standard_normal(a.shape)
    if out == "a":
        assume(sa == 0 and (sb == 0 or not b_is_a))
    if out == "b":
        assume(sb == 0 and (sa == 0 or not b_is_a))
    want = op(np.roll(a, sa, axis=axis), np.roll(b, sb, axis=axis))
    target = {"new": None, "given": np.empty_like(a), "a": a, "b": b}[out]
    got = _shift_op(op, a, sa, b, sb, axis, target)
    if target is not None:
        assert got is target
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- centered z kernel

def _dz_slices(f, hz):
    """The slice form of _dz_centered: the central difference on last-axis
    slices, then the one-sided wall rows."""
    out = np.empty(f.shape)
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= 2.0 * hz
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * hz)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * hz)
    return out


@settings(max_examples=40, deadline=None)
@given(grid=grids, stack=hst.sampled_from([(), (3,), (3, 3)]),
       layout=hst.sampled_from(["c", "strided", "moved"]),
       out=hst.sampled_from(["new", "stack", "fortran"]),
       seed=hst.integers(0, 2**32 - 1))
def test_dz_centered_is_the_slice_formula(grid, stack, layout, out, seed):
    # bit for bit the slice form on every layout of f: the flat difference
    # (of a C-order copy when f is not C-contiguous) differs from it only
    # in the entries the wall rows overwrite; an out that cannot be viewed
    # flat is refused
    rng = np.random.default_rng(seed)
    if layout == "c":
        f = rng.standard_normal(stack + grid.shape)
    elif layout == "strided":
        f = rng.standard_normal(stack + (2 * grid.nx,) + grid.shape[1:])
        f = f[..., ::2, :, :]
    else:
        f = np.moveaxis(rng.standard_normal(grid.shape[-1:] + stack
                                            + grid.shape[:-1]), 0, -1)
    assert f.shape == stack + grid.shape
    assert f.flags.c_contiguous == (layout == "c")
    want = _dz_slices(f, grid.hz)
    if out == "stack":
        # out may be one slot of a larger stack
        target = np.full((3,) + f.shape, np.nan)
        got = _dz_centered(f, grid.hz, target[2])
        assert got.base is target
        assert np.all(np.isnan(target[:2]))
    elif out == "fortran":
        target = np.asfortranarray(np.empty(f.shape))
        with pytest.raises(ValueError):
            _dz_centered(f, grid.hz, target)
        return
    else:
        got = _dz_centered(f, grid.hz)
    assert np.array_equal(got, want)


def _numpy_uses(tree, names):
    """Lines of the module that name one of numpy's names, as an attribute
    or an import."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        if (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name in names for alias in node.names)):
            lines.append(node.lineno)
    return lines


def _package_hits(scan):
    """{module file: lines} of every package module in which scan, which
    maps a module's syntax tree to lines, finds any."""
    sources = sorted(Path(lcflow.__file__).parent.glob("*.py"))
    assert sources
    found = {path.name: scan(ast.parse(path.read_text())) for path in sources}
    return {name: lines for name, lines in found.items() if lines}


def test_package_makes_no_rolled_copies():
    # every periodic stencil goes through grid._shift_op; a np.roll in the
    # package would bring back one full copy of its operand per call
    assert _package_hits(lambda tree: _numpy_uses(tree, {"roll"})) == {}
    # the scan itself sees both spellings
    assert _numpy_uses(ast.parse("import numpy as np\nnp.roll(a, 1)"),
                       {"roll"}) == [2]
    assert _numpy_uses(ast.parse("from numpy import roll"), {"roll"}) == [1]


_PADDING = {"concatenate", "pad", "hstack", "vstack", "dstack", "append"}


def test_package_makes_no_padded_copies():
    # every z stencil reads its wall closure from end layers; a padded copy
    # in the package would bring back one full copy of its operand per call
    assert _package_hits(lambda tree: _numpy_uses(tree, _PADDING)) == {}
    # the scan itself sees every spelling
    for name in sorted(_PADDING):
        assert _numpy_uses(ast.parse(f"x = 1\nnp.{name}(a)"), _PADDING) == [2]
        assert _numpy_uses(ast.parse(f"x = 1\nnumpy.{name}(a)"),
                           _PADDING) == [2]
        assert _numpy_uses(ast.parse(f"from numpy import {name}"),
                           _PADDING) == [1]


def _z_slices(tree):
    """Lines of the module that index with a last-axis [..., 2:] or
    [..., :-2] slice (any leading indices) outside a function _z_pair."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_z_pair"
              for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and id(node) not in exempt
            and isinstance(node.slice, ast.Tuple)
            and ast.unparse(node.slice.elts[-1]) in ("2:", ":-2")]


def test_package_takes_z_neighbours_in_one_place():
    # every z-neighbour pass is grid._z_pair's one flat ufunc call; a
    # ufunc on last-axis slices runs through numpy's buffered iterator at
    # about twice the cost
    assert _package_hits(_z_slices) == {}
    # the scan itself sees both spellings, and passes the flat form and
    # the body of _z_pair
    for line in ("f[..., 2:]", "f[..., :-2]", "f[:, :, 2:]", "t[i, ..., :-2]"):
        assert _z_slices(ast.parse("x = 1\n" + line)) == [2], line
    assert _z_slices(ast.parse("ff[2:] - ff[:-2]\nf[..., 1:-1]")) == []
    assert _z_slices(ast.parse("def _z_pair(f):\n    return f[..., 2:]")) == []


# numpy/scipy spellings that may hand work to a BLAS library
_BLAS_ATTRS = {"dot", "vdot", "matmul", "tensordot", "inner", "linalg"}


def _blas_uses(tree):
    """Lines of the module that may call BLAS: the @ operator, a
    dot/vdot/matmul/tensordot/inner or linalg attribute, an import of a
    linalg module or of one of those names, or einsum with optimize=."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_ATTRS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                "linalg" in alias.name.split(".") for alias in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                "linalg" in (node.module or "").split(".")
                or any(alias.name in _BLAS_ATTRS for alias in node.names)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_package_makes_no_blas_calls():
    # the sweep forks its workers, and a BLAS call in each would start one
    # BLAS thread pool per worker on the same cores; every solve is a
    # transform and every contraction an unoptimized einsum instead
    assert _package_hits(_blas_uses) == {}
    # the scan itself sees every spelling, and passes a plain einsum
    for line in ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)",
                 "np.matmul(a, b)", "np.tensordot(a, b)", "np.inner(a, b)",
                 "np.linalg.solve(a, b)", "import numpy.linalg",
                 "import scipy.linalg as sl", "from scipy import linalg",
                 "from numpy.linalg import solve", "from numpy import dot",
                 "np.einsum('ij,jk', a, b, optimize=True)",
                 "einsum('ij,jk', a, b, optimize='greedy')"):
        assert _blas_uses(ast.parse("x = 1\n" + line)) == [2], line
    assert _blas_uses(ast.parse("np.einsum('ij,jk', a, b)")) == []


def _referenced_names(tree):
    """The names a module's code refers to, as a Name or the attribute of
    an Attribute, each outside the def or class that defines that name;
    docstrings and other strings do not count."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in owners:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_public_names_resolve_once():
    # a name left in __all__ after its definition is gone breaks only
    # `from lcflow import *`, which nothing else runs
    names = lcflow.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(lcflow, n)] == []
    star = {}
    exec("from lcflow import *", star)
    assert set(names) <= set(star)
    # and every export has a user: package code or the README's documented
    # API, so that an export only tests use is not kept as public
    package = Path(lcflow.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        used |= _referenced_names(ast.parse(path.read_text()))
    readme = (package.parents[1] / "README.md").read_text()
    assert [n for n in names if n not in used
            and not re.search(rf"\b{re.escape(n)}\b", readme)] == []
    # the scan sees a call, not a def, its own recursion or a docstring
    tree = ast.parse("def f(n):\n    'g'\n    return f(n - 1)\nh.k(1)\n")
    assert _referenced_names(tree) == {"n", "h", "k"}


def _top_level_defs(tree):
    """The names of a module's top-level functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def test_package_defines_nothing_unused():
    # every top-level function and class of the package is referenced by
    # package code or exported: a helper whose last caller is removed goes
    # with it instead of staying behind for the tests alone
    trees = [ast.parse(path.read_text())
             for path in Path(lcflow.__file__).parent.glob("*.py")]
    used = set().union(*map(_referenced_names, trees))
    defined = set().union(*map(_top_level_defs, trees))
    assert sorted(defined - used - set(lcflow.__all__)) == []
    # the scan sees top-level defs only, and a def used only by itself
    # is unused
    tree = ast.parse("class C:\n    def m(self): pass\n"
                     "def f():\n    def g(): pass\n    return f()\n")
    assert _top_level_defs(tree) == {"C", "f"}
    assert _top_level_defs(tree) - _referenced_names(tree) == {"C", "f"}
