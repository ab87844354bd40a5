"""Uniform grids on [-T, T)^d and elementary time-frequency operations.

Functions live on a uniform grid over the half-open box [-T, T)^d and are
implicitly zero outside it (compact support, no wraparound).  A function
stores only the samples on its support box, so sums, shifts, modulations,
pairings and norms cost what the support holds, not N^d; the full-grid
array is built anew on each read and never kept.  All time shifts are
integer multiples of the spacing h and are performed by exact sample
relocation (a move of the box); modulations are exact at any frequency.

The products behind STFT rows and Walnut members, conj(T_s u) * v, are
folded into a lattice cell by one kernel that reads only the overlap box of
the two supports.  Two index rules serve it, stated here once: a cell of p
samples per axis has slot (i - T/h) mod p for grid index i (``_cell_slot``),
where the fold sums sample i and the periodic extension onto a box
(``_ext_box``, the inverse of ``_fold_box``) reads it back; and f moved by
whole samples and met with a box (``_shifted``) is that meet and a view of
the samples of f that land on it.

Every data table (grid samples here; coefficient lattices, sweep records
and witness tables in the CLI) is written by one CSV writer that owns the
format: ``%d`` for a column of an integer dtype or of Python ints, blank
cells for a column of None, and ``%.17g`` for any other, so every value
reads back exactly.  It formats a chunk of rows per string-formatting call.
"""
from __future__ import annotations

import numpy as np

from .errors import CommensurabilityError, GridMismatchError, _number, _per_axis, _typed, _whole

__all__ = [
    "Grid",
    "GridFunction",
    "translate",
    "modulate",
    "tf_shift",
    "inner_product",
    "l2_norm",
    "support_index_bounds",
    "fold_to_cell",
    "write_csv",
]

# relative tolerance when snapping nearly-integer ratios to integers
_SNAP = 1e-9

# rows formatted per string-formatting call in _write_table
_CSV_CHUNK = 4096

# the slice of an empty box along one axis
_EMPTY = (slice(0, 0),)


def _snap_int(x: float, what: str) -> int:
    n = round(x) if np.isfinite(x) else None
    if n is None or abs(x - n) > _SNAP * max(1.0, abs(x)):
        raise CommensurabilityError(f"{what} = {x!r} is not an integer multiple of the grid spacing")
    return int(n)


class Grid:
    """Uniform sampling of the box [-T, T)^d.

    The spacing h satisfies h <= 1 with 1/h a positive integer, so the unit
    cube [0, 1)^d contains exactly (1/h)^d grid points, and the half extent T
    is an integer multiple of h, so x = 0 and every integer cube boundary lie
    on the grid.  N * h = 2 * T holds exactly: inputs are snapped to the
    nearest commensurate values.

    Parameters
    ----------
    half_extent : float
        Requested T > 0; snapped to the nearest multiple of the spacing.
    spacing : float
        Requested h; 1/h is snapped to an integer.
    dim : int
        Dimension d >= 1.
    """

    __slots__ = ("dim", "samples_per_unit", "half_extent_steps")

    def __init__(self, half_extent: float, spacing: float, dim: int = 1):
        half_extent = _typed("half_extent", _number, half_extent)
        spacing = _typed("spacing", _number, spacing)
        dim = _typed("dim", _whole, dim)
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if spacing <= 0 or spacing > 1:
            raise ValueError(f"spacing must lie in (0, 1], got {spacing!r}")
        m = _snap_int(1.0 / spacing, "1/spacing")
        if not 0 < half_extent < np.inf:
            raise ValueError(f"half_extent must be positive and finite, got {half_extent!r}")
        steps = round(half_extent * m)
        if steps < 1:
            raise ValueError(f"half_extent {half_extent!r} is below one spacing {1.0 / m!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "samples_per_unit", m)
        object.__setattr__(self, "half_extent_steps", steps)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Grid is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return Grid, (self.half_extent, self.spacing, self.dim)

    # -- derived views ----------------------------------------------------
    @property
    def spacing(self) -> float:
        return 1.0 / self.samples_per_unit

    @property
    def half_extent(self) -> float:
        return self.half_extent_steps * self.spacing

    @property
    def samples_per_axis(self) -> int:
        return 2 * self.half_extent_steps

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.samples_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.samples_per_axis ** self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Coordinates along one axis: (i - T/h) * h for i = lo..hi-1 (all N by default)."""
        hi = self.samples_per_axis if hi is None else hi
        return (np.arange(lo, hi) - self.half_extent_steps) * self.spacing

    def steps(self, t) -> np.ndarray:
        """Convert a shift vector to exact integer grid steps.

        Raises CommensurabilityError when any component of ``t`` is not an
        integer multiple of the spacing.
        """
        t = np.array(_per_axis("t", _number, t, self.dim))  # np.float64, as the messages show
        return np.array([_snap_int(ti * self.samples_per_unit, "shift/spacing") for ti in t])

    def steps_scalar(self, t: float) -> int:
        """Grid steps of a lattice length (a or 1/b, key 'a' to the number rule):
        CommensurabilityError unless it is a positive multiple of the spacing."""
        t = _typed("a", _number, t)
        # a length that is not positive, nan included, is no step
        n = _snap_int(t * self.samples_per_unit, "length/spacing") if t > 0 else 0
        if n < 1:
            raise CommensurabilityError(f"length {t!r} is not a positive multiple of the spacing")
        return n

    def lattice_steps(self, a: float, b: float) -> tuple[int, int]:
        """The one lattice rule: grid steps (a/h, (1/b)/h) of a time step a
        and a frequency step b, each read by the number rule under its key.

        CommensurabilityError when a or b is not positive, nan included (the
        message names both), or when a or 1/b is not a positive multiple of
        the spacing; otherwise (steps_scalar(a), steps_scalar(1 / b)).
        """
        a, b = _typed("a", _number, a), _typed("b", _number, b)
        if not (a > 0 and b > 0):
            raise CommensurabilityError(
                f"lattice steps a = {a!r} and b = {b!r} must both be positive")
        return self.steps_scalar(a), self.steps_scalar(1 / b)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.samples_per_unit == other.samples_per_unit
            and self.half_extent_steps == other.half_extent_steps
        )

    def __hash__(self):
        return hash((self.dim, self.samples_per_unit, self.half_extent_steps))

    def __repr__(self):
        return (
            f"Grid(half_extent={self.half_extent}, spacing=1/{self.samples_per_unit}, "
            f"dim={self.dim})"
        )


class GridFunction:
    """Complex samples of a compactly supported function on a :class:`Grid`.

    Stored on its support box: ``box`` is a tuple of slices, one per axis,
    the smallest box that holds every nonzero sample (empty for the zero
    function), and ``data`` is a read-only complex array of the box's shape.
    Every sample off the box is +0.  On the box, every operation keeps the
    bits of its full-grid arithmetic.  The full-grid ``values`` array is
    built on every read and kept nowhere, so an instance holds its samples
    once and never changes after construction.

    Immutable: every operation returns a new instance, so instances are safe
    to share across threads.  The public constructor takes an array of the
    grid's shape and copies its support box once, so a caller may go on
    changing the array it passed in.  Operations here and in the package compute samples on a box only
    and wrap them with :meth:`_own`, which takes them without a copy.
    Copies and pickles carry the box and its samples.  Two instances are
    equal when they hold the same samples on the same grid.
    """

    __slots__ = ("grid", "box", "data")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=complex)
        if arr.shape != grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
        box = _tight(arr, _grid_box(grid))
        self._set(grid, box, arr[box].copy())

    @classmethod
    def _own(cls, grid: Grid, box, data: np.ndarray) -> "GridFunction":
        """Wrap the samples on a box of grid slices, copying only when the box shrinks.

        The box shrinks to the support of data, found by one scan of the box.
        When nothing is cut, data itself is kept and frozen in place, so it
        must be a fresh array or a view of read-only samples; otherwise the
        samples on the support box are copied, so the rest of data is freed.
        """
        tight = _tight(data, box)
        f = object.__new__(cls)
        f._set(grid, tight, data if tight == box else data[_within(tight, box)].copy())
        return f

    def _set(self, grid: Grid, box, data: np.ndarray) -> None:
        data.setflags(write=False)
        for name, value in (("grid", grid), ("box", box), ("data", data)):
            object.__setattr__(self, name, value)

    @property
    def values(self) -> np.ndarray:
        """All samples of the grid, read-only; a new array on every read."""
        full = np.zeros(self.grid.shape, dtype=complex)
        full[self.box] = self.data
        full.setflags(write=False)
        return full

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def __reduce__(self):  # rebuilt on the box
        return _rebuild, (self.grid, self.box, self.data)

    def __eq__(self, other):  # equal samples, a nan equal to a nan
        return (isinstance(other, GridFunction) and self.grid == other.grid
                and self.box == other.box
                and np.array_equal(self.data, other.data, equal_nan=True))

    def __hash__(self):  # the box bounds: slices are unhashable before Python 3.12
        return hash((self.grid, tuple((sl.start, sl.stop) for sl in self.box)))

    def _combine(self, other: "GridFunction", op) -> "GridFunction":
        # a sum or difference is computed on the hull of both boxes, where
        # each operand reads exactly the samples its full grid holds
        _require_grid(other, self.grid)
        box = _hull([self.box, other.box], self.grid.dim)
        return GridFunction._own(self.grid, box, op(_read(self, box), _read(other, box)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self._combine(other, np.add)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction._own(self.grid, self.box, self.data * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction._own(self.grid, self.box, -self.data)

    def __repr__(self):
        return f"GridFunction({self.grid!r}, <{self.data.shape} samples on {self.grid.shape}>)"


def _rebuild(grid: Grid, box, data) -> GridFunction:
    # the inverse of GridFunction.__reduce__: checks the box fits the grid
    box = tuple(slice(int(sl.start), int(sl.stop)) for sl in box)
    data = np.asarray(data, dtype=complex)
    if (len(box) != grid.dim or data.shape != _box_shape(box)
            or not all(0 <= sl.start <= sl.stop <= grid.samples_per_axis for sl in box)):
        raise ValueError(f"a box of shape {data.shape} at {box} does not fit {grid!r}")
    return GridFunction._own(grid, box, data)


def _tight(data: np.ndarray, box) -> tuple[slice, ...]:
    # the smallest box of grid slices that holds every nonzero sample of
    # data, the samples on box; empty when there is none
    nz = data != 0
    if not nz.any():
        return _EMPTY * len(box)
    out = []
    for ax, sl in enumerate(box):
        other = tuple(i for i in range(nz.ndim) if i != ax)
        idx = np.flatnonzero(nz.any(axis=other) if other else nz)
        out.append(slice(int(sl.start + idx[0]), int(sl.start + idx[-1] + 1)))
    return tuple(out)


def _box_shape(box) -> tuple[int, ...]:
    return tuple(sl.stop - sl.start for sl in box)


def _within(box, outer) -> tuple[slice, ...]:
    # the slices of box relative to the start of the box outer
    return tuple(slice(sl.start - o.start, sl.stop - o.start) for sl, o in zip(box, outer))


def _meet(box, other):
    # the intersection of two boxes of slices, or None when it is empty
    out = tuple(slice(max(s.start, o.start), min(s.stop, o.stop)) for s, o in zip(box, other))
    return out if all(sl.start < sl.stop for sl in out) else None


def _moved(box, steps):
    # the box of slices moved by whole samples, one int per axis
    return tuple(slice(sl.start + s, sl.stop + s) for sl, s in zip(box, steps))


def _shifted(f: GridFunction, steps, target):
    """(box, samples): the box of f moved by steps, one int per axis, met with
    the box target, and a read-only view of the samples of f that land on it;
    an empty box and no samples when the two miss."""
    moved = _moved(f.box, steps)
    box = _meet(moved, target)
    if box is None:
        return _EMPTY * len(target), np.zeros((0,) * len(target), dtype=complex)
    return box, f.data[_within(box, moved)]


def _shift_range(u, v, step: int) -> list[range]:
    # per axis, every n for which the box u moved by n * step samples meets the box v
    return [range(-((a.stop - 1 - b.start) // step), (b.stop - 1 - a.start) // step + 1)
            for a, b in zip(u, v)]


def _read(f: GridFunction, box) -> np.ndarray:
    """The samples of f on a box of grid slices.

    A read-only view of f.data when the box lies inside f.box, else a fresh
    array that holds +0 off f.box.
    """
    if all(o.start <= sl.start and sl.stop <= o.stop for sl, o in zip(box, f.box)):
        return f.data[_within(box, f.box)]
    out = np.zeros(_box_shape(box), dtype=complex)
    common = _meet(box, f.box)
    if common is not None:
        out[_within(common, box)] = f.data[_within(common, f.box)]
    return out


def _hull(boxes, dim: int) -> tuple[slice, ...]:
    # the smallest box of slices holding every given nonempty box; empty
    # when none is
    boxes = [box for box in boxes if all(sl.start < sl.stop for sl in box)]
    if not boxes:
        return _EMPTY * dim
    return tuple(slice(min(sl.start for sl in axis), max(sl.stop for sl in axis))
                 for axis in zip(*boxes))


def _grid_box(grid: Grid) -> tuple[slice, ...]:
    # the box of slices that covers the whole grid
    return (slice(0, grid.samples_per_axis),) * grid.dim


def _require_grid(f: GridFunction, grid: Grid) -> None:
    """Raise GridMismatchError unless f is sampled on ``grid``."""
    if f.grid != grid:
        raise GridMismatchError(f"grids differ: {grid!r} vs {f.grid!r}")


def shift_array(values: np.ndarray, steps) -> np.ndarray:
    """Shift samples by integer steps, one int per axis; vacated slots become zero."""
    out = np.zeros_like(values)
    src, dst = [], []
    for s, n in zip(steps, values.shape):
        if abs(s) >= n:
            return out
        if s >= 0:
            src.append(slice(0, n - s))
            dst.append(slice(s, n))
        else:
            src.append(slice(-s, n))
            dst.append(slice(0, n + s))
    out[tuple(dst)] = values[tuple(src)]
    return out


def fold_to_cell(values: np.ndarray, cell_steps: int, origin_steps) -> np.ndarray:
    """Sum samples into their residue slot modulo the cell, per axis.

    Slot j of the result collects every sample whose index i satisfies
    (i - origin_steps) % cell_steps == j, i.e. the lattice sum
    sum_k v(x + a k) evaluated at the cell points x = j h in [0, a).
    origin_steps is one int for every axis or one value per axis, so a box
    cut from a larger grid folds like the grid when its origin is the grid
    origin minus the box's start index.  Axes are folded in order, each as a
    sequential sum over whole cells.
    """
    pad = [(0, -n % cell_steps) for n in values.shape]
    out = np.pad(values, pad) if any(hi for _, hi in pad) else values
    for ax in range(out.ndim):
        cells = out.shape[ax] // cell_steps
        out = out.reshape(out.shape[:ax] + (cells, cell_steps) + out.shape[ax + 1:]).sum(axis=ax)
    return np.roll(out, -np.asarray(origin_steps), axis=tuple(range(out.ndim)))


def _fold_box(grid: Grid, box, data: np.ndarray, cell_steps: int) -> np.ndarray:
    """fold_to_cell on the grid origin of the samples data on a box of grid slices.

    When the cell is wider than one sample this keeps the bits of the
    full-grid fold: each slot is then a sequential sum of the same nonzero
    terms in the same order.
    """
    return fold_to_cell(data, cell_steps, [grid.half_extent_steps - sl.start for sl in box])


def _cell_slot(grid: Grid, index, cell_steps: int):
    """The slot (i - T/h) mod p, p = cell_steps, that the fold sums grid index i into."""
    return (index - grid.half_extent_steps) % cell_steps


def _ext_box(grid: Grid, cell: np.ndarray, box) -> np.ndarray:
    """The periodic extension of a cell on a box of grid slices, the inverse
    of _fold_box: sample i reads the cell at its slot _cell_slot on every axis."""
    out = cell
    for ax, sl in enumerate(box):
        out = np.take(out, _cell_slot(grid, np.arange(sl.start, sl.stop), cell.shape[0]), axis=ax)
    return out


def _fold_overlap(u: GridFunction, v: GridFunction, steps, cell_steps: int) -> np.ndarray:
    """fold_to_cell of conj(T_steps u) * v on the grid origin, all zero if they miss.

    steps shifts u by whole samples, one int per axis.  The box of u moves
    by steps and meets the box of v; only that overlap is multiplied and
    folded, since every sample off it contributes an exact zero, so a cell
    wider than one sample has the bits of the full-grid fold.  The operand
    order is part of those bits: with FMA, numpy's complex product can round
    differently when its operands swap.  A one-sample cell is the pairing
    sum np.vdot makes over the overlap box, as inner_product does, so at
    a = h the diagonal member has the bits of <gamma, g>.
    """
    grid = v.grid
    box, shifted = _shifted(u, steps, v.box)
    if not shifted.size:
        return np.zeros((cell_steps,) * grid.dim, dtype=complex)
    if cell_steps == 1:
        return np.full((1,) * grid.dim, np.vdot(shifted, _read(v, box)), dtype=complex)
    return _fold_box(grid, box, np.conj(shifted) * _read(v, box), cell_steps)


def _cell_spectrum(spectrum: np.ndarray, indices) -> np.ndarray:
    """sum_j cell[j] exp(-2*pi*i <k, j>/p) for k in indices along every axis,
    read off spectrum = np.fft.fftn(cell): p is the cell side, frequencies
    alias with period p, so entry k is the FFT bin k mod p."""
    bins = np.asarray(indices) % spectrum.shape[0]
    return spectrum[np.ix_(*[bins] * spectrum.ndim)]


def translate(f: GridFunction, t) -> GridFunction:
    """T_t f = f(. - t) for t an exact multiple of the spacing per axis.

    Samples shifted past the boundary are dropped: the box of f moves by
    whole samples and meets the grid, and the result shares the samples of
    f that stay on it.
    """
    grid = f.grid
    steps = [int(s) for s in grid.steps(t)]
    return GridFunction._own(grid, *_shifted(f, steps, _grid_box(grid)))


def _phase(grid: Grid, omega, box) -> np.ndarray:
    """exp(2*pi*i <omega, x>) on a box of grid slices, a broadcastable product over axes."""
    omega = _per_axis("omega", _number, omega, grid.dim)
    out = np.ones((), dtype=complex)
    for ax, sl in enumerate(box):
        shape = [1] * grid.dim
        shape[ax] = -1
        x = grid.axis_coords(sl.start, sl.stop)
        out = out * np.exp(2j * np.pi * omega[ax] * x).reshape(shape)
    return out


def modulate(f: GridFunction, omega) -> GridFunction:
    """M_omega f = exp(2*pi*i <omega, x>) f(x); exact at any frequency.

    The phase is formed on the box of f only.
    """
    return GridFunction._own(f.grid, f.box, f.data * _phase(f.grid, omega, f.box))


def tf_shift(g: GridFunction, t, omega) -> GridFunction:
    """Time-frequency shift: g(x - t) * exp(2*pi*i <x, omega>).

    Equals M_omega T_t g; the phase multiplies by x, not x - t.
    """
    return modulate(translate(g, t), omega)


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Riemann-sum pairing h^d * sum f(x) conj(g(x)).

    Summed over the intersection of the two boxes only, so its rounding can
    differ from a full-grid sum in the last bits.  Raises
    GridMismatchError when the grids differ.
    """
    _require_grid(g, f.grid)
    box = _meet(f.box, g.box)
    if box is None:
        return 0j
    return complex(f.grid.cell_measure * np.vdot(_read(g, box), _read(f, box)))


def l2_norm(f: GridFunction) -> float:
    """sqrt(h^d sum |f(x)|^2), summed over the box of f only."""
    return float(np.sqrt(f.grid.cell_measure) * np.linalg.norm(f.data))


def support_index_bounds(f: GridFunction) -> tuple[tuple[int, int], ...] | None:
    """Per-axis (lo, hi) index bounds of the nonzero samples, or None if f == 0.

    The first and last grid indices of f.box, the support box.
    """
    if not f.data.size:
        return None
    return tuple((sl.start, sl.stop - 1) for sl in f.box)


def _code(column) -> str:
    # a column's printf code by the rule in the module docstring; "" for a
    # column of None, which passes no values, so its cells are blank
    kind = np.asarray(column).dtype.kind
    if kind == "O" and all(v is None for v in column):
        return ""
    return "%d" if kind in "iu" else "%.17g"


def _write_table(fp, names, columns) -> None:
    """Write equal-length 1-D columns as CSV under a header of ``names``, each
    in its format (see the module docstring).  Each chunk of _CSV_CHUNK rows
    is formatted by a single ``%`` call on Python scalars, which gives the
    same text as ``str(int)`` and ``f"{x:.17g}"`` row by row."""
    fp.write(",".join(names) + "\n")
    codes = [_code(col) for col in columns]
    row = ",".join(codes) + "\n"
    n = len(columns[0])
    columns = [col for col, code in zip(columns, codes) if code]
    for start in range(0, n, _CSV_CHUNK):
        block = np.empty((min(_CSV_CHUNK, n - start), len(columns)), dtype=object)
        for j, col in enumerate(columns):
            block[:, j] = col[start:start + len(block)]
        fp.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_array(fp, names, axes, values: np.ndarray) -> None:
    """Write a complex array as CSV under a header of ``names``: one row per
    entry in C order, the entry's label on each axis (``axes`` holds one
    label sequence per axis), then its real and imaginary parts."""
    pos = np.indices(values.shape).reshape(values.ndim, -1)
    flat = values.reshape(-1)
    _write_table(fp, names, [np.asarray(ax)[i] for ax, i in zip(axes, pos)] + [flat.real, flat.imag])


def write_csv(f: GridFunction, fp) -> None:
    """Write samples as CSV with columns x_1..x_d, re, im: one row per grid
    point in C order (the last axis varies fastest)."""
    d = f.grid.dim
    _write_array(fp, [f"x_{j + 1}" for j in range(d)] + ["re", "im"],
                 [f.grid.axis_coords()] * d, f.values)
