"""Correlation functions, the Walnut form of the frame operator, and bounds.

The correlation function for lattice index n,

    G[n](x) = sum_k conj(g)(x - n/b - a k) * gamma(x - a k),

is a-periodic, so it is stored on the fundamental cell [0, a)^d only and
extended periodically on demand.  On the grid it is computed exactly by
folding the product conj(T_{n/b} g) * gamma into the cell, which enumerates
every nonvanishing k.  The product vanishes outside the overlap box of
supp(T_{n/b} g) and supp(gamma), so only that box is formed and folded.
The frame operator then reads

    S f = (1 / <gamma, g>) * sum_n a^d G[n] * f(. - n/b),

an exact finite sum: the time direction needs no approximation because n is
confined to the support interaction of the windows, and term n is added only
on the box supp(f) + n/b, outside which it vanishes.  This is the full-period
operator of operators.apply_frame_direct.  The members belong to the
immutable GaborSystem: operators.correlation_family folds them once per
system, member n is correlation_family(sys)[n], and every form of S on
that system reads them from there.

Every fast operator of the package has this shape, scale * sum_n ext(C[n])
* T_{n/b} over a map of a-periodic cells C[n], and is one private value,
_WalnutForm, which holds the Walnut loop and the residue-block assembly:
S (walnut_apply), its remainder R without member 0 (apply_remainder), the
truncated Janssen operator S_{L,N}, whose l-filtered cells a JanssenLattice
computes once and janssen_apply sums, and the blocks of frame_bounds.
Term n moves samples by n/b only, so the operator is block diagonal over
the residues of the grid index mod 1/(b h), and frame_bounds reads the
spectrum of S off those small banded blocks, one per residue class mod
a/h, since the cells repeat with that period.
The form reads ext(C[n]) and f(. - n/b) through the grid's two index
rules (see the grid module), and the scale a^d / <gamma, g> of S is written
once, in _walnut_form.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .amalgam import wiener_norm
from .errors import _require_memory
from .grid import (
    Grid,
    GridFunction,
    _box_shape,
    _cell_slot,
    _ext_box,
    _fold_box,
    _grid_box,
    _hull,
    _require_grid,
    _shifted,
    _within,
    fold_to_cell,
)
from .operators import GaborSystem, correlation_family, correlation_member_range

_BATCH_ENTRIES = 1 << 22  # matrix entries per batched eigvalsh in frame_bounds (64 MiB)

__all__ = [
    "correlation_member_range",
    "correlation_family",
    "diagonal_correlation",
    "diagonal_deviation",
    "periodic_extension",
    "walnut_apply",
    "frame_bounds",
    "apply_diagonal_defect",
    "apply_remainder",
    "operator_norm_upper_bound",
    "SumTranslates",
    "sum_translates",
    "TailSum",
    "tail_sum",
    "fold_to_cell",
]


def periodic_extension(cell: np.ndarray, grid: Grid) -> np.ndarray:
    """Extend a fundamental-cell array to the whole grid by periodicity.

    Raises ValueError, before any work, unless cell is a non-empty cube with
    one axis per grid axis.
    """
    shape = cell.shape
    if len(shape) != grid.dim or not shape[0] or any(n != shape[0] for n in shape):
        raise ValueError(f"a cell must be a non-empty cube of {grid.dim} axes, got shape {shape}")
    return _ext_box(grid, cell, _grid_box(grid))


def diagonal_correlation(sys: GaborSystem) -> np.ndarray:
    """The normalized diagonal function (a^d / <gamma, g>) * G[0] on the cell.

    Periodizes conj(g) * gamma at step a and scales so the densification
    limit is the constant 1; independent of b.  Member 0 always exists,
    because a nondegenerate pair overlaps.
    """
    form = _walnut_form(sys)
    return form.scale * form.cells[(0,) * sys.grid.dim]


def diagonal_deviation(sys: GaborSystem) -> float:
    """max |diagonal_correlation - 1| over the cell: the multiplier part of ||S - I||."""
    return float(np.abs(diagonal_correlation(sys) - 1.0).max())


@dataclass(frozen=True)
class _WalnutForm:
    # the operator scale * sum_n ext(cells[n]) * T_{n r}: cells maps member
    # index n to an a-periodic cell, ext is its periodic extension, and
    # T_{n r} moves samples by n r grid steps per axis
    grid: Grid
    r: int
    scale: complex
    cells: Mapping[tuple[int, ...], np.ndarray]

    def apply(self, f: GridFunction) -> GridFunction:
        # the members reduced in sorted n order; term n is added only on the
        # box of f moved by n r and met with the grid, where it can be
        # nonzero, and the sum lives on the hull of those boxes
        _require_grid(f, self.grid)
        grid = self.grid
        terms = []
        for n in sorted(self.cells):
            box, moved = _shifted(f, [v * self.r for v in n], _grid_box(grid))
            if moved.size and self.cells[n].any():
                terms.append((self.cells[n], box, moved))
        hull = _hull([box for _, box, _ in terms], grid.dim)
        # 48 B a sample: the sum, its scaled copy and the index of its nonzero
        # samples, or the sum beside one term's arrays
        size = math.prod(_box_shape(hull))
        _require_memory(48 * size, f"the Walnut sum on {size} samples", "shrink the grid")
        out = np.zeros(_box_shape(hull), dtype=complex)
        for cell, box, moved in terms:
            out[_within(box, hull)] += _ext_box(grid, cell, box) * moved
        return GridFunction._own(grid, hull, self.scale * out)

    def off_diagonal(self) -> "_WalnutForm":
        zero = (0,) * self.grid.dim
        return replace(self, cells={n: cell for n, cell in self.cells.items() if n != zero})

    def blocks(self):
        # (apply(f))[i] reads f only at i - n r, so the operator is block
        # diagonal over the residues rho mod r per axis: the block of rho
        # holds scale * ext(cells[n])[rho + r k] at (k, k - n).  ext has the
        # period p of the cells, so two residues equal mod p per axis with
        # blocks of one shape hold the same block, entry for entry.  Yields
        # the block of each such class, read at its least residue, for each
        # shape (at most 2^d) in batches of at most _BATCH_ENTRIES entries as
        # (rows, blocks): the flat grid index of every row of that residue's
        # block, (batch, side), and the blocks, (batch, side, side)
        grid, r, d = self.grid, self.r, self.grid.dim
        members = {n: cell for n, cell in self.cells.items() if cell.any()}
        p = next((cell.shape[0] for cell in self.cells.values()), r)  # no cells: no classes
        for residues, sizes, step in _batch_plan(grid, r, p):
            side = math.prod(sizes)
            rhos = np.array(list(product(*residues)))
            for start in range(0, len(rhos), step):
                rho = rhos[start:start + step]
                # grid index rho + r k of every block row k, one array per axis
                index = [rho[:, ax].reshape((-1,) + (1,) * d)
                         + r * np.arange(size).reshape([-1 if j == ax else 1 for j in range(d)])
                         for ax, size in enumerate(sizes)]
                blocks = np.zeros((len(rho),) + sizes * 2, dtype=complex)
                for n, cell in members.items():
                    rows = [np.arange(max(0, v), min(k, k + v)) for v, k in zip(n, sizes)]
                    if not all(row.size for row in rows):
                        continue
                    cols = [row - v for row, v in zip(rows, n)]
                    # the periodic extension of the cell, read at those rows only
                    at = tuple(_cell_slot(grid, np.take(i, row, axis=ax + 1), cell.shape[0])
                               for ax, (i, row) in enumerate(zip(index, rows)))
                    blocks[(slice(None),) + np.ix_(*rows) + np.ix_(*cols)] = self.scale * cell[at]
                flat = np.ravel_multi_index(index, grid.shape).reshape(len(rho), side)
                yield flat, blocks.reshape(len(rho), side, side)


def _walnut_form(sys: GaborSystem) -> _WalnutForm:
    # S = (a^d / <gamma, g>) sum_n ext(G[n]) T_{n/b} over the system's members
    return _WalnutForm(sys.grid, sys.inv_b_steps, sys.a ** sys.grid.dim / sys.pairing,
                       correlation_family(sys))


def walnut_apply(f: GridFunction, sys: GaborSystem) -> GridFunction:
    """Apply the frame operator in its multiplication-and-shift form.

    Exact (no frequency truncation); members are reduced in sorted index
    order for reproducibility.  The result is computed on the hull of the
    boxes the sum touches.  Raises GridMismatchError when f is not on the
    system's grid, and ResolutionError when the hull would not fit in memory.
    """
    return _walnut_form(sys).apply(f)


def _batch_plan(grid: Grid, r: int, p: int):
    # frame_bounds' batches, one per block shape (at most 2^d): per axis the
    # residues rho mod r with ceil((N - rho) / r) samples each (k + 1 below
    # N % r, k from there on), cut to the first p of each range, one per
    # class mod the cell side p, and that count, the block size; and the
    # blocks per batched eigvalsh, as many as fit in _BATCH_ENTRIES, at least one
    n = grid.samples_per_axis
    k, extra = divmod(n, r)
    classes = [(rho[:p], size) for rho, size in ((range(extra), k + 1),
                                                 (range(extra, min(r, n)), k))
               if rho and size]
    for axes in product(classes, repeat=grid.dim):
        sizes = tuple(size for _, size in axes)
        yield [rho for rho, _ in axes], sizes, max(1, _BATCH_ENTRIES // math.prod(sizes) ** 2)


def _bounds_peak_bytes(grid: Grid, r: int, p: int) -> int:
    # frame_bounds' largest batched eigvalsh over the residue classes mod p:
    # per block shape, a batch of complex blocks and numpy's copy of one
    # block, plus 48 bytes per block row: the two complex temporaries of a
    # member's entries, the float eigenvalues and the grid index of the row
    peak = 0
    for residues, sizes, step in _batch_plan(grid, r, p):
        side = math.prod(sizes)
        batch = min(math.prod(map(len, residues)), step)
        peak = max(peak, 16 * (batch + 1) * side ** 2 + 48 * batch * side)
    return peak


def frame_bounds(sys: GaborSystem) -> tuple[float, float]:
    """The optimal frame bounds (A, B): the extreme eigenvalues of S for gamma = g.

    S is block diagonal over the residues of the grid index mod r = 1/(b h)
    per axis, and each block is Hermitian; residues equal mod a/h with
    blocks of one shape hold the same block, so one block per class is
    read, and batches of blocks of equal shape go through one eigvalsh
    each.  Requires gamma = g (ValueError otherwise).  Raises
    ResolutionError, before allocating anything, when the largest batch is
    estimated to exceed the machine's physical memory; blocks have side
    (2 T b)^d.
    """
    if sys.g != sys.gamma:
        raise ValueError("frame bounds require the self-dual system (gamma = g)")
    grid, r = sys.grid, sys.inv_b_steps
    _require_memory(_bounds_peak_bytes(grid, r, sys.a_steps),
                    f"frame_bounds at {grid.samples_per_axis} samples per axis "
                    f"and 1/(b h) = {r}", "shrink the half extent or b")
    lower, upper = math.inf, -math.inf
    for _, blocks in _walnut_form(sys).blocks():
        eig = np.linalg.eigvalsh(blocks)
        lower, upper = min(lower, float(eig[:, 0].min())), max(upper, float(eig[:, -1].max()))
    return lower, upper


def apply_diagonal_defect(f: GridFunction, sys: GaborSystem) -> GridFunction:
    """The diagonal part of S - I: multiply pointwise by (diagonal correlation - 1).

    Computed on the box of f only, so the samples off it read +0.  Raises
    GridMismatchError when f is not on the system's grid.
    """
    _require_grid(f, sys.grid)
    form = _walnut_form(sys)
    # G[0] extended onto the box of f, then scaled to the diagonal
    # correlation, less 1 and times f in place: one array of the box
    out = _ext_box(sys.grid, form.cells[(0,) * sys.grid.dim], f.box)
    out *= form.scale
    out -= 1.0
    out *= f.data
    return GridFunction._own(f.grid, f.box, out)


def apply_remainder(f: GridFunction, sys: GaborSystem) -> GridFunction:
    """The off-diagonal remainder: the Walnut sum restricted to n != 0.

    S f - f = apply_diagonal_defect(f) + apply_remainder(f) exactly.
    """
    return _walnut_form(sys).off_diagonal().apply(f)


def _walnut_constant(sys: GaborSystem, scale: float = 1.0) -> float:
    # scale * (1 + 1/a)^d (2 + 2b)^d ||g||_W ||gamma||_W; scale leads so that
    # each caller's product keeps its left-to-right order, and its bits
    d = sys.grid.dim
    return (scale * (1.0 + 1.0 / sys.a) ** d * (2.0 + 2.0 * sys.b) ** d
            * wiener_norm(sys.g) * wiener_norm(sys.gamma))


def operator_norm_upper_bound(sys: GaborSystem) -> float:
    """Closed-form bound on ||S|| over every W(L^p, l^q), uniform in (p, q):

        (a^d / |<gamma, g>|) (1 + 1/a)^d (2 + 2b)^d ||g||_W ||gamma||_W.
    """
    return _walnut_constant(sys, sys.a ** sys.grid.dim / abs(sys.pairing))


@dataclass
class SumTranslates:
    """Cell samples of sum_n |g(x - a n)| with the covering bound check."""

    cell: np.ndarray
    bound: float
    within_bound: bool


def sum_translates(g: GridFunction, a: float) -> SumTranslates:
    """Periodization of |g| at step a, checked against (1 + 1/a)^d ||g||_W."""
    grid = g.grid
    p = grid.steps_scalar(a)
    cell = _fold_box(grid, g.box, np.abs(g.data), p)
    bound = (1.0 + 1.0 / a) ** grid.dim * wiener_norm(g)
    peak = float(cell.max())
    return SumTranslates(cell, bound, peak <= bound * (1.0 + 1e-12))


@dataclass
class TailSum:
    """Correlation-sum diagnostics.

    tail     : sum over n != 0 of a^d * sup |G[n]|  (the densification tail)
    sup_sum  : sum over all n of sup |G[n]|
    bound    : (1 + 1/a)^d (2 + 2b)^d ||g||_W ||gamma||_W, bounding sup_sum
    """

    tail: float
    sup_sum: float
    bound: float
    within_bound: bool


def tail_sum(sys: GaborSystem) -> TailSum:
    """The TailSum of the system's correlation members; within_bound allows
    1e-12 relative.  Each sum runs over the members in sorted n order, with
    math.fsum."""
    d = sys.grid.dim
    zero = (0,) * d
    sups = {n: float(np.abs(cell).max()) for n, cell in correlation_family(sys).items()}
    tail = math.fsum(sys.a ** d * s for n, s in sorted(sups.items()) if n != zero)
    sup_total = math.fsum(s for _, s in sorted(sups.items()))
    bound = _walnut_constant(sys)
    return TailSum(tail, sup_total, bound, sup_total <= bound * (1.0 + 1e-12))
