"""STFT coefficients, the Walnut members, and the direct frame operator.

The direct operator is the definitional double lattice sum

    S f = (a b)^d / <gamma, g>  *  sum_{n,m} <f, tau(na, mb) g> tau(na, mb) gamma

and serves as the brute-force oracle for the Walnut and Janssen forms.  On
the grid the m-dependence of each term is periodic with period r = 1/(b h)
per axis (an integer by the commensurability contract), because frequencies
m b and m b + 1/h are indistinguishable on samples.  One full period of
frequency indices therefore covers the grid's Nyquist band exactly, and
every system uses it; the time indices are every n whose shift of g meets
the grid.  So a GaborSystem names one operator, whichever form evaluates it,
and its time_indices and freq_indices, two ranges that allocate nothing of
size r, index the array gabor_coefficients returns.

The same periodicity turns every frequency sum into one exact kernel: fold
the product conj(T_{na} g) * f into a cell of side r and take its FFT, so
coefficient m is bin m mod r.  gabor_coefficients uses that kernel, the
overlap-box fold the Walnut members use too; the direct operator
deliberately does not, so it stays an independent oracle.
A GaborSystem is immutable and keeps its Walnut members G[n], which
correlation_family folds on first use; a member is correlation_family(sys)[n].
Every other evaluation of S lives in walnut and janssen, which read them
here: S, its remainder R, the truncated Janssen operator S_{L,N} and the
exact frame-bound blocks are one Walnut-form value, walnut._WalnutForm.
Sizes the caller picks go through errors._require_memory before allocating.
"""
from __future__ import annotations

import math
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import DegenerateWindowPairError, _require_memory
from .grid import (
    Grid,
    GridFunction,
    _cell_spectrum,
    _fold_overlap,
    _grid_box,
    _require_grid,
    _shift_range,
    inner_product,
    shift_array,
    tf_shift,
)

__all__ = [
    "GaborSystem",
    "stft",
    "gabor_coefficients",
    "apply_frame_direct",
]

DEGENERACY_FLOOR = 1e-12


class GaborSystem:
    """A window pair with lattice parameters: one frame operator S.

    Requirements checked at construction: g and gamma share the grid, the
    pairing <gamma, g> is nondegenerate, and (a, b) passes the grid's one
    lattice rule, Grid.lattice_steps.  time_indices is the range of n
    covering every lattice shift of g whose support meets the domain;
    freq_indices is the range of one full period r = 1/(b h) of m.
    Immutable, so the members that correlation_family keeps on it always
    belong to these windows and steps; two systems of equal windows and
    steps are equal.

    Parameters
    ----------
    g, gamma : GridFunction
        Analysis and synthesis windows.
    a, b : float
        Time and frequency lattice steps, a > 0, b > 0, kept as the grid
        multiples that Grid.lattice_steps snaps a and 1/b to; a bad pair is
        its CommensurabilityError.
    """

    # _members keeps correlation_family's result; unset until first asked for
    __slots__ = ("g", "gamma", "a", "b", "a_steps", "inv_b_steps", "pairing",
                 "time_indices", "freq_indices", "_members")

    def __init__(self, g: GridFunction, gamma: GridFunction, a: float, b: float):
        if g.grid != gamma.grid:
            raise DegenerateWindowPairError("windows must share a grid")
        grid = g.grid
        a_steps, inv_b_steps = grid.lattice_steps(a, b)  # a / h and r = (1/b) / h
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "a_steps", a_steps)
        object.__setattr__(self, "inv_b_steps", inv_b_steps)
        # the steps the system shifts by, so every form reads one lattice
        object.__setattr__(self, "a", a_steps / grid.samples_per_unit)
        object.__setattr__(self, "b", grid.samples_per_unit / inv_b_steps)
        object.__setattr__(self, "pairing", inner_product(gamma, g))
        if abs(self.pairing) <= DEGENERACY_FLOOR:
            raise DegenerateWindowPairError(
                f"|<gamma, g>| = {abs(self.pairing):.3e} <= {DEGENERACY_FLOOR}")
        whole = _grid_box(grid)  # every n moving g onto the grid
        radius = max(max(-ns[0], ns[-1]) for ns in _shift_range(g.box, whole, self.a_steps))
        r = self.inv_b_steps
        object.__setattr__(self, "time_indices", range(-radius, radius + 1))
        object.__setattr__(self, "freq_indices", range(-(r // 2), r - r // 2))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("GaborSystem is immutable")

    def __reduce__(self):  # rebuilt and revalidated; the members are not shipped
        return GaborSystem, (self.g, self.gamma, self.a, self.b)

    def __eq__(self, other):  # equal inputs to the rebuild name the same operator
        return isinstance(other, GaborSystem) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    @property
    def grid(self) -> Grid:
        return self.g.grid

    def __repr__(self):
        return (f"GaborSystem(a={self.a}, b={self.b}, time_radius={self.time_indices[-1]}, "
                f"freq_indices={len(self.freq_indices)} per axis)")


def correlation_member_range(sys: GaborSystem) -> list[range]:
    """Per-axis ranges of n with T_{n/b} g and gamma overlapping on the grid:
    exactly the n that move the support box of g onto that of gamma, so every
    nonzero member is enumerated and nothing else."""
    return _shift_range(sys.g.box, sys.gamma.box, sys.inv_b_steps)


def _fold_peak_bytes(u: GridFunction, v: GridFunction, cell_steps: int) -> int:
    # one _fold_overlap of u against v at any shift: the complex product on
    # the overlap box, no wider per axis than either support box, beside its
    # conjugate or its copy padded to whole cells
    widths = [min(a.stop - a.start, b.stop - b.start) for a, b in zip(u.box, v.box)]
    box = math.prod(widths)
    return 16 * (box + max(box, math.prod(-(-w // cell_steps) * cell_steps for w in widths)))


def correlation_family(sys: GaborSystem) -> MappingProxyType:
    """Every correlation member G[n] of the system, keyed by n in sorted order.

    The band matrix of S.  Computed on the first call and kept on the
    system, so each member is folded once however many forms of S read it;
    the mapping and its cells are read-only.  Member n folds conj(T_{n/b} g)
    * gamma on the overlap box of their supports into the cell [0, a)^d.
    Raises ResolutionError, before folding, when the cells would not fit.
    """
    if getattr(sys, "_members", None) is None:
        ranges, p = correlation_member_range(sys), sys.a_steps
        _require_memory(16 * math.prod(map(len, ranges)) * p ** sys.grid.dim
                        + _fold_peak_bytes(sys.g, sys.gamma, p),
                        f"folding the Walnut members at a/h = {p}", "shrink a")
        members = {}
        for n in product(*ranges):
            cell = _fold_overlap(sys.g, sys.gamma, [v * sys.inv_b_steps for v in n], p)
            cell.setflags(write=False)
            members[n] = cell
        object.__setattr__(sys, "_members", MappingProxyType(members))
    return sys._members


def stft(f: GridFunction, g: GridFunction, t, omega) -> complex:
    """Windowed Fourier transform sample <f, tau(t, omega) g>."""
    return inner_product(f, tf_shift(g, t, omega))


def _apply_axes(mat: np.ndarray, ten: np.ndarray) -> np.ndarray:
    # multiply along every axis of ten by mat (mode product), preserving order
    for ax in range(ten.ndim):
        ten = np.moveaxis(np.tensordot(mat, ten, axes=(1, ax)), 0, ax)
    return ten


def gabor_coefficients(f: GridFunction, sys: GaborSystem) -> np.ndarray:
    """All coefficients <f, tau(na, mb) g> over the system's index ranges.

    The d time axes, indexed by sys.time_indices, come before the d
    frequency axes, indexed by sys.freq_indices.  Row n is the FFT of
    conj(T_{na} g) * f folded into a cell of side r, formed on the overlap
    box of the two supports only.  Raises GridMismatchError when f is not
    on the system's grid, and ResolutionError when the array would not fit.
    """
    _require_grid(f, sys.grid)
    grid = sys.grid
    d, r = grid.dim, sys.inv_b_steps
    n_count = len(sys.time_indices)
    # the array, then per row the fold, or the cell, its FFT and two r^d copies
    _require_memory(16 * (n_count * r) ** d + max(_fold_peak_bytes(sys.g, f, r), 64 * r ** d),
                    f"the STFT at {n_count} shifts and frequency period {r} per axis",
                    "shrink the grid or b")
    entries = np.zeros((n_count,) * d + (r,) * d, dtype=complex)
    for pos, n in zip(np.ndindex((n_count,) * d), product(sys.time_indices, repeat=d)):
        cell = _fold_overlap(sys.g, f, [v * sys.a_steps for v in n], r)
        entries[pos] = grid.cell_measure * _cell_spectrum(np.fft.fftn(cell), sys.freq_indices)
    return entries


def _direct_peak_bytes(grid: Grid, r: int) -> int:
    # apply_frame_direct holds three r x N complex phase matrices (N samples
    # per axis), the full-grid values of f, g and gamma, and, per shift, about
    # six full-grid complex arrays plus the input and output of the widest
    # mode product, r^k N^(d-k) entries
    n, d = grid.samples_per_axis, grid.dim
    widest = max(r ** k * n ** (d - k) for k in range(d + 1))
    return np.dtype(complex).itemsize * (3 * r * n + 9 * n ** d + 2 * widest)


def apply_frame_direct(f: GridFunction, sys: GaborSystem) -> GridFunction:
    """The definitional lattice sum; the correctness oracle.

    Cost is O(|lattice| * N^d).  Over one full frequency period the result
    reorganizes exactly into the Walnut form.  Raises
    GridMismatchError when f is not on the system's grid, and
    ResolutionError, before allocating anything, when its estimated peak
    memory exceeds the machine's physical memory.
    """
    _require_grid(f, sys.grid)
    grid = sys.grid
    d = grid.dim
    _require_memory(_direct_peak_bytes(grid, sys.inv_b_steps),
                    f"the direct form at {grid.samples_per_axis} samples per axis and "
                    f"frequency period {sys.inv_b_steps}", "use the walnut or janssen form")
    # phases[j, i] = exp(2*pi*i * m_j * b * x_i), one axis
    phases = np.exp(2j * np.pi * sys.b * np.outer(sys.freq_indices, grid.axis_coords()))
    p_conj = np.conj(phases)
    p_t = phases.T.copy()
    # each .values read builds a full-grid array, so read each one once
    fv, gv, gamv = f.values, sys.g.values, sys.gamma.values
    out = np.zeros(grid.shape, dtype=complex)
    for n in product(sys.time_indices, repeat=d):
        steps = [v * sys.a_steps for v in n]
        gs = shift_array(gv, steps)
        if not gs.any():
            continue
        gams = shift_array(gamv, steps)
        coeff = grid.cell_measure * _apply_axes(p_conj, fv * np.conj(gs))
        out += gams * _apply_axes(p_t, coeff)
    out *= (sys.a * sys.b) ** d / sys.pairing
    return GridFunction(grid, out)
