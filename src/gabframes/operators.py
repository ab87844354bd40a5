"""STFT, Gabor coefficient lattices, and the direct frame operator.

The direct operator is the definitional double lattice sum

    S f = (a b)^d / <gamma, g>  *  sum_{n,m} <f, tau(na, mb) g> tau(na, mb) gamma

and serves as the brute-force oracle for the Walnut and Janssen forms.  On
the grid the m-dependence of each term is periodic with period r = 1/(b h)
per axis (an integer by the commensurability contract), because frequencies
m b and m b + 1/h are indistinguishable on samples.  One full period of
frequency indices therefore covers the grid's Nyquist band exactly, and
every system uses it; the time indices are every n whose shift of g meets
the grid.  So a GaborSystem names one operator, whichever form evaluates it.

The same periodicity turns every frequency sum into one exact kernel: fold
the product conj(T_{na} g) * f into a cell of side r and take its FFT, so
coefficient m is bin m mod r.  gabor_coefficients uses that kernel, the
overlap-box fold the Walnut members use too; the direct operator
deliberately does not, so it stays an independent oracle.
Every other evaluation of S (the Walnut and Janssen forms, the STFT
inversion sum reconstruct_integral and the exact frame bounds) lives in
walnut and janssen, which build on this module.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegenerateWindowPairError, ResolutionError
from .grid import (
    Grid,
    GridFunction,
    _cell_spectrum,
    _fold_overlap,
    _require_grid,
    inner_product,
    shift_array,
    support_index_bounds,
    tf_shift,
)

__all__ = [
    "GaborSystem",
    "CoefficientLattice",
    "stft",
    "gabor_coefficients",
    "apply_frame_direct",
]

DEGENERACY_FLOOR = 1e-12


class GaborSystem:
    """A window pair with lattice parameters: one frame operator S.

    Requirements checked at construction: g and gamma share the grid, the
    pairing <gamma, g> is nondegenerate, and a and 1/b are integer multiples
    of the spacing.  time_indices are the symmetric range of n covering
    every lattice shift of g whose support meets the domain; freq_indices
    are one full period r = 1/(b h) of m.

    Parameters
    ----------
    g, gamma : GridFunction
        Analysis and synthesis windows.
    a, b : float
        Time and frequency lattice steps, a > 0, b > 0.
    """

    def __init__(self, g: GridFunction, gamma: GridFunction, a: float, b: float):
        if g.grid != gamma.grid:
            raise DegenerateWindowPairError("windows must share a grid")
        if a <= 0 or b <= 0:
            raise ValueError(f"lattice parameters must be positive, got a={a!r}, b={b!r}")
        grid = g.grid
        self.g = g
        self.gamma = gamma
        self.a = float(a)
        self.b = float(b)
        self.a_steps = grid.steps_scalar(a)          # a / h
        self.inv_b_steps = grid.steps_scalar(1 / b)  # (1/b) / h, also the freq period
        self.pairing = inner_product(gamma, g)
        if abs(self.pairing) <= DEGENERACY_FLOOR:
            raise DegenerateWindowPairError(
                f"|<gamma, g>| = {abs(self.pairing):.3e} <= {DEGENERACY_FLOOR}")
        radius = self._min_time_radius()
        self.time_indices = np.arange(-radius, radius + 1)
        r = self.inv_b_steps
        self.freq_indices = np.arange(-(r // 2), r - r // 2)
        # walnut.correlation_family caches the Walnut members here; unset
        # until first asked for
        self._members = None

    @property
    def grid(self) -> Grid:
        return self.g.grid

    def _min_time_radius(self) -> int:
        bounds = support_index_bounds(self.g)
        if bounds is None:
            return 0
        n = self.grid.samples_per_axis
        need = 0
        for lo, hi in bounds:
            # supp(g) + n*a meets [0, N) iff -hi <= n*a_steps <= N - 1 - lo
            n_lo = -(hi // self.a_steps)
            n_hi = (n - 1 - lo) // self.a_steps
            need = max(need, abs(int(n_lo)), abs(int(n_hi)))
        return need

    @classmethod
    def self_dual(cls, g: GridFunction, a: float, b: float) -> "GaborSystem":
        """The gamma = g system; the pairing becomes ||g||_2^2."""
        return cls(g, g, a, b)

    def __repr__(self):
        return (f"GaborSystem(a={self.a}, b={self.b}, time_radius={self.time_indices[-1]}, "
                f"freq_indices={len(self.freq_indices)} per axis)")


@dataclass
class CoefficientLattice:
    """Gabor coefficients <f, tau(na, mb) g> over the system's index ranges.

    entries has the d time axes first (lengths matching time_indices) and
    the d frequency axes last (lengths matching freq_indices).
    """

    entries: np.ndarray
    time_indices: np.ndarray
    freq_indices: np.ndarray

    def __post_init__(self):
        d = self.entries.ndim // 2
        want = (len(self.time_indices),) * d + (len(self.freq_indices),) * d
        if self.entries.shape != want:
            raise ValueError(f"entries shape {self.entries.shape} does not match index ranges {want}")

    def entry(self, n, m) -> complex:
        d = self.entries.ndim // 2
        n = np.atleast_1d(np.asarray(n, dtype=int))
        m = np.atleast_1d(np.asarray(m, dtype=int))
        idx = tuple(int(np.nonzero(self.time_indices == nj)[0][0]) for nj in n)
        idx += tuple(int(np.nonzero(self.freq_indices == mj)[0][0]) for mj in m)
        if len(idx) != 2 * d:
            raise IndexError("index arity does not match lattice dimension")
        return complex(self.entries[idx])


def stft(f: GridFunction, g: GridFunction, t, omega) -> complex:
    """Windowed Fourier transform sample <f, tau(t, omega) g>."""
    return inner_product(f, tf_shift(g, t, omega))


def _freq_phase_matrix(grid: Grid, b: float, freq_indices: np.ndarray) -> np.ndarray:
    # P[j, i] = exp(2*pi*i * m_j * b * x_i), one axis
    x = grid.axis_coords()
    return np.exp(2j * np.pi * b * np.outer(freq_indices, x))


def _apply_axes(mat: np.ndarray, ten: np.ndarray) -> np.ndarray:
    # multiply along every axis of ten by mat (mode product), preserving order
    for ax in range(ten.ndim):
        ten = np.moveaxis(np.tensordot(mat, ten, axes=(1, ax)), 0, ax)
    return ten


def gabor_coefficients(f: GridFunction, sys: GaborSystem) -> CoefficientLattice:
    """All coefficients <f, tau(na, mb) g> over the system's index ranges.

    Row n is the FFT of conj(T_{na} g) * f folded into a cell of side r,
    formed on the overlap box of the two supports only.  Raises
    GridMismatchError when f is not on the system's grid.
    """
    _require_grid(f, sys.grid)
    grid = sys.grid
    d = grid.dim
    n_count = len(sys.time_indices)
    m_count = len(sys.freq_indices)
    entries = np.zeros((n_count,) * d + (m_count,) * d, dtype=complex)
    for pos, n in zip(np.ndindex((n_count,) * d), product(sys.time_indices, repeat=d)):
        cell = _fold_overlap(sys.g, f, np.array(n) * sys.a_steps, sys.inv_b_steps)
        entries[pos] = grid.cell_measure * _cell_spectrum(cell, sys.freq_indices)
    return CoefficientLattice(entries, np.array(sys.time_indices), np.array(sys.freq_indices))


def _direct_peak_bytes(grid: Grid, r: int) -> int:
    # apply_frame_direct holds three r x N complex phase matrices (N samples
    # per axis) and, per shift, about six full-grid complex arrays plus the
    # input and output of the widest mode product, r^k N^(d-k) entries
    n, d = grid.samples_per_axis, grid.dim
    widest = max(r ** k * n ** (d - k) for k in range(d + 1))
    return np.dtype(complex).itemsize * (3 * r * n + 6 * n ** d + 2 * widest)


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


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
    need = _direct_peak_bytes(grid, len(sys.freq_indices))
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ResolutionError(
            f"the direct form needs about {need / 2 ** 30:.3g} GiB at "
            f"{grid.samples_per_axis} samples per axis and frequency period "
            f"{len(sys.freq_indices)}, more than the {have / 2 ** 30:.3g} GiB of physical "
            f"memory; use the walnut or janssen form")
    phases = _freq_phase_matrix(grid, sys.b, sys.freq_indices)
    p_conj = np.conj(phases)
    p_t = phases.T.copy()
    out = np.zeros(grid.shape, dtype=complex)
    for n in product(sys.time_indices, repeat=d):
        steps = np.array(n) * sys.a_steps
        gs = shift_array(sys.g.values, steps)
        if not gs.any():
            continue
        gams = shift_array(sys.gamma.values, steps)
        coeff = grid.cell_measure * _apply_axes(p_conj, f.values * np.conj(gs))
        out += gams * _apply_axes(p_t, coeff)
    out *= (sys.a * sys.b) ** d / sys.pairing
    return GridFunction(grid, out)
