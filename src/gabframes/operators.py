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
A GaborSystem is immutable and keeps its Walnut members G[n], which
correlation_family folds on first use.  Every other evaluation of S (the
Walnut and Janssen forms, the STFT inversion sum reconstruct_integral and
the exact frame bounds) lives in walnut and janssen, which read them here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

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
    are one full period r = 1/(b h) of m.  Immutable, so the members that
    correlation_family keeps on it always belong to these windows and steps.

    Parameters
    ----------
    g, gamma : GridFunction
        Analysis and synthesis windows.
    a, b : float
        Time and frequency lattice steps, a > 0, b > 0.
    """

    # _members keeps correlation_family's result; unset until first asked for
    __slots__ = ("g", "gamma", "a", "b", "a_steps", "inv_b_steps", "pairing",
                 "time_indices", "freq_indices", "_members")

    def __init__(self, g: GridFunction, gamma: GridFunction, a: float, b: float):
        if g.grid != gamma.grid:
            raise DegenerateWindowPairError("windows must share a grid")
        if a <= 0 or b <= 0:
            raise ValueError(f"lattice parameters must be positive, got a={a!r}, b={b!r}")
        grid = g.grid
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "a_steps", grid.steps_scalar(a))          # a / h
        object.__setattr__(self, "inv_b_steps", grid.steps_scalar(1 / b))  # r = (1/b) / h
        object.__setattr__(self, "pairing", inner_product(gamma, g))
        if abs(self.pairing) <= DEGENERACY_FLOOR:
            raise DegenerateWindowPairError(
                f"|<gamma, g>| = {abs(self.pairing):.3e} <= {DEGENERACY_FLOOR}")
        radius = self._min_time_radius()
        r = self.inv_b_steps
        for name, indices in (("time_indices", np.arange(-radius, radius + 1)),
                              ("freq_indices", np.arange(-(r // 2), r - r // 2))):
            indices.setflags(write=False)
            object.__setattr__(self, name, indices)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("GaborSystem is immutable")

    def __reduce__(self):  # rebuilt and revalidated; the members are not shipped
        return GaborSystem, (self.g, self.gamma, self.a, self.b)

    @property
    def grid(self) -> Grid:
        return self.g.grid

    def _min_time_radius(self) -> int:
        # a pairing above DEGENERACY_FLOOR means g is not zero, so it has bounds
        n = self.grid.samples_per_axis
        need = 0
        for lo, hi in support_index_bounds(self.g):
            # supp(g) + n*a meets [0, N) iff -hi <= n*a_steps <= N - 1 - lo
            n_lo = -(hi // self.a_steps)
            n_hi = (n - 1 - lo) // self.a_steps
            need = max(need, abs(int(n_lo)), abs(int(n_hi)))
        return need

    def __repr__(self):
        return (f"GaborSystem(a={self.a}, b={self.b}, time_radius={self.time_indices[-1]}, "
                f"freq_indices={len(self.freq_indices)} per axis)")


def _as_tuple(n, dim: int) -> tuple[int, ...]:
    if np.isscalar(n):
        if dim != 1:
            raise ValueError(f"lattice index must have {dim} components, got scalar {n!r}")
        return (int(n),)
    n = tuple(int(v) for v in n)
    if len(n) != dim:
        raise ValueError(f"lattice index must have {dim} components, got {n!r}")
    return n


def correlation_member_range(sys: GaborSystem) -> list[range]:
    """Per-axis ranges of n with T_{n/b} g and gamma overlapping on the grid.

    Exact: n/b must lie in the Minkowski difference supp(gamma) - supp(g),
    evaluated in integer index arithmetic, so every nonzero member is
    enumerated and nothing else.
    """
    ibs = sys.inv_b_steps
    out = []
    for (gl, gh), (cl, ch) in zip(support_index_bounds(sys.g), support_index_bounds(sys.gamma)):
        lo = -((gh - cl) // ibs)  # ceil((cl - gh) / ibs)
        hi = (ch - gl) // ibs
        out.append(range(int(lo), int(hi) + 1))
    return out


def correlation_fn(sys: GaborSystem, n) -> np.ndarray:
    """Samples of G[n] on the fundamental cell [0, a)^d (zero if no overlap).

    Only the overlap box of supp(T_{n/b} g) and supp(gamma) is multiplied
    and folded; every sample outside it contributes an exact zero.
    """
    steps = [v * sys.inv_b_steps for v in _as_tuple(n, sys.grid.dim)]
    return _fold_overlap(sys.g, sys.gamma, steps, sys.a_steps)


def correlation_family(sys: GaborSystem) -> MappingProxyType:
    """Every correlation member G[n] of the system, keyed by n in sorted order.

    The band matrix of S.  Computed on the first call and kept on the
    system, so each member is folded once however many forms of S read it;
    the mapping and its cells are read-only.
    """
    if getattr(sys, "_members", None) is None:
        members = {}
        for n in product(*correlation_member_range(sys)):
            cell = correlation_fn(sys, n)
            cell.setflags(write=False)
            members[n] = cell
        object.__setattr__(sys, "_members", MappingProxyType(members))
    return sys._members


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
    return CoefficientLattice(entries, sys.time_indices, sys.freq_indices)


def _direct_peak_bytes(grid: Grid, r: int) -> int:
    # apply_frame_direct holds three r x N complex phase matrices (N samples
    # per axis), the full-grid values of f, g and gamma, and, per shift, about
    # six full-grid complex arrays plus the input and output of the widest
    # mode product, r^k N^(d-k) entries
    n, d = grid.samples_per_axis, grid.dim
    widest = max(r ** k * n ** (d - k) for k in range(d + 1))
    return np.dtype(complex).itemsize * (3 * r * n + 9 * n ** d + 2 * widest)


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
