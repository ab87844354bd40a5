"""STFT, Gabor coefficient lattices, and the direct frame operator.

The direct operator is the definitional truncated double lattice sum

    S f = (a b)^d / <gamma, g>  *  sum_{n,m} <f, tau(na, mb) g> tau(na, mb) gamma

and serves as the brute-force oracle for the Walnut and Janssen forms.  On
the grid the m-dependence of each term is periodic with period r = 1/(b h)
per axis (an integer by the commensurability contract), because frequencies
m b and m b + 1/h are indistinguishable on samples.  One full period of
frequency indices therefore covers the grid's Nyquist band exactly and the
default truncation uses it; a smaller symmetric radius is allowed, with the
omitted residues as the quantified tail.

The same periodicity turns every frequency sum into one exact kernel: fold
the product f * conj(T_{na} g) into a cell of side r and take its FFT, so
coefficient m is bin m mod r.  gabor_coefficients uses that kernel; the
direct operator deliberately does not, so it stays an independent oracle.
Every other evaluation of S (the Walnut and Janssen forms, the STFT
inversion sum reconstruct_integral and the exact frame bounds) lives in
walnut and janssen, which build on this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DegenerateWindowPairError
from .grid import (
    Grid,
    GridFunction,
    _cell_spectrum,
    _require_grid,
    fold_to_cell,
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
    """A window pair with lattice parameters and truncation policy.

    Requirements checked at construction: g and gamma share the grid, the
    pairing <gamma, g> is nondegenerate, a and 1/b are integer multiples of
    the spacing, and the time radius covers every lattice shift of g whose
    support meets the domain.

    Parameters
    ----------
    g, gamma : GridFunction
        Analysis and synthesis windows.
    a, b : float
        Time and frequency lattice steps, a > 0, b > 0.
    time_radius : int, optional
        Symmetric truncation |n| <= time_radius of the time lattice.
        Defaults to (and must be at least) the support-derived minimum.
    freq_radius : int, optional
        Symmetric truncation |m| <= freq_radius of the frequency lattice.
        Default None selects one full Nyquist period of indices, which makes
        the direct sum exact; an explicit radius must keep 2*freq_radius + 1
        within one period.
    """

    def __init__(self, g: GridFunction, gamma: GridFunction, a: float, b: float,
                 time_radius: int | None = None, freq_radius: int | None = None):
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
        need = self._min_time_radius()
        if time_radius is None:
            time_radius = need
        elif time_radius < need:
            raise ValueError(
                f"time_radius={time_radius} drops lattice shifts overlapping the domain "
                f"(need >= {need})")
        self.time_radius = int(time_radius)
        r = self.inv_b_steps
        if freq_radius is not None:
            if 2 * freq_radius + 1 > r:
                raise ValueError(
                    f"freq_radius={freq_radius} exceeds one frequency period (r={r}); "
                    f"larger radii would alias-duplicate terms")
            self.freq_indices = np.arange(-freq_radius, freq_radius + 1)
        else:
            self.freq_indices = np.arange(-(r // 2), r - r // 2)
        self.freq_radius = freq_radius

    @property
    def grid(self) -> Grid:
        return self.g.grid

    @property
    def time_indices(self) -> np.ndarray:
        return np.arange(-self.time_radius, self.time_radius + 1)

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
    def self_dual(cls, g: GridFunction, a: float, b: float, **kw) -> "GaborSystem":
        """The gamma = g system; the pairing becomes ||g||_2^2."""
        return cls(g, g, a, b, **kw)

    def __repr__(self):
        return (f"GaborSystem(a={self.a}, b={self.b}, time_radius={self.time_radius}, "
                f"freq_indices={len(self.freq_indices)} per axis)")


@dataclass
class CoefficientLattice:
    """Gabor coefficients <f, tau(na, mb) g> over the truncated lattice.

    entries has the d time axes first (lengths matching time_indices) and
    the d frequency axes last (lengths matching freq_indices).
    """

    entries: np.ndarray
    a: float
    b: float
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
    """All coefficients <f, tau(na, mb) g> over the system's truncation.

    Raises GridMismatchError when f is not on the system's grid.
    """
    _require_grid(f, sys.grid)
    grid = sys.grid
    d = grid.dim
    n_count = len(sys.time_indices)
    m_count = len(sys.freq_indices)
    entries = np.zeros((n_count,) * d + (m_count,) * d, dtype=complex)
    for pos, n in zip(np.ndindex((n_count,) * d), product(sys.time_indices, repeat=d)):
        gs = shift_array(sys.g.values, np.array(n) * sys.a_steps)
        if not gs.any():
            continue
        cell = fold_to_cell(f.values * np.conj(gs), sys.inv_b_steps, grid.half_extent_steps)
        entries[pos] = grid.cell_measure * _cell_spectrum(cell, sys.freq_indices)
    return CoefficientLattice(entries, sys.a, sys.b,
                              np.array(sys.time_indices), np.array(sys.freq_indices))


def apply_frame_direct(f: GridFunction, sys: GaborSystem) -> GridFunction:
    """The truncated definitional lattice sum; the correctness oracle.

    Cost is O(|lattice| * N^d).  With the default full-period frequency
    truncation the result reorganizes exactly into the Walnut form.  Raises
    GridMismatchError when f is not on the system's grid.
    """
    _require_grid(f, sys.grid)
    grid = sys.grid
    d = grid.dim
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
