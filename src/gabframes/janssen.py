"""Dual-lattice coefficients, the Janssen form, and Wexler-Raz checks.

The dual-lattice (adjoint) coefficients are c[l, n] = <gamma, M_{l/a} T_{n/b} g>.
They are simultaneously the Fourier coefficients of the correlation functions
(G[n] has l-th cell Fourier coefficient a^{-d} c[l, n]) and the expansion
coefficients of the frame operator,

    S = (1 / <gamma, g>) sum_{l,n} c[l, n] M_{l/a} T_{n/b}.

Like every form of S, it divides by the system's pairing <gamma, g>.

On the grid both directions are exact cell transforms with the alias period
p = a/h: column n of the coefficients is h^d times the FFT of the folded
correlation cell G[n] at bins l mod p, and the truncated l-sum of a column
is one inverse FFT back onto the cell.  The Janssen form is therefore the
Walnut loop run on l-filtered correlation cells.

The expansion is a finite sum on the grid: n runs over the correlation
members and l over one alias period.  So the truncation error of
|l| <= L, |n| <= N is known exactly term by term, and since M and T have
norm <= 1 on every L^p of the grid, the summed magnitude of the terms the
truncation misses or repeats bounds ||S - S_{L,N}|| there (truncation_bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import GridFunction, _require_grid, fold_to_cell
from .operators import GaborSystem, correlation_family
from .walnut import _walnut_sum

__all__ = [
    "JanssenLattice",
    "janssen_coefficients",
    "janssen_apply",
    "fourier_reconstruct_correlation",
    "WexlerRazResult",
    "wexler_raz_check",
]


@dataclass(frozen=True)
class JanssenLattice:
    """Dual-lattice coefficients of a system over |l| <= L, |n| <= N (componentwise).

    entries carries the d modulation axes first, then the d shift axes.
    The center entry c[0, 0] equals <gamma, g> up to rounding; the expansion
    divides by the system's pairing, not by it.  truncation_bound certifies
    ||S - janssen_apply(., lattice)|| on every L^p of the grid:

        sum_n sum_beta |1 - count_beta| |c_hat[beta, n]| / |<gamma, g>|

    over all correlation members n and one alias period beta mod a/h, where
    c_hat[., n] is h^d times the FFT of G[n], count_beta is the number of
    stored l = beta mod a/h (the fold of janssen_apply), and a member with
    |n| > N counts with count 0.  Frozen, with entries copied once and
    read-only, so the bound always certifies the stored entries.
    """

    entries: np.ndarray
    system: GaborSystem
    ell_radius: int
    n_radius: int
    truncation_bound: float

    def __post_init__(self):
        object.__setattr__(self, "entries", np.array(self.entries))
        self.entries.setflags(write=False)
        d = self.entries.ndim // 2
        want = (2 * self.ell_radius + 1,) * d + (2 * self.n_radius + 1,) * d
        if self.entries.shape != want:
            raise ValueError(f"entries shape {self.entries.shape} does not match radii {want}")

    @property
    def dim(self) -> int:
        return self.entries.ndim // 2

    def entry(self, l, n) -> complex:
        d = self.dim
        l = (int(l),) if np.isscalar(l) else tuple(int(v) for v in l)
        n = (int(n),) if np.isscalar(n) else tuple(int(v) for v in n)
        if len(l) != d or len(n) != d:
            raise IndexError(f"indices must have {d} components each")
        idx = tuple(v + self.ell_radius for v in l) + tuple(v + self.n_radius for v in n)
        if any(not 0 <= i < s for i, s in zip(idx, self.entries.shape)):
            raise IndexError(f"lattice index (l={l}, n={n}) outside stored radii")
        return complex(self.entries[idx])


def janssen_coefficients(sys: GaborSystem, ell_radius: int, n_radius: int) -> JanssenLattice:
    """Compute c[l, n] = <gamma, M_{l/a} T_{n/b} g> over the given radii,
    with the truncation_bound of the stored ranges."""
    if ell_radius < 0 or n_radius < 0:
        raise ValueError("radii must be nonnegative")
    grid = sys.grid
    d = grid.dim
    p = sys.a_steps
    ls = np.arange(-ell_radius, ell_radius + 1)
    shape = (2 * ell_radius + 1,) * d + (2 * n_radius + 1,) * d
    entries = np.zeros(shape, dtype=complex)
    # |1 - count| per alias bin, count being the stored l that janssen_apply
    # folds into the bin
    miss = np.abs(1.0 - fold_to_cell(np.ones((2 * ell_radius + 1,) * d), p, ell_radius))
    tail = 0.0
    bins = np.ix_(*[ls % p] * d)  # the FFT bin of each stored l
    for n, cell in correlation_family(sys).items():
        stored = max(map(abs, n)) <= n_radius
        c_hat = grid.cell_measure * np.fft.fftn(cell)
        tail += float(((miss if stored else 1.0) * np.abs(c_hat)).sum())
        if stored:
            entries[(Ellipsis,) + tuple(v + n_radius for v in n)] = c_hat[bins]
    return JanssenLattice(entries, sys, ell_radius, n_radius, tail / abs(sys.pairing))


def _column_cell(lattice: JanssenLattice, n: tuple[int, ...], p: int) -> np.ndarray:
    # sum_l c[l, n] exp(2 pi i <l, j>/p) at the cell points j in [0, p)^d;
    # the fold adds every aliased l into its bin l mod p
    col = lattice.entries[(Ellipsis,) + tuple(v + lattice.n_radius for v in n)]
    return p ** lattice.dim * np.fft.ifftn(fold_to_cell(col, p, lattice.ell_radius))


def janssen_apply(f: GridFunction, lattice: JanssenLattice) -> GridFunction:
    """Apply the truncated dual-lattice expansion of the frame operator.

    out = (1 / <gamma, g>) sum_{l,n} c[l, n] * exp(2 pi i <l, x>/a) * f(x - n/b);
    for each n the l-sum is one inverse FFT onto the cell [0, a)^d, and the
    Walnut loop reduces these filtered cells in sorted n order.  Time shifts
    n/b must be commensurate with the grid of f.

    On the grid the modulation index l aliases with period a/h per axis
    (frequencies l/a and l/a + 1/h sample identically), so an l range
    reaching a nonvanishing alias duplicates content; keep 2L+1 within one
    period unless the out-of-band coefficients vanish.  Raises
    GridMismatchError when f is not on the lattice's grid.
    """
    sys = lattice.system
    _require_grid(f, sys.grid)
    cells = {n: _column_cell(lattice, n, sys.a_steps)
             for n in product(range(-lattice.n_radius, lattice.n_radius + 1), repeat=lattice.dim)}
    hull, out = _walnut_sum(f, cells, sys.inv_b_steps)
    return GridFunction._own(sys.grid, hull, out / sys.pairing)


def fourier_reconstruct_correlation(lattice: JanssenLattice, n) -> np.ndarray:
    """Partial Fourier synthesis of the correlation function G[n] on its cell.

    G[n](x) ~ a^{-d} sum_{|l| <= L} c[l, n] exp(2 pi i <l, x>/a) at the cell
    samples x in [0, a)^d.  Raises IndexError when row n is not stored.
    """
    d = lattice.dim
    n = (int(n),) if np.isscalar(n) else tuple(int(v) for v in n)
    if len(n) != d:
        raise IndexError(f"row index must have {d} components")
    if any(abs(v) > lattice.n_radius for v in n):
        raise IndexError(f"row n={n} outside stored radius {lattice.n_radius}")
    sys = lattice.system
    return sys.a ** (-d) * _column_cell(lattice, n, sys.a_steps)


@dataclass
class WexlerRazResult:
    """Dual-lattice coefficients normalized by <gamma, g>, with the
    biorthogonality verdict at the requested tolerance."""

    normalized: np.ndarray
    is_biorthogonal: bool
    max_offdiag: float
    diag: complex


def wexler_raz_check(sys: GaborSystem, ell_radius: int, n_radius: int,
                     tol: float = 1e-10) -> WexlerRazResult:
    """Test c[l, n] / <gamma, g> = delta_{l 0} delta_{n 0} on the stored ranges.

    diag is c[0, 0], an FFT bin, over the system's pairing <gamma, g>.
    """
    lattice = janssen_coefficients(sys, ell_radius, n_radius)
    normalized = lattice.entries / sys.pairing
    d = lattice.dim
    center = (ell_radius,) * d + (n_radius,) * d
    mags = np.abs(normalized)
    diag = complex(normalized[center])
    mags_off = mags.copy()
    mags_off[center] = 0.0
    max_offdiag = float(mags_off.max())
    ok = abs(diag - 1.0) <= tol and max_offdiag <= tol
    return WexlerRazResult(normalized, bool(ok), max_offdiag, diag)
