"""Dual-lattice coefficients, the Janssen form, and Wexler-Raz checks.

The dual-lattice (adjoint) coefficients are c[l, n] = <gamma, M_{l/a} T_{n/b} g>.
They are simultaneously the Fourier coefficients of the correlation functions
(G[n] has l-th cell Fourier coefficient a^{-d} c[l, n]) and the expansion
coefficients of the frame operator,

    S = (1 / <gamma, g>) sum_{l,n} c[l, n] M_{l/a} T_{n/b}.

Like every form of S, it divides by the system's pairing <gamma, g>.

On the grid both directions are exact cell transforms with the alias period
p = a/h: column n of the coefficients is h^d times the cell spectrum of the
Walnut member G[n] = correlation_family(sys)[n]: one FFT per member, read
at bins l mod p by grid._cell_spectrum as the STFT rows are, and whole by
truncation_bound and the Wexler-Raz verdict.  The truncated l-sum of a
column weights each bin by the number w of stored l in it and is one
inverse FFT back onto the cell.  The truncated Janssen operator S_{L,N} is
therefore the Walnut-form value of walnut, the one behind S, its remainder
R and the frame-bound blocks, on these l-filtered cells with scale
1 / <gamma, g>.

The expansion is a finite sum on the grid: n runs over the correlation
members and l over one alias period.  So the truncation error of
|l| <= L, |n| <= N is known exactly term by term, and since M and T have
norm <= 1 on every L^p of the grid, the summed magnitude of the terms the
truncation misses or repeats, weighted by |1 - w|, bounds ||S - S_{L,N}||
there (truncation_bound).  A lattice is S_{L,N}: JanssenLattice(sys, L, N)
makes one pass over the member spectra that stores the entries, the bound
and the filtered cells, all read through one alias weight w, so no lattice
holds entries its bound or its operator does not describe, and
janssen_apply transforms nothing.  The radii L and N are sizes the caller
picks: the constructor and the Wexler-Raz check pass their peak-byte
estimate to errors._require_memory before allocating.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, _number, _per_axis, _require_memory, _typed, _whole
from .grid import GridFunction, _cell_spectrum, fold_to_cell
from .operators import GaborSystem, correlation_family, correlation_member_range
from .walnut import _WalnutForm

__all__ = [
    "JanssenLattice",
    "janssen_apply",
    "WexlerRazResult",
    "wexler_raz_check",
]


@dataclass(frozen=True)
class JanssenLattice:
    """Dual-lattice coefficients c[l, n] = <gamma, M_{l/a} T_{n/b} g> of a
    system over |l| <= L, |n| <= N (componentwise), with their certificate.

    The value of (system, ell_radius, n_radius) and the truncated operator
    S_{L,N}: construction computes entries, the d modulation axes first,
    then the d shift axes, the filtered cells janssen_apply sums, and
    truncation_bound, which certifies ||S - janssen_apply(., lattice)|| on
    every L^p of the grid:

        sum_n sum_beta |1 - w_n[beta]| |c_hat[beta, n]| / |<gamma, g>|

    over all correlation members n and one alias period beta mod a/h, where
    c_hat[., n] is h^d times the FFT of G[n] and w_n, the weight the cells
    read too, counts the stored l = beta mod a/h for a member with |n| <= N
    and is 0 for the others.  The center entry c[0, 0] equals <gamma, g> up
    to rounding; the expansion divides by the system's pairing, not by it.
    Frozen, with read-only entries; a copy or a pickle is rebuilt from the
    three inputs.  Raises ResolutionError, before allocating, when the
    entries and the cells would not fit in physical memory.
    """

    system: GaborSystem
    ell_radius: int
    n_radius: int
    entries: np.ndarray = field(init=False, compare=False, repr=False)
    truncation_bound: float = field(init=False, compare=False)
    _form: _WalnutForm = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sys = self.system
        ell_radius, n_radius = _typed("ell_radius", _whole, self.ell_radius), \
            _typed("n_radius", _whole, self.n_radius)
        if ell_radius < 0 or n_radius < 0:
            raise ValueError("radii must be nonnegative")
        p, d = sys.a_steps, sys.grid.dim
        stored = math.prod(sum(abs(v) <= n_radius for v in ns)
                           for ns in correlation_member_range(sys))
        # the entries, 16 B each, and beside them the folded (2L+1)^d ones and
        # one stored column; the cells of the stored members, and while one is
        # made its spectrum, the weighted copy, its inverse FFT and the cell
        column = (2 * ell_radius + 1) ** d
        _require_memory(16 * column * (2 * n_radius + 1) ** d + 32 * column
                        + 16 * (stored + 4) * p ** d,
                        f"the dual-lattice expansion at L = {ell_radius}, N = {n_radius} and "
                        f"a/h = {p}", "lower L or N")
        ls = np.arange(-ell_radius, ell_radius + 1)
        entries = np.zeros((len(ls),) * d + (2 * n_radius + 1,) * d, dtype=complex)
        # the alias weight: the number of stored l in each bin l mod p
        count = fold_to_cell(np.ones((2 * ell_radius + 1,) * d), p, ell_radius)
        tail, cells = 0.0, {}
        for n, c_hat in _member_spectra(sys):
            inside = max(map(abs, n)) <= n_radius
            weight = count if inside else 0.0
            tail += float((np.abs(1.0 - weight) * np.abs(c_hat)).sum())
            if inside:
                entries[(Ellipsis,) + tuple(v + n_radius for v in n)] = _cell_spectrum(c_hat, ls)
                cells[n] = p ** d * np.fft.ifftn(weight * c_hat)
        entries.setflags(write=False)
        object.__setattr__(self, "ell_radius", ell_radius)
        object.__setattr__(self, "n_radius", n_radius)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "truncation_bound", tail / abs(sys.pairing))
        object.__setattr__(self, "_form", _WalnutForm(sys.grid, sys.inv_b_steps,
                                                      1 / sys.pairing, cells))

    def __reduce__(self):  # rebuilt from its inputs, as the system is
        return JanssenLattice, (self.system, self.ell_radius, self.n_radius)

    @property
    def dim(self) -> int:
        return self.entries.ndim // 2

    def entry(self, l, n) -> complex:
        l, n = _per_axis("l", _whole, l, self.dim), _per_axis("n", _whole, n, self.dim)
        idx = tuple(v + self.ell_radius for v in l) + tuple(v + self.n_radius for v in n)
        if any(not 0 <= i < s for i, s in zip(idx, self.entries.shape)):
            raise IndexError(f"lattice index (l={l}, n={n}) outside stored radii")
        return complex(self.entries[idx])


def _member_spectra(sys: GaborSystem):
    # (n, h^d fftn(G[n])) over the correlation members in sorted n order: bin
    # l mod a/h of the spectrum of member n is the coefficient c[l, n]
    for n, cell in correlation_family(sys).items():
        yield n, sys.grid.cell_measure * np.fft.fftn(cell)


def janssen_apply(f: GridFunction, lattice: JanssenLattice) -> GridFunction:
    """Apply the truncated dual-lattice expansion of the frame operator.

    out = (1 / <gamma, g>) sum_{l,n} c[l, n] * exp(2 pi i <l, x>/a) * f(x - n/b);
    for each n the l-sum is the filtered cell on [0, a)^d that the lattice
    computed at construction, and the Walnut loop reduces these cells in
    sorted n order with no transform.  Time shifts n/b must be commensurate
    with the grid of f.

    On the grid the modulation index l aliases with period a/h per axis
    (frequencies l/a and l/a + 1/h sample identically), so an l range
    reaching a nonvanishing alias duplicates content; keep 2L+1 within one
    period unless the out-of-band coefficients vanish.  Raises
    GridMismatchError when f is not on the lattice's grid, and
    ResolutionError, before allocating, when the Walnut sum would not fit
    in physical memory.
    """
    return lattice._form.apply(f)


@dataclass
class WexlerRazResult:
    """The biorthogonality verdict over every dual-lattice coefficient at the
    requested tolerance, and where its largest off-diagonal entry sits."""

    is_biorthogonal: bool
    max_offdiag: float
    diag: complex
    at: tuple | None


def wexler_raz_check(sys: GaborSystem, tol: float = 1e-10) -> WexlerRazResult:
    """Test c[l, n] / <gamma, g> = delta_{l 0} delta_{n 0} for every l in one
    alias period a/h per axis and every correlation member n.

    diag is c[0, 0], an FFT bin, over the system's pairing <gamma, g>.
    at = (l, n), l centred as freq_indices is, is the first maximum in
    sorted n and then FFT-bin order, never (0, 0); with no other entry
    (a = h and one member) it is None and max_offdiag 0.  Raises ConfigError,
    before any work, when tol is nan or negative, and ResolutionError,
    before the first transform, when one member's spectrum would not fit.
    """
    if not _typed("tol", _number, tol) >= 0:  # a nan fails too: no deviation is <= nan
        raise ConfigError(f"tol must be a nonnegative number, got {tol!r}")
    p, d = sys.a_steps, sys.grid.dim
    # two spectra with their normalized copies and magnitudes, and a new FFT
    _require_memory(72 * p ** d, f"the Wexler-Raz check at a/h = {p}", "shrink a")
    origin = (0,) * d
    max_offdiag, at = -1.0, None
    for n, c_hat in _member_spectra(sys):
        normalized = c_hat / sys.pairing
        mags = np.abs(normalized)
        if n == origin:
            diag = complex(normalized[origin])
            mags[origin] = -1.0  # below every magnitude, so never the maximum
        k = np.unravel_index(mags.argmax(), mags.shape)
        if mags[k] > max_offdiag:
            max_offdiag, at = float(mags[k]), (tuple(int((i + p // 2) % p - p // 2) for i in k), n)
    max_offdiag = max(max_offdiag, 0.0)
    ok = abs(diag - 1.0) <= tol and max_offdiag <= tol
    return WexlerRazResult(bool(ok), max_offdiag, diag, at)
