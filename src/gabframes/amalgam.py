"""Wiener amalgam norms W(L^p, l^q) on integer-translated unit cubes.

The local norm on the cube [k, k+1)^d is a plain Riemann sum with cell
weight h^d (for p < inf) or the max over grid samples (the discrete
essential sup, a lower bound for the true one).  Cube-local norms are then
aggregated in l^q over all integer k; compact support makes the aggregation
finite exactly.  Norms write |f| once into a zeroed float block of the
whole cubes that meet the support box of the function, so their cost
follows the support, not the grid; the cubes off it hold exact zeros.  The
same h^d weight is used by the pairing, so the Hoelder-type inequalities
hold exactly in the discrete model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _number
from .grid import GridFunction, _box_shape, _cell_slot, _within, inner_product, support_index_bounds

__all__ = [
    "Exponent",
    "ExponentPair",
    "cube_norms",
    "amalgam_norm",
    "wiener_norm",
    "holder_bound",
]


@dataclass(frozen=True)
class Exponent:
    """An exponent in [1, inf], read by the number rule; infinity is math.inf."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _number(self.value))
        if not self.value >= 1.0:  # also rejects nan
            raise ValueError(f"an exponent must be at least 1, got {self.value!r}")

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def conjugate(self) -> "Exponent":
        if self.is_inf:
            return Exponent(1.0)
        if self.value == 1.0:
            return Exponent(math.inf)
        return Exponent(self.value / (self.value - 1.0))

    @classmethod
    def of(cls, p) -> "Exponent":
        if isinstance(p, Exponent):
            return p
        return cls(float(p) if isinstance(p, str) else p)  # "2", "inf", "Infinity"

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return "inf" if self.is_inf else f"{self.value:g}"


@dataclass(frozen=True)
class ExponentPair:
    """The pair (p, q) indexing W(L^p, l^q)."""

    p: Exponent
    q: Exponent

    @classmethod
    def of(cls, p, q=None) -> "ExponentPair":
        if isinstance(p, ExponentPair) and q is None:
            return p
        if q is None:
            p, q = p  # (p, q) tuple
        return cls(Exponent.of(p), Exponent.of(q))

    def conjugate(self) -> "ExponentPair":
        return ExponentPair(self.p.conjugate(), self.q.conjugate())

    def __str__(self) -> str:
        return f"({self.p}, {self.q})"


def cube_norms(f: GridFunction, p) -> np.ndarray:
    """Local L^p norms over all integer cubes meeting the domain.

    Returns an array of shape (C,)*d where C is the number of cubes per axis.
    Only the cubes that meet the support box are reduced; every other entry
    is an exact zero.
    """
    p = Exponent.of(p)
    grid = f.grid
    m = grid.samples_per_unit
    # a non-integer half extent leaves partial cubes at both ends: index i
    # sits at i + pad among whole cubes, pad the unit-cube slot of index 0,
    # and the missing samples read zero
    pad = _cell_slot(grid, 0, m)
    c = (grid.samples_per_axis + 2 * pad) // m
    out = np.zeros((c,) * grid.dim)
    bounds = support_index_bounds(f)
    if bounds is None:
        return out
    cubes = []
    for lo, hi in bounds:
        k_lo, k_hi = (lo + pad) // m, (hi + pad) // m + 1
        if k_hi - k_lo < 2 <= c:
            # keep two cubes per axis: with one, numpy merges the intra-cube
            # axes of a 2D block and sums its samples in another order
            k_lo, k_hi = (k_lo, k_lo + 2) if k_hi < c else (k_lo - 1, k_hi)
        cubes.append(slice(k_lo, k_hi))
    # the whole cubes as grid slices, reaching pad samples past the grid at a
    # partial cube; |f| is written once into them on the box of f, +0 elsewhere
    region = tuple(slice(k.start * m - pad, k.stop * m - pad) for k in cubes)
    block = np.zeros(_box_shape(region))
    np.abs(f.data, out=block[_within(f.box, region)])
    block = block.reshape(sum(((k.stop - k.start, m) for k in cubes), ()))
    intra = tuple(range(1, 2 * grid.dim, 2))
    out[tuple(cubes)] = _root_sum(block, p, intra, grid.cell_measure)
    return out


def _root_sum(x: np.ndarray, p: Exponent, axis, weight=1.0) -> np.ndarray:
    # (weight * sum x^p)^(1/p) over axis, or max x at p = inf, for x >= 0.  x is
    # divided in place by a scale at its maximum first, so no term under- or
    # overflows: up to p = 2 a power of two, which divides exactly, and beyond
    # it the maximum itself, as the power of two's factor in [1, 2) would overflow.
    # The sums keep their axes until after the root, so the root always runs on an
    # array, where numpy takes sqrt at p = 2, never on a scalar, which goes to pow
    top = x.max(axis=axis, keepdims=True)
    if p.is_inf:
        return top.squeeze(axis)
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1) if p.value <= 2 else np.where(top > 0, top, 1.0)
    x /= scale
    return ((weight * (x ** p.value).sum(axis=axis, keepdims=True)) ** (1.0 / p.value)
            * scale).squeeze(axis)


def amalgam_norm(f: GridFunction, pq) -> float:
    """The W(L^p, l^q) norm: l^q aggregation of the per-cube L^p norms."""
    pq = ExponentPair.of(pq)
    return float(_root_sum(cube_norms(f, pq.p), pq.q, None))


def wiener_norm(g: GridFunction) -> float:
    """The Wiener space norm: sum over cubes of the local sup, W(L^inf, l^1)."""
    return amalgam_norm(g, (math.inf, 1))


def holder_bound(f: GridFunction, g: GridFunction, pq) -> tuple[float, float]:
    """Diagnostic pair (|<f, g>|, ||f||_{W(p,q)} * ||g||_{W(p',q')}).

    The first entry never exceeds the second: Hoelder holds exactly for the
    shared Riemann-sum discretization.
    """
    pq = ExponentPair.of(pq)
    lhs = abs(inner_product(f, g))
    rhs = amalgam_norm(f, pq) * amalgam_norm(g, pq.conjugate())
    return lhs, rhs
