"""Window families and their sampling onto grids.

Four families cover the regimes of interest: cube indicators (discontinuous
but Riemann integrable), cardinal B-splines (continuous piecewise
polynomials), truncated Gaussians (smooth, rapidly decaying lattice
coefficients), and fat-Cantor indicators (Smith-Volterra-Cantor sets:
positive measure, nowhere dense in the limit, the sup-norm spoiler).

Every family samples to a function with finite Wiener norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import ceil, gcd, lcm, lgamma, log
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, ResolutionError, UnsupportedDimensionError, _at_least_one,
                     _number, _require_memory, _typed, _whole)
from .grid import Grid, GridFunction, translate

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "WindowSpec",
    "sample_window",
    "fat_cantor_intervals",
    "fat_cantor_measure",
    "bspline_profile",
    "window_library",
]

# each family and the rule that reads each of its parameters
_FAMILIES = {"indicator_cube": {"side": _number}, "bspline": {"order": _whole},
             "gaussian": {"sigma": _number, "radius": _number}, "fat_cantor": {"depth": _whole}}
_PARAMETERS = ("side", "order", "sigma", "radius", "depth")
_LOG_TINY = -1074 * log(2.0)  # log of the least positive double, 2^-1074


@dataclass(frozen=True)
class WindowSpec:
    """Declarative window description, serializable to a flat JSON object.

    Exactly the parameters of the chosen family are set:
    indicator_cube(side), bspline(order), gaussian(sigma, radius),
    fat_cantor(depth).
    """

    family: str
    side: float | None = None
    order: int | None = None
    sigma: float | None = None
    radius: float | None = None
    depth: int | None = None

    def __post_init__(self):
        families = tuple(_FAMILIES)  # compared by ==, so a JSON list or object fails here too
        if self.family not in families:
            raise ValueError(f"unknown window family {self.family!r}; expected one of {families}")
        takes = _FAMILIES[self.family]
        for name in _PARAMETERS:
            val = getattr(self, name)
            if name not in takes:
                if val is not None:
                    raise ValueError(f"{self.family} window does not take parameter {name!r}")
            elif val is None:
                raise ValueError(f"{self.family} window requires parameter {name!r}")
            else:
                val = _typed(name, takes[name], val)
                if not val > 0:  # nan too
                    raise ValueError(f"window parameter {name}={val!r} must be a positive number")
                object.__setattr__(self, name, val)

    # -- constructors ------------------------------------------------------
    @classmethod
    def indicator_cube(cls, side: float = 1.0) -> "WindowSpec":
        return cls("indicator_cube", side=side)

    @classmethod
    def bspline(cls, order: int = 2) -> "WindowSpec":
        return cls("bspline", order=order)

    @classmethod
    def gaussian(cls, sigma: float = 1.0, radius: float = 3.0) -> "WindowSpec":
        return cls("gaussian", sigma=sigma, radius=radius)

    @classmethod
    def fat_cantor(cls, depth: int) -> "WindowSpec":
        return cls("fat_cantor", depth=depth)

    # -- JSON --------------------------------------------------------------
    def to_json(self) -> dict:
        return {"family": self.family,
                **{name: getattr(self, name) for name in _FAMILIES[self.family]}}

    @classmethod
    def from_json(cls, obj) -> "WindowSpec":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ValueError(f"window spec must be an object with a 'family' key, got {obj!r}")
        extra = set(obj) - {"family", *_PARAMETERS}
        if extra:
            raise ValueError(f"unknown window spec key(s): {sorted(extra)}")
        return cls(**obj)


def bspline_profile(order: int, x: np.ndarray) -> np.ndarray:
    """Cardinal B-spline of the given order, supported on [0, order).

    Order 1 is the unit indicator; order 2 the unit hat peaking at 1.
    B_k(x) = (x B_{k-1}(x) + (k - x) B_{k-1}(x - 1)) / (k - 1), computed bottom
    up at the arguments x, x - 1, ... that the recursion builds, so it keeps
    the recursion's bits in order (order + 1) / 2 array operations.
    """
    order = _at_least_one("order", order)
    args = [x]
    for _ in range(order - 1):
        args.append(args[-1] - 1)
    level = [((t >= 0) & (t < 1)).astype(float) for t in args]
    for k in range(2, order + 1):
        level = [(t * prev + (k - t) * shift) / (k - 1)
                 for t, prev, shift in zip(args, level, level[1:])]
    return level[0]


def _fat_cantor_table(depth: int, interval_bytes: int) -> tuple[int, np.ndarray]:
    # U = 2*4^k and the depth-k set's sorted endpoints lo, hi, lo, ... in units of 1/U,
    # all whole: step j splits each piece at its midpoint and cuts 4^(k-j) units from
    # each side.  int64 holds U to depth 30; interval_bytes is the caller's traced peak
    _require_memory(interval_bytes * 2 ** min(depth, 64),
                    f"building the 2^{depth} fat-Cantor intervals", "lower the depth")
    ends = np.array([0, 2 * 4**depth], dtype=np.int64 if depth <= 30 else object)
    for j in range(1, depth + 1):
        mid, cut = (ends[0::2] + ends[1::2]) // 2, 4 ** (depth - j)
        ends = np.column_stack([ends[0::2], mid - cut, mid + cut, ends[1::2]]).ravel()
    return 2 * 4**depth, ends


def fat_cantor_intervals(depth: int) -> list[tuple[Fraction, Fraction]]:
    """Closed intervals of the depth-k Smith-Volterra-Cantor set in [0, 1].

    At step j each of the 2^(j-1) pieces loses its open middle interval of
    length 4^(-j).  Endpoints are exact rationals; a depth past memory is a ResolutionError.
    """
    from fractions import Fraction

    units, ends = _fat_cantor_table(_at_least_one("depth", depth), 420)
    return [(Fraction(a, units), Fraction(b, units)) for a, b in ends.reshape(-1, 2).tolist()]


def fat_cantor_measure(depth: int) -> Fraction:
    """Exact Lebesgue measure (2^k + 1) / 2^(k+1) of the depth-k set; a depth whose
    integers (about five of depth bits) pass memory is a ResolutionError."""
    from fractions import Fraction

    depth = _at_least_one("depth", depth)
    _require_memory(5 * depth // 8, f"the depth-{depth} fat-Cantor measure", "lower the depth")
    return Fraction(2**depth + 1, 2 ** (depth + 1))


def _fat_cantor_axis(depth: int, grid: Grid, lo: int, hi: int) -> np.ndarray:
    # indices lo..hi-1 hold [0, 1]; [a, b] is sampled half-open (the cube convention):
    # i is in it when ceil(a m/U) <= i - th < ceil(b m/U), so when an odd number of
    # the sorted cuts lie at or below i - th; past int64 the products are Python ints
    m, th = grid.samples_per_unit, grid.half_extent_steps
    wide = depth > 30 or lcm(m, 2 * 4**depth) >= 2**63  # lcm(m, U) is the largest product
    units, ends = _fat_cantor_table(depth, 200 if wide else 48)
    m, reduced = m // (common := gcd(m, units)), units // common
    split = np.searchsorted(ends, (2**63 - 1) // m, side="right")
    cuts = np.concatenate([-(-ends[:split].astype(np.int64) * m // reduced),
                           (-(-ends[split:].astype(object) * m // reduced)).astype(np.int64)])
    return (np.searchsorted(cuts, np.arange(lo - th, hi - th), side="right") % 2).astype(float)


def sample_window(spec: WindowSpec, grid: Grid) -> GridFunction:
    """Pointwise samples of the window on the grid.

    Every family is a product of one axis profile over the axes, computed
    only on the family's support interval ([0, side), [0, order),
    [-radius, radius] or [0, 1]) widened by one sample; the product is formed
    only on the support box, so no full-axis array is allocated.  fat_cantor
    requires dim = 1 (UnsupportedDimensionError otherwise); ResolutionError when
    the samples are all zero, or before the axis arrays or the box's product
    when they would pass physical memory.
    """
    if spec.family == "fat_cantor" and grid.dim != 1:
        raise UnsupportedDimensionError("fat_cantor windows are one-dimensional")
    start, stop = (-spec.radius, spec.radius) if spec.family == "gaussian" else (
        0, {"indicator_cube": spec.side, "bspline": spec.order, "fat_cantor": 1}[spec.family])
    # the indices lo..hi-1 whose coordinate may lie in [start, stop], one
    # sample wider on each side and clipped to the axis
    m, th, n = grid.samples_per_unit, grid.half_extent_steps, grid.samples_per_axis
    lo, hi = int(min(max(start * m + th - 1, 0), n)), ceil(min(max(stop * m + th + 2, 0), n))
    # traced: 32 B a sample of [lo, hi) for the coordinates, the profile and its
    # scans, then 17 B a box sample beside them for the complex product and its
    # support scan (49 B a sample in 1-D; a B-spline's recursion holds more)
    what, advice = f"the window {spec.to_json()}", "coarsen the spacing or lower the dimension"
    _require_memory(32 * (hi - lo), f"{what} on {hi - lo} samples per axis", advice)
    x = grid.axis_coords(lo, hi)
    if spec.family == "fat_cantor":
        axis = _fat_cantor_axis(spec.depth, grid, lo, hi)
    elif spec.family == "indicator_cube":
        axis = ((x >= 0) & (x < spec.side)).astype(float)
    elif spec.family == "bspline":
        # B_k(x) <= x^(k-1) / (k-1)! for x >= 0: an order whose bound at the largest
        # coordinate is below the least double samples to zero, without the recursion
        k, x_max = spec.order, x[-1]
        tiny = k > 1 and (x_max <= 0 or (k - 1) * log(x_max) - lgamma(k) < _LOG_TINY)
        axis = np.zeros_like(x) if tiny else bspline_profile(k, x)
    else:  # gaussian, truncated to the box |x_j| <= radius
        axis = np.where(np.abs(x) <= spec.radius, np.exp(-np.pi * x**2 / spec.sigma**2), 0.0)
    nz = np.flatnonzero(axis)
    if not nz.size:
        raise ResolutionError(f"window {spec.to_json()} samples to zero everywhere on {grid!r}")
    box = (slice(lo + nz[0], lo + nz[-1] + 1),) * grid.dim
    size = int(nz[-1] - nz[0] + 1) ** grid.dim
    _require_memory(17 * size + 32 * (hi - lo), f"{what} on {size} samples", advice)
    profile = axis[nz[0]:nz[-1] + 1].astype(complex)
    return GridFunction._own(grid, box, reduce(np.multiply.outer, [profile] * grid.dim))


def _test_function(spec: WindowSpec, grid: Grid, shift) -> GridFunction:
    # the test function f of a run: the window moved by shift, when one is
    # given; ConfigError when the shift moves every sample off the grid
    f = sample_window(spec, grid)
    if shift is not None:
        f = translate(f, shift)
        if not f.data.size:
            raise ConfigError(f"f_shift {shift} moves the test function off the grid")
    return f


def window_library() -> list[WindowSpec]:
    """The fixed window set swept by the property and bound checks."""
    return [
        WindowSpec.indicator_cube(1.0),
        WindowSpec.bspline(2),
        WindowSpec.gaussian(1.0, 3.0),
        WindowSpec.fat_cantor(2),
    ]
