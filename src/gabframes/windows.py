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
from math import ceil, lgamma, log
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResolutionError, UnsupportedDimensionError
from .grid import Grid, GridFunction

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

_FAMILIES = ("indicator_cube", "bspline", "gaussian", "fat_cantor")
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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown window family {self.family!r}; expected one of {_FAMILIES}")
        need = {
            "indicator_cube": ("side",),
            "bspline": ("order",),
            "gaussian": ("sigma", "radius"),
            "fat_cantor": ("depth",),
        }[self.family]
        for name in ("side", "order", "sigma", "radius", "depth"):
            val = getattr(self, name)
            if name in need:
                if val is None:
                    raise ValueError(f"{self.family} window requires parameter {name!r}")
                if val <= 0:
                    raise ValueError(f"window parameter {name}={val!r} must be strictly positive")
            elif val is not None:
                raise ValueError(f"{self.family} window does not take parameter {name!r}")
        if self.order is not None and int(self.order) != self.order:
            raise ValueError(f"bspline order must be an integer, got {self.order!r}")
        if self.depth is not None and (int(self.depth) != self.depth or self.depth < 1):
            raise ValueError(f"fat_cantor depth must be an integer >= 1, got {self.depth!r}")

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
        out = {"family": self.family}
        for name in ("side", "order", "sigma", "radius", "depth"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out

    @classmethod
    def from_json(cls, obj) -> "WindowSpec":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ValueError(f"window spec must be an object with a 'family' key, got {obj!r}")
        known = {"family", "side", "order", "sigma", "radius", "depth"}
        extra = set(obj) - known
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
    args = [x]
    for _ in range(order - 1):
        args.append(args[-1] - 1)
    level = [((t >= 0) & (t < 1)).astype(float) for t in args]
    for k in range(2, order + 1):
        level = [(t * prev + (k - t) * shift) / (k - 1)
                 for t, prev, shift in zip(args, level, level[1:])]
    return level[0]


def fat_cantor_intervals(depth: int) -> list[tuple[Fraction, Fraction]]:
    """Closed intervals of the depth-k Smith-Volterra-Cantor set in [0, 1].

    At step j each of the 2^(j-1) pieces loses its open middle interval of
    length 4^(-j).  Endpoints are exact rationals.
    """
    from fractions import Fraction

    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth!r}")
    pieces = [(Fraction(0), Fraction(1))]
    for j in range(1, depth + 1):
        half_gap = Fraction(1, 2 * 4**j)
        nxt = []
        for lo, hi in pieces:
            mid = (lo + hi) / 2
            nxt.append((lo, mid - half_gap))
            nxt.append((mid + half_gap, hi))
        pieces = nxt
    return pieces


def fat_cantor_measure(depth: int) -> Fraction:
    """Exact Lebesgue measure 1 - (1/2)(1 - 2^-k) of the depth-k set."""
    from fractions import Fraction

    return 1 - Fraction(1, 2) * (1 - Fraction(1, 2**depth))


def _fat_cantor_axis(depth: int, grid: Grid) -> np.ndarray:
    # each construction interval is sampled half-open [lo, hi), matching the
    # package-wide cube convention; endpoints are compared as exact rationals
    m = grid.samples_per_unit
    th = grid.half_extent_steps
    n = grid.samples_per_axis
    vals = np.zeros(n)
    for lo, hi in fat_cantor_intervals(depth):
        start = ceil(lo * m) + th
        stop = ceil(hi * m) + th
        start = max(start, 0)
        stop = min(stop, n)
        if start < stop:
            vals[start:stop] = 1.0
    return vals


def sample_window(spec: WindowSpec, grid: Grid) -> GridFunction:
    """Pointwise samples of the window on the grid.

    Every family is a product of one axis profile over the axes; the product
    is formed only on the box where the profile is nonzero, which is also the
    function's support box, and no full-grid array is allocated.  fat_cantor
    requires dim = 1 (UnsupportedDimensionError otherwise), and a window whose
    samples are all zero on the grid raises ResolutionError.
    """
    x = grid.axis_coords()
    if spec.family == "fat_cantor":
        if grid.dim != 1:
            raise UnsupportedDimensionError("fat_cantor windows are one-dimensional")
        axis = _fat_cantor_axis(spec.depth, grid)
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
    box = (slice(nz[0], nz[-1] + 1),) * grid.dim
    vals = np.ones((), dtype=float)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = -1
        vals = vals * axis[box[ax]].reshape(shape)
    return GridFunction._own(grid, box, vals.astype(complex))


def window_library() -> list[WindowSpec]:
    """The fixed window set swept by the property and bound checks."""
    return [
        WindowSpec.indicator_cube(1.0),
        WindowSpec.bspline(2),
        WindowSpec.gaussian(1.0, 3.0),
        WindowSpec.fat_cantor(2),
    ]
