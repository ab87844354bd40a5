"""Exception types shared across the package."""

__all__ = [
    "CommensurabilityError",
    "GridMismatchError",
    "DegenerateWindowPairError",
    "UnsupportedDimensionError",
    "ResolutionError",
    "ConfigError",
]


class CommensurabilityError(ValueError):
    """A shift is not an integer multiple of the grid spacing, or a lattice
    step (a or 1/b) is not a positive one.

    Shifts are relocated sample-exactly, never interpolated, so every time
    shift must land on the grid.
    """


class GridMismatchError(ValueError):
    """Two grid functions that must share a grid do not."""


class DegenerateWindowPairError(ValueError):
    """The window pairing <gamma, g> vanishes (|.| <= 1e-12), so the
    normalized frame operator is undefined."""


class UnsupportedDimensionError(ValueError):
    """The requested construction only exists in a specific dimension."""


class ResolutionError(ValueError):
    """The grid is too coarse to resolve the requested construction, or so
    fine that the construction cannot fit in physical memory, or a window
    samples to zero on every point of it."""


class ConfigError(ValueError):
    """A run configuration failed validation before any computation."""
