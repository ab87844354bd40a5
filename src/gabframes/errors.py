"""Exception types shared across the package, the one number rule that every
number a caller hands the package goes through, and the one memory preflight."""
import os

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


def _typed(key: str, convert, value):
    # convert one config value; a value of the wrong JSON type names its key
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} has a bad value {value!r}: {exc}") from exc


def _number(value, expected: str = "a number") -> float:
    # a real number as a float, numpy scalars included; a bool is not one
    import numbers  # here, so the CLI's front end loads no module for it

    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected {expected}, not {type(value).__name__}")
    return float(value)


def _whole(value) -> int:
    # a number without a fraction as an int: 2.0 reads as 2, 1.5 and inf fail
    if not _number(value).is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def _at_least_one(key: str, value) -> int:
    # a count, order or depth: a whole number >= 1
    value = _typed(key, _whole, value)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value!r}")
    return value


def _per_axis(key: str, convert, value, dim: int) -> tuple:
    # one number per axis, each through convert: a sequence of dim of them, or
    # on a 1-D grid a scalar; a wrong count is a bad value of key, too
    import numpy as np  # here, so the CLI's front end loads no numpy

    def axes(v):
        parts = np.atleast_1d(np.asarray(v, dtype=object))  # each component as given
        if parts.shape != (dim,):
            raise ValueError(f"expected {dim} component(s), got shape {parts.shape}")
        return parts

    return tuple(_typed(key, convert, part) for part in _typed(key, axes, value))


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return None


def _require_memory(need: int, what: str, advice: str) -> None:
    """Raise ResolutionError when ``what``, estimated to peak at ``need``
    bytes, would not fit in physical memory; called before allocating."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        from decimal import Decimal  # exact at any size, where a float overflows

        raise ResolutionError(
            f"{what} needs about {Decimal(need) / 2 ** 30:.3g} GiB, more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory; {advice}")
