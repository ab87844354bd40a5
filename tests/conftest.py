"""Shared fixtures: the standard desk-scale grid and window samples."""
import copy
import pickle

import numpy as np
import pytest

from gabframes import Grid, GridFunction, WindowSpec, sample_window, translate


@pytest.fixture(scope="session")
def grid():
    return Grid(4.0, 1 / 32)


@pytest.fixture(scope="session")
def chi(grid):
    return sample_window(WindowSpec.indicator_cube(1.0), grid)


@pytest.fixture(scope="session")
def hat(grid):
    return sample_window(WindowSpec.bspline(2), grid)


@pytest.fixture(scope="session")
def gauss(grid):
    return sample_window(WindowSpec.gaussian(1.0, 3.0), grid)


def random_interior(grid, seed, envelope_sigma=1.2, envelope_radius=2.0):
    """A random complex function supported well inside the domain."""
    rng = np.random.default_rng(seed)
    env = sample_window(WindowSpec.gaussian(envelope_sigma, envelope_radius), grid)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, env.values * noise)


@pytest.fixture
def interior_f(grid):
    return random_interior(grid, seed=11)


def shifted_window(spec, grid, shift):
    return translate(sample_window(spec, grid), shift)


# one lattice (a, b) for each way to miss the grid's lattice rule: a step a
# or b that is zero, negative or nan, or a step a or 1/b below one sample
BAD_LATTICES = [pytest.param(a, b, id=name) for name, a, b in [
    ("zero-a", 0.0, 0.5), ("negative-a", -0.5, 0.5), ("zero-b", 0.5, 0.0),
    ("negative-b", 0.5, -2.0), ("nan-a", float("nan"), 0.5), ("nan-b", 0.5, float("nan")),
    ("a-below-a-sample", 1e-12, 0.5), ("inverse-b-below-a-sample", 0.5, 1e12)]]


# every way to duplicate an immutable value: shallow copy, deep copy, pickle
COPIERS = pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])


def same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.uint8), want.view(np.uint8)))


def scan_box(values):
    """The box of slices a full-grid argwhere scan finds around the nonzero samples."""
    nz = np.argwhere(values != 0)
    if not len(nz):
        return (slice(0, 0),) * values.ndim
    return tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(nz.min(axis=0), nz.max(axis=0)))


def assert_one_rule(f, want=None):
    """f.box is the smallest box that holds every nonzero sample and every
    sample off it is +0; on the box, f has the bits of want, the full-grid
    array its arithmetic gives, which holds only zeros off the box."""
    values = f.values
    assert f.box == scan_box(values)
    off = np.ones(values.shape, dtype=bool)
    off[f.box] = False
    assert not np.signbit(values.view(float).reshape(values.shape + (2,))[off]).any()
    if want is not None:
        assert same_bits(f.data, want[f.box])
        assert not want[off].any()
