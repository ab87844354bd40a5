"""Seeded property checks over random commensurate configurations.

Each case draws a grid (1-D or 2-D, integer or non-integer half extent),
lattice steps that are multiples of the spacing, window specs and a random
complex f from one numpy generator, so every run checks the same cases.
The properties: A <= <S f, f> / <f, f> <= B for the exact frame bounds, and
the measured Janssen truncation error never exceeds its certificate.
"""
import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    WindowSpec,
    frame_bounds,
    inner_product,
    janssen_apply,
    janssen_coefficients,
    sample_window,
    walnut_apply,
)

CASES = 20


def random_spec(rng, half_extent):
    family = rng.choice(["gaussian", "bspline", "indicator_cube"])
    if family == "gaussian":
        radius = rng.uniform(0.4, 0.9) * half_extent
        return WindowSpec.gaussian(rng.uniform(0.3, 1.0), radius)
    if family == "bspline":
        return WindowSpec.bspline(int(rng.integers(1, 4)))
    return WindowSpec.indicator_cube(float(rng.choice([0.5, 1.0])))


def random_case(seed):
    rng = np.random.default_rng(seed)
    dim = 1 if seed % 3 else 2
    per_unit = int(rng.choice([8, 12, 16] if dim == 1 else [4, 6, 8]))
    # half extents 1.5..3 units, a whole number of units in about half the cases
    half_extent_steps = int(rng.integers(3, 7)) * per_unit // 2
    grid = Grid(half_extent_steps / per_unit, 1 / per_unit, dim=dim)
    a = int(rng.integers(1, per_unit + 1)) / per_unit
    inv_b = int(rng.integers(2, 2 * per_unit + 1)) / per_unit
    g = sample_window(random_spec(rng, grid.half_extent), grid)
    gamma = sample_window(random_spec(rng, grid.half_extent), grid)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    radii = int(rng.integers(0, per_unit)), int(rng.integers(0, 4))
    return grid, g, gamma, a, 1 / inv_b, f, radii


@pytest.mark.parametrize("seed", range(CASES))
def test_rayleigh_quotient_within_frame_bounds(seed):
    grid, g, _, a, b, f, _ = random_case(seed)
    sys = GaborSystem(g, g, a, b)
    lower, upper = frame_bounds(sys)
    quotient = inner_product(walnut_apply(f, sys), f).real / inner_product(f, f).real
    slack = 1e-12 * max(1.0, upper)
    assert lower - slack <= quotient <= upper + slack


@pytest.mark.parametrize("seed", range(CASES))
def test_janssen_error_within_certificate(seed):
    grid, g, gamma, a, b, f, (ell_radius, n_radius) = random_case(seed)
    sys = GaborSystem(g, gamma, a, b)
    lat = janssen_coefficients(sys, ell_radius, n_radius)
    err = (janssen_apply(f, lat) - walnut_apply(f, sys)).values.ravel()
    vals = f.values.ravel()
    for p in (1, 2, np.inf):
        ratio = np.linalg.norm(err, p) / np.linalg.norm(vals, p)
        assert ratio <= lat.truncation_bound + 1e-13, p
