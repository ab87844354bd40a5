"""Seeded property checks over random commensurate configurations.

Each case draws a grid (1-D or 2-D, integer or non-integer half extent),
lattice steps that are multiples of the spacing, window specs and a random
complex f from one numpy generator, so every run checks the same cases.
The properties: A <= <S f, f> / <f, f> <= B for the exact frame bounds, the
measured Janssen truncation error never exceeds its certificate, and every
operation on support boxes equals its full-grid definition.
"""
import math

import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    WindowSpec,
    correlation_family,
    cube_norms,
    frame_bounds,
    inner_product,
    janssen_apply,
    janssen_coefficients,
    l2_norm,
    periodic_extension,
    sample_window,
    translate,
    walnut_apply,
)
from gabframes.grid import shift_array
from test_amalgam import full_grid_cube_norms
from test_walnut import same_bits

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


def random_box_function(rng, grid):
    """Random complex samples on a random box, zero elsewhere.

    Per axis the box touches the low or the high end, holds one sample,
    covers the axis or lies inside; one case in ten is the zero function.
    Built by the public constructor, so every sample off the box reads +0.
    """
    n = grid.samples_per_axis
    box = []
    for _ in range(grid.dim):
        lo, hi = sorted(int(v) for v in rng.integers(0, n, 2))
        kind = rng.integers(5)
        lo, hi = [(0, hi), (lo, n - 1), (lo, lo), (0, n - 1), (lo, hi)][kind]
        box.append(slice(lo, hi + 1))
    values = np.zeros(grid.shape, dtype=complex)
    if rng.random() >= 0.1:
        shape = values[tuple(box)].shape
        values[tuple(box)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(grid, values)


def full_grid_walnut(f, sys):
    """The Walnut sum of every member over the whole grid, scaled by the system's pairing."""
    grid = sys.grid
    acc = np.zeros(grid.shape, dtype=complex)
    for n, cell in sorted(correlation_family(sys).items()):
        acc += periodic_extension(cell, grid) * shift_array(f.values, np.array(n) * sys.inv_b_steps)
    return sys.a ** grid.dim / sys.pairing * acc


@pytest.mark.parametrize("seed", range(2 * CASES))
def test_box_operations_match_full_grid_definitions(seed):
    grid, g, gamma, a, b, _, _ = random_case(seed % CASES)
    rng = np.random.default_rng(1000 + seed)
    f0, u = random_box_function(rng, grid), random_box_function(rng, grid)
    c = complex(*rng.standard_normal(2))
    # negatives and complex multiples carry the signed zero their full-grid
    # arithmetic leaves off the box, which every operation but translate keeps
    f = [f0, -f0, complex(*rng.standard_normal(2)) * f0][rng.integers(3)]
    steps = rng.integers(-grid.samples_per_axis, grid.samples_per_axis + 1, grid.dim)
    sys = GaborSystem(g, gamma, a, b)
    # results first, so each is computed before the full grids exist
    results = [f + u, f - u, c * f, -f, translate(f0, steps * grid.spacing), walnut_apply(f, sys)]
    norms = {p: cube_norms(f, p) for p in (1, 2, 3, math.inf)}
    pairing, norm = inner_product(f, u), l2_norm(f)
    wants = [f.values + u.values, f.values - u.values, f.values * c, -f.values,
             shift_array(f0.values, steps), full_grid_walnut(f, sys)]
    for got, want in zip(results, wants):
        assert same_bits(got.values, want)
    for p, got in norms.items():
        assert same_bits(got, full_grid_cube_norms(f, p)), p
    # a sum over the box meets the same terms in another order: the last bits may differ
    h = grid.cell_measure
    want = h * np.vdot(u.values, f.values)
    assert abs(pairing - want) <= 1e-15 * max(abs(want), 1e-300)
    want = math.sqrt(h) * np.linalg.norm(f.values)
    assert abs(norm - want) <= 1e-15 * want
