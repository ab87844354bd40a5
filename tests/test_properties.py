"""Seeded property checks over random commensurate configurations.

Each case draws a grid (1-D or 2-D, integer or non-integer half extent),
lattice steps that are multiples of the spacing, window specs and a random
complex f from one numpy generator, so every run checks the same cases.
The properties: A <= <S f, f> / <f, f> <= B for the exact frame bounds, the
measured Janssen truncation error never exceeds its certificate, and every
operation on support boxes equals its full-grid definition.
"""
import copy
import math
import pickle

import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    WindowSpec,
    apply_diagonal_defect,
    apply_remainder,
    correlation_family,
    cube_norms,
    diagonal_correlation,
    frame_bounds,
    inner_product,
    janssen_apply,
    janssen_coefficients,
    l2_norm,
    modulate,
    periodic_extension,
    sample_window,
    translate,
    walnut_apply,
)
from gabframes import grid as grid_module, janssen
from gabframes.grid import shift_array
from conftest import assert_one_rule, same_bits
from test_amalgam import full_grid_cube_norms

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


def random_box_values(rng, grid):
    """Random complex samples on a random box, -0 elsewhere.

    Per axis the box touches the low or the high end, holds one sample,
    covers the axis or lies inside; one case in ten is the zero function.
    About one sample in five on the box is a zero of either sign, so the
    support box can be smaller than the box.
    """
    n = grid.samples_per_axis
    box = []
    for _ in range(grid.dim):
        lo, hi = sorted(int(v) for v in rng.integers(0, n, 2))
        kind = rng.integers(5)
        lo, hi = [(0, hi), (lo, n - 1), (lo, lo), (0, n - 1), (lo, hi)][kind]
        box.append(slice(lo, hi + 1))
    values = np.full(grid.shape, complex(-0.0, -0.0))
    if rng.random() >= 0.1:
        shape = values[tuple(box)].shape
        on = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values[tuple(box)] = on * (rng.random(shape) >= 0.2)
    return values


def full_grid_walnut(f, sys, cells):
    """The Walnut sum of cells over the whole grid, in sorted n order."""
    grid = sys.grid
    acc = np.zeros(grid.shape, dtype=complex)
    for n, cell in sorted(cells.items()):
        acc += periodic_extension(cell, grid) * shift_array(f.values, np.array(n) * sys.inv_b_steps)
    return acc


@pytest.mark.parametrize("seed", range(2 * CASES))
def test_box_operations_match_full_grid_definitions(seed):
    grid, g, gamma, a, b, _, (ell_radius, n_radius) = random_case(seed % CASES)
    rng = np.random.default_rng(1000 + seed)
    f_values, u_values = random_box_values(rng, grid), random_box_values(rng, grid)
    f0, u = GridFunction(grid, f_values), GridFunction(grid, u_values)
    c = complex(*rng.standard_normal(2))
    # negatives and complex multiples hold -0 parts on their boxes
    f = [f0, -f0, complex(*rng.standard_normal(2)) * f0][rng.integers(3)]
    steps = rng.integers(-grid.samples_per_axis, grid.samples_per_axis + 1, grid.dim)
    omega = rng.uniform(-4.0, 4.0, grid.dim)
    sys = GaborSystem(g, gamma, a, b)
    lat = janssen_coefficients(sys, ell_radius, n_radius)
    # results first, so each is computed before the full grids exist
    results = [f0, f + u, f - u, f - f, c * f, -2.5 * f, -f, translate(f0, steps * grid.spacing),
               modulate(f, omega), walnut_apply(f, sys), apply_remainder(f, sys),
               apply_diagonal_defect(f, sys), janssen_apply(f, lat),
               pickle.loads(pickle.dumps(f)), copy.deepcopy(f)]
    norms = {p: cube_norms(f, p) for p in (1, 2, 3, math.inf)}
    pairing, norm = inner_product(f, u), l2_norm(f)
    scale = sys.a ** grid.dim / sys.pairing
    zero = (0,) * grid.dim
    members = correlation_family(sys)
    off_diagonal = {n: cell for n, cell in members.items() if n != zero}
    columns = janssen._janssen_form(lat).cells
    whole = (slice(0, grid.samples_per_axis),) * grid.dim
    wants = [f_values, f.values + u.values, f.values - u.values, f.values - f.values,
             f.values * c, f.values * complex(-2.5), -f.values, shift_array(f0.values, steps),
             f.values * grid_module._phase(grid, omega, whole),
             scale * full_grid_walnut(f, sys, members), scale * full_grid_walnut(f, sys, off_diagonal),
             (periodic_extension(diagonal_correlation(sys), grid) - 1.0) * f.values,
             full_grid_walnut(f, sys, columns) / sys.pairing, f.values, f.values]
    for got, want in zip(results, wants, strict=True):
        assert_one_rule(got, want)
    for p, got in norms.items():
        assert same_bits(got, full_grid_cube_norms(f, p)), p
    # a sum over the box meets the same terms in another order: the last bits may differ
    h = grid.cell_measure
    want = h * np.vdot(u.values, f.values)
    assert abs(pairing - want) <= 1e-15 * max(abs(want), 1e-300)
    want = math.sqrt(h) * np.linalg.norm(f.values)
    assert abs(norm - want) <= 1e-15 * want
