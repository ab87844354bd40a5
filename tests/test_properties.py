"""Seeded property checks over random commensurate configurations.

Each case draws a grid (1-D or 2-D, integer or non-integer half extent),
lattice steps that are multiples of the spacing, window specs and a random
complex f from one numpy generator, so every run checks the same cases.
The properties: A <= <S f, f> / <f, f> <= B for the exact frame bounds, the
measured Janssen truncation error never exceeds its certificate, and every
operation on support boxes equals its full-grid definition.

Every window those cases draw in 2-D is a tensor product of one profile, so
the last properties draw non-separable ones: random complex samples on a
rectangle with a different side per axis, often at the grid's edge.  On
them the Walnut form equals the direct oracle, the frame bounds equal a
dense eigvalsh, the Wexler-Raz verdict equals a plain FFT of every member,
and cube norms equal a plain full-grid reduction bit for bit.

The shift ranges behind the Walnut members and the time radius come from
one rule on support boxes, checked against moving random boxes one step at
a time.
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
    JanssenLattice,
    WindowSpec,
    apply_diagonal_defect,
    apply_frame_direct,
    apply_remainder,
    correlation_family,
    cube_norms,
    diagonal_correlation,
    frame_bounds,
    inner_product,
    janssen_apply,
    l2_norm,
    modulate,
    periodic_extension,
    sample_window,
    translate,
    walnut_apply,
    wexler_raz_check,
)
from gabframes import grid as grid_module
from gabframes.grid import shift_array
from conftest import assert_one_rule, same_bits
from test_amalgam import full_grid_cube_norms
from test_operators import dense_frame_operator

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
    lat = JanssenLattice(sys, ell_radius, n_radius)
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
    lat = JanssenLattice(sys, ell_radius, n_radius)
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
    columns = lat._form.cells
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


# 2-D grids for the non-separable windows: a whole number of units per half
# extent, and two with partial cubes at both ends (T = 1.5 and 1.25)
RECTANGLE_GRIDS = (Grid(2.0, 1 / 6, dim=2), Grid(1.5, 1 / 8, dim=2), Grid(1.25, 1 / 8, dim=2))


def random_rectangle(rng, grid):
    """Random complex samples on a rectangle with a different side per axis,
    zero elsewhere: a window that is no tensor product of one profile.  Per
    axis the rectangle touches the low end, the high end or neither."""
    n = grid.samples_per_axis
    box = []
    for side in rng.choice(np.arange(2, n // 2 + 1), grid.dim, replace=False):
        lo = [0, n - side, int(rng.integers(1, n - side))][rng.integers(3)]
        box.append(slice(int(lo), int(lo + side)))
    values = np.zeros(grid.shape, dtype=complex)
    shape = values[tuple(box)].shape
    values[tuple(box)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(grid, values)


def rectangle_case(seed):
    rng = np.random.default_rng(2000 + seed)
    grid = RECTANGLE_GRIDS[seed % len(RECTANGLE_GRIDS)]
    m = grid.samples_per_unit
    g = random_rectangle(rng, grid)
    a = int(rng.integers(1, m + 1)) / m
    inv_b = int(rng.integers(2, 2 * m + 1)) / m
    return rng, grid, g, a, 1 / inv_b


@pytest.mark.parametrize("seed", range(CASES // 2))
def test_nonseparable_walnut_equals_direct(seed):
    rng, grid, g, a, b = rectangle_case(seed)
    # gamma overlaps g, so the pairing stays away from zero
    gamma = g + random_rectangle(rng, grid)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    sys = GaborSystem(g, gamma, a, b)
    want = apply_frame_direct(f, sys).values
    assert np.abs(walnut_apply(f, sys).values - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("seed", range(CASES // 2))
def test_nonseparable_frame_bounds_equal_dense_eigvalsh(seed):
    _, _, g, a, b = rectangle_case(seed)
    sys = GaborSystem(g, g, a, b)
    eig = np.linalg.eigvalsh(dense_frame_operator(sys))
    lower, upper = frame_bounds(sys)
    assert abs(lower - eig[0]) <= 1e-13 * eig[-1]
    assert abs(upper - eig[-1]) <= 1e-13 * eig[-1]


@pytest.mark.parametrize("seed", range(CASES // 2))
def test_nonseparable_wexler_raz_equals_every_member_spectrum(seed):
    # the verdict against h^d fftn(G[n]) / <gamma, g> of every member, each
    # bin named by its centred l, in sorted n and then bin order
    rng, grid, g, a, b = rectangle_case(seed)
    sys = GaborSystem(g, g + random_rectangle(rng, grid), a, b)
    p, origin = sys.a_steps, ((0, 0), (0, 0))
    values, mags = {}, []
    for n, cell in correlation_family(sys).items():
        normalized = grid.cell_measure * np.fft.fftn(cell) / sys.pairing
        for bins, mag in np.ndenumerate(np.abs(normalized)):
            at = (tuple(i if i < p - p // 2 else i - p for i in bins), n)
            values[at] = normalized[bins]
            if at != origin:
                mags.append((mag, at))
    top = max(mag for mag, _ in mags)
    res = wexler_raz_check(sys)
    assert res.diag == values[origin]
    assert res.max_offdiag == top
    assert res.at == next(at for mag, at in mags if mag == top)
    assert res.is_biorthogonal == (abs(res.diag - 1.0) <= 1e-10 and top <= 1e-10)


@pytest.mark.parametrize("seed", range(CASES))
def test_nonseparable_cube_norms_equal_full_grid_reduction(seed):
    rng, grid, g, _, _ = rectangle_case(seed)
    for f in (g, -g, g + random_rectangle(rng, grid)):
        for p in (1, 2, 3, math.inf):
            assert same_bits(cube_norms(f, p), full_grid_cube_norms(f, p)), p


@pytest.mark.parametrize("seed", range(CASES))
def test_shift_range_equals_brute_force(seed):
    # the n that move one support box by n * step onto another, per axis,
    # against every n tried one by one; boxes are grid slices in [0, 89), so
    # no |n| * step beyond 89 can meet
    rng = np.random.default_rng(seed)
    for _ in range(200):
        lo, width = rng.integers(0, 60, size=(2, 2)), rng.integers(1, 30, size=(2, 2))
        u, v = (tuple(slice(int(s), int(s + w)) for s, w in zip(lo[k], width[k])) for k in (0, 1))
        step = int(rng.integers(1, 13))
        reach = 89 // step + 1
        want = [[n for n in range(-reach, reach + 1)
                 if grid_module._meet(grid_module._moved((a,), [n * step]), (b,))]
                for a, b in zip(u, v)]
        assert [list(r) for r in grid_module._shift_range(u, v, step)] == want, (u, v, step)
