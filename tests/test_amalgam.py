import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gabframes import (
    Exponent,
    ExponentPair,
    GaborSystem,
    Grid,
    GridFunction,
    amalgam_norm,
    cube_norms,
    holder_bound,
    inner_product,
    sample_window,
    translate,
    wiener_norm,
    WindowSpec,
)
from gabframes.experiments import _boundary_residue
from gabframes.grid import support_index_bounds
from conftest import random_interior

PQ_SET = [(1, 1), (2, 2), (1, 2), (2, math.inf), (math.inf, 1), (math.inf, math.inf)]


class TestExponents:
    @pytest.mark.parametrize("p,expected", [(1, math.inf), (2, 2), (4, 4 / 3), (math.inf, 1)])
    def test_conjugate(self, p, expected):
        assert float(Exponent.of(p).conjugate()) == pytest.approx(expected, rel=1e-15)

    def test_conjugate_involution(self):
        rng = np.random.default_rng(0)
        for p in 1 + 9 * rng.random(20):
            assert float(Exponent.of(p).conjugate().conjugate()) == pytest.approx(p, rel=1e-12)

    def test_parse(self):
        assert Exponent.of("inf").is_inf
        assert float(Exponent.of("2.5")) == 2.5
        with pytest.raises(ValueError):
            Exponent.of(0.5)

    def test_pair(self):
        pq = ExponentPair.of(1, "inf")
        assert str(pq) == "(1, inf)"
        assert str(pq.conjugate()) == "(inf, 1)"


class TestCubeNorm:
    def test_indicator_own_cube(self, grid, chi):
        zero = int(grid.half_extent)  # the entry of the cube [0, 1)
        for p in (1, 2, 3.5, math.inf):
            assert cube_norms(chi, p)[zero] == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_cube(self, grid, chi):
        zero = int(grid.half_extent)
        for p in (1, 2, math.inf):
            local = cube_norms(chi, p)
            assert not local[:zero].any() and not local[zero + 1:].any()

    def test_linear_ramp_against_closed_form(self, grid):
        # f(x) = x on [0, 1): left Riemann sum of x^2 is h^3 (m-1) m (2m-1) / 6
        x = grid.axis_coords()
        f = GridFunction(grid, np.where((x >= 0) & (x < 1), x, 0.0))
        m = grid.samples_per_unit
        h = grid.spacing
        exact_discrete = math.sqrt(h ** 3 * (m - 1) * m * (2 * m - 1) / 6)
        got = cube_norms(f, 2)[int(grid.half_extent)]
        assert got == pytest.approx(exact_discrete, rel=1e-14)
        assert abs(got - math.sqrt(1 / 3)) < h  # converges to the integral value

    @pytest.mark.parametrize("half_extent,dim", [(2.5, 1), (2.75, 1), (1.25, 2)])
    def test_padded_cubes_match_per_cube_norms(self, half_extent, dim):
        # a non-integer T leaves partial cubes at both ends; each entry must be
        # the L^p norm of f on that cube, a Riemann sum over its samples alone
        grid = Grid(half_extent, 1 / 8, dim=dim)
        f = random_interior(grid, seed=9, envelope_sigma=1.0, envelope_radius=half_extent)
        ks = range(math.floor(-half_extent), math.ceil(half_extent))
        x = grid.axis_coords()
        for p in (1, 2, math.inf):
            got = cube_norms(f, p)
            assert got.shape == (len(ks),) * dim
            for idx in np.ndindex(got.shape):
                axes = [(x >= ks[i]) & (x < ks[i] + 1) for i in idx]
                block = np.abs(f.values[np.ix_(*axes)])
                if math.isinf(p):
                    want = block.max()
                else:
                    want = (grid.cell_measure * np.sum(block ** p)) ** (1 / p)
                assert got[idx] == pytest.approx(want, rel=1e-14, abs=0.0), (p, idx)


class TestAmalgamNorm:
    def test_zero_function(self, grid):
        z = GridFunction(grid, np.zeros(grid.shape))
        for pq in PQ_SET:
            assert amalgam_norm(z, pq) == 0.0

    def test_unit_indicator_all_exponents(self, chi):
        for pq in PQ_SET:
            assert amalgam_norm(chi, pq) == pytest.approx(1.0, abs=1e-14)

    def test_two_cube_indicator(self, grid):
        x = grid.axis_coords()
        f = GridFunction(grid, ((x >= 0) & (x < 2)).astype(float))
        # two cubes with unit L^1 mass each; l^2 of (1, 1) by hand
        assert amalgam_norm(f, (1, 2)) == pytest.approx(math.sqrt(2), rel=1e-14)
        assert wiener_norm(f) == pytest.approx(2.0, abs=1e-14)

    def test_hat_wiener_norm_is_discrete_sup(self, grid, hat):
        # per-cube maxima of 1 - |x - 1| over grid samples: the peak x = 1
        # belongs to the [1, 2) cube, so the [0, 1) cube tops out at 1 - h
        h = grid.spacing
        x = grid.axis_coords()
        profile = np.where((x >= 0) & (x < 2), 1.0 - np.abs(x - 1.0), 0.0)
        expected = max(profile[(x >= 0) & (x < 1)]) + max(profile[(x >= 1) & (x < 2)])
        assert expected == pytest.approx(2.0 - h, abs=1e-15)
        assert wiener_norm(hat) == pytest.approx(expected, abs=1e-14)

    def test_embedding_monotone_in_q(self, grid):
        for seed in range(8):
            f = random_interior(grid, seed=seed)
            for p in (1, 2, math.inf):
                norms = [amalgam_norm(f, (p, q)) for q in (1, 1.5, 2, 4, math.inf)]
                assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_diagonal_matches_global_lp(self, grid):
        for seed in range(6):
            f = random_interior(grid, seed=seed)
            for p in (1, 2, 3):
                global_lp = (grid.cell_measure * np.sum(np.abs(f.values) ** p)) ** (1 / p)
                assert amalgam_norm(f, (p, p)) == pytest.approx(global_lp, rel=1e-12)
        f = random_interior(grid, seed=99)
        sup = np.abs(f.values).max()
        assert amalgam_norm(f, (math.inf, math.inf)) == pytest.approx(sup, rel=1e-14)

    def test_homogeneity(self, grid):
        f = random_interior(grid, seed=3)
        for pq in PQ_SET:
            base = amalgam_norm(f, pq)
            assert amalgam_norm(2.5 * f, pq) == pytest.approx(2.5 * base, rel=1e-13)

    def test_l2_root_is_the_correctly_rounded_sqrt(self):
        # the l^2 root of the scaled cube norms is np.sqrt, bit for bit: a root
        # taken on a numpy scalar went to pow, which missed the last bit of
        # sqrt on about 1 in 1,000 of these sums
        grid = Grid(2.0, 1 / 4)
        rng = np.random.default_rng(7)
        for k in range(5000):
            f = GridFunction(grid, rng.standard_normal(grid.shape)
                             + 1j * rng.standard_normal(grid.shape))
            p = (1, 2, 3)[k % 3]
            cubes = cube_norms(f, p)
            scale = np.ldexp(1.0, np.frexp(cubes.max())[1] - 1)
            assert amalgam_norm(f, (p, 2)) == np.sqrt(((cubes / scale) ** 2).sum()) * scale, k

    def test_triangle_inequality(self, grid):
        for seed in range(8):
            f = random_interior(grid, seed=seed)
            g = random_interior(grid, seed=seed + 100)
            for pq in PQ_SET:
                assert amalgam_norm(f + g, pq) <= (
                    amalgam_norm(f, pq) + amalgam_norm(g, pq) + 1e-12)

    def test_non_integer_half_extent_fallback(self):
        grid = Grid(2.5, 1 / 8)
        x = grid.axis_coords()
        f = GridFunction(grid, ((x >= -0.5) & (x < 1.5)).astype(float))
        # cubes [-1,0) and [1,2) hold half the mass each, [0,1) a full unit
        assert amalgam_norm(f, (1, 1)) == pytest.approx(2.0, rel=1e-14)
        assert amalgam_norm(f, (1, math.inf)) == pytest.approx(1.0, rel=1e-14)


def decimal_cube_norms(f, p):
    """Every cube's L^p norm of the float samples of f (1-D, whole cubes), in
    60-digit decimal arithmetic, which neither underflows nor overflows here."""
    m, h = f.grid.samples_per_unit, Decimal(f.grid.spacing)
    v = np.abs(f.values)
    with localcontext(prec=60):
        sums = [sum(Decimal(float(x)) ** p for x in v[k:k + m]) for k in range(0, len(v), m)]
        return [(h * s) ** (Decimal(1) / p) if s else Decimal(0) for s in sums]


def decimal_amalgam_norm(f, p, q):
    with localcontext(prec=60):
        return float(sum(c ** q for c in decimal_cube_norms(f, p)) ** (Decimal(1) / q))


class TestLargeExponents:
    """Finite exponents far above 2 lose no mass and overflow nowhere: each
    sum is taken over the samples divided by their maximum."""

    def test_cube_norms_keep_the_small_cubes(self, grid, gauss):
        # at p = 200 the cubes [-3, -2), [2, 3) and [3, 4) used to read 0.0
        want = [float(c) for c in decimal_cube_norms(gauss, 200)]
        got = cube_norms(gauss, 200)
        assert sum(c > 0 for c in want) == 7
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec,p,q,scale", [
        (WindowSpec.bspline(10), 600, 2, 1.0),          # was 0.0
        (WindowSpec.gaussian(1.0, 3.0), 2, 5000, 1.0),  # was 0.0
        (WindowSpec.gaussian(1.0, 3.0), 200, 2, 1e3),   # was inf, with a RuntimeWarning
    ])
    def test_amalgam_norm_against_decimal(self, grid, spec, p, q, scale):
        f = scale * sample_window(spec, grid)
        assert amalgam_norm(f, (p, q)) == pytest.approx(decimal_amalgam_norm(f, p, q),
                                                        rel=1e-12, abs=0)

    @pytest.mark.parametrize("pq", [(1, 1), (2, 2), (1, math.inf), (3, 7), (200, 2),
                                    (2, 5000), (math.inf, 1)])
    def test_exact_homogeneity_under_powers_of_two(self, gauss, pq):
        base, cubes = amalgam_norm(gauss, pq), cube_norms(gauss, pq[0])
        for k in (-900, 0, 900):
            assert amalgam_norm(2.0 ** k * gauss, pq) == 2.0 ** k * base
            assert np.array_equal(cube_norms(2.0 ** k * gauss, pq[0]), 2.0 ** k * cubes)

    @pytest.mark.parametrize("source", [WindowSpec.gaussian(1.0, 3.0), WindowSpec.bspline(10),
                                        2, 3, 4, 5])
    def test_monotone_in_both_exponents(self, grid, source):
        # each cube has measure 1, so its L^p norm is a power mean,
        # nondecreasing in p, and l^q norms are nonincreasing in q
        f = sample_window(source, grid) if isinstance(source, WindowSpec) \
            else random_interior(grid, seed=source)
        exponents = (1, 1.5, 2, 3, 7, 50, 200, 600, 5000, math.inf)
        cubes = [cube_norms(f, p) for p in exponents]
        for low, high in zip(cubes, cubes[1:]):
            assert (low <= high * (1 + 1e-12)).all()
        for p in exponents:
            norms = [amalgam_norm(f, (p, q)) for q in exponents]
            assert all(a * (1 + 1e-12) >= b for a, b in zip(norms, norms[1:])), p


class TestPairing:
    def test_indicator_self(self, chi):
        assert inner_product(chi, chi) == 1.0 + 0.0j

    def test_zero(self, grid, chi):
        z = GridFunction(grid, np.zeros(grid.shape))
        assert inner_product(chi, z) == 0.0

    def test_holder_inequality_random(self, grid):
        for seed in range(10):
            f = random_interior(grid, seed=seed)
            g = random_interior(grid, seed=seed + 50)
            for pq in PQ_SET:
                lhs, rhs = holder_bound(f, g, pq)
                assert lhs <= rhs * (1 + 1e-12)

    def test_holder_tight_for_matched_pair(self, grid):
        # indicator against itself saturates the bound at (2, 2)
        chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
        lhs, rhs = holder_bound(chi, chi, (2, 2))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_window_shifted_across_cubes(grid):
    # shifting by a non-integer moves mass between cubes but preserves (p, p)
    f = random_interior(grid, seed=8)
    g = translate(f, [0.5])
    for p in (1, 2):
        assert amalgam_norm(g, (p, p)) == pytest.approx(amalgam_norm(f, (p, p)), rel=1e-12)


def full_grid_cube_norms(f, p):
    """Every cube of the grid reduced at once: the reference without support boxes."""
    grid = f.grid
    m = grid.samples_per_unit
    block = np.abs(f.values)
    pad = -grid.half_extent_steps % m
    if pad:
        block = np.pad(block, pad)
    c = block.shape[0] // m
    block = block.reshape((c, m) * grid.dim)
    return scaled_root_sum(block, p, tuple(range(1, 2 * grid.dim, 2)), grid.cell_measure)


def scaled_root_sum(x, p, axis=None, weight=1.0):
    """(weight * sum x^p)^(1/p) over axis, or the max at p = inf, in the library's
    order: x over a scale at its maximum (a power of two up to p = 2, the
    maximum itself beyond), the power, the sum, the root, times the scale;
    the sum keeps its axes until after the root, so the root runs on an array."""
    top = x.max(axis=axis, keepdims=True)
    if math.isinf(p):
        return top.squeeze(axis)
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1) if p <= 2 else np.where(top > 0, top, 1.0)
    return ((weight * ((x / scale) ** p).sum(axis=axis, keepdims=True)) ** (1.0 / p)
            * scale).squeeze(axis)


def boxed_random(grid, box, seed):
    """Random complex samples on a box of index slices, zero elsewhere."""
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.shape, dtype=complex)
    shape = values[box].shape
    values[box] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(grid, values)


def random_boxes(grid, rng, count):
    """Index boxes of every size, touching the grid's ends as often as not."""
    n = grid.samples_per_axis
    for _ in range(count):
        box = []
        for _ in range(grid.dim):
            lo = int(rng.choice([0, rng.integers(0, n)]))
            hi = int(rng.choice([n, rng.integers(lo, n) + 1]))
            box.append(slice(lo, hi))
        yield tuple(box)


P_SET = (1, 2, 3, math.inf)


class TestCubeNormsOnSupportBoxes:
    """cube_norms reduces only the cubes meeting the support, with the bits of the full grid."""

    def assert_same_bits(self, f):
        for p in P_SET:
            got, want = cube_norms(f, p), full_grid_cube_norms(f, p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), p
            for q in P_SET:
                assert amalgam_norm(f, (p, q)) == float(scaled_root_sum(want, q)), (p, q)

    @pytest.mark.parametrize("half_extent,dim", [
        (4.0, 1), (2.75, 1), (2.0, 2), (1.75, 2), (0.5, 2), (0.25, 1)])
    def test_random_boxes(self, half_extent, dim):
        grid = Grid(half_extent, 1 / 8, dim=dim)
        rng = np.random.default_rng(int(half_extent * 100) + dim)
        for seed, box in enumerate(random_boxes(grid, rng, 12)):
            self.assert_same_bits(boxed_random(grid, box, seed))

    @pytest.mark.parametrize("half_extent,dim", [(4.0, 1), (2.75, 1), (2.0, 2), (1.75, 2)])
    def test_zero_function(self, half_extent, dim):
        grid = Grid(half_extent, 1 / 8, dim=dim)
        self.assert_same_bits(GridFunction(grid, np.zeros(grid.shape)))

    @pytest.mark.parametrize("k", [-2, 0, 1])
    def test_2d_support_inside_one_cube(self, k):
        # one cube per axis would let numpy merge the two intra-cube axes and
        # sum the 32 x 32 samples in another order than the full grid does;
        # k = 1 is the last cube, where the kept second cube lies below
        grid = Grid(2.0, 1 / 32, dim=2)
        start = (k + 2) * 32
        for seed in range(20):
            self.assert_same_bits(boxed_random(grid, (slice(start + 3, start + 30),) * 2, seed))

    def test_window_library(self):
        for dim in (1, 2):
            grid = Grid(2.75, 1 / 16, dim=dim)
            for spec in (WindowSpec.indicator_cube(1.0), WindowSpec.bspline(2),
                         WindowSpec.gaussian(1.0, 3.0)):
                self.assert_same_bits(sample_window(spec, grid))


def strip_residue(sf, sys_, pq):
    """The boundary residue as the norm of the full-grid strip outside the interior box."""
    grid = sf.grid
    diameters = [max(hi - lo for lo, hi in support_index_bounds(w)) for w in (sys_.g, sys_.gamma)]
    reach = min(sys_.inv_b_steps + max(diameters), grid.samples_per_axis // 2)
    strip = sf.values.copy()
    strip[(slice(reach, grid.samples_per_axis - reach),) * grid.dim] = 0.0
    return amalgam_norm(GridFunction(grid, strip), pq)


class TestBoundaryResidue:
    # reach = 1/(b h) + the window diameter in samples: 64 + 31 in 1D,
    # 16 + 7 in 2D, so the interior boxes are [95, 161) and [23, 41)
    SYSTEMS = [(Grid(4.0, 1 / 32), 1.0, 0.5, (95, 161)),
               (Grid(2.0, 1 / 16, dim=2), 0.5, 1.0, (23, 41))]

    @pytest.mark.parametrize("grid,side,b,interior", SYSTEMS)
    def test_equals_the_strip_norm(self, grid, side, b, interior):
        g = sample_window(WindowSpec.indicator_cube(side), grid)
        sys_ = GaborSystem(g, g, 0.5, b)
        rng = np.random.default_rng(grid.dim)
        checked = 0
        for seed, box in enumerate(random_boxes(grid, rng, 16)):
            sf = boxed_random(grid, box, seed)
            if sf.values.any():
                for pq in [(1, 1), (2, 2), (3, math.inf), (math.inf, 1)]:
                    assert _boundary_residue(sf, sys_, ExponentPair.of(pq)) == \
                        strip_residue(sf, sys_, pq)
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("grid,side,b,interior", SYSTEMS)
    def test_interior_support_is_exactly_zero(self, grid, side, b, interior):
        g = sample_window(WindowSpec.indicator_cube(side), grid)
        sys_ = GaborSystem(g, g, 0.5, b)
        lo, hi = interior
        for box in [(slice(lo, hi),) * grid.dim, (slice(lo + 2, lo + 5),) * grid.dim]:
            sf = boxed_random(grid, box, 3)
            for pq in [(1, 1), (2, 2), (math.inf, math.inf)]:
                got = _boundary_residue(sf, sys_, ExponentPair.of(pq))
                assert repr(got) == "0.0" and got == strip_residue(sf, sys_, pq)
        # one sample past either end of the interior reaches the strip
        for box in [(slice(lo, hi + 1),) * grid.dim, (slice(lo - 1, hi),) * grid.dim]:
            sf = boxed_random(grid, box, 3)
            got = _boundary_residue(sf, sys_, ExponentPair.of((2, 2)))
            assert got > 0.0 and got == strip_residue(sf, sys_, (2, 2))
