import functools
import math
import re
from itertools import product

import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    JanssenLattice,
    WindowSpec,
    amalgam_norm,
    apply_remainder,
    apply_diagonal_defect,
    correlation_family,
    diagonal_correlation,
    frame_bounds,
    gabor_coefficients,
    l2_norm,
    operator_norm_upper_bound,
    periodic_extension,
    sample_window,
    sum_translates,
    tail_sum,
    walnut_apply,
    wiener_norm,
    operators,
    walnut,
    window_library,
)
from gabframes.grid import _cell_spectrum, _fold_overlap, fold_to_cell, shift_array
from gabframes.walnut import correlation_member_range, diagonal_deviation
from conftest import assert_one_rule, random_interior, same_bits, scan_box

PQ_SET = [(1, 1), (2, 2), (1, 2), (2, math.inf)]


def brute_correlation(sys, n, x_index):
    """Independent oracle: the defining sum evaluated at one grid point."""
    grid = sys.grid
    gv, cv = sys.g.values, sys.gamma.values
    shift = n * sys.inv_b_steps
    total = 0.0 + 0.0j
    for k in range(-4 * grid.samples_per_axis, 4 * grid.samples_per_axis):
        ig = x_index - shift - k * sys.a_steps
        ic = x_index - k * sys.a_steps
        if 0 <= ig < grid.samples_per_axis and 0 <= ic < grid.samples_per_axis:
            total += np.conj(gv[ig]) * cv[ic]
    return total


def fold_member(sys, n):
    """G[n] folded afresh by the kernel, for any n: zero off the member range."""
    return _fold_overlap(sys.g, sys.gamma, [v * sys.inv_b_steps for v in n], sys.a_steps)


class TestCorrelationFn:
    def test_half_step_indicator_counts_two_overlaps(self, chi):
        cell = correlation_family(GaborSystem(chi, chi, 0.5, 1.0))[(0,)]
        assert np.allclose(cell, 2.0, atol=1e-15)

    def test_members_vanish_for_wide_shifts(self, chi):
        # b <= 1 puts every n != 0 shift beyond the unit support
        for b in (1.0, 0.5):
            ranges = correlation_member_range(GaborSystem(chi, chi, 0.5, b))
            assert list(ranges[0]) == [0]
        far = fold_member(GaborSystem(chi, chi, 0.5, 1.0), (7,))
        assert not far.any()

    def test_gaussian_member_range_tracks_support(self, gauss):
        # supports span [-3, 3]; shifts n/b = 2n overlap for |n| <= 2 full and
        # |n| = 3 marginally (single touching sample)
        ranges = correlation_member_range(GaborSystem(gauss, gauss, 0.5, 0.5))
        assert list(ranges[0]) == [-3, -2, -1, 0, 1, 2, 3]

    def test_periodic_extension_matches_brute_force(self, grid, gauss, hat):
        sys = GaborSystem(gauss, hat, 0.25, 0.5)
        rng = np.random.default_rng(0)
        for n in (-1, 0, 2):
            ext = periodic_extension(correlation_family(sys)[(n,)], grid)
            for x_index in rng.integers(0, grid.samples_per_axis, size=8):
                want = brute_correlation(sys, n, int(x_index))
                assert ext[x_index] == pytest.approx(want, abs=1e-12)


class TestDiagonalCorrelation:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_indicator_partition_of_unity(self, chi, m):
        cell = diagonal_correlation(GaborSystem(chi, chi, 1.0 / m, 1.0))
        assert np.array_equal(cell.real, np.ones_like(cell.real))
        assert np.abs(cell.imag).max() == 0.0

    def test_gaussian_deviation_decreases(self, gauss):
        devs = [np.abs(diagonal_correlation(GaborSystem(gauss, gauss, a, 1.0)) - 1.0).max()
                for a in (0.5, 0.25, 0.125, 0.0625)]
        assert all(b <= a + 1e-13 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3

    def test_sup_bound_uniform_in_a(self, grid):
        # sup |diag - 1| <= (1 + a)^d ||conj(g) gamma||_W / |<gamma, g>|
        # for the nonnegative library pairs
        for spec in window_library():
            g = sample_window(spec, grid)
            product_window = GridFunction(grid, np.conj(g.values) * g.values)
            for a in (1.0, 0.5, 0.25, 0.125):
                sys = GaborSystem(g, g, a, 1.0)
                dev = np.abs(diagonal_correlation(sys) - 1.0).max()
                bound = (1 + a) * wiener_norm(product_window) / abs(sys.pairing)
                assert dev <= bound * (1 + 1e-12)


class TestPeriodicExtension:
    GRID = Grid(4.0, 1 / 32, 2)

    def test_cell_origin_sits_at_zero(self):
        cell = np.arange(12.0).reshape(3, 4)[:, :3] + 1j
        ext = periodic_extension(cell, self.GRID)
        i = np.arange(self.GRID.samples_per_axis) - self.GRID.half_extent_steps
        assert ext.shape == self.GRID.shape
        assert np.array_equal(ext, cell[np.ix_(i % 3, i % 3)])

    @pytest.mark.parametrize("shape", [(3,), (3, 5), (0, 0), (2, 2, 2)],
                             ids=["flat", "oblong", "empty", "3-d"])
    def test_refuses_a_cell_that_is_no_grid_cube(self, shape):
        # a flat cell on a 2-D grid came back with shape (256,), and an
        # oblong one was read with period 3 along both axes
        with pytest.raises(ValueError, match=re.escape(f"cube of 2 axes, got shape {shape}")):
            periodic_extension(np.ones(shape), self.GRID)


class TestWalnutApply:
    def test_zero(self, grid, chi):
        z = GridFunction(grid, np.zeros(grid.shape))
        assert not walnut_apply(z, GaborSystem(chi, chi, 0.25, 0.5)).values.any()

    def test_identity_regime_exact(self, grid, chi, interior_f):
        out = walnut_apply(interior_f, GaborSystem(chi, chi, 0.25, 0.5))
        assert np.array_equal(out.values, interior_f.values)

    @pytest.mark.parametrize("ga,gb", [("gaussian", "gaussian"), ("bspline", "gaussian"),
                                       ("indicator", "bspline")])
    def test_matches_direct_oracle(self, grid, chi, hat, gauss, ga, gb):
        from gabframes import apply_frame_direct
        pick = {"indicator": chi, "bspline": hat, "gaussian": gauss}
        f = random_interior(grid, seed=42)
        sys = GaborSystem(pick[ga], pick[gb], 0.25, 0.5)
        d = apply_frame_direct(f, sys)
        w = walnut_apply(f, sys)
        assert l2_norm(d - w) <= 1e-10 * l2_norm(f)


class TestOperatorNormBound:
    def test_unit_lattice_indicator_value(self, chi):
        assert operator_norm_upper_bound(GaborSystem(chi, chi, 1.0, 1.0)) == 8.0

    def test_measured_ratio_below_bound(self, grid, hat):
        sys = GaborSystem(hat, hat, 0.5, 0.5)
        bound = operator_norm_upper_bound(sys)
        for seed in range(20):
            f = random_interior(grid, seed=seed)
            sf = walnut_apply(f, sys)
            for pq in PQ_SET:
                assert amalgam_norm(sf, pq) <= bound * amalgam_norm(f, pq) * (1 + 1e-12)

    def test_reported_on_lattice_grid(self, chi):
        # no monotonicity claimed in (a, b); just evaluate the surface
        vals = [[operator_norm_upper_bound(GaborSystem(chi, chi, a, b))
                 for b in (0.25, 0.5, 1.0)] for a in (0.25, 0.5, 1.0)]
        assert np.all(np.asarray(vals) > 0)


class TestSumTranslates:
    def test_half_step_indicator(self, chi):
        res = sum_translates(chi, 0.5)
        assert np.allclose(res.cell, 2.0, atol=1e-15)
        assert res.bound == pytest.approx(3.0, abs=1e-15)
        assert res.within_bound

    def test_unit_step_indicator(self, chi):
        res = sum_translates(chi, 1.0)
        assert np.allclose(res.cell, 1.0, atol=1e-15)
        assert res.bound == pytest.approx(2.0, abs=1e-15)
        assert res.within_bound

    @pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
    def test_library_sweep(self, grid, a):
        for spec in window_library():
            assert sum_translates(sample_window(spec, grid), a).within_bound


class TestTailSum:
    def test_indicator_tail_vanishes(self, chi):
        for b in (1.0, 0.5):
            ts = tail_sum(GaborSystem(chi, chi, 0.25, b))
            assert ts.tail == 0.0
            assert ts.within_bound

    def test_gaussian_tail_decreases(self, gauss):
        tails = [tail_sum(GaborSystem(gauss, gauss, 2.0 ** -j, 2.0 ** -j)).tail
                 for j in range(1, 5)]
        assert tails[0] > 0
        assert all(b <= a for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0

    def test_bound_holds_across_library(self, grid):
        for spec in window_library():
            g = sample_window(spec, grid)
            for a, b in [(0.5, 0.5), (0.25, 0.5), (0.25, 1.0)]:
                assert tail_sum(GaborSystem(g, g, a, b)).within_bound


class TestDecomposition:
    def test_identity_plus_T_plus_R(self, grid, gauss, interior_f):
        sys = GaborSystem(gauss, gauss, 0.25, 0.5)
        lhs = walnut_apply(interior_f, sys)
        rhs = interior_f + apply_diagonal_defect(interior_f, sys) + apply_remainder(interior_f, sys)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-12

    def test_multiplier_norm_attained_on_bump(self, grid, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        mult = np.abs(periodic_extension(diagonal_correlation(sys), grid) - 1.0)
        peak_index = int(np.argmax(mult))
        bump = np.zeros(grid.shape)
        bump[peak_index] = 1.0
        f = GridFunction(grid, bump)
        ratio = amalgam_norm(apply_diagonal_defect(f, sys), (math.inf, math.inf)) / amalgam_norm(
            f, (math.inf, math.inf))
        assert ratio == pytest.approx(mult.max(), rel=1e-10)

    def test_R_norm_below_tail_bound(self, grid, gauss):
        sys = GaborSystem(gauss, gauss, 0.25, 0.5)
        ts = tail_sum(sys)
        for seed in range(10):
            f = random_interior(grid, seed=seed)
            rf = apply_remainder(f, sys)
            for pq in PQ_SET:
                assert amalgam_norm(rf, pq) <= (
                    ts.tail / abs(sys.pairing) * amalgam_norm(f, pq) * (1 + 1e-9) + 1e-15)


def dense_matrix(apply, grid):
    """The N^d x N^d matrix of a linear map, read off its unit vectors."""
    cols = []
    for k in range(grid.size):
        unit = np.zeros(grid.size)
        unit[k] = 1.0
        cols.append(apply(GridFunction(grid, unit)).values.ravel())
    return np.array(cols).T


def scattered_blocks(form):
    """The residue blocks of a Walnut form scattered back onto the grid."""
    out = np.zeros((form.grid.size,) * 2, dtype=complex)
    seen = np.zeros(form.grid.size, dtype=int)
    for rows, blocks in form.blocks():
        assert blocks.shape == rows.shape + rows.shape[-1:]
        for index, block in zip(rows, blocks):
            out[np.ix_(index, index)] = block
            seen[index] += 1
    assert (seen == 1).all()  # the residue classes partition the grid
    return out


class TestWalnutFormBlocks:
    # self-dual systems whose residue classes come in two sizes, samples % r != 0
    @pytest.mark.parametrize("half_extent,spacing,dim,a,inv_b", [
        (2.0, 1 / 8, 1, 0.5, 0.75),      # 32 samples, r = 6
        (1.5, 1 / 4, 2, 0.5, 1.25),      # 12 samples per axis, r = 5
    ], ids=["1d", "2d"])
    def test_scattered_blocks_are_the_operator(self, half_extent, spacing, dim, a, inv_b):
        grid = Grid(half_extent, spacing, dim)
        g = sample_window(WindowSpec.gaussian(0.6, 1.0), grid)
        sys = GaborSystem(g, g, a, 1 / inv_b)
        assert grid.samples_per_axis % sys.inv_b_steps != 0
        form = walnut._walnut_form(sys)
        assert len(form.cells) > 1
        full = scattered_blocks(form)
        assert np.abs(full - dense_matrix(lambda f: walnut_apply(f, sys), grid)).max() <= 1e-13
        off = scattered_blocks(form.off_diagonal())
        assert np.abs(off - dense_matrix(lambda f: apply_remainder(f, sys), grid)).max() <= 1e-13


def box_window(grid, lo, hi, seed):
    """Random complex samples on the index box lo <= i <= hi, zero elsewhere."""
    rng = np.random.default_rng(seed)
    v = np.zeros(grid.shape, dtype=complex)
    box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    v[box] = rng.standard_normal(v[box].shape) + 1j * rng.standard_normal(v[box].shape)
    return GridFunction(grid, v)


# (dim, g box, gamma box, a/h, (1/b)/h) on Grid(2, 1/16) (N = 64) or
# Grid(1.5, 1/8, 2) (N = 24).  Overlap widths are not multiples of a/h,
# windows touch the grid edges, one cell is a single sample and one is wider
# than every overlap.  The last three are for the STFT rows, which fold into
# a cell of side r = (1/b)/h with gamma as f: r = 1, r > N, and an f that
# touches both edges while the lattice shifts of g leave the grid.
BOX_CASES = [
    (1, (5,), (41,), (20,), (63,), 3, 32),
    (1, (0,), (30,), (0,), (63,), 5, 24),
    (1, (10,), (40,), (30,), (50,), 1, 32),
    (1, (0,), (63,), (7,), (9,), 7, 16),
    (2, (0, 3), (13, 23), (6, 0), (23, 17), 3, 16),
    (2, (2, 5), (9, 11), (4, 1), (20, 7), 1, 12),
    (2, (0, 0), (23, 23), (11, 12), (13, 14), 5, 8),
    (1, (5,), (40,), (20,), (50,), 3, 1),
    (1, (10,), (30,), (0,), (50,), 4, 80),
    (2, (17, 2), (21, 6), (0, 0), (23, 23), 3, 8),
]


def box_system(case, seed=0):
    dim, lo_g, hi_g, lo_c, hi_c, p, ibs = case
    grid = Grid(2.0, 1 / 16) if dim == 1 else Grid(1.5, 1 / 8, dim=2)
    h = grid.spacing
    return GaborSystem(box_window(grid, lo_g, hi_g, seed), box_window(grid, lo_c, hi_c, seed + 1),
                       p * h, 1 / (ibs * h))


def full_grid_fold(u, v, steps, cell_steps, origin):
    """The fold of the full-grid product conj(T_steps u) * v into a cell of side
    cell_steps; for a one-sample cell, the np.vdot of the two over the meet of
    their support boxes."""
    shifted = shift_array(u, steps)
    if cell_steps > 1:
        return fold_to_cell(np.conj(shifted) * v, cell_steps, origin)
    box = tuple(slice(max(s.start, o.start), min(s.stop, o.stop))
                for s, o in zip(scan_box(shifted), scan_box(v)))
    cell = np.zeros((1,) * v.ndim, dtype=complex)
    if all(sl.start < sl.stop for sl in box):
        cell[...] = np.vdot(shifted[box], v[box])
    return cell


def full_grid_member(sys, n):
    """G[n] from the full-grid product conj(T_{n/b} g) * gamma."""
    return full_grid_fold(sys.g.values, sys.gamma.values, np.array(n) * sys.inv_b_steps,
                          sys.a_steps, sys.grid.half_extent_steps)


class TestBoxKernels:
    """The overlap-box members and STFT rows and the support-box Walnut sum
    give the bits of the full-grid computations they replace; a one-sample
    cell gives the bits of np.vdot over the overlap."""

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_members_match_full_grid_fold(self, case):
        sys = box_system(case)
        ranges = [range(r.start - 3, r.stop + 3) for r in correlation_member_range(sys)]
        for n in product(*ranges):  # runs past the boundary, where the cell is zero
            assert same_bits(fold_member(sys, n), full_grid_member(sys, n)), n

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_coefficients_match_full_grid_fold(self, case):
        sys = box_system(case)
        f, grid = sys.gamma, sys.grid
        entries = gabor_coefficients(f, sys)
        for pos in np.ndindex((len(sys.time_indices),) * grid.dim):
            n = np.asarray(sys.time_indices)[list(pos)]  # the outer rows move g off the grid
            # conj(T g) first, as in the kernel: with FMA, numpy's complex
            # product can round differently when its operands are swapped
            cell = full_grid_fold(sys.g.values, f.values, n * sys.a_steps, sys.inv_b_steps,
                                  grid.half_extent_steps)
            want = grid.cell_measure * _cell_spectrum(np.fft.fftn(cell), sys.freq_indices)
            assert same_bits(entries[pos], want), n

    def test_zero_window_gives_zero_cells(self):
        # a system refuses a zero window, so fold one against gamma directly
        sys = box_system(BOX_CASES[0])
        zero = GridFunction(sys.grid, np.zeros(sys.grid.shape))
        for n in (-1, 0, 1):
            cell = _fold_overlap(zero, sys.gamma, [n * sys.inv_b_steps], sys.a_steps)
            assert same_bits(cell, np.zeros(sys.a_steps, dtype=complex))

    @pytest.mark.parametrize("case", BOX_CASES)
    @pytest.mark.parametrize("kind", ["edges", "zero", "random"])
    def test_walnut_apply_matches_full_grid_sum(self, case, kind):
        sys = box_system(case, seed=5)
        grid = sys.grid
        last = grid.samples_per_axis - 1
        rng = np.random.default_rng(13)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        if kind == "edges":  # nonzero only within 3 samples of either end of an axis
            idx = np.indices(grid.shape)
            values[~((idx < 3) | (idx > last - 3)).any(axis=0)] = 0.0
        elif kind == "zero":
            values[...] = 0.0
        f = GridFunction(grid, values)
        family = correlation_family(sys)
        acc = np.zeros(grid.shape, dtype=complex)
        for n in sorted(family):
            shifted = shift_array(f.values, np.array(n) * sys.inv_b_steps)
            acc += periodic_extension(family[n], grid) * shifted
        want = sys.a ** grid.dim / sys.pairing * acc
        assert_one_rule(walnut_apply(f, sys), want)


class TestMemberCache:
    """A system folds each Walnut member once, whichever forms of S read it."""

    def test_each_member_folded_once(self, monkeypatch, gauss, interior_f):
        folds = []
        fold = operators._fold_overlap

        def counting(u, v, steps, cell_steps):
            folds.append(tuple(int(s) for s in steps))
            return fold(u, v, steps, cell_steps)

        monkeypatch.setattr(operators, "_fold_overlap", counting)
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        walnut_apply(interior_f, sys)
        apply_remainder(interior_f, sys)
        tail_sum(sys)
        diagonal_deviation(sys)
        frame_bounds(sys)
        JanssenLattice(sys, 2, 2)
        want = [tuple(v * sys.inv_b_steps for v in n)
                for n in product(*correlation_member_range(sys))]
        assert len(want) == 7
        assert sorted(folds) == sorted(want)

    def test_members_are_kept_and_read_only(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        members = correlation_family(sys)
        assert members is correlation_family(sys)
        assert list(members) == sorted(members)
        for n, cell in members.items():
            assert same_bits(cell, fold_member(sys, n))
        with pytest.raises(ValueError):
            members[(0,)][0] = 1.0
        with pytest.raises(TypeError):
            members[(0,)] = np.zeros(sys.a_steps, dtype=complex)

    def test_system_cannot_change_after_use(self, grid, gauss, interior_f):
        # once a system has kept its members, a new gamma would no longer
        # match them, so the assignment itself is refused
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        before = walnut_apply(interior_f, sys)
        with pytest.raises(AttributeError):
            sys.gamma = sample_window(WindowSpec.bspline(2), grid)
        assert same_bits(walnut_apply(interior_f, sys).values, before.values)

    def test_walnut_names_are_the_operators_definitions(self):
        for name in ("correlation_member_range", "correlation_family"):
            assert getattr(walnut, name) is getattr(operators, name)

    def test_decomposition_on_kept_members(self, gauss, interior_f):
        sys = GaborSystem(gauss, gauss, 0.25, 0.5)
        rf = apply_remainder(interior_f, sys)  # the first call folds every member
        tf = apply_diagonal_defect(interior_f, sys)
        sf = walnut_apply(interior_f, sys)
        assert np.abs((tf + rf).values - (sf - interior_f).values).max() <= 1e-12


@functools.cache
def gaussian_lower_bounds(half_extent):
    """A of gaussian(1, 3) on Grid(T, 1/32) at (a, b) = (1, 1), (1, 1/2) and (1/2, 1)."""
    g = sample_window(WindowSpec.gaussian(1.0, 3.0), Grid(half_extent, 1 / 32))
    return {ab: frame_bounds(GaborSystem(g, g, *ab))[0]
            for ab in [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)]}


class TestGaussianFrameBoundTheorems:
    """The grid frame bounds of the Gaussian e^{-pi x^2} against theorems about
    the whole line, with tolerances fixed before the runs.  It gives a frame on
    aZ x bZ exactly when ab < 1 (Lyubarskii 1992; Seip and Wallsten 1992): at
    ab = 1 its Zak transform vanishes at (1/2, 1/2), so the line bound A is 0,
    and the grid's A falls like T^-2.  It is its own Fourier transform, so
    (a, b) and (b, a) have the same line bounds, and the grid bounds of the
    two approach each other as T grows."""

    HALF_EXTENTS = (8, 16, 32, 64)

    @pytest.mark.parametrize("half_extent", HALF_EXTENTS)
    def test_critical_density_lower_bound_falls_like_t_squared(self, half_extent):
        assert 0.60 <= gaussian_lower_bounds(half_extent)[1.0, 1.0] * half_extent ** 2 <= 0.75

    @pytest.mark.parametrize("ab", [(1.0, 0.5), (0.5, 1.0)])
    def test_half_density_lower_bound_settles(self, ab):
        assert abs(gaussian_lower_bounds(64)[ab] - gaussian_lower_bounds(32)[ab]) < 1e-3

    def test_swapped_lattices_approach_each_other(self):
        gaps = [abs(gaussian_lower_bounds(t)[1.0, 0.5] - gaussian_lower_bounds(t)[0.5, 1.0])
                for t in self.HALF_EXTENTS]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
