import tracemalloc

import numpy as np
import pytest

from gabframes import (
    CommensurabilityError,
    DegenerateWindowPairError,
    GaborSystem,
    Grid,
    GridFunction,
    GridMismatchError,
    JanssenLattice,
    ResolutionError,
    apply_frame_direct,
    correlation_family,
    frame_bounds,
    gabor_coefficients,
    inner_product,
    janssen_apply,
    l2_norm,
    operator_norm_upper_bound,
    sample_window,
    stft,
    translate,
    walnut_apply,
    wexler_raz_check,
    WindowSpec,
)
from gabframes import janssen, operators, walnut
from gabframes.walnut import diagonal_deviation
from conftest import COPIERS, random_interior


class TestGridMismatch:
    # both grids hold 256 samples, so nothing but the grid check can notice
    @pytest.mark.parametrize("apply", [
        walnut_apply,
        apply_frame_direct,
        gabor_coefficients,
        lambda f, sys: janssen_apply(f, JanssenLattice(sys, 2, 2)),
    ], ids=["walnut", "direct", "coefficients", "janssen"])
    def test_f_on_another_grid_is_rejected(self, grid, gauss, apply):
        other = Grid(8.0, 1 / 16)
        f = sample_window(WindowSpec.bspline(2), other)
        assert f.values.shape == grid.shape
        with pytest.raises(GridMismatchError):
            apply(f, GaborSystem(gauss, gauss, 0.5, 0.5))


class TestGaborSystem:
    def test_degenerate_pair_rejected(self, grid, chi):
        far = translate(chi, [2.0])  # disjoint supports, <gamma, g> = 0
        with pytest.raises(DegenerateWindowPairError):
            GaborSystem(chi, far, 0.5, 0.5)

    def test_non_commensurate_lattice_rejected(self, chi):
        with pytest.raises(CommensurabilityError):
            GaborSystem(chi, chi, 0.3, 0.5)
        with pytest.raises(CommensurabilityError):
            GaborSystem(chi, chi, 0.5, 0.3)  # 1/b = 10/3 off-grid

    def test_freq_period(self, grid, chi):
        sys = GaborSystem(chi, chi, 0.25, 0.5)
        # one full Nyquist period: r = (1/b)/h indices
        assert len(sys.freq_indices) == sys.inv_b_steps == 64

    def test_self_dual_pairing_is_energy(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        assert sys.pairing == pytest.approx(l2_norm(gauss) ** 2, rel=1e-13)

    @pytest.mark.parametrize("name", ["g", "gamma", "a", "b", "a_steps", "inv_b_steps", "pairing",
                                      "time_indices", "freq_indices", "grid", "_members",
                                      "unknown"])
    def test_attributes_cannot_be_assigned(self, gauss, name):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        with pytest.raises(AttributeError):
            setattr(sys, name, getattr(sys, name, None))

    def test_windows_must_share_a_grid(self, gauss):
        other = sample_window(WindowSpec.gaussian(1.0, 3.0), Grid(8.0, 1 / 16))
        with pytest.raises(DegenerateWindowPairError, match="share a grid"):
            GaborSystem(gauss, other, 0.5, 0.5)

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (-0.5, 0.5), (0.5, 0.0), (0.5, -2.0)])
    def test_nonpositive_steps_rejected(self, gauss, a, b):
        with pytest.raises(ValueError, match="positive"):
            GaborSystem(gauss, gauss, a, b)

    @pytest.mark.parametrize("a,b", [(1e-12, 0.5), (0.5, 1e12)])
    def test_steps_below_one_sample_rejected(self, gauss, a, b):
        # they used to snap to 0 steps and fail on first use
        with pytest.raises(CommensurabilityError, match="positive"):
            GaborSystem(gauss, gauss, a, b)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5 - 2e-10), (0.5 + 1e-10, 0.5)])
    def test_accepted_steps_are_the_snapped_ones(self, gauss, hat, a, b):
        # steps within 1e-9 of a grid multiple shift by that multiple, and every
        # form reads it: with the raw a and b, direct and Walnut were two operators
        sys = GaborSystem(gauss, gauss, a, b)
        assert sys.a == sys.b == 0.5
        f = translate(hat, [-1.0])
        want = walnut_apply(f, sys)
        assert l2_norm(apply_frame_direct(f, sys) - want) <= 1e-14 * l2_norm(want)
        assert diagonal_deviation(sys) == diagonal_deviation(GaborSystem(gauss, gauss, 0.5, 0.5))

    @COPIERS
    def test_copy_rebuilds_the_system(self, gauss, hat, interior_f, duplicate):
        sys = GaborSystem(gauss, hat, 0.5, 0.25)
        want = walnut_apply(interior_f, sys).values
        twin = duplicate(sys)
        for name in ("a", "b", "a_steps", "inv_b_steps", "pairing", "time_indices",
                     "freq_indices"):
            assert getattr(twin, name) == getattr(sys, name)
        assert twin.g.values.tobytes() == gauss.values.tobytes()
        assert twin.gamma.values.tobytes() == hat.values.tobytes()
        assert not hasattr(twin, "_members")  # the members are folded again
        assert walnut_apply(interior_f, twin).values.tobytes() == want.tobytes()
        with pytest.raises(AttributeError):
            twin.a = 1.0
        assert twin == sys and hash(twin) == hash(sys)

    def test_equal_windows_and_steps_make_equal_systems(self, grid, gauss, hat):
        # value equality on (g, gamma, a, b): windows sampled twice, and steps
        # that snap to the same grid multiples, name one operator
        sys = GaborSystem(gauss, hat, 0.5, 0.25)
        twin = GaborSystem(sample_window(WindowSpec.gaussian(1.0, 3.0), grid),
                           GridFunction(grid, hat.values), 0.5 + 1e-10, 0.25)
        assert twin == sys and hash(twin) == hash(sys)
        for other in (GaborSystem(gauss, hat, 0.25, 0.25), GaborSystem(gauss, hat, 0.5, 0.5),
                      GaborSystem(hat, gauss, 0.5, 0.25), GaborSystem(gauss, gauss, 0.5, 0.25)):
            assert other != sys
        assert sys != (gauss, hat, 0.5, 0.25)

    def test_tiny_b_allocates_nothing_of_size_r(self, gauss):
        # r = 1/(b h) = 3.2e10 frequencies: int64 indices would take 238 GiB
        peak, sys = traced_peak(GaborSystem, gauss, gauss, 0.5, 1e-9)
        assert peak < 2 ** 20
        assert len(sys.freq_indices) == sys.inv_b_steps == 32 * 10 ** 9

    def test_index_arrays_are_read_only(self, gauss):
        # the index sets are ranges, which allocate nothing and cannot change
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        assert sys.time_indices == range(-14, 15)
        assert sys.freq_indices == range(-32, 32)
        with pytest.raises(TypeError):
            sys.time_indices[0] = 99
        with pytest.raises(TypeError):
            sys.freq_indices[0] = 99


class TestStft:
    def test_self_pairing_at_origin(self, gauss):
        assert stft(gauss, gauss, [0.0], [0.0]) == pytest.approx(
            l2_norm(gauss) ** 2, rel=1e-13)

    def test_zero_signal(self, grid, gauss):
        z = GridFunction(grid, np.zeros(grid.shape))
        assert stft(z, gauss, [0.5], [1.0]) == 0.0

    def test_half_overlap_of_indicators(self, chi):
        # |[0,1) ∩ [1/2, 3/2)| = 1/2, summed exactly on the aligned grid
        assert stft(chi, chi, [0.5], [0.0]) == pytest.approx(0.5, abs=1e-15)


class TestCoefficients:
    def test_zero_lattice(self, grid, chi):
        sys = GaborSystem(chi, chi, 0.5, 0.5)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert not gabor_coefficients(z, sys).any()

    def test_origin_entry(self, grid, chi, interior_f):
        sys = GaborSystem(chi, chi, 0.5, 0.5)
        entries = gabor_coefficients(interior_f, sys)
        origin = np.asarray(sys.time_indices) == 0, np.asarray(sys.freq_indices) == 0
        assert entries[origin][0] == pytest.approx(
            inner_product(interior_f, chi), abs=1e-14)

    def test_bessel_bound_identity_regime(self, grid, chi, interior_f):
        # S = I exactly, so sum |c|^2 = ||g||^2 / (ab)^d * ||f||^2
        sys = GaborSystem(chi, chi, 0.25, 0.5)
        total = float(np.sum(np.abs(gabor_coefficients(interior_f, sys)) ** 2))
        bound = frame_bounds(sys)[1] * l2_norm(chi) ** 2 / (0.25 * 0.5)
        assert total <= bound * l2_norm(interior_f) ** 2 * (1 + 1e-10)
        assert total == pytest.approx(bound * l2_norm(interior_f) ** 2, rel=1e-10)


class TestCoefficientKernel:
    """gabor_coefficients (fold, then FFT) against the STFT definition, entry by entry."""

    @staticmethod
    def assert_matches_stft(f, sys):
        entries = gabor_coefficients(f, sys)
        d = sys.grid.dim
        tol = 1e-12 * np.abs(entries).max()
        for pos in np.ndindex(entries.shape):
            n = np.asarray(sys.time_indices)[list(pos[:d])]
            m = np.asarray(sys.freq_indices)[list(pos[d:])]
            want = stft(f, sys.g, n * sys.a, m * sys.b)
            assert abs(entries[pos] - want) <= tol, (n, m)

    def test_one_dimensional_full_period(self, grid, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        self.assert_matches_stft(random_interior(grid, seed=41), sys)

    def test_full_period_beyond_grid(self, grid, gauss):
        # r = 1/(b h) = 512 exceeds the 256 samples, so the fold pads
        sys = GaborSystem(gauss, gauss, 0.5, 1 / 16)
        self.assert_matches_stft(random_interior(grid, seed=42), sys)

    def test_two_dimensional(self):
        grid2 = Grid(1.0, 1 / 8, dim=2)
        g2 = sample_window(WindowSpec.gaussian(0.5, 0.75), grid2)
        f2 = random_interior(grid2, seed=43, envelope_sigma=0.5, envelope_radius=0.75)
        self.assert_matches_stft(f2, GaborSystem(g2, g2, 0.5, 1.0))


class TestDirectOperator:
    def test_zero_in_zero_out(self, grid, chi):
        sys = GaborSystem(chi, chi, 0.25, 0.5)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert not apply_frame_direct(z, sys).values.any()

    def test_linearity(self, grid, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        f1 = random_interior(grid, seed=21)
        f2 = random_interior(grid, seed=22)
        lhs = apply_frame_direct(GridFunction(grid, 1.7j * f1.values + f2.values), sys)
        rhs = 1.7j * apply_frame_direct(f1, sys) + apply_frame_direct(f2, sys)
        assert l2_norm(lhs - rhs) <= 1e-12 * l2_norm(rhs)

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("b", [1.0, 0.5])
    def test_exact_identity_regime(self, grid, chi, interior_f, m, b):
        sys = GaborSystem(chi, chi, 1.0 / m, b)
        out = apply_frame_direct(interior_f, sys)
        assert l2_norm(out - interior_f) <= 1e-12 * l2_norm(interior_f)

    def test_matches_walnut_for_hat_pair(self, grid, chi):
        f = random_interior(grid, seed=30)
        sys = GaborSystem(chi, chi, 0.25, 0.5)
        assert l2_norm(apply_frame_direct(f, sys) - walnut_apply(f, sys)) <= 1e-10 * l2_norm(f)

    def test_self_adjoint_when_self_dual(self, grid, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        f1 = random_interior(grid, seed=31)
        f2 = random_interior(grid, seed=32)
        lhs = inner_product(apply_frame_direct(f1, sys), f2)
        rhs = inner_product(f1, apply_frame_direct(f2, sys))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def traced_peak(fn, *args):
    """Peak bytes traced while fn runs, and what it returned or raised."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except ResolutionError as exc:
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestDirectPreflight:
    def test_past_physical_memory_raises_before_allocating(self):
        # 262144 samples and frequency period 524288: terabytes of phase matrices
        grid = Grid(16.0, 1 / 8192)
        g = sample_window(WindowSpec.indicator_cube(1.0), grid)
        sys = GaborSystem(g, g, 0.5, 1 / 64)
        peak, result = traced_peak(apply_frame_direct, g, sys)
        assert isinstance(result, ResolutionError)
        assert "physical memory" in str(result)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("half_extent,spacing,dim,b", [
        (4.0, 1 / 32, 1, 0.5), (4.0, 1 / 32, 1, 1 / 8), (2.0, 1 / 16, 2, 0.5),
        (2.0, 1 / 16, 2, 0.25)])
    def test_estimate_tracks_the_traced_peak(self, half_extent, spacing, dim, b):
        from gabframes.operators import _direct_peak_bytes

        grid = Grid(half_extent, spacing, dim)
        g = sample_window(WindowSpec.gaussian(1.0, 1.5), grid)
        sys = GaborSystem(g, g, 0.5, b)
        peak, _ = traced_peak(apply_frame_direct, sample_window(WindowSpec.bspline(2), grid), sys)
        estimate = _direct_peak_bytes(grid, len(sys.freq_indices))
        # the phase matrices dominate; the rest is a few grid-sized arrays
        assert estimate / 2 <= peak <= 1.1 * estimate


def spied_peak(monkeypatch, modules, fn, *args):
    """The traced peak of fn(*args) and the sum over ``modules`` of the
    largest estimate each passed to _require_memory: a module that checks
    before each of its allocations estimates the peak at each check."""
    needs = {}
    for module in modules:
        def spy(need, *rest, module=module, check=module._require_memory):
            needs[module] = max(needs.get(module, 0), need)
            return check(need, *rest)

        monkeypatch.setattr(module, "_require_memory", spy)
    peak, _ = traced_peak(fn, *args)
    return peak, sum(needs.values())


class TestSizePreflights:
    """Each size a caller picks (the cell side a/h, the period r, the radii
    L and N) is estimated before allocating, and the estimate tracks the
    traced peak."""

    @pytest.mark.parametrize("half_extent,spacing,dim,a,b,window", [
        (4.0, 1 / 256, 1, 2.0, 0.25, WindowSpec.gaussian(1.0, 3.0)),
        (16.0, 1 / 1024, 1, 0.5, 0.5, WindowSpec.gaussian(1.0, 3.0)),
        (2.0, 1 / 32, 2, 1.0, 0.5, WindowSpec.gaussian(0.5, 1.0))])
    def test_estimates_track_the_traced_peaks(self, monkeypatch, half_extent, spacing, dim,
                                              a, b, window):
        np.fft.fftn(np.ones(2))  # numpy.fft loads on first use; keep that out of the peaks
        grid = Grid(half_extent, spacing, dim)
        g = sample_window(window, grid)
        f = sample_window(WindowSpec.bspline(2), grid)
        peaks = {"members": spied_peak(monkeypatch, [operators], correlation_family,
                                       GaborSystem(g, g, a, b)),
                 "stft": spied_peak(monkeypatch, [operators], gabor_coefficients, f,
                                    GaborSystem(g, g, a, b))}
        sys = GaborSystem(g, g, a, b)
        correlation_family(sys)  # the members are not the expansion's own bytes
        for radii in ((6, 6), (64, 8), (2, 0)):
            peaks[f"coefficients {radii}"] = spied_peak(monkeypatch, [janssen],
                                                        JanssenLattice, sys, *radii)
            # the cells, then the Walnut sum beside them
            peaks[f"janssen {radii}"] = spied_peak(monkeypatch, [janssen, walnut], janssen_apply,
                                                   f, JanssenLattice(sys, *radii))
        peaks["walnut"] = spied_peak(monkeypatch, [walnut], walnut_apply, f, sys)
        # every member's spectrum, whatever the radii
        peaks["wexler-raz"] = spied_peak(monkeypatch, [janssen], wexler_raz_check, sys)
        for name, (peak, estimate) in peaks.items():
            assert estimate / 2 <= peak <= 1.1 * estimate, name

    def test_coefficients_hold_their_entries_once(self, monkeypatch):
        # 4001 x 41 entries outweigh every per-column array: the lattice takes
        # the fresh array without a copy, so the peak stays near 16 B an entry
        grid = Grid(4.0, 1 / 32)
        g = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        sys = GaborSystem(g, g, 0.5, 0.5)
        correlation_family(sys)
        peak, estimate = spied_peak(monkeypatch, [janssen], JanssenLattice, sys, 2000, 20)
        assert estimate / 2 <= peak <= 1.1 * estimate
        assert peak < 20 * 4001 * 41

    def test_huge_sizes_raise_before_allocating(self):
        grid = Grid(4.0, 1 / 32)
        g = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        sys = GaborSystem(g, g, 0.5, 0.5)
        # a/h = 3.2e21 samples per member cell; |l| <= 10^12
        runs = [(correlation_family, GaborSystem(g, g, 1e20, 0.5)),
                (JanssenLattice, sys, 10 ** 12, 4),
                (wexler_raz_check, GaborSystem(g, g, 1e20, 0.5))]
        # 262144 shifts a = h apart and frequency period 524288: petabytes
        fine = Grid(16.0, 1 / 8192)
        chi = sample_window(WindowSpec.indicator_cube(1.0), fine)
        runs.append((gabor_coefficients, chi, GaborSystem(chi, chi, 1 / 8192, 1 / 64)))
        for fn, *args in runs:
            peak, result = traced_peak(fn, *args)
            assert isinstance(result, ResolutionError), fn.__name__
            assert "physical memory" in str(result)
            assert peak < 2 ** 20, fn.__name__

    def test_janssen_cells_are_counted_for_held_columns_only(self, monkeypatch, gauss,
                                                             interior_f):
        # at L = 0, N = 1000 the lattice stores 2001 columns and 7 of them hold a
        # term; half the bytes of 2001 cells of a/h = 16 samples would refuse them
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        want = janssen_apply(interior_f, JanssenLattice(sys, 0, 1000))
        monkeypatch.setattr("gabframes.errors._physical_memory_bytes",
                            lambda: 16 * (2001 * 16 + 16) // 2)
        got = janssen_apply(interior_f, JanssenLattice(sys, 0, 1000))
        assert got.box == want.box and np.array_equal(got.data, want.data)

    def test_janssen_cells_raise_before_any_transform(self, monkeypatch):
        # the cells are the lattice's own bytes: with room for the entries but
        # not for the cells beside them (5 members of a/h = 1024 samples), the
        # constructor refuses before the first FFT
        grid = Grid(8.0, 1 / 256)
        g = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        sys = GaborSystem(g, g, 4.0, 0.5)
        correlation_family(sys)  # the members are not the lattice's own bytes
        cells = sum(cell.nbytes for cell in JanssenLattice(sys, 2, 2)._form.cells.values())
        _, need = spied_peak(monkeypatch, [janssen], JanssenLattice, sys, 2, 2)
        assert cells == 16 * 5 * 1024
        # room for the estimate without the cells, and for half of them
        monkeypatch.setattr("gabframes.errors._physical_memory_bytes", lambda: need - cells // 2)
        calls = []
        monkeypatch.setattr(np.fft, "fftn", lambda *args: calls.append(args))
        with pytest.raises(ResolutionError, match="physical memory"):
            JanssenLattice(sys, 2, 2)
        assert calls == []

    def test_janssen_sum_raises_before_allocating(self, monkeypatch):
        # the lattice holds its cells, so the Walnut sum is the one size an
        # apply checks: the physical memory is made one byte too small for it
        # (on a 512 x 512 grid), and nothing is allocated before the check fails
        grid = Grid(4.0, 1 / 64, dim=2)
        g = sample_window(WindowSpec.gaussian(1.0, 1.5), grid)
        f = sample_window(WindowSpec.bspline(2), grid)
        lattice = JanssenLattice(GaborSystem(g, g, 0.5, 0.5), 4, 4)
        peak, need = spied_peak(monkeypatch, [janssen, walnut], janssen_apply, f, lattice)
        monkeypatch.setattr("gabframes.errors._physical_memory_bytes", lambda: need - 1)
        small, result = traced_peak(janssen_apply, f, lattice)
        assert isinstance(result, ResolutionError) and "physical memory" in str(result)
        assert small < 2 ** 16 < peak / 4


def dense_frame_operator(sys):
    """S as a matrix: column i is walnut_apply of the i-th unit vector of the grid."""
    grid = sys.grid
    size = int(np.prod(grid.shape))
    cols = []
    for i in range(size):
        unit = np.zeros(size, dtype=complex)
        unit[i] = 1.0
        out = walnut_apply(GridFunction(grid, unit.reshape(grid.shape)), sys)
        cols.append(out.values.ravel())
    return np.stack(cols, axis=1)


# (grid, window, a, 1/b); r = 1/(b h) samples per residue step
DENSE_CONFIGS = {
    "desk-1d": (Grid(4.0, 1 / 32), WindowSpec.gaussian(1.0, 3.0), 0.5, 2.0),      # N = 256, r = 64
    "uneven-1d": (Grid(3.0, 1 / 30), WindowSpec.bspline(2), 0.5, 0.9),            # N = 180, r = 27
    "uneven-2d": (Grid(1.5, 1 / 6, dim=2), WindowSpec.gaussian(0.5, 1.0), 0.5, 5 / 6),  # 18^2, r = 5
    "even-2d": (Grid(1.0, 1 / 8, dim=2), WindowSpec.bspline(2), 0.25, 0.5),       # 16^2, r = 4
}


class TestFrameBounds:
    @pytest.mark.parametrize("name", DENSE_CONFIGS)
    def test_matches_dense_eigvalsh(self, name):
        grid, spec, a, inv_b = DENSE_CONFIGS[name]
        g = sample_window(spec, grid)
        sys = GaborSystem(g, g, a, 1 / inv_b)
        eig = np.linalg.eigvalsh(dense_frame_operator(sys))
        lower, upper = frame_bounds(sys)
        assert abs(lower - eig[0]) <= 1e-13
        assert abs(upper - eig[-1]) <= 1e-13

    def test_small_batches_agree(self, monkeypatch):
        # a cap below one block forces one block per eigvalsh call
        grid, spec, a, inv_b = DENSE_CONFIGS["uneven-2d"]
        g = sample_window(spec, grid)
        sys = GaborSystem(g, g, a, 1 / inv_b)
        whole = frame_bounds(sys)
        monkeypatch.setattr(walnut, "_BATCH_ENTRIES", 1)
        assert frame_bounds(sys) == whole

    def test_identity_regime_estimate(self, chi):
        lower, upper = frame_bounds(GaborSystem(chi, chi, 0.25, 0.5))
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_estimate_below_closed_form_bound(self, chi, hat):
        for window, a, b in [(chi, 0.25, 0.5), (hat, 0.5, 0.5)]:
            sys = GaborSystem(window, window, a, b)
            lower, upper = frame_bounds(sys)
            assert 0.0 <= lower <= upper <= operator_norm_upper_bound(sys) * (1 + 1e-9)

    def test_requires_self_dual(self, chi, hat):
        with pytest.raises(ValueError):
            frame_bounds(GaborSystem(chi, hat, 0.5, 0.5))


class TestBoundsPreflight:
    def test_past_physical_memory_raises_before_allocating(self):
        # 1024 x 1024 samples and 1/(b h) = 1: one residue block of side 2^20
        grid = Grid(8.0, 1 / 64, dim=2)
        g = sample_window(WindowSpec.gaussian(1.0, 1.5), grid)
        sys = GaborSystem(g, g, 0.5, 64.0)
        peak, result = traced_peak(frame_bounds, sys)
        assert isinstance(result, ResolutionError)
        assert "physical memory" in str(result)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("half_extent,spacing,dim,b", [
        (4.0, 1 / 32, 1, 0.5), (4.0, 1 / 32, 1, 2.0), (2.0, 1 / 16, 2, 0.5),
        (4.0, 1 / 8, 2, 1.0), (3.0, 1 / 8, 2, 2.0)])
    def test_estimate_tracks_the_traced_peak(self, half_extent, spacing, dim, b):
        from gabframes.walnut import _bounds_peak_bytes

        grid = Grid(half_extent, spacing, dim)
        g = sample_window(WindowSpec.gaussian(1.0, 1.5), grid)
        sys = GaborSystem(g, g, 0.5, b)
        peak, _ = traced_peak(frame_bounds, sys)
        estimate = _bounds_peak_bytes(grid, sys.inv_b_steps)
        # the batch of blocks dominates; the members and index arrays are small
        assert peak / 2 <= estimate <= 1.1 * peak


class TestReconstructIntegral:
    """The Riemann sum of the STFT inversion integral over the lattice
    (dt Z^d) x (dw Z^d) is by definition the frame operator S_{dt,dw} of the
    pair, which walnut_apply computes exactly."""

    def test_zero_signal(self, gauss):
        z = GridFunction(gauss.grid, np.zeros(gauss.grid.shape))
        out = walnut_apply(z, GaborSystem(gauss, gauss, 0.25, 0.25))
        assert not out.values.any()

    def test_linearity_in_f(self):
        grid = Grid(4.0, 1 / 16)
        gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        one, two = walnut_apply(gauss, sys), walnut_apply(2.0 * gauss, sys)
        assert l2_norm(two - 2.0 * one) <= 1e-12 * l2_norm(one)

    def test_self_reconstruction_converges(self):
        grid = Grid(4.0, 1 / 16)
        gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        errs = []
        for step in (0.5, 0.25):
            rec = walnut_apply(gauss, GaborSystem(gauss, gauss, step, step))
            errs.append(l2_norm(rec - gauss) / l2_norm(gauss))
        assert errs[0] <= 0.05  # moderate resolution already under 5%
        assert errs[1] < errs[0]

    def test_degenerate_pair(self, grid, chi):
        far = translate(chi, [2.0])
        with pytest.raises(DegenerateWindowPairError):
            walnut_apply(chi, GaborSystem(chi, far, 0.5, 0.5))

    def test_exact_identity_regime_is_not_cut_short(self):
        # S_{1/2,1/2} = I for the unit indicator pair; every coefficient on
        # the frequency shell |w| = 2 vanishes, which must not end the sum
        grid = Grid(4.0, 1 / 16)
        chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
        rec = walnut_apply(chi, GaborSystem(chi, chi, 0.5, 0.5))
        assert l2_norm(rec - chi) <= 1e-12 * l2_norm(chi)

    def test_equals_the_frame_operator(self):
        # even r = 1/(dw h) = 32: the Nyquist frequency is one index, not two
        grid = Grid(4.0, 1 / 16)
        hat = sample_window(WindowSpec.bspline(2), grid)
        sys = GaborSystem(hat, hat, 0.25, 0.5)
        rec, want = walnut_apply(hat, sys), apply_frame_direct(hat, sys)
        assert l2_norm(rec - want) <= 1e-12 * l2_norm(want)

    def test_incommensurate_frequency_step(self):
        grid = Grid(4.0, 1 / 16)
        gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        with pytest.raises(CommensurabilityError):
            walnut_apply(gauss, GaborSystem(gauss, gauss, 0.25, 0.3))  # 1/dw = 10/3


class TestTwoDimensional:
    def test_direct_equals_walnut(self):
        grid = Grid(2.0, 1 / 8, dim=2)
        chi2 = sample_window(WindowSpec.indicator_cube(1.0), grid)
        f = random_interior(grid, seed=12, envelope_sigma=0.8, envelope_radius=1.0)
        sys = GaborSystem(chi2, chi2, 0.5, 0.5)
        d = apply_frame_direct(f, sys)
        w = walnut_apply(f, sys)
        assert l2_norm(d - w) <= 1e-10 * l2_norm(f)
        assert l2_norm(w - f) <= 1e-12 * l2_norm(f)  # identity regime in 2-d
