import dataclasses
import inspect
import math

import numpy as np
import pytest

from gabframes import (
    CommensurabilityError,
    ConfigError,
    ExponentPair,
    GaborSystem,
    Grid,
    GridFunction,
    ResolutionError,
    SweepSchedule,
    amalgam_norm,
    apply_diagonal_defect,
    convergence_sweep,
    counterexample_run,
    diagonal_correlation,
    opnorm_sweep,
    periodic_extension,
    sample_window,
    sum_translates,
    walnut_apply,
    WindowSpec,
)
from gabframes.experiments import _SWEEP_BYTES, _defect_sups
from gabframes.walnut import diagonal_deviation
from test_operators import traced_peak


def make_schedule(grid, pairs, pq=(2, 2), g="bspline", f="gaussian"):
    spec = {"bspline": WindowSpec.bspline(2),
            "gaussian": WindowSpec.gaussian(1.0, 3.0),
            "indicator": WindowSpec.indicator_cube(1.0),
            "fat": WindowSpec.fat_cantor(1)}
    return SweepSchedule(
        grid=grid,
        g_spec=spec[g],
        gamma_spec=spec[g],
        pairs=tuple(pairs),
        pq=ExponentPair.of(*pq),
        f_spec=spec[f],
    )


class TestScheduleValidation:
    def test_rejects_nondecreasing_pairs(self):
        grid = Grid(16.0, 1 / 32)
        with pytest.raises(ConfigError):
            make_schedule(grid, [(0.5, 0.5), (0.5, 0.25)])

    def test_pairs_are_the_snapped_steps(self):
        # a = 1/2 - 1e-11 shifts by the 16 samples of a = 1/2: the second pair
        # measured a = 1/2 again, with the first row's diag_dev
        grid = Grid(4.0, 1 / 32)
        with pytest.raises(ConfigError, match=r"got \(0\.5, 0\.5\) then \(0\.5, 0\.25\)"):
            make_schedule(grid, [(0.5, 0.5), (0.5 - 1e-11, 0.25)])
        schedule = make_schedule(grid, [(0.5 + 1e-10, 0.5 - 1e-12), (0.25, 0.25)])
        assert schedule.pairs == ((0.5, 0.5), (0.25, 0.25))

    def test_rejects_incommensurate(self):
        grid = Grid(16.0, 1 / 32)
        with pytest.raises(CommensurabilityError):
            make_schedule(grid, [(0.3, 0.5)])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            make_schedule(Grid(16.0, 1 / 32), [])

    def test_rejects_zero_b(self):
        with pytest.raises(ConfigError, match="positive"):
            make_schedule(Grid(16.0, 1 / 32), [(0.5, 0.0)])

    @pytest.mark.parametrize("pair", [(-0.5, 0.5), (0.0, 0.5), (1e-12, 0.5), (0.5, 1e12)])
    def test_rejects_steps_below_one_sample(self, pair):
        with pytest.raises(CommensurabilityError, match="positive"):
            make_schedule(Grid(16.0, 1 / 32), [pair])

    def test_convergence_needs_f(self):
        schedule = dataclasses.replace(make_schedule(Grid(16.0, 1 / 32), [(0.5, 0.5)]),
                                       f_spec=None)
        with pytest.raises(ConfigError, match="test-function"):
            convergence_sweep(schedule)

    def test_test_function_off_the_grid_rejected(self, monkeypatch):
        # the shift leaves f zero on the grid, where every error reads 0
        schedule = dataclasses.replace(make_schedule(Grid(4.0, 1 / 32), [(0.5, 0.5)]),
                                       f_shift=(100.0,))

        def unbuilt(*args):
            raise AssertionError("a system was built before the check")

        monkeypatch.setattr("gabframes.experiments.GaborSystem", unbuilt)
        with pytest.raises(ConfigError, match="off the grid"):
            convergence_sweep(schedule)

    def test_boundary_margin_enforced(self):
        # 1/b = 8 plus support diameters exceeds the distance to the boundary
        grid = Grid(4.0, 1 / 32)
        schedule = make_schedule(grid, [(0.5, 0.25), (0.25, 0.125)])
        with pytest.raises(ConfigError):
            convergence_sweep(schedule)


    def test_equal_specs_sample_one_window(self):
        schedule = make_schedule(Grid(16.0, 1 / 32), [(0.5, 0.5)])
        g, gamma = schedule.sample_windows()
        assert g is gamma
        other = dataclasses.replace(schedule, gamma_spec=WindowSpec.gaussian(1.0, 3.0))
        g, gamma = other.sample_windows()
        assert g is not gamma and gamma.data.shape != g.data.shape


class TestSupportBoxMemory:
    """On the sweep-2d benchmark config (a 640 x 640 grid, windows and f on
    boxes of about 100 x 100) nothing allocates a full-grid array."""

    GRID = Grid(10.0, 1 / 32, dim=2)
    FULL_GRID_BYTES = GRID.size * np.dtype(complex).itemsize

    def test_sweep_peak_below_one_full_grid_array(self):
        schedule = dataclasses.replace(
            make_schedule(self.GRID, [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)],
                          f="bspline"),
            g_spec=WindowSpec.gaussian(0.5, 1.0), gamma_spec=WindowSpec.gaussian(0.5, 1.0),
            f_shift=(-1.0, -1.0))
        peak, report = traced_peak(convergence_sweep, schedule)
        assert report.passed
        assert peak < self.FULL_GRID_BYTES

    def test_walnut_apply_allocates_no_full_grid_array(self):
        g = sample_window(WindowSpec.gaussian(0.5, 1.0), self.GRID)
        f = sample_window(WindowSpec.bspline(2), self.GRID)
        sys = GaborSystem(g, g, 0.5, 0.5)
        peak, out = traced_peak(walnut_apply, f, sys)
        assert peak < self.FULL_GRID_BYTES
        peak, values = traced_peak(lambda: out.values)
        assert peak >= self.FULL_GRID_BYTES and values.shape == self.GRID.shape

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_box_folds_build_no_full_grid_array(self, p):
        g = sample_window(WindowSpec.gaussian(0.5, 1.0), self.GRID)
        f = sample_window(WindowSpec.bspline(2), self.GRID)
        b = 1 / (2 * self.GRID.half_extent)  # member 0 alone
        h = self.GRID.spacing
        runs = {
            "sum_translates": lambda: sum_translates(g, 0.5),
            # a one-sample cell, a = h, is a pairing sum on the overlap box
            "diagonal_deviation": lambda: diagonal_deviation(GaborSystem(g, g, h, b)),
            "diagonal_defect": lambda: [amalgam_norm(apply_diagonal_defect(
                f, GaborSystem(g, g, a, b)), (p, p)) for a in (0.5, 0.25)],
        }
        for name, run in runs.items():
            peak, _ = traced_peak(run)
            assert peak < self.FULL_GRID_BYTES, name


class TestConvergenceSweep:
    def test_identity_regime_all_zero(self):
        grid = Grid(16.0, 1 / 32)
        schedule = make_schedule(
            grid, [(2.0 ** -j, 2.0 ** -j) for j in range(1, 4)], g="indicator")
        report = convergence_sweep(schedule)
        assert all(r.err_f <= 1e-14 for r in report.records)
        assert report.passed and report.trend_ratio == 0.0

    @pytest.mark.parametrize("pq", [(1, 2), (2, 2), (2, math.inf)])
    def test_hat_windows_gaussian_f_trend(self, pq):
        grid = Grid(64.0, 1 / 32)
        schedule = make_schedule(
            grid, [(2.0 ** -j, 2.0 ** -j) for j in range(1, 5)], pq=pq)
        report = convergence_sweep(schedule)
        assert report.passed
        assert report.trend_ratio < 0.2
        assert all(r.bound_ok for r in report.records)
        assert all(r.weakstar <= r.err_f * 10 for r in report.records)

    def test_anisotropic_schedule_also_converges(self):
        grid = Grid(64.0, 1 / 32)
        pairs = [(2.0 ** -j, 3.0 ** -j) for j in range(1, 4)]
        report = convergence_sweep(make_schedule(grid, pairs, pq=(1, 2)))
        assert report.passed

    def test_thread_count_invariance(self):
        grid = Grid(64.0, 1 / 32)
        schedule = make_schedule(grid, [(2.0 ** -j, 2.0 ** -j) for j in range(1, 4)])
        seq = convergence_sweep(schedule, threads=1)
        par = convergence_sweep(schedule, threads=4)
        for r1, r8 in zip(seq.records, par.records):
            assert abs(r1.err_f - r8.err_f) <= 1e-12
            assert abs(r1.diag_dev - r8.diag_dev) <= 1e-12
            assert abs(r1.tail - r8.tail) <= 1e-12


class TestOneSweepLoop:
    """Both sweep kinds measure the numbers of S they share in one loop."""

    def test_shared_columns_are_equal(self):
        schedule = make_schedule(Grid(64.0, 1 / 32), [(2.0 ** -j, 2.0 ** -j) for j in range(1, 4)])
        conv, opnorm = convergence_sweep(schedule), opnorm_sweep(schedule)
        for rc, ro in zip(conv.records, opnorm.records, strict=True):
            for name in ("a", "b", "diag_dev", "tail", "norm_bound"):
                assert getattr(rc, name) == getattr(ro, name), name

    def test_opnorm_thread_count_invariance(self):
        schedule = make_schedule(
            Grid(8.0, 1 / 32), [(2.0 ** -j, 2.0 ** -j) for j in range(1, 6)], g="gaussian")
        seq, par = opnorm_sweep(schedule, threads=1), opnorm_sweep(schedule, threads=2)
        untimed = [[dataclasses.replace(r, wall_time=0.0) for r in rep.records] for rep in (seq, par)]
        assert untimed[0] == untimed[1]
        assert (seq.trend_ratio, seq.monotone, seq.passed) == (par.trend_ratio, par.monotone,
                                                               par.passed)


class TestOpnormSweep:
    def test_indicator_partition_of_unity(self):
        grid = Grid(16.0, 1 / 32)
        schedule = make_schedule(
            grid, [(2.0 ** -j, 2.0 ** -j) for j in range(1, 4)], g="indicator")
        report = opnorm_sweep(schedule)
        assert all(r.diag_dev == 0.0 for r in report.records)
        assert report.passed

    def test_gaussian_proxy_shrinks(self):
        grid = Grid(8.0, 1 / 32)
        schedule = make_schedule(
            grid, [(2.0 ** -j, 2.0 ** -j) for j in range(1, 5)], g="gaussian")
        report = opnorm_sweep(schedule)
        assert report.records[-1].diag_dev < 1e-3  # a = 1/16
        assert report.records[-1].tail == 0.0
        assert report.passed
        for r in report.records:
            assert r.proxy_lower <= r.proxy_upper

    def test_rejects_fat_cantor_windows(self):
        grid = Grid(8.0, 1 / 32)
        schedule = make_schedule(grid, [(0.5, 0.5), (0.25, 0.25)], g="fat")
        with pytest.raises(ConfigError):
            opnorm_sweep(schedule)


def riemann_defects(f, a_list):
    """Worst-offset Riemann-sum defects sup_y |a^d sum_n f(y + n a) / integral f - 1|.

    The diagonal deviation of the system (f, 1): with gamma = 1 on the grid,
    a^d G[0] / <gamma, f> is the conjugate of a^d sum_n f(. + n a) / integral f.
    """
    grid = f.grid
    one = GridFunction(grid, np.ones(grid.shape))
    b = 1 / (2 * grid.half_extent)  # member 0 alone
    return [diagonal_deviation(GaborSystem(f, one, a, b)) for a in a_list]


def diagonal_defect_norms(f, p, a_list, g):
    """||(diag - 1) f||_{L^p} along the cell sizes, gamma = g, as the W(L^p, l^p) norm."""
    b = 1 / (2 * f.grid.half_extent)
    return [amalgam_norm(apply_diagonal_defect(f, GaborSystem(g, g, a, b)), (p, p))
            for a in a_list]


class TestRiemannUniformity:
    def test_indicator_exact_at_unit_fractions(self, grid, chi):
        assert riemann_defects(chi, [0.5, 0.25, 0.125]) == [0.0] * 3

    def test_hat_exact_at_divisor_steps(self, grid, hat):
        # B-splines vanish at nonzero integer frequencies, so their
        # periodization at steps 1/m reproduces the integral exactly
        for dev in riemann_defects(hat, [0.5, 0.25, 0.125]):
            assert dev <= 1e-13

    def test_hat_quadratic_rate_off_divisors(self, grid, hat):
        devs = riemann_defects(hat, [3 / 8, 3 / 16, 3 / 32])
        assert devs[0] > 1e-3
        for a, b in zip(devs, devs[1:]):
            assert b <= 0.3 * a  # observed rate: exact quartering

    def test_gaussian_decreasing(self, grid, gauss):
        devs = riemann_defects(gauss, [0.5, 0.25, 0.125])
        assert all(b <= a + 1e-13 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-10


@pytest.mark.parametrize("a", [0.0, -0.5])
def test_cell_size_must_be_positive(hat, a):
    with pytest.raises(CommensurabilityError, match="positive"):
        sum_translates(hat, a)


class TestDiagonalDecay:
    def test_indicator_identically_zero(self, grid, chi, hat):
        assert diagonal_defect_norms(hat, 1, [0.5, 0.25, 0.125], chi) == [0.0] * 3

    def test_gaussian_windows_decay(self, grid, gauss, hat):
        norms = diagonal_defect_norms(hat, 1, [0.5, 0.25, 0.125], gauss)
        f_mass = amalgam_norm(hat, (1, 1))
        assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3 * f_mass

    def test_p2_matches_amalgam_machinery(self, grid, gauss, interior_f):
        # W(L^2, l^2) = L^2: the amalgam norm of the defect is its plain
        # global Riemann sum on the full grid
        a = 0.25
        [norm] = diagonal_defect_norms(interior_f, 2, [a], gauss)
        sys = GaborSystem(gauss, gauss, a, 1.0)
        mult = periodic_extension(diagonal_correlation(sys), grid) - 1.0
        plain = np.sqrt(grid.cell_measure * np.sum(np.abs(mult * interior_f.values) ** 2))
        assert norm == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("threads", [0, -4])
def test_threads_below_one_rejected_before_sampling(monkeypatch, threads):
    def unsampled(*args, **kwargs):
        raise AssertionError("a window was sampled before threads was checked")

    monkeypatch.setattr("gabframes.experiments.sample_window", unsampled)
    schedule = make_schedule(Grid(64.0, 1 / 32), [(0.5, 0.5), (0.25, 0.25)])
    for run in (lambda: convergence_sweep(schedule, threads=threads),
                lambda: opnorm_sweep(schedule, threads=threads)):
        with pytest.raises(ConfigError, match="threads"):
            run()


class TestCounterexample:
    def test_depth_one_witness_and_contrast(self):
        report = counterexample_run([1])
        rec = report.records[0]
        assert rec.witness_norm >= 1.0 - 2 * rec.spacing
        assert rec.contrast_norm <= 0.05
        assert rec.separation_ok
        assert report.passed

    def test_fixed_grid_per_depth(self):
        records = counterexample_run([1, 2]).records
        assert [r.spacing for r in records] == [4.0 ** -k / 8 for k in (1, 2)]

    def test_gap_orbit_mechanism(self):
        # independent witness: x = 1/2 sits in the persistent middle gap and
        # its unit-step orbit leaves [0, 1], so the diagonal correlation is 0 there
        grid = Grid(2.0, 1 / 32)
        fat = sample_window(WindowSpec.fat_cantor(1), grid)
        sys = GaborSystem(fat, fat, 1.0, 1.0)
        ext = periodic_extension(diagonal_correlation(sys), grid)
        x = grid.axis_coords()
        assert ext[np.nonzero(x == 0.5)][0] == 0.0


    @pytest.mark.parametrize("depth", range(1, 8))
    def test_exact_sups_equal_the_grid_operator(self, depth):
        # the grid path, kept as the oracle: sup |diag - 1| on the samples of [0, 1)
        # for the fat and the solid window at every commensurate a = 2^-j
        m = 8 * 4 ** depth
        grid = Grid(2.0, 1 / m)
        chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
        fat = sample_window(WindowSpec.fat_cantor(depth), grid)
        halvings = range(2 * depth + 4)  # a = 2^-j down to one sample

        def on_grid(window, a):
            sys = GaborSystem(window, window, a, 1.0)
            return amalgam_norm(apply_diagonal_defect(chi, sys), (math.inf, math.inf))

        for window, table_depth in ((fat, depth), (chi, 0)):
            want = [on_grid(window, 2.0 ** -j) for j in halvings]
            assert _defect_sups(table_depth, m, halvings) == want

    @pytest.mark.parametrize("depth,sup", [(8, 0.2529), (12, 0.5001), (16, 0.5000)])
    def test_sup_at_a_sixteenth_grows_with_depth(self, depth, sup):
        [got] = _defect_sups(depth, 8 * 4 ** depth, [4])
        assert got == pytest.approx(sup, abs=1e-4)


class TestCounterexamplePreflight:
    @pytest.mark.parametrize("depth", [10, 12, 14, 16])
    def test_estimate_tracks_the_traced_peak(self, depth):
        peak, report = traced_peak(counterexample_run, [depth])
        assert report.passed
        estimate = _SWEEP_BYTES * 2 ** depth
        assert estimate / 2 <= peak <= 1.1 * estimate

    def test_past_physical_memory_raises_before_any_grid(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a table was built before the memory check")

        monkeypatch.setattr("gabframes.experiments._fat_cantor_table", unbuilt)
        # depth 70 has 2^70 intervals, beyond any memory
        peak, result = traced_peak(counterexample_run, [1, 70])
        assert isinstance(result, ResolutionError)
        assert "physical memory" in str(result)
        assert peak < 2 ** 20

    def test_huge_depths_are_estimated_without_building_the_number(self):
        # 4^(10^12) has 2 * 10^12 bits: the estimate used to raise MemoryError
        for depth in (10 ** 12, 10 ** 300):
            peak, result = traced_peak(counterexample_run, [depth])
            assert isinstance(result, ResolutionError)
            assert "physical memory" in str(result)
            assert peak < 2 ** 20

    def test_no_depths_fail_before_the_preflight(self, monkeypatch):
        # an empty depth list used to pass with no records
        def unchecked(*args):
            raise AssertionError("the memory preflight ran before the depths were checked")

        monkeypatch.setattr("gabframes.experiments._require_memory", unchecked)
        for depths in ([], ()):
            with pytest.raises(ConfigError, match="at least one depth"):
                counterexample_run(depths)


@pytest.mark.parametrize("fn,params", [
    (counterexample_run, [("depths", None)]),
])
def test_no_option_without_a_caller(fn, params):
    empty = inspect.Parameter.empty
    got = [(p.name, None if p.default is empty else p.default)
           for p in inspect.signature(fn).parameters.values()]
    assert got == params
