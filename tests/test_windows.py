import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gabframes import (
    Grid,
    ResolutionError,
    UnsupportedDimensionError,
    WindowSpec,
    fat_cantor_intervals,
    fat_cantor_measure,
    sample_window,
    wiener_norm,
    window_library,
)
from gabframes import windows
from gabframes.windows import bspline_profile
from conftest import same_bits
from test_operators import spied_peak, traced_peak


class TestWindowSpec:
    def test_json_roundtrip(self):
        for spec in window_library():
            assert WindowSpec.from_json(spec.to_json()) == spec

    def test_json_shape(self):
        assert WindowSpec.gaussian(1.0, 6.0).to_json() == {
            "family": "gaussian", "sigma": 1.0, "radius": 6.0}

    @pytest.mark.parametrize("bad", [
        {"family": "unknown"},
        {"family": "gaussian", "sigma": 1.0},           # missing radius
        {"family": "indicator_cube", "side": -1.0},
        {"family": "bspline", "order": 2, "sigma": 1.0},  # stray parameter
        {"family": "fat_cantor", "depth": 0},
        {"family": "bspline", "order": 2.5},
        {"family": "fat_cantor", "depth": 1.5},
        {"family": "gaussian", "sigma": 1.0, "radius": 3.0, "width": 2.0},  # unknown key
        '{"family": "bspline", "order": 2}',  # JSON text, not an object
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            WindowSpec.from_json(bad)


class TestIndicator:
    def test_unit_indicator_samples(self):
        grid = Grid(2.0, 1 / 8)
        f = sample_window(WindowSpec.indicator_cube(1.0), grid)
        x = grid.axis_coords()
        inside = (x >= 0) & (x < 1)
        assert np.count_nonzero(f.values) == 8
        assert np.array_equal(f.values.real, inside.astype(float))


class TestBspline:
    def test_order_one_is_indicator(self, grid):
        b1 = sample_window(WindowSpec.bspline(1), grid)
        chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
        assert np.array_equal(b1.values, chi.values)

    def test_hat_profile(self, grid):
        hat = sample_window(WindowSpec.bspline(2), grid)
        x = grid.axis_coords()
        expected = np.where((x >= 0) & (x < 2), 1.0 - np.abs(x - 1.0), 0.0)
        assert np.allclose(hat.values.real, expected, atol=1e-14)

    def test_higher_order_mass(self, grid):
        # every cardinal B-spline integrates to 1
        for order in (2, 3, 4):
            f = sample_window(WindowSpec.bspline(order), grid)
            mass = grid.cell_measure * f.values.real.sum()
            assert mass == pytest.approx(1.0, abs=2e-2)

    @pytest.mark.parametrize("spacing", [1 / 32, 1 / 7])
    def test_profile_has_the_bits_of_the_recursion(self, spacing):
        x = Grid(4.0, spacing).axis_coords()
        for order in range(1, 13):
            assert bspline_profile(order, x).tobytes() == recursive_bspline(order, x).tobytes()

    def test_high_order_returns(self):
        # the recursion makes 2^39 calls at order 40
        x = Grid(4.0, 1 / 32).axis_coords()
        vals = bspline_profile(40, x)
        assert vals.shape == x.shape and np.isfinite(vals).all() and (vals >= 0).all()

    def test_underflowed_window_is_refused(self):
        # on [-4, 4) at h = 1/32, B_k underflows to +0 at every sample from k = 241 on
        grid = Grid(4.0, 1 / 32)
        assert sample_window(WindowSpec.bspline(240), grid).values.real.max() > 0
        with pytest.raises(ResolutionError, match=r"'order': 241\}.*half_extent=4.0, spacing=1/32"):
            sample_window(WindowSpec.bspline(241), grid)


# grids for the order bound: 1-D and 2-D, whole and fractional T, and T = h,
# where the largest coordinate is 0
ORDER_BOUND_GRIDS = [Grid(4.0, 1 / 32), Grid(2.75, 1 / 16), Grid(1.25, 1 / 8, dim=2),
                     Grid(1 / 32, 1 / 32)]


class TestOrderBound:
    """B_k(x) <= x^(k-1) / (k-1)! refuses high orders before the recursion runs."""

    def test_refuses_before_the_recursion(self, monkeypatch):
        def unsampled(order, x):
            raise AssertionError("the recursion ran")

        monkeypatch.setattr("gabframes.windows.bspline_profile", unsampled)
        for order in (241, 2000):
            with pytest.raises(ResolutionError,
                               match=rf"'order': {order}\}}.*half_extent=4.0, spacing=1/32"):
                sample_window(WindowSpec.bspline(order), Grid(4.0, 1 / 32))

    @pytest.mark.parametrize("grid", ORDER_BOUND_GRIDS, ids=repr)
    def test_refuses_only_windows_that_sample_to_zero(self, grid, monkeypatch):
        x = grid.axis_coords()
        profiles = list(bspline_orders(x, 400))
        for order in (1, 2, 7, 40):
            assert profiles[order - 1].tobytes() == bspline_profile(order, x).tobytes()
        sampled = []
        monkeypatch.setattr("gabframes.windows.bspline_profile",
                            lambda order, x: sampled.append(order) or np.zeros_like(x))
        for order in range(1, 401):
            with pytest.raises(ResolutionError):
                sample_window(WindowSpec.bspline(order), grid)
        refused = sorted(set(range(1, 401)) - set(sampled))
        assert refused and refused == list(range(refused[0], 401))
        for order in refused:
            assert not profiles[order - 1].any(), order


def bspline_orders(x, top):
    """bspline_profile(k, x) for k = 1..top from one pass of its recursion:
    after step k, row 0 holds order k, computed by the same operations."""
    args = [x]
    for _ in range(top - 1):
        args.append(args[-1] - 1)
    args = np.array(args)
    level = ((args >= 0) & (args < 1)).astype(float)
    yield level[0]
    for k in range(2, top + 1):
        t = args[:len(level) - 1]
        level = (t * level[:-1] + (k - t) * level[1:]) / (k - 1)
        yield level[0]


def recursive_bspline(order, x):
    """The cardinal B-spline by its recursive definition, the oracle."""
    if order == 1:
        return ((x >= 0) & (x < 1)).astype(float)
    prev = recursive_bspline(order - 1, x)
    prev_shift = recursive_bspline(order - 1, x - 1)
    return (x * prev + (order - x) * prev_shift) / (order - 1)


class TestGaussian:
    def test_peak_and_truncation(self, grid):
        f = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        x = grid.axis_coords()
        assert f.values.real[np.nonzero(x == 0.0)][0] == 1.0
        assert np.all(f.values[np.abs(x) > 3.0] == 0)
        assert np.allclose(f.values.real[x == 1.0], np.exp(-np.pi))


def fraction_axis(depth, grid, lo, hi):
    """The samples lo..hi-1 of the depth-k fat-Cantor window, from every one
    of its 2^k intervals built and compared as exact rationals: the reference
    for the integer table."""
    pieces = [(Fraction(0), Fraction(1))]
    for j in range(1, depth + 1):
        half_gap = Fraction(1, 2 * 4 ** j)
        nxt = []
        for a, b in pieces:
            mid = (a + b) / 2
            nxt.append((a, mid - half_gap))
            nxt.append((mid + half_gap, b))
        pieces = nxt
    m, th = grid.samples_per_unit, grid.half_extent_steps
    vals = np.zeros(hi - lo)
    for start, stop in pieces:
        start = max(math.ceil(start * m) + th, lo)
        stop = min(math.ceil(stop * m) + th, hi)
        if start < stop:
            vals[start - lo:stop - lo] = 1.0
    return vals


class TestFatCantor:
    def test_depth_one_intervals(self):
        # removing the open middle quarter of [0,1] by hand
        assert fat_cantor_intervals(1) == [
            (Fraction(0), Fraction(3, 8)), (Fraction(5, 8), Fraction(1))]

    def test_measure_series(self):
        # oracle: 1 - sum_{j<=k} 2^{j-1} 4^{-j}, summed explicitly
        for k in range(1, 8):
            removed = sum(Fraction(2 ** (j - 1), 4 ** j) for j in range(1, k + 1))
            assert fat_cantor_measure(k) == 1 - removed
        assert fat_cantor_measure(1) == Fraction(3, 4)

    def test_measure_tends_to_half(self):
        assert fat_cantor_measure(30) - Fraction(1, 2) == Fraction(1, 2 ** 31)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_sampled_measure_exact_on_aligned_grid(self, depth):
        # endpoints at depth k are multiples of 2^(-2k-1); h = 4^-k/8 divides that
        grid = Grid(2.0, 4.0 ** (-depth) / 8.0)
        f = sample_window(WindowSpec.fat_cantor(depth), grid)
        measured = grid.cell_measure * np.count_nonzero(f.values)
        assert measured == pytest.approx(float(fat_cantor_measure(depth)), abs=grid.spacing)
        assert measured == float(fat_cantor_measure(depth))  # aligned: exact

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_samples_match_the_fraction_oracle(self, depth):
        # on 1/h = 8 * 4^k, k <= 9, the grids whose sampled operator the
        # counterexample's exact values equal
        for m in (32, 30, 1000, 8 * 4 ** min(depth, 9)):
            grid = Grid(2.0, 1 / m)
            f = sample_window(WindowSpec.fat_cantor(depth), grid)
            lo = grid.half_extent_steps - 1  # the one-sample-wide range sample_window reads
            want = fraction_axis(depth, grid, lo, lo + m + 3)
            nz = np.flatnonzero(want)
            assert f.box == (slice(lo + nz[0], lo + nz[-1] + 1),)
            assert same_bits(f.data, want[nz[0]:nz[-1] + 1].astype(complex))

    @pytest.mark.parametrize("m", [2 ** 26 + 1, 2 ** 26 + 2])
    def test_cuts_past_int64_are_exact(self, m):
        # a m passes 2^63 at the top of [0, 1], depth 18: on 1/h = 2^26 + 1 the
        # cuts are taken in Python ints, on 1/h = 2^26 + 2 they fit int64 once m
        # and U are divided by their gcd 2; both checked against Python ints
        depth = 18
        grid, units = Grid(2.0, 1 / m), 2 * 4 ** depth
        th = grid.half_extent_steps
        assert units * m >= 2 ** 63
        table = windows._fat_cantor_table(depth, 0)[1].reshape(-1, 2)
        for lo in (th - 1, th + m - 20000):
            hi = lo + 20003
            # the intervals that may reach the samples lo..hi-1, read as Python ints
            near = (table[:, 1] >= (lo - th) * units // m) & (table[:, 0] <= (hi - th) * units // m)
            want = np.zeros(hi - lo)
            for a, b in table[near].tolist():
                start = max(-(-a * m // units) + th, lo)
                stop = min(-(-b * m // units) + th, hi)
                if start < stop:
                    want[start - lo:stop - lo] = 1.0
            assert same_bits(windows._fat_cantor_axis(depth, grid, lo, hi), want)

    @pytest.mark.parametrize("fn", [fat_cantor_intervals, fat_cantor_measure])
    def test_depth_below_one_rejected(self, fn):
        for depth in (0, -3):
            with pytest.raises(ValueError, match=f"^depth must be at least 1, got {depth}$"):
                fn(depth)

    @pytest.mark.parametrize("depth", [10, 11, 12, 13, 14])
    def test_estimate_tracks_the_traced_peak(self, monkeypatch, depth):
        # the sampling path (the integer table and its cuts), then the Fraction view
        for build, args in ((sample_window, (WindowSpec.fat_cantor(depth), Grid(2.0, 1 / 32))),
                            (fat_cantor_intervals, (depth,))):
            peak, estimate = spied_peak(monkeypatch, [windows], build, *args)
            assert estimate / 2 <= peak <= 1.1 * estimate

    @pytest.mark.parametrize("depth", [10 ** 6, 10 ** 7])
    def test_measure_estimate_tracks_the_traced_peak(self, monkeypatch, depth):
        peak, estimate = spied_peak(monkeypatch, [windows], fat_cantor_measure, depth)
        assert estimate / 2 <= peak <= 1.1 * estimate

    def test_deep_sets_refused_before_any_interval(self):
        # 2^40 Fraction intervals, about 420 TiB; 10^11 and 10^12 must not compute 2^depth
        for fn, depth in ((fat_cantor_intervals, 40), (fat_cantor_intervals, 10 ** 12),
                          (fat_cantor_measure, 10 ** 11), (fat_cantor_measure, 10 ** 12)):
            start = time.perf_counter()
            peak, result = traced_peak(fn, depth)
            assert time.perf_counter() - start < 1.0
            assert isinstance(result, ResolutionError) and "physical memory" in str(result)
            assert peak < 2 ** 20
        with pytest.raises(ResolutionError, match="2\\^40 fat-Cantor intervals"):
            sample_window(WindowSpec.fat_cantor(40), Grid(2.0, 1 / 8))

    def test_requires_dimension_one(self):
        grid = Grid(1.0, 1 / 8, dim=2)
        with pytest.raises(UnsupportedDimensionError):
            sample_window(WindowSpec.fat_cantor(1), grid)


class TestSamplePreflight:
    """sample_window estimates the product on the window's box before it forms it."""

    @pytest.mark.parametrize("spec,grid", [
        (WindowSpec.gaussian(1.0, 1.5), Grid(2.0, 1 / 64, 2)),
        (WindowSpec.bspline(2), Grid(2.0, 1 / 16, 3)),
        (WindowSpec.gaussian(1.0, 3.0), Grid(8.0, 1 / 4096)),
    ], ids=["gaussian-2d", "bspline-3d", "gaussian-1d"])
    def test_estimate_tracks_the_traced_peak(self, monkeypatch, spec, grid):
        sample_window(spec, grid)  # the first call imports what the number rule reads
        peak, estimate = spied_peak(monkeypatch, [windows], sample_window, spec, grid)
        # the complex product and the support scan dominate in 2-D and 3-D,
        # the axis arrays beside them in 1-D
        assert peak / 2 <= estimate <= 1.1 * peak

    def test_product_takes_17_bytes_a_box_sample(self):
        # the product is formed in complex, so no float copy sits beside it;
        # the boxes (769^2 and 65^3) outweigh numpy's 256 KiB broadcast buffers
        for spec, grid in ((WindowSpec.gaussian(1.0, 3.0), Grid(4.0, 1 / 128, 2)),
                           (WindowSpec.gaussian(1.0, 1.0), Grid(2.0, 1 / 32, 3))):
            sample_window(spec, grid)
            peak, f = traced_peak(sample_window, spec, grid)
            assert peak <= 17.5 * f.data.size

    def test_past_physical_memory_raises_before_allocating(self):
        # 256^4 samples of the unit cube: about 100 GiB
        peak, result = traced_peak(sample_window, WindowSpec.indicator_cube(1.0),
                                   Grid(4.0, 1 / 256, 4))
        assert isinstance(result, ResolutionError)
        assert "physical memory" in str(result)
        assert peak < 2 ** 20

    def test_huge_axis_raises_before_allocating(self):
        # 2^35 samples of [-64, 64] at spacing 2^-28: the axis arrays alone need about 1 TiB
        peak, result = traced_peak(sample_window, WindowSpec.gaussian(1.0, 64.0),
                                   Grid(64.0, 2.0 ** -28))
        assert isinstance(result, ResolutionError)
        assert "samples per axis" in str(result) and "physical memory" in str(result)
        assert peak < 2 ** 20


def test_every_library_window_has_finite_wiener_norm(grid):
    for spec in window_library():
        value = wiener_norm(sample_window(spec, grid))
        assert np.isfinite(value) and value > 0
