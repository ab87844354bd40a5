import dataclasses
import math

import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    WindowSpec,
    amalgam_norm,
    correlation_family,
    correlation_fn,
    janssen_apply,
    janssen_coefficients,
    l2_norm,
    modulate,
    mt_commutation_phase,
    translate,
    walnut_apply,
    wexler_raz_check,
    inner_product,
    sample_window,
)
from gabframes.grid import _cell_spectrum, fold_to_cell
from gabframes.janssen import _janssen_form
from gabframes.walnut import correlation_member_range
from conftest import random_interior


def gaussian_entry_magnitude(sigma, t, omega):
    """Closed form |<g, M_w T_t g>| = (sigma/sqrt 2) e^{-pi t^2/(2 s^2)} e^{-pi w^2 s^2/2}."""
    return (sigma / math.sqrt(2)) * math.exp(-math.pi * t * t / (2 * sigma * sigma)) \
        * math.exp(-math.pi * omega * omega * sigma * sigma / 2)


class TestCoefficients:
    def test_center_entry_is_pairing_by_construction(self, gauss, hat):
        sys = GaborSystem(gauss, hat, 0.5, 0.5)
        lat = janssen_coefficients(sys, 3, 3)
        assert lat.entry(0, 0) == pytest.approx(sys.pairing, rel=1e-14)

    def test_integer_lattice_indicator_is_delta(self, chi):
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 8, 3)
        expected = np.zeros_like(lat.entries)
        expected[8, 3] = 1.0
        assert np.allclose(lat.entries, expected, atol=1e-14)

    def test_half_integer_lattice_aliases_at_grid_frequency(self, grid, chi):
        # frequencies l/a with l = a/h land on exp(2 pi i x/h) = 1 at samples,
        # so those entries equal <chi, chi> = 1 exactly on the grid
        alias = grid.steps_scalar(0.5)  # a * (1/h) = 16
        lat = janssen_coefficients(GaborSystem(chi, chi, 0.5, 0.5), alias, 2)
        assert lat.entry(alias, 0) == pytest.approx(1.0, abs=1e-12)
        assert lat.entry(-alias, 0) == pytest.approx(1.0, abs=1e-12)
        assert abs(lat.entry(alias // 2, 0)) <= 1e-14

    def test_gaussian_entries_match_closed_form(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = janssen_coefficients(sys, 3, 3)
        for l in range(-2, 3):
            for n in range(-2, 3):
                want = gaussian_entry_magnitude(1.0, n / 0.5, l / 0.5)
                assert abs(lat.entry(l, n)) == pytest.approx(want, abs=1e-9)

    def test_hermitian_magnitudes_for_self_dual(self, gauss):
        lat = janssen_coefficients(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        mags = np.abs(lat.entries)
        assert np.allclose(mags, mags[::-1, ::-1], atol=1e-10)

    def test_truncation_bound_reported(self, gauss):
        lat = janssen_coefficients(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        assert lat.truncation_bound >= 0
        assert lat.truncation_bound < 1e-10  # gaussian decay


class TestCoefficientKernel:
    """janssen_coefficients (cell FFT of G[n]) against <gamma, M_{l/a} T_{n/b} g>."""

    @staticmethod
    def assert_matches_definition(sys, ell_radius, n_radius):
        lat = janssen_coefficients(sys, ell_radius, n_radius)
        d = sys.grid.dim
        tol = 1e-12 * np.abs(lat.entries).max()
        for pos in np.ndindex(lat.entries.shape):
            l = np.array(pos[:d]) - ell_radius
            n = np.array(pos[d:]) - n_radius
            want = inner_product(sys.gamma, modulate(translate(sys.g, n / sys.b), l / sys.a))
            assert abs(lat.entries[pos] - want) <= tol, (l, n)

    def test_one_dimensional_past_the_alias_midpoint(self, gauss, hat):
        # a/h = 16, so |l| = 8..10 reaches the aliased half of the period
        self.assert_matches_definition(GaborSystem(gauss, hat, 0.5, 0.5), 10, 3)

    def test_two_dimensional_aliased(self):
        grid2 = Grid(1.0, 1 / 8, dim=2)
        g2 = sample_window(WindowSpec.gaussian(0.5, 0.75), grid2)
        chi2 = sample_window(WindowSpec.indicator_cube(1.0), grid2)
        # a/h = 4: l = 2, 3 alias onto -2, -1
        self.assert_matches_definition(GaborSystem(g2, chi2, 0.5, 1.0), 3, 1)


class TestOneTransformPerMember:
    """One h^d fftn per member, read at the stored bins l mod a/h, gives the
    bits of the spectrum taken twice: at every bin for truncation_bound and
    at the stored l for the entries."""

    @staticmethod
    def two_transforms(sys, ell_radius, n_radius):
        # the entries and the bound with a separate spectrum for each
        d, p, h = sys.grid.dim, sys.a_steps, sys.grid.cell_measure
        ls = np.arange(-ell_radius, ell_radius + 1)
        entries = np.zeros((2 * ell_radius + 1,) * d + (2 * n_radius + 1,) * d, dtype=complex)
        miss = np.abs(1.0 - fold_to_cell(np.ones((2 * ell_radius + 1,) * d), p, ell_radius))
        tail = 0.0
        for n, cell in correlation_family(sys).items():
            stored = max(map(abs, n)) <= n_radius
            c_hat = h * _cell_spectrum(cell, np.arange(p))
            tail += float(((miss if stored else 1.0) * np.abs(c_hat)).sum())
            if stored:
                entries[(Ellipsis,) + tuple(v + n_radius for v in n)] = h * _cell_spectrum(cell, ls)
        return entries, tail / abs(sys.pairing)

    @pytest.mark.parametrize("ell_radius,n_radius", [(0, 0), (3, 1), (10, 3), (20, 5)])
    def test_one_dimensional(self, gauss, hat, ell_radius, n_radius):
        sys = GaborSystem(gauss, hat, 0.5, 0.5)
        lat = janssen_coefficients(sys, ell_radius, n_radius)
        entries, bound = self.two_transforms(sys, ell_radius, n_radius)
        assert lat.entries.tobytes() == entries.tobytes()
        assert lat.truncation_bound == bound

    def test_two_dimensional(self):
        grid2 = Grid(1.0, 1 / 8, dim=2)
        g2 = sample_window(WindowSpec.gaussian(0.5, 0.75), grid2)
        chi2 = sample_window(WindowSpec.indicator_cube(1.0), grid2)
        sys = GaborSystem(g2, chi2, 0.5, 1.0)
        lat = janssen_coefficients(sys, 3, 0)
        entries, bound = self.two_transforms(sys, 3, 0)
        assert lat.entries.tobytes() == entries.tobytes()
        assert lat.truncation_bound == bound


class TestFrozenLattice:
    def test_fields_and_entries_are_read_only(self, gauss):
        lat = janssen_coefficients(GaborSystem(gauss, gauss, 0.5, 0.5), 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lat.entries = lat.entries * 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            lat.truncation_bound = 0.0
        with pytest.raises(ValueError):
            lat.entries[...] = 0.0

    def test_entries_are_copied_once(self, gauss):
        lat = janssen_coefficients(GaborSystem(gauss, gauss, 0.5, 0.5), 2, 2)
        mine = lat.entries.copy()
        copy = dataclasses.replace(lat, entries=mine)
        mine[...] = 0.0
        assert copy.entries.tobytes() == lat.entries.tobytes()


class TestConditionAPrime:
    """Condition (A'): the dual-lattice coefficients are absolutely summable.

    On the grid the sum is finite, and truncation_bound is exactly the part
    a truncation misses or repeats, so it certifies ||S - S_{L,N}||.
    """

    def test_indicator_unit_lattice_concentrates_at_origin(self, chi):
        sys = GaborSystem(chi, chi, 1.0, 1.0)
        for ell_radius, n_radius in [(0, 0), (8, 3)]:
            lat = janssen_coefficients(sys, ell_radius, n_radius)
            assert lat.entry(0, 0) == pytest.approx(1.0, abs=1e-12)
            assert lat.truncation_bound == 0.0

    @pytest.mark.parametrize("pair,a,b", [("gauss", 1.0, 0.5), ("gauss", 0.5, 0.5),
                                          ("hat_gauss", 0.5, 0.5), ("hat", 0.25, 1.0)])
    def test_certificate_bounds_measured_error(self, grid, gauss, hat, pair, a, b):
        g, gamma = {"gauss": (gauss, gauss), "hat_gauss": (hat, gauss), "hat": (hat, hat)}[pair]
        sys = GaborSystem(g, gamma, a, b)
        f = random_interior(grid, seed=61)
        vals = f.values.ravel()
        for ell_radius, n_radius in [(0, 0), (1, 0), (2, 2), (3, 1), (6, 6)]:
            lat = janssen_coefficients(sys, ell_radius, n_radius)
            err = (janssen_apply(f, lat) - walnut_apply(f, sys)).values.ravel()
            for p in (1, 2, np.inf):  # relative grid L^p error, floor 1e-13 ||f||_p
                ratio = np.linalg.norm(err, p) / np.linalg.norm(vals, p)
                assert ratio <= lat.truncation_bound + 1e-13, (ell_radius, n_radius, p)

    def test_zero_once_one_odd_period_and_the_members_are_covered(self):
        grid = Grid(3.0, 1 / 30)
        g = sample_window(WindowSpec.bspline(2), grid)
        gamma = sample_window(WindowSpec.gaussian(0.7, 1.5), grid)
        sys = GaborSystem(g, gamma, 0.5, 0.6)  # a/h = 15
        n_max = max(max(abs(n) for n in rng) for rng in correlation_member_range(sys))
        lat = janssen_coefficients(sys, 7, n_max)
        assert lat.truncation_bound == 0.0
        assert janssen_coefficients(sys, 7, n_max - 1).truncation_bound > 0.0
        assert janssen_coefficients(sys, 6, n_max).truncation_bound > 0.0

    def test_even_period_counts_the_midpoint_twice(self, hat, gauss):
        sys = GaborSystem(hat, gauss, 0.5, 0.5)  # a/h = 16; 2L + 1 = 17 stores l = +-8
        n_max = max(abs(n) for n in correlation_member_range(sys)[0])
        lat = janssen_coefficients(sys, 8, n_max)
        midpoint = math.fsum(abs(lat.entry(8, n)) for n in range(-n_max, n_max + 1))
        assert midpoint > 0.0
        assert lat.truncation_bound == pytest.approx(midpoint / abs(sys.pairing), rel=1e-12)

    def test_certificate_nonincreasing_within_one_period(self, hat, gauss):
        sys = GaborSystem(hat, gauss, 0.5, 0.5)
        n_max = max(abs(n) for n in correlation_member_range(sys)[0])
        certs = np.array([[janssen_coefficients(sys, ell, n).truncation_bound
                           for n in range(n_max + 2)] for ell in range(8)])
        assert np.all(np.diff(certs, axis=0) <= 0.0)
        assert np.all(np.diff(certs, axis=1) <= 0.0)


class TestJanssenApply:
    def test_zero(self, grid, chi):
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert not janssen_apply(z, lat).values.any()

    def test_delta_lattice_reproduces_f(self, grid, chi, interior_f):
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 8, 3)
        out = janssen_apply(interior_f, lat)
        assert l2_norm(out - interior_f) <= 1e-10 * l2_norm(interior_f)

    def test_matches_walnut_for_gaussian_pair(self, grid, gauss, interior_f):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = janssen_coefficients(sys, 6, 6)
        jf = janssen_apply(interior_f, lat)
        wf = walnut_apply(interior_f, sys)
        assert l2_norm(jf - wf) <= 1e-6 * l2_norm(interior_f)

    def test_operator_order_forms_agree(self, grid, gauss, interior_f):
        # sum <gamma, T_{k/b} M_{n/a} g> T_{k/b} M_{n/a} equals the M-then-T
        # expansion termwise: the commutation phases cancel in coefficient
        # times operator
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        radius = 3
        lat = janssen_coefficients(sys, radius, radius)
        mt = janssen_apply(interior_f, lat)
        acc = np.zeros(grid.shape, dtype=complex)
        for k in range(-radius, radius + 1):
            shift = [k / sys.b]
            for n in range(-radius, radius + 1):
                freq = [n / sys.a]
                tm_g = translate(modulate(sys.g, freq), shift)
                coef = inner_product(sys.gamma, tm_g)
                acc += coef * translate(modulate(interior_f, freq), shift).values
        tm = GridFunction(grid, acc / sys.pairing)
        assert l2_norm(tm - mt) <= 1e-12 * l2_norm(mt)
        # and the scalar phase tying the two shift orders is unimodular
        assert abs(mt_commutation_phase([1 / sys.b], [1 / sys.a])) == pytest.approx(1.0)


class TestOneNormalization:
    """Every form of S divides by the system's pairing, not by a lattice entry."""

    def test_wexler_raz_diag_is_center_over_pairing(self, gauss):
        # on the desk config the FFT-bin center entry and <gamma, g> differ in
        # the last bit, so the diagonal is not 1 by construction
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = janssen_coefficients(sys, 16, 4)
        res = wexler_raz_check(sys, 16, 4)
        assert res.diag == lat.entry(0, 0) / sys.pairing
        assert np.array_equal(res.normalized, lat.entries / sys.pairing)

    def test_apply_does_not_renormalize_by_the_entries(self, gauss, interior_f):
        lat = janssen_coefficients(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        doubled = dataclasses.replace(lat, entries=2.0 * lat.entries)
        assert np.array_equal(janssen_apply(interior_f, doubled).values,
                              2.0 * janssen_apply(interior_f, lat).values)

    @pytest.mark.parametrize("radii", [(-1, 2), (2, -1)])
    def test_negative_radii_rejected(self, chi, radii):
        with pytest.raises(ValueError, match="nonnegative"):
            janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), *radii)


class TestFourierReconstruction:
    """The Janssen form's filtered cells: cell n is a^d times the partial
    Fourier synthesis a^{-d} sum_{|l| <= L} c[l, n] exp(2 pi i <l, x>/a) of
    the correlation function G[n] on its cell."""

    def test_gaussian_partial_sums_converge(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        target = correlation_fn(sys, 0)
        h = sys.grid.spacing
        dists = []
        for radius in (1, 2, 4):
            rec = _janssen_form(janssen_coefficients(sys, radius, 3)).cells[(0,)] / sys.a
            dists.append(float(np.sqrt(h * np.sum(np.abs(rec - target) ** 2))))
        assert dists[-1] < 1e-6
        assert dists[1] <= dists[0]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_full_alias_period_cells_equal_members(self, dim):
        # p = a/h = 5 is odd, so |l| <= 2 meets every alias bin exactly once
        grid = Grid(2.0, 1 / 16, dim)
        g = sample_window(WindowSpec.gaussian(0.6, 1.5), grid)
        sys = GaborSystem(g, g, 5 / 16, 1.0)
        members = correlation_family(sys)
        radius = max(max(map(abs, n)) for n in members)
        cells = _janssen_form(janssen_coefficients(sys, 2, radius)).cells
        peak = max(float(np.abs(cell).max()) for cell in members.values())
        for n, cell in cells.items():
            want = sys.a ** dim * members.get(n, np.zeros_like(cell))
            assert np.abs(cell - want).max() <= 1e-14 * peak, n

    def test_vanishing_row_reconstructs_zero(self, chi):
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 4, 3)
        assert np.abs(_janssen_form(lat).cells[(3,)]).max() <= 1e-14

    def test_unit_lattice_constant_row(self, chi):
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        assert np.allclose(_janssen_form(lat).cells[(0,)], 1.0, atol=1e-13)

    def test_missing_row_raises(self, chi):
        # the form holds one cell per stored row, and the lattice refuses
        # every row off its radius
        lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        assert sorted(_janssen_form(lat).cells) == [(n,) for n in range(-2, 3)]
        with pytest.raises(IndexError):
            lat.entry(0, 5)

    def test_cell_quadrature_recovers_entries(self, gauss):
        # h * sum_cell G[n](x) exp(-2 pi i l x / a) equals the lattice entry:
        # the fold and the phase reindex exactly on the grid
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = janssen_coefficients(sys, 16, 3)
        h = sys.grid.spacing
        xs = np.arange(sys.a_steps) * h
        for n in correlation_member_range(sys)[0]:
            cell = correlation_fn(sys, n)
            for l in range(-16, 17):
                quad = h * np.sum(cell * np.exp(-2j * np.pi * l * xs / sys.a))
                assert quad == pytest.approx(lat.entry(l, n), abs=1e-8)


class TestWexlerRaz:
    def test_integer_lattice_passes(self, chi):
        res = wexler_raz_check(GaborSystem(chi, chi, 1.0, 1.0), 16, 4, tol=1e-10)
        assert res.is_biorthogonal
        assert res.max_offdiag <= 1e-10
        assert res.diag == pytest.approx(1.0, abs=1e-15)

    def test_half_integer_lattice_fails(self, chi):
        res = wexler_raz_check(GaborSystem(chi, chi, 0.5, 0.5), 16, 4, tol=1e-10)
        assert not res.is_biorthogonal
        assert res.max_offdiag >= 0.1

    def test_normalized_diagonal_always_one(self, gauss, hat):
        res = wexler_raz_check(GaborSystem(gauss, hat, 0.5, 0.5), 4, 4, tol=1e-6)
        assert res.diag == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 0.5)])
    def test_passing_systems_reproduce_on_amalgams(self, grid, chi, interior_f, a, b):
        # biorthogonality at tol 1e-10 comes with S f = f across exponents
        sys = GaborSystem(chi, chi, a, b)
        assert wexler_raz_check(sys, 16, 4, tol=1e-10).is_biorthogonal
        sf = walnut_apply(interior_f, sys)
        for pq in [(1, 1), (2, 2), (1, 2), (2, math.inf)]:
            err = amalgam_norm(sf - interior_f, pq)
            assert err <= 1e-8 * amalgam_norm(interior_f, pq)
