import dataclasses
import math

import numpy as np
import pytest

from gabframes import (
    ConfigError,
    GaborSystem,
    Grid,
    GridFunction,
    JanssenLattice,
    WindowSpec,
    amalgam_norm,
    correlation_family,
    frame_bounds,
    janssen_apply,
    l2_norm,
    modulate,
    translate,
    walnut_apply,
    wexler_raz_check,
    inner_product,
    sample_window,
)
from gabframes.grid import _cell_spectrum, fold_to_cell
from gabframes.walnut import correlation_member_range
from conftest import COPIERS, random_interior, same_bits


def gaussian_entry_magnitude(sigma, t, omega):
    """Closed form |<g, M_w T_t g>| = (sigma/sqrt 2) e^{-pi t^2/(2 s^2)} e^{-pi w^2 s^2/2}."""
    return (sigma / math.sqrt(2)) * math.exp(-math.pi * t * t / (2 * sigma * sigma)) \
        * math.exp(-math.pi * omega * omega * sigma * sigma / 2)


class TestCoefficients:
    def test_center_entry_is_pairing_by_construction(self, gauss, hat):
        sys = GaborSystem(gauss, hat, 0.5, 0.5)
        lat = JanssenLattice(sys, 3, 3)
        assert lat.entry(0, 0) == pytest.approx(sys.pairing, rel=1e-14)

    def test_integer_lattice_indicator_is_delta(self, chi):
        lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 8, 3)
        expected = np.zeros_like(lat.entries)
        expected[8, 3] = 1.0
        assert np.allclose(lat.entries, expected, atol=1e-14)

    def test_half_integer_lattice_aliases_at_grid_frequency(self, grid, chi):
        # frequencies l/a with l = a/h land on exp(2 pi i x/h) = 1 at samples,
        # so those entries equal <chi, chi> = 1 exactly on the grid
        alias = grid.steps_scalar(0.5)  # a * (1/h) = 16
        lat = JanssenLattice(GaborSystem(chi, chi, 0.5, 0.5), alias, 2)
        assert lat.entry(alias, 0) == pytest.approx(1.0, abs=1e-12)
        assert lat.entry(-alias, 0) == pytest.approx(1.0, abs=1e-12)
        assert abs(lat.entry(alias // 2, 0)) <= 1e-14

    def test_gaussian_entries_match_closed_form(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = JanssenLattice(sys, 3, 3)
        for l in range(-2, 3):
            for n in range(-2, 3):
                want = gaussian_entry_magnitude(1.0, n / 0.5, l / 0.5)
                assert abs(lat.entry(l, n)) == pytest.approx(want, abs=1e-9)

    def test_hermitian_magnitudes_for_self_dual(self, gauss):
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        mags = np.abs(lat.entries)
        assert np.allclose(mags, mags[::-1, ::-1], atol=1e-10)

    def test_truncation_bound_reported(self, gauss):
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        assert lat.truncation_bound >= 0
        assert lat.truncation_bound < 1e-10  # gaussian decay


class TestCoefficientKernel:
    """JanssenLattice (cell FFT of G[n]) against <gamma, M_{l/a} T_{n/b} g>."""

    @staticmethod
    def assert_matches_definition(sys, ell_radius, n_radius):
        lat = JanssenLattice(sys, ell_radius, n_radius)
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
            c_hat = h * _cell_spectrum(np.fft.fftn(cell), np.arange(p))
            tail += float(((miss if stored else 1.0) * np.abs(c_hat)).sum())
            if stored:
                entries[(Ellipsis,) + tuple(v + n_radius for v in n)] = \
                    h * _cell_spectrum(np.fft.fftn(cell), ls)
        return entries, tail / abs(sys.pairing)

    @pytest.mark.parametrize("ell_radius,n_radius", [(0, 0), (3, 1), (10, 3), (20, 5)])
    def test_one_dimensional(self, gauss, hat, ell_radius, n_radius):
        sys = GaborSystem(gauss, hat, 0.5, 0.5)
        lat = JanssenLattice(sys, ell_radius, n_radius)
        entries, bound = self.two_transforms(sys, ell_radius, n_radius)
        assert lat.entries.tobytes() == entries.tobytes()
        assert lat.truncation_bound == bound

    @pytest.mark.parametrize("ell_radius,n_radius", [(16, 4), (3, 1), (0, 0)])
    def test_one_fftn_call_per_member(self, gauss, hat, monkeypatch, ell_radius, n_radius):
        # the bound and the stored bins used to take one transform each, and
        # the Wexler-Raz verdict took them again through its own lattice
        sys = GaborSystem(gauss, hat, 0.5, 0.5)
        members = correlation_family(sys)
        calls, fftn = [], np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn", lambda cell: calls.append(cell.shape) or fftn(cell))
        JanssenLattice(sys, ell_radius, n_radius)
        assert len(calls) == len(members)
        wexler_raz_check(sys)
        assert len(calls) == 2 * len(members)

    def test_apply_transforms_nothing(self, gauss, hat, interior_f, monkeypatch):
        # the lattice holds its filtered cells, so an apply only sums them
        lat = JanssenLattice(GaborSystem(gauss, hat, 0.5, 0.5), 10, 3)
        calls = []
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, lambda *args, name=name: calls.append(name))
        first, second = janssen_apply(interior_f, lat), janssen_apply(interior_f, lat)
        assert calls == []
        assert first.box == second.box and same_bits(first.data, second.data)

    def test_two_dimensional(self):
        grid2 = Grid(1.0, 1 / 8, dim=2)
        g2 = sample_window(WindowSpec.gaussian(0.5, 0.75), grid2)
        chi2 = sample_window(WindowSpec.indicator_cube(1.0), grid2)
        sys = GaborSystem(g2, chi2, 0.5, 1.0)
        lat = JanssenLattice(sys, 3, 0)
        entries, bound = self.two_transforms(sys, 3, 0)
        assert lat.entries.tobytes() == entries.tobytes()
        assert lat.truncation_bound == bound


class TestFrozenLattice:
    def test_fields_and_entries_are_read_only(self, gauss):
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            lat.entries = lat.entries * 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            lat.truncation_bound = 0.0
        with pytest.raises(ValueError):
            lat.entries[...] = 0.0

    def test_computed_fields_are_not_inputs(self, gauss):
        # the entries and the bound come from (system, L, N) alone: a bound of 0
        # cannot be passed in, nor entries swapped under the old bound
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 6, 2)
        with pytest.raises(TypeError):
            JanssenLattice(lat.entries, lat.system, 6, 2, 0.0)
        for name in ("entries", "truncation_bound"):
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(lat, **{name: getattr(lat, name) * 0})
        with pytest.raises(ValueError, match="field _form is declared with init=False"):
            dataclasses.replace(lat, _form=JanssenLattice(lat.system, 0, 0)._form)

    @pytest.mark.parametrize("radii", [(6, 0), (2, 2), (0, 6)])
    def test_replace_computes_the_lattice_again(self, gauss, radii):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = JanssenLattice(sys, 6, 2)
        twin = dataclasses.replace(lat, ell_radius=radii[0], n_radius=radii[1])
        want = JanssenLattice(sys, *radii)
        assert same_bits(twin.entries, want.entries)
        assert twin.truncation_bound == want.truncation_bound
        assert not twin.entries.flags.writeable

    def test_one_system_and_radii_make_equal_lattices(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat, twin = JanssenLattice(sys, 6, 2), JanssenLattice(sys, np.int64(6), 2.0)
        assert lat == twin and hash(lat) == hash(twin)
        assert (twin.ell_radius, twin.n_radius) == (6, 2)
        assert lat != JanssenLattice(sys, 6, 1)
        assert "entries" not in repr(lat) and "truncation_bound" in repr(lat)

    @COPIERS
    def test_copy_rebuilds_the_lattice(self, gauss, interior_f, duplicate):
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 6, 2)
        twin = duplicate(lat)
        assert (twin.ell_radius, twin.n_radius) == (6, 2)
        assert same_bits(twin.entries, lat.entries)
        assert twin.truncation_bound == lat.truncation_bound
        assert not twin.entries.flags.writeable
        with pytest.raises(ValueError):
            twin.entries[...] = 0.0
        assert twin == lat and hash(twin) == hash(lat)
        got, want = janssen_apply(interior_f, twin), janssen_apply(interior_f, lat)
        assert got.box == want.box and same_bits(got.data, want.data)

    def test_equal_systems_make_equal_lattices(self, grid, gauss):
        # two systems built from the same windows are one value, and so are
        # their lattices; another step or window is another lattice
        g, gamma, g2, gamma2 = (sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
                                for _ in range(4))
        lat = JanssenLattice(GaborSystem(g, gamma, 0.5, 0.5), 6, 2)
        twin = JanssenLattice(GaborSystem(g2, gamma2, 0.5, 0.5), 6, 2)
        assert lat.system is not twin.system
        assert lat == twin and hash(lat) == hash(twin)
        assert lat != JanssenLattice(GaborSystem(gauss, gauss, 0.25, 0.5), 6, 2)
        hat = sample_window(WindowSpec.bspline(2), grid)
        assert lat != JanssenLattice(GaborSystem(gauss, hat, 0.5, 0.5), 6, 2)

    def test_one_index_per_axis(self, gauss):
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 2, 2)
        assert lat.entry([1], np.array([0])) == lat.entry(1, 0)
        for l, n, key in (((0, 0), 0, "l"), (0, [], "n")):
            with pytest.raises(ConfigError, match=f"^config key '{key}' .*expected 1 component"):
                lat.entry(l, n)


class TestConditionAPrime:
    """Condition (A'): the dual-lattice coefficients are absolutely summable.

    On the grid the sum is finite, and truncation_bound is exactly the part
    a truncation misses or repeats, so it certifies ||S - S_{L,N}||.
    """

    def test_indicator_unit_lattice_concentrates_at_origin(self, chi):
        sys = GaborSystem(chi, chi, 1.0, 1.0)
        for ell_radius, n_radius in [(0, 0), (8, 3)]:
            lat = JanssenLattice(sys, ell_radius, n_radius)
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
            lat = JanssenLattice(sys, ell_radius, n_radius)
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
        lat = JanssenLattice(sys, 7, n_max)
        assert lat.truncation_bound == 0.0
        assert JanssenLattice(sys, 7, n_max - 1).truncation_bound > 0.0
        assert JanssenLattice(sys, 6, n_max).truncation_bound > 0.0

    def test_even_period_counts_the_midpoint_twice(self, hat, gauss):
        sys = GaborSystem(hat, gauss, 0.5, 0.5)  # a/h = 16; 2L + 1 = 17 stores l = +-8
        n_max = max(abs(n) for n in correlation_member_range(sys)[0])
        lat = JanssenLattice(sys, 8, n_max)
        midpoint = math.fsum(abs(lat.entry(8, n)) for n in range(-n_max, n_max + 1))
        assert midpoint > 0.0
        assert lat.truncation_bound == pytest.approx(midpoint / abs(sys.pairing), rel=1e-12)

    def test_certificate_nonincreasing_within_one_period(self, hat, gauss):
        sys = GaborSystem(hat, gauss, 0.5, 0.5)
        n_max = max(abs(n) for n in correlation_member_range(sys)[0])
        certs = np.array([[JanssenLattice(sys, ell, n).truncation_bound
                           for n in range(n_max + 2)] for ell in range(8)])
        assert np.all(np.diff(certs, axis=0) <= 0.0)
        assert np.all(np.diff(certs, axis=1) <= 0.0)


class TestJanssenApply:
    def test_zero(self, grid, chi):
        lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert not janssen_apply(z, lat).values.any()

    def test_delta_lattice_reproduces_f(self, grid, chi, interior_f):
        lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 8, 3)
        out = janssen_apply(interior_f, lat)
        assert l2_norm(out - interior_f) <= 1e-10 * l2_norm(interior_f)

    def test_matches_walnut_for_gaussian_pair(self, grid, gauss, interior_f):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = JanssenLattice(sys, 6, 6)
        jf = janssen_apply(interior_f, lat)
        wf = walnut_apply(interior_f, sys)
        assert l2_norm(jf - wf) <= 1e-6 * l2_norm(interior_f)

    def test_operator_order_forms_agree(self, grid, gauss, interior_f):
        # sum <gamma, T_{k/b} M_{n/a} g> T_{k/b} M_{n/a} equals the M-then-T
        # expansion termwise: the commutation phases cancel in coefficient
        # times operator
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        radius = 3
        lat = JanssenLattice(sys, radius, radius)
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
        assert abs(np.exp(-2j * np.pi * np.dot([1 / sys.a], [1 / sys.b]))) == pytest.approx(1.0)


class TestOneNormalization:
    """Every form of S divides by the system's pairing, not by a lattice entry."""

    def test_wexler_raz_diag_is_center_over_pairing(self, gauss):
        # on the desk config the FFT-bin center entry and <gamma, g> differ in
        # the last bit, so the diagonal is not 1 by construction
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = JanssenLattice(sys, 16, 4)
        res = wexler_raz_check(sys)
        assert res.diag == lat.entry(0, 0) / sys.pairing
        assert res.at == ((1,), (0,))
        assert res.max_offdiag == np.abs(lat.entries / sys.pairing)[16 + 1, 4 + 0]

    def test_apply_does_not_renormalize_by_the_entries(self, gauss, interior_f):
        # a system whose pairing alone is doubled has the same entries and
        # halves the sum: the scale is 1 / <gamma, g>, not 1 / c[0, 0]
        lat = JanssenLattice(GaborSystem(gauss, gauss, 0.5, 0.5), 4, 4)
        doubled = GaborSystem(gauss, gauss, 0.5, 0.5)
        object.__setattr__(doubled, "pairing", 2.0 * doubled.pairing)
        twin = JanssenLattice(doubled, 4, 4)
        assert same_bits(twin.entries, lat.entries)
        want = janssen_apply(interior_f, lat).values
        assert np.array_equal(janssen_apply(interior_f, twin).values, 0.5 * want)

    @pytest.mark.parametrize("radii", [(-1, 2), (2, -1)])
    def test_negative_radii_rejected(self, chi, radii):
        with pytest.raises(ValueError, match="nonnegative"):
            JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), *radii)


class TestFourierReconstruction:
    """The Janssen form's filtered cells: cell n is a^d times the partial
    Fourier synthesis a^{-d} sum_{|l| <= L} c[l, n] exp(2 pi i <l, x>/a) of
    the correlation function G[n] on its cell."""

    def test_gaussian_partial_sums_converge(self, gauss):
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        target = correlation_family(sys)[(0,)]
        h = sys.grid.spacing
        dists = []
        for radius in (1, 2, 4):
            rec = JanssenLattice(sys, radius, 3)._form.cells[(0,)] / sys.a
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
        cells = JanssenLattice(sys, 2, radius)._form.cells
        peak = max(float(np.abs(cell).max()) for cell in members.values())
        for n, cell in cells.items():
            want = sys.a ** dim * members.get(n, np.zeros_like(cell))
            assert np.abs(cell - want).max() <= 1e-14 * peak, n

    def test_vanishing_row_reconstructs_zero(self, chi, interior_f):
        # a row with no term gets no cell, and the rows that vanish add nothing
        sys = GaborSystem(chi, chi, 1.0, 1.0)
        lat = JanssenLattice(sys, 4, 3)
        assert (3,) not in lat._form.cells
        out, row_zero = (janssen_apply(interior_f, JanssenLattice(sys, 4, n)) for n in (3, 0))
        assert out.box == row_zero.box and np.array_equal(out.data, row_zero.data)

    def test_cells_only_for_columns_with_terms(self):
        # the 2-D desk system stores 17^2 = 289 columns at N = 8, and 49 hold a member
        grid = Grid(4.0, 1 / 32, dim=2)
        g = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
        lattice = JanssenLattice(GaborSystem(g, g, 0.5, 0.5), 8, 8)
        assert lattice.entries.shape[2:] == (17, 17)
        assert len(lattice._form.cells) == 49

    def test_unit_lattice_constant_row(self, chi):
        lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        assert np.allclose(lat._form.cells[(0,)], 1.0, atol=1e-13)

    def test_missing_row_raises(self, chi):
        # the form holds one cell per stored row that holds a term, only row 0
        # for the unit indicator, and the lattice refuses every row off its radius
        lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 4, 2)
        assert sorted(lat._form.cells) == [(0,)]
        with pytest.raises(IndexError):
            lat.entry(0, 5)

    def test_cell_quadrature_recovers_entries(self, gauss):
        # h * sum_cell G[n](x) exp(-2 pi i l x / a) equals the lattice entry:
        # the fold and the phase reindex exactly on the grid
        sys = GaborSystem(gauss, gauss, 0.5, 0.5)
        lat = JanssenLattice(sys, 16, 3)
        h = sys.grid.spacing
        xs = np.arange(sys.a_steps) * h
        for n in correlation_member_range(sys)[0]:
            cell = correlation_family(sys)[(n,)]
            for l in range(-16, 17):
                quad = h * np.sum(cell * np.exp(-2j * np.pi * l * xs / sys.a))
                assert quad == pytest.approx(lat.entry(l, n), abs=1e-8)


class TestWexlerRaz:
    """The verdict reads every coefficient once: l over one alias period a/h
    and n over every correlation member."""

    def test_integer_lattice_passes(self, chi):
        res = wexler_raz_check(GaborSystem(chi, chi, 1.0, 1.0), tol=1e-10)
        assert res.is_biorthogonal
        assert res.max_offdiag <= 1e-10
        assert res.diag == pytest.approx(1.0, abs=1e-15)

    def test_half_integer_lattice_passes(self, chi):
        # S = I on the grid; a box of radius 16 read c[0, 0] again at l = +/-16
        sys = GaborSystem(chi, chi, 0.5, 0.5)
        res = wexler_raz_check(sys, tol=1e-10)
        assert res.is_biorthogonal and res.max_offdiag == 0.0
        assert res.at == ((1,), (0,))
        assert frame_bounds(sys) == (1.0, 1.0)

    def test_half_integer_lattice_fails(self, chi):
        # cells of side 3/4 split the unit steps of the indicator unevenly
        sys = GaborSystem(chi, chi, 0.75, 0.5)
        res = wexler_raz_check(sys, tol=1e-10)
        assert not res.is_biorthogonal
        assert res.max_offdiag >= 0.1
        assert res.max_offdiag == 0.20733994769906583 and res.at == ((1,), (0,))
        assert frame_bounds(sys) == pytest.approx((0.75, 1.5), abs=1e-12)

    def test_desk_gaussian_fails(self, gauss):
        # a box of radius 0 passed it, and one past the alias period read the
        # alias of c[0, 0]: 1.0000000000000002
        res = wexler_raz_check(GaborSystem(gauss, gauss, 0.5, 0.5), tol=1e-10)
        assert not res.is_biorthogonal
        assert res.max_offdiag == 0.001867442731707998 and res.at == ((1,), (0,))
        assert res.diag == 1.0000000000000002

    def test_a_lone_coefficient_has_no_off_diagonal(self, chi):
        # a = h gives cells of one sample, and 1/b = 2 leaves one member
        res = wexler_raz_check(GaborSystem(chi, chi, 1 / 32, 0.5), tol=1e-10)
        assert res.is_biorthogonal and res.max_offdiag == 0.0 and res.at is None

    def test_normalized_diagonal_always_one(self, gauss, hat):
        res = wexler_raz_check(GaborSystem(gauss, hat, 0.5, 0.5), tol=1e-6)
        assert res.diag == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 0.5)])
    def test_passing_systems_reproduce_on_amalgams(self, grid, chi, interior_f, a, b):
        # biorthogonality at tol 1e-10 comes with S f = f across exponents
        sys = GaborSystem(chi, chi, a, b)
        assert wexler_raz_check(sys, tol=1e-10).is_biorthogonal
        sf = walnut_apply(interior_f, sys)
        for pq in [(1, 1), (2, 2), (1, 2), (2, math.inf)]:
            err = amalgam_norm(sf - interior_f, pq)
            assert err <= 1e-8 * amalgam_norm(interior_f, pq)
