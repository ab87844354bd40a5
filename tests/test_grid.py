import io

import numpy as np
import pytest

from gabframes import (
    CommensurabilityError,
    ConfigError,
    GaborSystem,
    Grid,
    GridFunction,
    GridMismatchError,
    ResolutionError,
    WindowSpec,
    inner_product,
    l2_norm,
    modulate,
    sample_window,
    tf_shift,
    translate,
    walnut_apply,
)
from gabframes import grid as grid_module, walnut
from gabframes.grid import fold_to_cell, support_index_bounds
from conftest import COPIERS, assert_one_rule, random_interior, same_bits


class TestGrid:
    def test_exact_invariants(self):
        g = Grid(4.0, 1 / 32)
        assert g.samples_per_axis * g.spacing == 2 * g.half_extent
        assert g.samples_per_unit == 32
        assert g.samples_per_axis == 256
        # the unit cube holds exactly 1/h points and 0 is on the grid
        x = g.axis_coords()
        assert np.count_nonzero((x >= 0) & (x < 1)) == 32
        assert 0.0 in x

    def test_snapping(self):
        g = Grid(0.7, 1 / 3)
        assert g.samples_per_unit == 3
        assert g.half_extent_steps == 2  # 0.7 snapped to 2/3
        assert g.samples_per_axis * g.spacing == 2 * g.half_extent

    @pytest.mark.parametrize("he,sp", [(-1.0, 0.5), (4.0, 0.3), (4.0, 0.0), (0.001, 0.5),
                                       (np.inf, 0.5), (4.0, np.nan)])
    def test_rejects_bad_parameters(self, he, sp):
        with pytest.raises((ValueError, CommensurabilityError)):
            Grid(he, sp)

    def test_rejects_dim_below_one(self):
        for dim in (0, -1):
            with pytest.raises(ValueError, match=f"^dim must be a positive integer, got {dim}$"):
                Grid(4.0, 1 / 32, dim)

    def test_equal_grids_hash_alike(self):
        assert hash(Grid(4.0, 1 / 32)) == hash(Grid(4, 0.03125))
        assert len({Grid(4.0, 1 / 32), Grid(4, 0.03125), Grid(4.0, 1 / 32, 2)}) == 2

    @pytest.mark.parametrize("op,key", [(translate, "t"), (modulate, "omega")])
    @pytest.mark.parametrize("value", [0.5, [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]],
                             ids=["scalar", "one", "three", "nested"])
    def test_one_component_per_axis(self, op, key, value):
        f = sample_window(WindowSpec.indicator_cube(1.0), Grid(2.0, 1 / 8, 2))
        with pytest.raises(ConfigError, match=f"^config key '{key}' has a bad value .*: "
                                              f"expected 2 component"):
            op(f, value)

    def test_immutability(self, grid):
        with pytest.raises(AttributeError):
            grid.dim = 2

    def test_steps_roundtrip(self, grid):
        assert grid.steps([0.5]) == [16]
        assert grid.steps_scalar(2.0) == 64
        with pytest.raises(CommensurabilityError):
            grid.steps([1 / 3])

    @pytest.mark.parametrize("length", [0.0, -0.5, 1e-12])
    def test_lattice_length_is_at_least_one_step(self, grid, length):
        with pytest.raises(CommensurabilityError, match="positive"):
            grid.steps_scalar(length)


class TestGridFunction:
    def test_shape_check(self, grid):
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros(7))

    def test_samples_come_in_the_grid_shape(self):
        # a flat array of every sample is no longer read in C order
        grid = Grid(1.0, 1 / 4, dim=2)
        with pytest.raises(ValueError, match=r"values shape \(64,\)"):
            GridFunction(grid, np.ones(grid.size))

    def test_values_frozen(self, chi):
        with pytest.raises(ValueError):
            chi.values[0] = 1.0

    def test_values_rebuilt_on_each_read(self, interior_f):
        # the samples are held once, on the box; a read keeps nothing and
        # changes nothing, so the instance stays as it was built
        assert GridFunction.__slots__ == ("grid", "box", "data")
        data = interior_f.data
        first, second = interior_f.values, interior_f.values
        assert first is not second and first.tobytes() == second.tobytes()
        assert interior_f.data is data and data.base is None
        assert_one_rule(interior_f, first)

    def test_arithmetic(self, grid, chi):
        two = chi + chi
        assert np.allclose(two.values, 2 * chi.values)
        assert np.allclose((2.0 * chi - chi).values, chi.values)
        other = Grid(2.0, 1 / 32)
        with pytest.raises(GridMismatchError):
            chi + GridFunction(other, np.zeros(other.shape))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_constructor_owns_a_copy(self, grid, dtype):
        values = np.arange(grid.size, dtype=dtype)
        f = GridFunction(grid, values)
        values[:] = -1.0
        assert np.array_equal(f.values, np.arange(grid.size))
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[1] = 0.0

    def test_support_bounds_computed_once(self, grid):
        # the bounds are read off the box the constructor's one scan found
        f = random_interior(grid, seed=3)
        nz = np.nonzero(f.values)[0]
        assert support_index_bounds(f) == ((nz[0], nz[-1]),)
        assert f.box == (slice(nz[0], nz[-1] + 1),)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert support_index_bounds(z) is None and z.box == (slice(0, 0),)

    def test_equal_samples_are_equal(self, grid, interior_f):
        # value equality on grid, box and samples, a nan equal to a nan
        twin = GridFunction(grid, interior_f.values)
        assert twin == interior_f and hash(twin) == hash(interior_f)
        assert interior_f != 2.0 * interior_f and interior_f != interior_f.values
        assert interior_f != GridFunction(Grid(4.0, 1 / 32, 2), np.zeros((256, 256)))
        nan = interior_f.values.copy()
        nan[nan != 0] = np.nan
        assert GridFunction(grid, nan) == GridFunction(grid, nan)
        moved = translate(interior_f, [1 / 32])
        assert moved != interior_f and moved.data.tobytes() == interior_f.data.tobytes()

    def test_rejects_attribute_assignment(self, chi):
        support_index_bounds(chi)
        for name in ("values", "grid", "box", "data", "other"):
            with pytest.raises(AttributeError):
                setattr(chi, name, None)


@COPIERS
class TestCopyAndPickle:
    """Copies are rebuilt on the support box and stay immutable."""

    @pytest.mark.parametrize("grid", [Grid(4.0, 1 / 32), Grid(0.7, 1 / 3, 2)])
    def test_grid(self, duplicate, grid):
        twin = duplicate(grid)
        assert twin == grid
        with pytest.raises(AttributeError):
            twin.dim = 3

    def test_grid_function(self, duplicate, interior_f):
        twin = duplicate(interior_f)
        assert twin.box == interior_f.box and twin.grid == interior_f.grid
        assert twin.values.tobytes() == interior_f.values.tobytes()
        assert support_index_bounds(twin) == support_index_bounds(interior_f)
        assert not twin.values.flags.writeable
        with pytest.raises(AttributeError):
            twin.values = None

    def test_copies_are_equal(self, duplicate, interior_f):
        twin = duplicate(interior_f)
        assert twin == interior_f and hash(twin) == hash(interior_f)

    def test_signed_zero_off_the_box(self, duplicate, interior_f):
        # the box and its samples, -0 parts included, travel; off it is +0
        f = -1j * interior_f
        assert_one_rule(duplicate(f), f.values)


def test_rebuild_rejects_a_box_off_the_grid(interior_f):
    _, (grid, box, data) = interior_f.__reduce__()
    moved = tuple(slice(sl.start + grid.samples_per_axis, sl.stop + grid.samples_per_axis)
                  for sl in box)
    with pytest.raises(ValueError):
        grid_module._rebuild(grid, moved, data)


def test_no_operation_keeps_a_signed_zero_off_the_box(interior_f):
    f = -1j * interior_f
    grid = f.grid
    zeros = np.zeros(grid.dim)
    loose = np.full(grid.shape, complex(-0.0, -0.0))
    loose[f.box] = f.data
    full = -1j * interior_f.values
    off = np.ones(grid.shape, dtype=bool)
    off[f.box] = False
    assert off.any() and np.signbit(full.imag[off]).all()  # -0 parts on the full grid
    for got, want in ((f, full), (-f, -f.values), (f - f, f.values - f.values),
                      (GridFunction(grid, loose), loose), (translate(f, zeros), f.values),
                      (modulate(f, zeros), f.values)):
        assert_one_rule(got, want)


def full_scan(values):
    """Support bounds from every sample of the grid: the scan without a hull."""
    nz = np.argwhere(values != 0)
    if not len(nz):
        return None
    return tuple((int(lo), int(hi)) for lo, hi in zip(nz.min(axis=0), nz.max(axis=0)))


WINDOWS = [WindowSpec.indicator_cube(1.0), WindowSpec.indicator_cube(9.0),
           WindowSpec.bspline(1), WindowSpec.bspline(3), WindowSpec.gaussian(0.5, 1.0),
           WindowSpec.gaussian(1.0, 9.0), WindowSpec.fat_cantor(2)]


class TestSupportKnownAtConstruction:
    """Every result is kept on its support box, the box a full-grid scan finds,
    and support_index_bounds reads its first and last indices as ints."""

    def assert_known(self, f, want=None):
        assert_one_rule(f, want)
        bounds = support_index_bounds(f)
        assert bounds == full_scan(f.values)
        assert bounds is None or all(type(v) is int for axis in bounds for v in axis)

    @pytest.mark.parametrize("spec,dim,half_extent", [
        (spec, dim, half_extent) for spec in WINDOWS
        for dim, half_extent in [(1, 4.0), (1, 2.75), (2, 2.0)]
        if spec.family != "fat_cantor" or dim == 1],
        ids=lambda v: "-".join(map(str, v.to_json().values()))
        if isinstance(v, WindowSpec) else None)
    def test_sample_window(self, spec, dim, half_extent):
        # the window is the product of the axis profile over the axes
        axis = sample_window(spec, Grid(half_extent, 1 / 16)).values.real
        want = axis if dim == 1 else np.multiply.outer(axis, axis)
        self.assert_known(sample_window(spec, Grid(half_extent, 1 / 16, dim=dim)),
                          want.astype(complex))

    def test_window_off_the_grid(self):
        # the hat on [0, 2) vanishes at the only samples x = -1, 0, so it is
        # refused; test_translate_add_sub checks the zero function's box via f - f
        with pytest.raises(ResolutionError, match=r"'order': 2\}.*spacing=1/1, dim=2"):
            sample_window(WindowSpec.bspline(2), Grid(1.0, 1.0, dim=2))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_translate_add_sub(self, dim):
        grid = Grid(2.0, 1 / 8, dim=dim)
        f = random_interior(grid, seed=5, envelope_sigma=0.8, envelope_radius=1.0)
        g = translate(sample_window(WindowSpec.bspline(2), grid), [-0.5] * dim)
        zero = GridFunction(grid, np.zeros(grid.shape))
        for t in ([0.5] * dim, [-1.875] * dim, [1.5, -0.75][:dim], [4.0] * dim):
            moved = translate(f, t)
            self.assert_known(moved)
            for h in (moved + g, moved - g, g - moved, moved + zero, zero - zero):
                self.assert_known(h)
        # opposite samples cancel to zero inside the hull
        self.assert_known(f - f)
        assert support_index_bounds(f - f) is None

    @pytest.mark.parametrize("dim", [1, 2])
    def test_walnut_apply(self, dim):
        grid = Grid(3.0, 1 / 8, dim=dim)
        g = sample_window(WindowSpec.gaussian(1.0, 1.0), grid)
        f = random_interior(grid, seed=6, envelope_sigma=0.8, envelope_radius=1.0)
        for a, b in ((0.5, 0.5), (1.0, 1.0), (0.25, 0.25)):
            sys_ = GaborSystem(g, g, a, b)
            self.assert_known(walnut_apply(f, sys_))
            self.assert_known(walnut_apply(translate(f, [2.5] * dim), sys_))
        self.assert_known(walnut_apply(GridFunction(grid, np.zeros(grid.shape)), sys_))

    def test_shrunken_results_own_only_their_box(self):
        # the indicator of width 1/2 at a = 1 leaves G[0] zero on half the
        # cell, so S f vanishes near one end of the box it is computed on
        grid = Grid(3.0, 1 / 8)
        chi = sample_window(WindowSpec.indicator_cube(0.5), grid)
        f = sample_window(WindowSpec.bspline(2), grid)
        out = walnut_apply(f, GaborSystem(chi, chi, 1.0, 1.0))
        assert out.box[0].stop < f.box[0].stop
        for h in (out, f - f):
            # read before assert_known builds the full grid, a view of which data becomes
            assert h.data.base is None or h.data.base.nbytes <= h.data.nbytes
            self.assert_known(h)


class TestTranslate:
    def test_zero_shift_is_identity(self, interior_f):
        assert np.array_equal(translate(interior_f, [0.0]).values, interior_f.values)

    def test_unit_indicator_moves_support(self, grid, chi):
        shifted = translate(chi, [1.0])
        x = grid.axis_coords()
        expected = ((x >= 1) & (x < 2)).astype(complex)
        assert np.array_equal(shifted.values, expected)

    def test_inverse_shift_on_interior(self, interior_f):
        back = translate(translate(interior_f, [0.5]), [-0.5])
        assert np.array_equal(back.values, interior_f.values)

    def test_non_commensurate_rejected(self, chi):
        with pytest.raises(CommensurabilityError):
            translate(chi, [0.3])


class TestModulate:
    def test_zero_frequency_is_identity(self, interior_f):
        assert np.array_equal(modulate(interior_f, [0.0]).values, interior_f.values)

    def test_unimodular(self, interior_f):
        out = modulate(interior_f, [0.73])
        assert np.allclose(np.abs(out.values), np.abs(interior_f.values))

    def test_frequencies_add(self, interior_f):
        a = modulate(modulate(interior_f, [0.3]), [0.45])
        b = modulate(interior_f, [0.75])
        assert np.allclose(a.values, b.values, atol=1e-14)


class TestTfShift:
    def test_identity_at_origin(self, interior_f):
        assert np.array_equal(tf_shift(interior_f, [0.0], [0.0]).values, interior_f.values)

    def test_l2_isometry_for_interior_support(self, interior_f):
        out = tf_shift(interior_f, [0.5], [1.7])
        assert l2_norm(out) == pytest.approx(l2_norm(interior_f), rel=1e-13)

    def test_pure_translation(self, grid, chi):
        assert np.array_equal(tf_shift(chi, [1.0], [0.0]).values, translate(chi, [1.0]).values)

    def test_commutation_phase(self, interior_f):
        # T_t M_w = exp(-2 pi i <w, t>) M_w T_t
        t, w = [0.5], [0.8]
        tm = translate(modulate(interior_f, w), t)
        mt = modulate(translate(interior_f, t), w)
        phase = np.exp(-2j * np.pi * np.dot(w, t))
        assert np.allclose(tm.values, phase * mt.values, atol=1e-14)


class TestInnerProduct:
    def test_unit_indicator_self_pairing_exact(self, chi):
        # exact Riemann sum: h * (1/h) aligned samples of value 1
        assert inner_product(chi, chi) == 1.0 + 0.0j

    def test_conjugate_symmetry(self, grid):
        f = random_interior(grid, seed=1)
        g = random_interior(grid, seed=2)
        assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)), abs=1e-14)

    def test_positivity(self, interior_f):
        v = inner_product(interior_f, interior_f)
        assert v.imag == pytest.approx(0.0, abs=1e-14)
        assert v.real > 0

    def test_grid_mismatch(self, chi):
        other = Grid(2.0, 1 / 32)
        g = GridFunction(other, np.zeros(other.shape))
        with pytest.raises(GridMismatchError):
            inner_product(chi, g)


class TestTwoDimensional:
    def test_ops_compose(self):
        grid = Grid(2.0, 1 / 8, dim=2)
        f = random_interior(grid, seed=4, envelope_sigma=0.8, envelope_radius=1.0)
        moved = translate(f, [0.5, -0.25])
        back = translate(moved, [-0.5, 0.25])
        assert np.array_equal(back.values, f.values)
        out = tf_shift(f, [0.25, 0.5], [1.0, -2.0])
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-13)


def add_at_fold(values, cell_steps, origin_steps):
    """Reference fold: scatter each sample into slot (i - origin) % cell with np.add.at."""
    out = values
    for ax in range(values.ndim):
        idx = (np.arange(out.shape[ax]) - origin_steps) % cell_steps
        moved = np.moveaxis(out, ax, 0)
        acc = np.zeros((cell_steps,) + moved.shape[1:], dtype=out.dtype)
        np.add.at(acc, idx, moved)
        out = np.moveaxis(acc, 0, ax)
    return out


class TestFoldToCell:
    # cells that do not divide the length (3, 4 and 5 against 10 or 12, and
    # 16 > 10) take the padding branch; the origins are nonzero and signed
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("length,cell,origin", [
        (10, 3, 4), (10, 4, -7), (12, 5, 6), (10, 16, 13), (12, 4, 5)])
    def test_matches_scatter_reference(self, dim, length, cell, origin):
        rng = np.random.default_rng(length * 100 + cell * 10 + dim)
        v = rng.standard_normal((length,) * dim) + 1j * rng.standard_normal((length,) * dim)
        got = fold_to_cell(v, cell, origin)
        want = add_at_fold(v, cell, origin)
        assert got.shape == (cell,) * dim
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_box_folds_to_a_zero_cell(self, dim):
        # the box of the zero function holds no samples on any axis
        got = fold_to_cell(np.zeros((0,) * dim, dtype=complex), 4, 3)
        assert same_bits(got, np.zeros((4,) * dim, dtype=complex))

    def test_walnut_reexports_the_grid_kernel(self):
        assert walnut.fold_to_cell is grid_module.fold_to_cell


CHUNK = grid_module._CSV_CHUNK
# signed zero, the smallest subnormal, a 17-digit repeating value, an
# integer-valued float past 2**53 and both infinities
SPECIAL = [-0.0, 5e-324, 1 / 3, 2.5e16, np.inf, -np.inf]


class TestCsvWriter:
    """The chunked writer gives the bytes of per-row f-string formatting."""

    @pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK])
    def test_table_rows(self, rows):
        rng = np.random.default_rng(rows)
        labels = np.arange(rows) - rows // 2
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        values[:len(SPECIAL)] = SPECIAL
        buf = io.StringIO()
        grid_module._write_table(buf, ["n", "m", "v"], [labels, -labels, values])
        want = "n,m,v\n" + "".join(f"{n},{-n},{v:.17g}\n" for n, v in zip(labels, values))
        assert buf.getvalue() == want

    @pytest.mark.parametrize("columns,want", [
        # Python ints as an integer array, floats with 17 digits
        ([[1, -2, 2 ** 62], [0.5, 1 / 3, 2.0]], f"1,0.5\n-2,{1 / 3:.17g}\n{2 ** 62},2\n"),
        # a column of None as blank cells
        ([[None, None], [1.5, 0.1]], ",1.5\n,0.10000000000000001\n"),
        # no rows: the header alone
        ([[], []], ""),
        ([np.arange(0), np.zeros(0)], ""),
    ], ids=["python-ints", "none-column", "zero-rows", "zero-length-arrays"])
    def test_column_formats(self, columns, want):
        buf = io.StringIO()
        grid_module._write_table(buf, ["c", "v"], columns)
        assert buf.getvalue() == "c,v\n" + want

    @pytest.mark.parametrize("grid", [
        Grid(4.0, 1 / 32),            # 256 rows, less than one chunk
        Grid(2049 / 32, 1 / 32),      # 4098 rows, a chunk and two
        Grid(1.0, 1 / 32, dim=2),     # 64 x 64 rows, exactly one chunk
        Grid(1.5, 1 / 32, dim=2),     # 96 x 96 rows, two chunks and a part
    ], ids=repr)
    def test_write_csv(self, grid):
        rng = np.random.default_rng(grid.size)
        values = np.empty(grid.size, dtype=complex)
        values.real = rng.standard_normal(grid.size)
        values.imag = rng.standard_normal(grid.size)
        values.real[:len(SPECIAL)] = SPECIAL
        values.imag[-len(SPECIAL):] = SPECIAL
        f = GridFunction(grid, values.reshape(grid.shape))
        buf = io.StringIO()
        grid_module.write_csv(f, buf)
        x = grid.axis_coords()
        want = [",".join(f"x_{j + 1}" for j in range(grid.dim)) + ",re,im\n"]
        for k, idx in enumerate(np.ndindex(grid.shape)):
            v = f.values.reshape(-1)[k]
            want.append(",".join(f"{x[i]:.17g}" for i in idx) + f",{v.real:.17g},{v.imag:.17g}\n")
        assert buf.getvalue() == "".join(want)
