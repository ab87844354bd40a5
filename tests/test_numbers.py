"""The one number rule at every library entry point that takes a number.

``errors._number`` and ``errors._whole``, wrapped by ``errors._typed``, are
the rule the CLI applies to config values, and the library applies it to
the same numbers: a bool (Python's or numpy's), a numeric string, a fraction
where a whole number is needed, or an integer beyond float range is a
ConfigError that names the parameter in quotes, while numpy int and float
scalars read as the Python numbers they hold.  A non-string
``Exponent.of`` and the ``Exponent`` constructor raise the rule's bare
TypeError, which the CLI wraps with the config key ``p`` or ``q``.

A lattice step that passes the number rule but not the lattice rule, an a
or b that is not positive or an a or 1/b below one sample, is the grid's
one CommensurabilityError at every entry point that takes one.
"""
import math

import numpy as np
import pytest

from gabframes import (
    CommensurabilityError,
    ConfigError,
    Exponent,
    ExponentPair,
    GaborSystem,
    Grid,
    JanssenLattice,
    SweepSchedule,
    WindowSpec,
    convergence_sweep,
    counterexample_run,
    fat_cantor_intervals,
    fat_cantor_measure,
    modulate,
    opnorm_sweep,
    sample_window,
    stft,
    sum_translates,
    translate,
    wexler_raz_check,
)
from gabframes.windows import bspline_profile
from conftest import BAD_LATTICES

GRID = Grid(4.0, 1 / 32)
CHI = sample_window(WindowSpec.indicator_cube(1.0), GRID)
SYS = GaborSystem(CHI, CHI, 1.0, 1.0)
SPEC = WindowSpec.bspline(2)
HAT = sample_window(SPEC, GRID)
LATTICE = JanssenLattice(GaborSystem(HAT, HAT, 0.5, 1.0), 2, 2)  # entries (1, 0), (0, 1) != 0
X = GRID.axis_coords()


def schedule(pairs):
    return SweepSchedule(GRID, SPEC, SPEC, pairs, ExponentPair.of(2, 2))


# parameter name -> (call with one value, a valid whole value, whether it must be whole);
# each call returns something that compares equal for equal inputs
ENTRIES = {
    "half_extent": (lambda v: Grid(v, 1 / 32), 4, False),
    "spacing": (lambda v: Grid(4.0, v), 1, False),
    "dim": (lambda v: Grid(1.0, 1 / 4, v), 2, True),
    "t": (lambda v: translate(CHI, v).box, 1, False),
    "a": (lambda v: repr(GaborSystem(CHI, CHI, v, 1.0)), 1, False),
    "b": (lambda v: repr(GaborSystem(CHI, CHI, 1.0, v)), 1, False),
    "pairs": (lambda v: schedule(((v, 1.0),)).pairs, 1, False),
    "depths": (lambda v: counterexample_run([v]).records, 1, True),
    "threads": (lambda v: opnorm_sweep(schedule(((1.0, 1.0),)), threads=v).passed, 1, True),
    "ell_radius": (lambda v: JanssenLattice(SYS, v, 1).entries.tobytes(), 1, True),
    "n_radius": (lambda v: JanssenLattice(SYS, 1, v).entries.tobytes(), 1, True),
    "tol": (lambda v: wexler_raz_check(SYS, v).is_biorthogonal, 1, False),
    "omega": (lambda v: modulate(CHI, v).data.tobytes(), 1, False),
    "side": (lambda v: WindowSpec.indicator_cube(v), 1, False),
    "order": (lambda v: WindowSpec.bspline(v), 1, True),
    "sigma": (lambda v: WindowSpec.gaussian(v, 3.0), 1, False),
    "radius": (lambda v: WindowSpec.gaussian(1.0, v), 1, False),
    "depth": (lambda v: WindowSpec.fat_cantor(v), 1, True),
    "l": (lambda v: LATTICE.entry(v, 0), 1, True),
    "n": (lambda v: LATTICE.entry(0, v), 1, True),
}
# the same rule where other entry points take the parameter
ALSO = {
    "pairs": [lambda v: schedule(((1.0, 1.0), (0.5, v))).pairs],
    "threads": [lambda v: convergence_sweep(schedule(((1.0, 1.0),)), threads=v)],
    "a": [lambda v: sum_translates(CHI, v).within_bound],
    "omega": [lambda v: stft(CHI, CHI, 0.0, v)],
    "order": [lambda v: bspline_profile(v, X).tobytes()],
    "depth": [lambda v: fat_cantor_intervals(v), lambda v: fat_cantor_measure(v)],
}
BAD = {"true": True, "numpy-true": np.True_, "numeric-string": "1",
       "beyond-float-range": 10 ** 400}


def cases():
    for key, (call, _, whole) in ENTRIES.items():
        calls = [(key, call)] + [(key + "-again" + (f"-{i + 1}" if i else ""), fn)
                                 for i, fn in enumerate(ALSO.get(key, []))]
        for name, fn in calls:
            bad = {**BAD, "fraction": 1.5} if whole else BAD
            for label, value in bad.items():
                yield pytest.param(key, fn, value, id=f"{name}-{label}")


@pytest.mark.parametrize("key,call,value", list(cases()))
def test_refused_with_the_parameter_named(key, call, value):
    with pytest.raises(ConfigError) as info:
        call(value)
    assert str(info.value).startswith(f"config key {key!r} has a bad value ")


@pytest.mark.parametrize("make,value,error", [
    pytest.param(make, value, error, id=prefix + label)
    for make, prefix in [(Exponent.of, ""), (Exponent, "constructor-")]
    for label, value, error in [("true", True, TypeError), ("numpy-true", np.True_, TypeError),
                                ("beyond-float-range", 10 ** 400, OverflowError),
                                ("none", None, TypeError)]
    if not (prefix and value is None)])
def test_exponent_of_a_non_string(make, value, error):
    # a string is Exponent.of's own input ("inf", "2"); anything else is a number;
    # None is left out for the constructor, whose p >= 1 test always refused it
    with pytest.raises(error):
        make(value)


@pytest.mark.parametrize("key", list(ENTRIES))
@pytest.mark.parametrize("kind", [np.int64, np.float64])
def test_numpy_scalars_read_as_their_numbers(key, kind):
    call, good, _ = ENTRIES[key]
    assert call(kind(good)) == call(good)


@pytest.mark.parametrize("kind", [np.int64, np.float64])
def test_numpy_exponent(kind):
    assert Exponent.of(kind(2)) == Exponent.of(2) == Exponent(2.0) == Exponent(kind(2))
    assert type(Exponent(kind(2)).value) is float


def test_a_non_pair_entry_names_pairs():
    with pytest.raises(ConfigError, match="^config key 'pairs' has a bad value"):
        schedule((1.0, 0.5))


def test_numbers_are_stored_as_python_numbers():
    sys = GaborSystem(CHI, CHI, np.float64(0.5), np.int64(1))
    assert type(sys.a) is type(sys.b) is float
    assert type(Grid(np.float64(4.0), 1 / 32, np.int64(2)).dim) is int
    assert [type(v) for v in schedule(((np.int64(1), np.float64(1.0)),)).pairs[0]] == [float, float]


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
def test_wexler_raz_refuses_a_nan_or_negative_tol(tol):
    # the exact indicator pair at a = b = 1 read as "not biorthogonal" under them
    with pytest.raises(ConfigError, match="^tol must be a nonnegative number"):
        wexler_raz_check(SYS, tol)


def test_wexler_raz_takes_a_zero_tol():
    # the indicator pair at a = b = 1 is biorthogonal without rounding
    assert wexler_raz_check(SYS, 0.0).is_biorthogonal


# entry point -> a call with one lattice (a, b); sum_translates takes a only
LATTICE_ENTRIES = {
    "lattice_steps": lambda a, b: GRID.lattice_steps(a, b),
    "GaborSystem": lambda a, b: GaborSystem(CHI, CHI, a, b),
    "SweepSchedule": lambda a, b: schedule(((a, b),)),
    "sum_translates": lambda a, b: sum_translates(CHI, a),
}


@pytest.mark.parametrize("entry,a,b", [
    pytest.param(entry, *pair.values, id=f"{entry}-{pair.id}")
    for entry in LATTICE_ENTRIES for pair in BAD_LATTICES
    if entry != "sum_translates" or pair.values[0] != 0.5])
def test_a_bad_lattice_is_one_error(entry, a, b):
    with pytest.raises(CommensurabilityError, match="positive") as info:
        LATTICE_ENTRIES[entry](a, b)
    assert type(info.value) is CommensurabilityError


def test_a_nonpositive_step_names_both():
    with pytest.raises(CommensurabilityError,
                       match=r"^lattice steps a = 0.5 and b = -2.0 must both be positive$"):
        GaborSystem(CHI, CHI, 0.5, -2.0)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0), (0.25, 0.5 - 2e-10), (3 / 32, 1 / 3)])
def test_a_valid_lattice_snaps_as_each_step_does(a, b):
    want = (GRID.steps_scalar(a), GRID.steps_scalar(1 / b))
    sys = GaborSystem(CHI, CHI, a, b)
    assert GRID.lattice_steps(a, b) == want == (sys.a_steps, sys.inv_b_steps)
    assert schedule(((a, b),)).pairs == ((sys.a, sys.b),)
