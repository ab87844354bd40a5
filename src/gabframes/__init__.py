"""Gabor frame operators on discretized Wiener amalgam spaces.

The frame operator of a window pair on a time-frequency lattice is computed
in three equivalent forms (direct lattice sum, multiplication-and-shift, and
dual-lattice expansion), together with the amalgam norms, operator-norm
bounds, biorthogonality checks, and densification experiments that probe its
convergence to the identity.

``import gabframes`` loads no submodule.  Each public name below, and each
submodule (``gabframes.walnut``, ``gabframes.grid``, ...), is imported on
first use and then kept in this namespace, so a caller pays only for the
modules it touches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Exponent": "amalgam",
    "ExponentPair": "amalgam",
    "amalgam_norm": "amalgam",
    "conjugate_exponent": "amalgam",
    "cube_norms": "amalgam",
    "holder_bound": "amalgam",
    "lp_norm_on_cube": "amalgam",
    "wiener_norm": "amalgam",
    "CommensurabilityError": "errors",
    "ConfigError": "errors",
    "DegenerateWindowPairError": "errors",
    "GridMismatchError": "errors",
    "ResolutionError": "errors",
    "UnsupportedDimensionError": "errors",
    "CounterexampleReport": "experiments",
    "SweepReport": "experiments",
    "SweepSchedule": "experiments",
    "convergence_sweep": "experiments",
    "counterexample_run": "experiments",
    "diagonal_decay_sweep": "experiments",
    "opnorm_sweep": "experiments",
    "riemann_uniformity": "experiments",
    "Grid": "grid",
    "GridFunction": "grid",
    "inner_product": "grid",
    "l2_norm": "grid",
    "modulate": "grid",
    "mt_commutation_phase": "grid",
    "tf_shift": "grid",
    "translate": "grid",
    "write_csv": "grid",
    "JanssenLattice": "janssen",
    "WexlerRazResult": "janssen",
    "janssen_apply": "janssen",
    "janssen_coefficients": "janssen",
    "wexler_raz_check": "janssen",
    "CoefficientLattice": "operators",
    "GaborSystem": "operators",
    "apply_frame_direct": "operators",
    "gabor_coefficients": "operators",
    "stft": "operators",
    "apply_remainder": "walnut",
    "apply_diagonal_defect": "walnut",
    "correlation_family": "walnut",
    "correlation_fn": "walnut",
    "diagonal_correlation": "walnut",
    "frame_bounds": "walnut",
    "operator_norm_upper_bound": "walnut",
    "periodic_extension": "walnut",
    "sum_translates": "walnut",
    "tail_sum": "walnut",
    "walnut_apply": "walnut",
    "WindowSpec": "windows",
    "fat_cantor_intervals": "windows",
    "fat_cantor_measure": "windows",
    "sample_window": "windows",
    "window_library": "windows",
}
_SUBMODULES = sorted(set(_EXPORTS.values()))

# the submodules are listed too, as eager imports used to bind them
__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
