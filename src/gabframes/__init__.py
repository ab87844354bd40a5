"""Gabor frame operators on discretized Wiener amalgam spaces.

The frame operator of a window pair on a time-frequency lattice is computed
in three equivalent forms (direct lattice sum, multiplication-and-shift, and
dual-lattice expansion), together with the amalgam norms, operator-norm
bounds, biorthogonality checks, and densification experiments that probe its
convergence to the identity.
"""

from .amalgam import (
    Exponent,
    ExponentPair,
    amalgam_norm,
    conjugate_exponent,
    cube_norms,
    holder_bound,
    lp_norm_on_cube,
    wiener_norm,
)
from .errors import (
    CommensurabilityError,
    ConfigError,
    DegenerateWindowPairError,
    GridMismatchError,
    ResolutionError,
    UnsupportedDimensionError,
)
from .experiments import (
    CounterexampleReport,
    SweepReport,
    SweepSchedule,
    convergence_sweep,
    counterexample_run,
    diagonal_decay_sweep,
    opnorm_sweep,
    riemann_uniformity,
)
from .grid import (
    Grid,
    GridFunction,
    inner_product,
    l2_norm,
    modulate,
    mt_commutation_phase,
    tf_shift,
    translate,
    write_csv,
)
from .janssen import (
    JanssenLattice,
    WexlerRazResult,
    fourier_reconstruct_correlation,
    janssen_apply,
    janssen_coefficients,
    wexler_raz_check,
)
from .operators import (
    CoefficientLattice,
    GaborSystem,
    apply_frame_direct,
    gabor_coefficients,
    stft,
)
from .walnut import (
    CorrelationFamily,
    apply_remainder,
    apply_diagonal_defect,
    correlation_family,
    correlation_fn,
    diagonal_correlation,
    frame_bounds,
    operator_norm_upper_bound,
    periodic_extension,
    reconstruct_integral,
    sum_translates,
    tail_sum,
    walnut_apply,
)
from .windows import WindowSpec, fat_cantor_intervals, fat_cantor_measure, sample_window, window_library

__version__ = "0.1.0"
