"""One frame operator, three computations.

The analysis-synthesis operator of a Gabor system can be evaluated as the
definitional double lattice sum, as a sum of multiplication operators
composed with shifts, or as a dual-lattice expansion.  On the grid the first
two are the same finite terms reorganized; the third matches once the dual
coefficients are summable and the truncation keeps within one modulation
alias period.
"""
import numpy as np

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    JanssenLattice,
    WindowSpec,
    apply_frame_direct,
    frame_bounds,
    janssen_apply,
    l2_norm,
    operator_norm_upper_bound,
    sample_window,
    walnut_apply,
)

grid = Grid(half_extent=4.0, spacing=1 / 32)
gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
sys = GaborSystem(gauss, gauss, a=0.5, b=0.5)
print(f"system: {sys}")
print(f"<gamma, g> = {sys.pairing:.10f}\n")

rng = np.random.default_rng(0)
envelope = sample_window(WindowSpec.gaussian(1.2, 2.0), grid)
f = GridFunction(grid, envelope.values * (rng.standard_normal(grid.shape)
                                          + 1j * rng.standard_normal(grid.shape)))

direct = apply_frame_direct(f, sys)
waln = walnut_apply(f, sys)
lat = JanssenLattice(sys, 6, 6)
jans = janssen_apply(f, lat)

print(f"||direct - walnut||_2 / ||f||_2  = {l2_norm(direct - waln) / l2_norm(f):.3e}")
print(f"||janssen - walnut||_2 / ||f||_2 = {l2_norm(jans - waln) / l2_norm(f):.3e}")
print(f"  (dual-lattice truncation L = N = 6, certified ||S - S_6,6|| <= "
      f"{lat.truncation_bound:.2e})")
coarse = JanssenLattice(GaborSystem(gauss, gauss, a=1.0, b=0.5), 2, 2)
print(f"  (at a = 1, b = 1/2 and L = N = 2 the certificate reads "
      f"{coarse.truncation_bound:.3e})\n")

lower, upper = frame_bounds(sys)
print(f"frame bounds [A, B]:     [{lower:.15f}, {upper:.15f}]")
print(f"closed-form upper bound: {operator_norm_upper_bound(sys):.6f}\n")

chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
ident = GaborSystem(chi, chi, a=0.25, b=0.5)
out = walnut_apply(f, ident)
print("unit-indicator pair at a = 1/4, b = 1/2 reproduces f exactly:")
print(f"  ||S f - f||_2 / ||f||_2 = {l2_norm(out - f) / l2_norm(f):.3e}")
