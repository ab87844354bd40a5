"""Biorthogonality on the dual lattice decides reproduction.

The dual-lattice coefficients <gamma, M_{l/a} T_{n/b} g>, normalized by
<gamma, g>, must collapse to a single unit spike for the frame operator to
act as the identity.  On the grid they form a finite set: l runs over one
alias period a/h and n over the correlation members, and the check reads
each coefficient once.  The unit indicator passes at a = b = 1 and at
a = b = 1/2, where S = I exactly (frame bounds 1 and 1).  At a = 3/4,
b = 1/2 the cells of side 3/4 split the indicator's unit steps unevenly:
the check fails, and the largest deviation sits at (l, n) = (1, 0).  A
gaussian pair is not biorthogonal either, at 1.867e-3 at (1, 0), but its
coefficients decay fast: the last table is the certified error of the
truncated dual-lattice expansion.
"""
import numpy as np

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    JanssenLattice,
    WindowSpec,
    frame_bounds,
    janssen_apply,
    l2_norm,
    sample_window,
    wexler_raz_check,
)

grid = Grid(half_extent=4.0, spacing=1 / 32)
chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)


def verdict(sys):
    res = wexler_raz_check(sys, tol=1e-10)
    (l,), (n,) = res.at
    print(f"  biorthogonal: {res.is_biorthogonal}   max off-diagonal |entry|: "
          f"{res.max_offdiag:.3e} at l = {l}, n = {n}")


for a, b in [(1.0, 1.0), (0.5, 0.5), (0.75, 0.5)]:
    sys = GaborSystem(chi, chi, a, b)
    print(f"indicator pair at a = {a}, b = {b}, frame bounds {frame_bounds(sys)}:")
    verdict(sys)
    print()

print("gaussian pair at a = b = 1/2:")
verdict(GaborSystem(gauss, gauss, 0.5, 0.5))
print()

print("reproduction by the Janssen expansion at a = b = 1:")
rng = np.random.default_rng(3)
envelope = sample_window(WindowSpec.gaussian(1.2, 2.0), grid)
f = GridFunction(grid, envelope.values * rng.standard_normal(grid.shape))
lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 16, 4)
out = janssen_apply(f, lat)
print(f"  ||janssen(f) - f||_2 / ||f||_2 = {l2_norm(out - f) / l2_norm(f):.3e}\n")

sys = GaborSystem(gauss, gauss, 0.5, 0.5)
print("certified Janssen truncation error, gaussian pair at a = b = 1/2:")
for radius in (0, 1, 2, 4, 8):
    lat = JanssenLattice(sys, radius, radius)
    print(f"  L = N = {radius}:  ||S - S_L,N|| <= {lat.truncation_bound:.3e}")
