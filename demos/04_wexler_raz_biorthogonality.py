"""Biorthogonality on the dual lattice decides reproduction.

The dual-lattice coefficients <gamma, M_{l/a} T_{n/b} g>, normalized by
<gamma, g>, must collapse to a single unit spike for the frame operator to
act as the identity.  The unit indicator passes at the integer lattice; at
the half-integer lattice the grid's own frequency aliasing plants unit
entries at l = +/- a/h, and the check reports them.  A gaussian pair is
not biorthogonal, but its coefficients decay fast: the last table is the
certified error of the truncated dual-lattice expansion.
"""
import numpy as np

from gabframes import (
    GaborSystem,
    Grid,
    GridFunction,
    WindowSpec,
    janssen_apply,
    janssen_coefficients,
    l2_norm,
    sample_window,
    wexler_raz_check,
)

grid = Grid(half_extent=4.0, spacing=1 / 32)
chi = sample_window(WindowSpec.indicator_cube(1.0), grid)

for a, b in [(1.0, 1.0), (0.5, 0.5)]:
    sys = GaborSystem(chi, chi, a, b)
    res = wexler_raz_check(sys, ell_radius=16, n_radius=4, tol=1e-10)
    print(f"indicator pair at a = b = {a}:")
    print(f"  biorthogonal: {res.is_biorthogonal}   max off-diagonal |entry|: "
          f"{res.max_offdiag:.3e}")
    if not res.is_biorthogonal:
        mags = np.abs(res.normalized).copy()
        mags[16, 4] = 0.0  # blank the diagonal spike
        l_idx, n_idx = np.unravel_index(np.argmax(mags), mags.shape)
        print(f"  offending entries sit at l = +/-{abs(l_idx - 16)}, n = {n_idx - 4}: "
              f"modulation {abs(l_idx - 16) / a:g} equals the grid rate 1/h = "
              f"{grid.samples_per_unit:g}, invisible on samples")
    print()

print("reproduction under the passing lattice:")
rng = np.random.default_rng(3)
envelope = sample_window(WindowSpec.gaussian(1.2, 2.0), grid)
f = GridFunction(grid, envelope.values * rng.standard_normal(grid.shape))
lat = janssen_coefficients(GaborSystem(chi, chi, 1.0, 1.0), 16, 4)
out = janssen_apply(f, lat)
print(f"  ||janssen(f) - f||_2 / ||f||_2 = {l2_norm(out - f) / l2_norm(f):.3e}\n")

gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
sys = GaborSystem(gauss, gauss, 0.5, 0.5)
print("certified Janssen truncation error, gaussian pair at a = b = 1/2:")
for radius in (0, 1, 2, 4, 8):
    lat = janssen_coefficients(sys, radius, radius)
    print(f"  L = N = {radius}:  ||S - S_L,N|| <= {lat.truncation_bound:.3e}")
