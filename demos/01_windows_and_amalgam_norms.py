"""Window families and their Wiener amalgam norms.

Samples each window family onto the standard grid and tabulates the
W(L^p, l^q) norms, showing the l^q-monotonicity of the aggregation and the
exactness of the Hoelder pairing bound.
"""
import math

from gabframes import (
    Exponent,
    Grid,
    amalgam_norm,
    holder_bound,
    sample_window,
    wiener_norm,
    window_library,
)

grid = Grid(half_extent=4.0, spacing=1 / 32)
print(f"grid: {grid}\n")

PQS = [(1, 1), (1, 2), (2, 2), (2, math.inf), (math.inf, 1), (math.inf, math.inf)]

print(f"{'window':<22}" + "".join(f"W(L^{p},l^{q})".replace("inf", "oo").rjust(14)
                                  for p, q in PQS))
for spec in window_library():
    f = sample_window(spec, grid)
    row = "".join(f"{amalgam_norm(f, pq):14.6f}" for pq in PQS)
    print(f"{spec.family:<22}{row}")

print("\nThe Wiener space norm is the (inf, 1) column:")
for spec in window_library():
    f = sample_window(spec, grid)
    print(f"  ||{spec.family}||_W = {wiener_norm(f):.6f}")

print("\nConjugate exponents pair the amalgam with its Koethe dual:")
for p in (1, 4 / 3, 2, 4, math.inf):
    print(f"  p = {p!s:>18} -> p' = {float(Exponent.of(p).conjugate()):.6g}")

print("\nHoelder on the (2, 2) / (2, 2) pairing (indicator against itself):")
chi = sample_window(window_library()[0], grid)
lhs, rhs = holder_bound(chi, chi, (2, 2))
print(f"  |<f, g>| = {lhs:.12f} <= {rhs:.12f} = ||f||_(2,2) ||g||_(2',2')")
