"""Why the sup-norm convergence fails: a fat-Cantor window.

A Smith-Volterra-Cantor set keeps positive measure while its gaps grow
dense: where a point's whole a-orbit misses the set, the diagonal function
vanishes and |diag - 1| reaches 1.  The witness table reads sup |diag - 1|
on [0, 1) at the coarsest cell size a = 1, where diag = chi_E / |E|,
against a solid indicator window at a = 1/16, where it is zero.  The table
builds no grid: it is read exactly off the endpoint table of E, and its
values equal those of the sampled operator on the grid of spacing h.
"""
import numpy as np

from gabframes import (
    GaborSystem,
    Grid,
    WindowSpec,
    counterexample_run,
    fat_cantor_intervals,
    fat_cantor_measure,
    diagonal_correlation,
    periodic_extension,
    sample_window,
)

print("Smith-Volterra-Cantor construction (closed intervals kept):")
for depth in (1, 2):
    ivs = ", ".join(f"[{lo}, {hi}]" for lo, hi in fat_cantor_intervals(depth))
    print(f"  depth {depth}: {ivs}")
    print(f"           measure = {fat_cantor_measure(depth)} "
          f"(-> 1/2 as depth grows)")

print("\nthe witness mechanism at depth 1:")
grid = Grid(half_extent=2.0, spacing=4.0 ** -1 / 8)
fat = sample_window(WindowSpec.fat_cantor(1), grid)
sys = GaborSystem(fat, fat, a=1.0, b=1.0)
profile = periodic_extension(diagonal_correlation(sys), grid).real
x = grid.axis_coords()
mid = profile[np.nonzero(x == 0.5)][0]
print(f"  diag(1/2) = {mid} at a = 1 -- the point 1/2 sits in the middle gap and its"
      f" unit-step orbit leaves [0, 1], so the diagonal function vanishes there")

print("\nwitness table (window chi_E vs solid chi_[0,1) on the same search):")
report = counterexample_run(depths=[1, 2, 3])
print(f"  {'depth':>5} {'h':>12} {'a*':>6} {'sup |diag-1|':>14} {'contrast':>10} {'sep>=10':>8}")
for r in report.records:
    print(f"  {r.depth:>5} {r.spacing:>12.6g} {r.witness_a:>6g} "
          f"{r.witness_norm:>14.6f} {r.contrast_norm:>10.3g} {str(r.separation_ok):>8}")
print(f"  all depths separate: {report.passed}")
