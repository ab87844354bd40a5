"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report); the test outcome itself carries the verdict for ``-v``.
Run order follows the criterion numbers.
"""
import math
import time

import numpy as np
import pytest

from gabframes import (
    ExponentPair,
    GaborSystem,
    Grid,
    JanssenLattice,
    SweepSchedule,
    amalgam_norm,
    apply_frame_direct,
    apply_remainder,
    apply_diagonal_defect,
    convergence_sweep,
    counterexample_run,
    janssen_apply,
    l2_norm,
    operator_norm_upper_bound,
    correlation_family,
    sample_window,
    sum_translates,
    tail_sum,
    walnut_apply,
    wexler_raz_check,
    window_library,
    WindowSpec,
)
from gabframes.walnut import correlation_member_range
from conftest import random_interior

PQ_SET = [(1, 1), (2, 2), (1, 2), (2, math.inf)]

SUITE_WINDOWS = {
    "indicator": WindowSpec.indicator_cube(1.0),
    "bspline": WindowSpec.bspline(2),
    "gaussian": WindowSpec.gaussian(1.0, 3.0),
}
SUITE_STEPS = (0.5, 0.25, 0.125)


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:>2}] {verdict}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def suite(grid):
    """Ten randomized systems: nine drawn window pairs with commensurate
    (a, b), plus a guaranteed gaussian pair for the dual-lattice clauses."""
    rng = np.random.default_rng(20260810)
    names = list(SUITE_WINDOWS)
    samples = {name: sample_window(spec, grid) for name, spec in SUITE_WINDOWS.items()}
    draws = [(names[rng.integers(len(names))], names[rng.integers(len(names))],
              SUITE_STEPS[rng.integers(3)], SUITE_STEPS[rng.integers(3)])
             for _ in range(9)]
    draws.append(("gaussian", "gaussian", 0.5, 0.5))
    systems = []
    for i, (gn, cn, a, b) in enumerate(draws):
        sys = GaborSystem(samples[gn], samples[cn], a, b)
        f = random_interior(grid, seed=1000 + i)
        systems.append((f"{gn}/{cn} a={a} b={b}", sys, f))
    return systems


def test_criterion_01_oracle_equivalence(grid, suite):
    t0 = time.perf_counter()
    worst_dw, worst_jw = 0.0, 0.0
    for label, sys, f in suite:
        direct = apply_frame_direct(f, sys)
        waln = walnut_apply(f, sys)
        rel = l2_norm(direct - waln) / l2_norm(f)
        worst_dw = max(worst_dw, rel)
        assert rel <= 1e-10, f"{label}: direct vs walnut {rel:.2e}"
        if label.startswith("gaussian/gaussian"):
            # stated truncation: N = 6 shifts; L = 6 capped to one modulation
            # alias period (the gaussian content beyond is below 1e-40)
            ell = min(6, (sys.a_steps - 1) // 2)
            lat = JanssenLattice(sys, ell, 6)
            jan = janssen_apply(f, lat)
            relj = l2_norm(jan - waln) / l2_norm(f)
            worst_jw = max(worst_jw, relj)
            assert relj <= 1e-6, f"{label}: janssen vs walnut {relj:.2e} (L={ell}, N=6)"
    elapsed = time.perf_counter() - t0
    report(1, elapsed <= 120.0,
           f"10 systems, worst direct/walnut {worst_dw:.2e} (<=1e-10), "
           f"worst janssen/walnut {worst_jw:.2e} (<=1e-6, L<=6 within one alias "
           f"period, N=6), {elapsed:.1f}s")


def test_criterion_02_exact_identity_regime(grid, chi):
    worst = 0.0
    f = random_interior(grid, seed=7)
    for m in (2, 4, 8):
        for b in (1.0, 0.5):
            sys = GaborSystem(chi, chi, 1.0 / m, b)
            sf = walnut_apply(f, sys)
            for pq in PQ_SET:
                err = amalgam_norm(sf - f, pq)
                scale = amalgam_norm(f, pq)
                worst = max(worst, err / scale)
                assert err <= 1e-12 * scale, f"a=1/{m} b={b} pq={pq}"
    report(2, True, f"g=gamma=chi, a=1/m, b<=1: worst ||Sf-f||/||f|| = {worst:.2e} (<=1e-12)")


def test_criterion_03_densification_trend():
    t0 = time.perf_counter()
    grid = Grid(128.0, 1 / 32)
    ratios = {}
    for pq in [(1, 2), (2, 2), (2, math.inf)]:
        schedule = SweepSchedule(
            grid=grid,
            g_spec=WindowSpec.bspline(2),
            gamma_spec=WindowSpec.bspline(2),
            pairs=tuple((2.0 ** -j, 2.0 ** -j) for j in range(1, 6)),
            pq=ExponentPair.of(*pq),
            f_spec=WindowSpec.gaussian(1.0, 3.0),
        )
        rep = convergence_sweep(schedule)
        ratios[pq] = rep.trend_ratio
        assert rep.passed, f"pq={pq} ratio {rep.trend_ratio}"
        errs = [r.err_f for r in rep.records]
        assert errs[-1] < errs[0], f"pq={pq} not trending down"
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{pq}: ratio {r:.2e}" for pq, r in ratios.items())
    report(3, elapsed <= 180.0, f"bspline sweep a_j=b_j=2^-j ({detail}; all < 0.2), {elapsed:.1f}s")


def test_criterion_04_walnut_bound_constant(grid, chi, suite):
    bound_unit = operator_norm_upper_bound(GaborSystem(chi, chi, 1.0, 1.0))
    assert bound_unit == 8.0
    worst_margin = math.inf
    for idx, (label, sys, _) in enumerate(suite):
        bound = operator_norm_upper_bound(sys)
        for k in range(100):
            f = random_interior(grid, seed=5000 + 1000 * idx + k)
            sf = walnut_apply(f, sys)
            for pq in PQ_SET:
                ratio = amalgam_norm(sf, pq) / amalgam_norm(f, pq)
                worst_margin = min(worst_margin, bound - ratio)
                assert ratio <= bound, f"{label} pq={pq}: ratio {ratio} > bound {bound}"
    report(4, True, f"unit-lattice constant = 8 exactly; 100 random f x 10 systems "
                    f"x 4 exponent pairs never exceed the bound "
                    f"(tightest margin {worst_margin:.3g})")


def test_criterion_05_translate_sum_bound(grid):
    checked = 0
    for spec in window_library():
        g = sample_window(spec, grid)
        for a in (1.0, 0.5, 0.25):
            res = sum_translates(g, a)
            assert res.within_bound, f"{spec.family} a={a}"
            checked += 1
    report(5, True, f"sum_n |g(x-an)| <= (1+1/a)^d ||g||_W at every cell sample, "
                    f"{checked} window/step combinations, zero violations")


def test_criterion_06_correlation_sum_bounds(grid, suite):
    for label, sys, _ in suite:
        assert tail_sum(sys).within_bound, label
    big = Grid(8.0, 1 / 32)
    gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), big)
    tails = []
    for j in range(1, 6):
        ts = tail_sum(GaborSystem(gauss, gauss, 2.0 ** -j, 2.0 ** -j))
        assert ts.within_bound
        tails.append(ts.tail)
    ratio = tails[-1] / tails[0]
    report(6, tails[0] > 0 and ratio < 0.2,
           f"sup-sum bound holds on all suite systems; gaussian tail "
           f"{tails[0]:.2e} -> {tails[-1]:.2e} (ratio {ratio:.1e} < 0.2)")


def test_criterion_07_fourier_coefficients_of_G(grid):
    gauss = sample_window(WindowSpec.gaussian(1.0, 3.0), grid)
    sys = GaborSystem(gauss, gauss, 0.5, 0.5)
    members = list(correlation_member_range(sys)[0])
    lat = JanssenLattice(sys, 16, max(abs(members[0]), members[-1]))
    h = grid.spacing
    xs = np.arange(sys.a_steps) * h
    worst = 0.0
    for n in members:
        cell = correlation_family(sys)[(n,)]
        for l in range(-16, 17):
            quad = (1.0 / sys.a) * h * np.sum(cell * np.exp(-2j * np.pi * l * xs / sys.a))
            want = (1.0 / sys.a) * lat.entry(l, n)
            worst = max(worst, abs(quad - want))
            assert abs(quad - want) <= 1e-8, f"(l={l}, n={n})"
    report(7, True, f"cell Fourier coefficients of G[n] match a^-d <gamma, M T g> "
                    f"for |l|<=16 and {len(members)} stored n (worst {worst:.1e} <= 1e-8)")


def test_criterion_08_wexler_raz(grid, chi, interior_f):
    passing = wexler_raz_check(GaborSystem(chi, chi, 1.0, 1.0), tol=1e-10)
    # cells of side 3/4 split the unit steps of the indicator unevenly; at
    # a = b = 1/2 the pair is exactly biorthogonal (S = I on the grid)
    failing = wexler_raz_check(GaborSystem(chi, chi, 0.75, 0.5), tol=1e-10)
    assert passing.is_biorthogonal and passing.max_offdiag <= 1e-10
    assert not failing.is_biorthogonal and failing.max_offdiag >= 0.1
    lat = JanssenLattice(GaborSystem(chi, chi, 1.0, 1.0), 16, 4)
    out = janssen_apply(interior_f, lat)
    err = l2_norm(out - interior_f) / l2_norm(interior_f)
    assert err <= 1e-10
    report(8, True, f"unit lattice passes (offdiag {passing.max_offdiag:.1e}), a = 3/4, b = 1/2 "
                    f"fails (offdiag {failing.max_offdiag:.2f} >= 0.1), janssen identity "
                    f"error {err:.1e} <= 1e-10")


def test_criterion_09_sup_norm_counterexample():
    t0 = time.perf_counter()
    rep = counterexample_run([1, 2, 3])
    for rec in rep.records:
        assert rec.witness_norm >= 1.0 - 2.0 * rec.spacing, f"depth {rec.depth}"
        assert rec.contrast_norm <= 0.05, f"depth {rec.depth}"
        assert rec.separation_ok, f"depth {rec.depth}"
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"k={r.depth}: a={r.witness_a:g}, norm={r.witness_norm:.3f}, "
        f"contrast={r.contrast_norm:.3g}" for r in rep.records)
    report(9, elapsed <= 300.0, f"{detail} ({elapsed:.1f}s)")


def test_criterion_10_T_plus_R_decomposition(grid, suite):
    worst_point, worst_ratio = 0.0, 0.0
    for label, sys, f in suite:
        sf = walnut_apply(f, sys)
        tf = apply_diagonal_defect(f, sys)
        rf = apply_remainder(f, sys)
        gap = np.abs((sf - f).values - (tf + rf).values).max()
        worst_point = max(worst_point, gap)
        assert gap <= 1e-12, f"{label}: pointwise gap {gap:.2e}"
        ts = tail_sum(sys)
        for pq in PQ_SET:
            lhs = amalgam_norm(rf, pq)
            rhs = ts.tail / abs(sys.pairing) * amalgam_norm(f, pq)
            worst_ratio = max(worst_ratio, lhs / rhs if rhs > 0 else 0.0)
            assert lhs <= rhs * (1 + 1e-9) + 1e-15, f"{label} pq={pq}"
    report(10, True, f"S f - f = T f + R f (worst pointwise gap {worst_point:.1e} <= 1e-12); "
                     f"||Rf|| within the tail bound (worst ratio {worst_ratio:.3f})")


def test_criterion_11_thread_count_determinism():
    grid = Grid(64.0, 1 / 32)
    schedule = SweepSchedule(
        grid=grid,
        g_spec=WindowSpec.bspline(2),
        gamma_spec=WindowSpec.bspline(2),
        pairs=tuple((2.0 ** -j, 2.0 ** -j) for j in range(1, 5)),
        pq=ExponentPair.of(2, 2),
        f_spec=WindowSpec.gaussian(1.0, 3.0),
    )
    seq = convergence_sweep(schedule, threads=1)
    par = convergence_sweep(schedule, threads=8)
    worst = 0.0
    for r1, r8 in zip(seq.records, par.records):
        for field in ("err_f", "diag_dev", "tail", "norm_bound", "weakstar"):
            worst = max(worst, abs(getattr(r1, field) - getattr(r8, field)))
    report(11, worst <= 1e-12,
           f"--threads 1 vs 8: sweep results agree to {worst:.1e} (<=1e-12)")
