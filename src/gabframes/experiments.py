"""Densification experiments: convergence sweeps and the sup-norm counterexample.

The continuum limit (a, b) -> (0, 0) is realized as finite schedules of
strictly decreasing commensurate pairs.  Trend acceptance uses the
last-over-first ratio (< 0.2) rather than per-step monotonicity, because
Riemann-sum errors oscillate at commensurate resonances; per-step
monotonicity is still recorded.  Sweep points are independent and may be
evaluated by a thread pool, built only when more than one thread is asked
for; reports are assembled in schedule order, so results do not depend on
the pool size.  The counterexample reads sup |diag - 1| on [0, 1) exactly
off the fat-Cantor endpoint table, with no grid built.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .amalgam import ExponentPair, amalgam_norm
from .errors import ConfigError, _at_least_one, _number, _require_memory, _typed
from .grid import (
    Grid,
    GridFunction,
    _meet,
    _within,
    inner_product,
    support_index_bounds,
)
from .operators import GaborSystem
from .walnut import (
    diagonal_deviation,
    operator_norm_upper_bound,
    tail_sum,
    walnut_apply,
)
from .windows import WindowSpec, _fat_cantor_table, _test_function, sample_window

__all__ = [
    "SweepSchedule",
    "SweepRecord",
    "SweepReport",
    "convergence_sweep",
    "opnorm_sweep",
    "CounterexampleRecord",
    "CounterexampleReport",
    "counterexample_run",
    "TREND_RATIO_LIMIT",
]

TREND_RATIO_LIMIT = 0.2

# fixed dual test set probing weak* convergence through pairings
_DUAL_TEST_SPECS = (
    WindowSpec.indicator_cube(1.0),
    WindowSpec.bspline(2),
    WindowSpec.gaussian(1.0, 3.0),
)


@dataclass(frozen=True)
class SweepSchedule:
    """An ordered densification schedule with its windows and test function.

    pairs must be strictly decreasing in both components and commensurate
    with the grid (a_j and 1/b_j integer multiples of the spacing).  They
    are kept as the steps GaborSystem snaps them to, so a record names the
    lattice it measured, and the order is checked on those.
    """

    grid: Grid
    g_spec: WindowSpec
    gamma_spec: WindowSpec
    pairs: tuple[tuple[float, float], ...]
    pq: ExponentPair
    f_spec: WindowSpec | None = None
    f_shift: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.pairs:
            raise ConfigError("schedule needs at least one (a, b) pair")
        pairs = _typed("pairs", lambda ps: tuple((_number(a), _number(b)) for a, b in ps),
                       self.pairs)
        object.__setattr__(self, "pq", ExponentPair.of(self.pq))
        m, snapped = self.grid.samples_per_unit, []
        for a, b in pairs:
            if b <= 0:
                raise ConfigError(f"lattice parameter b must be positive, got {b!r}")
            a, b = self.grid.steps_scalar(a) / m, m / self.grid.steps_scalar(1.0 / b)
            if snapped and not (a < snapped[-1][0] and b < snapped[-1][1]):
                raise ConfigError(f"schedule pairs must be strictly decreasing, "
                                  f"got {snapped[-1]} then {(a, b)}")
            snapped.append((a, b))
        object.__setattr__(self, "pairs", tuple(snapped))

    def sample_windows(self) -> tuple[GridFunction, GridFunction]:
        """(g, gamma) on the grid; one instance for both when the specs are equal."""
        g = sample_window(self.g_spec, self.grid)
        return g, g if self.gamma_spec == self.g_spec else sample_window(self.gamma_spec, self.grid)

    def sample_f(self) -> GridFunction:
        """The test function; ConfigError without a spec or when f_shift moves it off the grid."""
        if self.f_spec is None:
            raise ConfigError("this schedule has no test-function spec")
        return _test_function(self.f_spec, self.grid, self.f_shift)


@dataclass
class SweepRecord:
    a: float
    b: float
    diag_dev: float
    tail: float
    norm_bound: float
    wall_time: float
    err_f: float | None = None
    weakstar: float | None = None
    residue: float | None = None
    bound_ok: bool | None = None
    proxy_upper: float | None = None
    proxy_lower: float | None = None


@dataclass
class SweepReport:
    records: list[SweepRecord]
    trend_ratio: float
    monotone: bool
    passed: bool


def _trend(values: list[float]) -> tuple[float, bool, bool]:
    first, last = values[0], values[-1]
    if first <= 1e-14:  # already converged at the coarsest point
        return 0.0, True, True
    ratio = last / first
    monotone = all(values[i + 1] <= values[i] + 1e-15 for i in range(len(values) - 1))
    return ratio, monotone, ratio < TREND_RATIO_LIMIT


def _boundary_margin(f: GridFunction) -> float:
    # f is not zero: sample_window and sample_f refuse a zero function
    n = f.grid.samples_per_axis
    return min(min(lo, n - 1 - hi) for lo, hi in support_index_bounds(f)) * f.grid.spacing


def _support_diameter(f: GridFunction) -> float:
    # f is a window or a test function, never zero
    return max(hi - lo for lo, hi in support_index_bounds(f)) * f.grid.spacing


def _require_margin(schedule: SweepSchedule, f: GridFunction,
                    g: GridFunction, gamma: GridFunction) -> None:
    need = max(1.0 / b for _, b in schedule.pairs)
    need += _support_diameter(g) + _support_diameter(gamma)
    have = _boundary_margin(f)
    if have < need:
        raise ConfigError(
            f"test function is {have:g} from the boundary but the schedule requires a "
            f"margin of at least {need:g}; enlarge the grid or shrink the shifts")


def _map_ordered(fn, items, threads: int):
    if threads == 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _sweep(schedule: SweepSchedule, g: GridFunction, gamma: GridFunction, threads: int,
           columns, trended: str) -> SweepReport:
    # the one densification loop: per pair, the system, its diagonal deviation, tail
    # and spread = tail / |<gamma, g>|, the kind's own columns(sys, dev, spread), the
    # closed-form bound and the time; then the trend of the kind's trended column
    def run_pair(ab: tuple[float, float]) -> SweepRecord:
        t0 = time.perf_counter()
        sys = GaborSystem(g, gamma, *ab)
        dev = diagonal_deviation(sys)
        tail = tail_sum(sys).tail
        own = columns(sys, dev, tail / abs(sys.pairing))
        return SweepRecord(*ab, diag_dev=dev, tail=tail,
                           norm_bound=operator_norm_upper_bound(sys),
                           wall_time=time.perf_counter() - t0, **own)

    records = _map_ordered(run_pair, schedule.pairs, threads)
    return SweepReport(records, *_trend([getattr(r, trended) for r in records]))


def convergence_sweep(schedule: SweepSchedule, threads: int = 1) -> SweepReport:
    """Measure ||S f - f||_{W(p,q)} along the schedule.

    The test function must keep a boundary margin of max(1/b) plus the
    window support diameters, so truncation cannot pollute the limit.
    Each record also carries the multiplier/tail split of the error bound
    and a weak*-pairing column against a fixed dual test set.  Raises
    ConfigError when threads is not a whole number >= 1.
    """
    threads = _at_least_one("threads", threads)
    g, gamma = schedule.sample_windows()
    f = schedule.sample_f()
    _require_margin(schedule, f, g, gamma)
    pq = schedule.pq
    f_norm = amalgam_norm(f, pq)
    duals = []
    for spec in _DUAL_TEST_SPECS:
        h = sample_window(spec, schedule.grid)
        duals.append((h, amalgam_norm(h, pq.conjugate())))

    def columns(sys: GaborSystem, dev: float, spread: float) -> dict:
        sf = walnut_apply(f, sys)
        # before diff exists, so the residue's strip arrays and diff are
        # never live at once
        residue = _boundary_residue(sf, sys, pq)
        diff = sf - f
        err = amalgam_norm(diff, pq)
        bound = (dev + spread) * f_norm + residue
        return dict(err_f=err, weakstar=max(abs(inner_product(diff, h)) / hn for h, hn in duals),
                    residue=residue, bound_ok=err <= bound + 1e-12 * (1.0 + f_norm))

    return _sweep(schedule, g, gamma, threads, columns, "err_f")


def _boundary_residue(sf: GridFunction, sys: GaborSystem, pq: ExponentPair) -> float:
    # operator output falling within one shift-reach of the boundary; with a
    # proper margin this is zero up to window tails
    grid = sys.grid
    reach = sys.inv_b_steps + max(_support_diameter(sys.g), _support_diameter(sys.gamma)) \
        * grid.samples_per_unit
    reach = int(min(reach, grid.samples_per_axis // 2))
    interior = slice(reach, grid.samples_per_axis - reach)
    bounds = support_index_bounds(sf)
    if bounds is None or all(interior.start <= lo and hi < interior.stop for lo, hi in bounds):
        # the strip holds only zeros, whose norm is exactly 0.0
        return 0.0
    strip = sf.data.copy()
    inner = _meet((interior,) * grid.dim, sf.box)
    if inner is not None:
        strip[_within(inner, sf.box)] = 0.0
    return amalgam_norm(GridFunction._own(grid, sf.box, strip), pq)


def opnorm_sweep(schedule: SweepSchedule, threads: int = 1) -> SweepReport:
    """Track the operator-norm proxy: diagonal deviation +/- tail/|<gamma,g>|.

    Requires window families whose product is Riemann integrable
    (indicator, bspline, gaussian); fat_cantor is rejected, and so is a
    threads that is not a whole number >= 1.
    """
    threads = _at_least_one("threads", threads)
    for spec in (schedule.g_spec, schedule.gamma_spec):
        if spec.family == "fat_cantor":
            raise ConfigError("opnorm sweeps need Riemann-integrable window products; "
                              "fat_cantor windows are the counterexample, not the subject")
    return _sweep(schedule, *schedule.sample_windows(), threads,
                  lambda sys, dev, spread: dict(proxy_upper=dev + spread,
                                                proxy_lower=max(dev - spread, 0.0)),
                  "proxy_upper")


@dataclass
class CounterexampleRecord:
    depth: int
    spacing: float
    witness_a: float
    witness_norm: float
    contrast_a: float
    contrast_norm: float
    witness_ok: bool
    contrast_ok: bool
    separation_ok: bool


@dataclass
class CounterexampleReport:
    records: list[CounterexampleRecord]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(r.witness_ok and r.contrast_ok and r.separation_ok
                          for r in self.records)


# the cell sizes a = 2^-j that counterexample_run searches, coarsest first
_HALVINGS = range(5)
# bytes per interval at the peak of one depth: the ends in samples, the sorted
# residues, the points read and the counts there (traced at depths 10-18: 96-114)
_SWEEP_BYTES = 112


def _defect_sups(depth: int, m: int, halvings) -> list[float]:
    # sup over the samples x of [0, 1) of |a G[0](x) / <g, g> - 1| at each a = 2^-j, bit for
    # bit, for g = chi_E sampled m per unit, E the depth-k set ([0, 1] at depth 0).  It is
    # count(x) p / n - 1: p = a m, n the samples of E, count(x) those that are x mod p.  A
    # run [s, t) of them gives t//p - s//p to each residue r, one more when s mod p <= r
    # and one less when t mod p <= r: count changes only at the ends' residues, read there
    units, ends = _fat_cantor_table(depth, _SWEEP_BYTES)
    ends = ends.astype(np.int64 if m < 2**63 else object) * (m // units)  # the ends reach m
    lo, hi = ends[0::2], ends[1::2]
    n = int((hi - lo).sum())
    sups = []
    for p in (m >> j for j in halvings):
        starts, stops = np.sort(lo % p), np.sort(hi % p)
        at = np.concatenate([starts, stops])
        counts = (int((hi // p - lo // p).sum()) + np.searchsorted(starts, at, "right")
                  - np.searchsorted(stops, at, "right"))
        sups.append(float(np.abs(counts * (p / n) - 1.0).max()))
    return sups


def counterexample_run(depths) -> CounterexampleReport:
    """Witness the sup-norm failure with fat-Cantor windows.

    For each depth k the search maximizes sup |diag - 1| on [0, 1) over the
    candidate cell sizes with g = gamma = chi_{E_k}: a gap point of E_k whose
    a-orbit misses the set makes diag vanish there, pinning the sup at 1.
    The witness, the first maximum, is at the coarsest a = 1, where diag =
    chi_{E_k} / |E_k|; the contrast is the solid chi_[0,1) at a = 1/16.  The
    sup is the W(L^inf, l^q) norm of (diag - 1) chi_[0,1) for every q, as it
    fills one unit cube.  The sups are read off the endpoint table of E_k,
    with no grid built, and equal those of the sampled operator on the grid
    of ``spacing`` 4^-k / 8.  Raises ConfigError when depths is empty or a
    depth is not a whole number >= 1, and ResolutionError, before any table is
    built, when the deepest depth would exceed the machine's physical memory.
    """
    depths = [_at_least_one("depths", k) for k in depths]
    if not depths:
        raise ConfigError("the counterexample needs at least one depth")
    _require_memory(_SWEEP_BYTES * 2 ** min(max(depths), 64),
                    f"the counterexample at depths {depths}", "lower the depths")
    records = []
    for k in depths:
        m = 8 * 4**k  # samples per unit of the grid
        sups = _defect_sups(k, m, _HALVINGS)
        witness_norm = max(sups)
        [contrast_norm] = _defect_sups(0, m, _HALVINGS[-1:])
        separation = witness_norm / contrast_norm if contrast_norm > 0 else math.inf
        records.append(CounterexampleRecord(
            depth=k, spacing=1 / m,
            witness_a=2.0 ** -_HALVINGS[sups.index(witness_norm)], witness_norm=witness_norm,
            contrast_a=2.0 ** -_HALVINGS[-1], contrast_norm=contrast_norm,
            witness_ok=witness_norm >= 1.0 - 2.0 / m,
            contrast_ok=contrast_norm <= 0.05,
            separation_ok=separation >= 10.0,
        ))
    return CounterexampleReport(records)
