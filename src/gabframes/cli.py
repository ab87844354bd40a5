"""Command-line entry point.

Subcommands: norm, stft, apply, bounds, sweep, wexler-raz, counterexample,
selftest.  Configs are JSON with a top-level {"schema": "v1"}; bulk numbers
go to CSV (format: see the ``grid`` module), scalar summaries to JSON.  Exit
codes: 0 success, 1 validation error, 2 numerical-contract violation;
failures write a machine-readable JSON object to stderr.  Outputs are
deterministic for a fixed config and seed; timestamps and per-pair sweep
timings live in a sidecar .meta.json next to --out files, never in the data.

Each subcommand imports numpy and the library modules it runs inside its
handler, after the config checks that need neither, so a command loads only
what it uses: --version, --help, usage errors and config-shape errors (an
unreadable file, bad JSON, a wrong schema, an unknown or missing key) load
no numpy.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, _number, _typed

if TYPE_CHECKING:
    from .grid import Grid, GridFunction
    from .operators import GaborSystem
    from .windows import WindowSpec

SCHEMA = "v1"


class ContractViolation(RuntimeError):
    """A numerical contract failed (trend, bound, or selftest check)."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: str) -> dict:
    try:
        with open(path) as fp:
            obj = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return obj


# The keys each config reads; any other key is a typo or an obsolete
# option, and fails.  One system config serves stft, apply, bounds and
# wexler-raz, so it may carry the test function f where a command skips it.
# An opnorm sweep measures no test function, so reads no f, f_shift, p or q.
_GRID_KEYS = frozenset({"half_extent", "spacing", "dim"})
_SYSTEM_KEYS = frozenset({"schema", "grid", "g", "gamma", "a", "b", "f", "f_shift"})
_OPNORM_KEYS = frozenset({"schema", "kind", "grid", "g", "gamma", "pairs"})
_SWEEP_KEYS = _OPNORM_KEYS | {"p", "q", "f", "f_shift"}


def _require_keys(obj: dict, allowed: frozenset, what: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ConfigError(f"unknown {what} key(s) {extra}; "
                          f"expected some of {sorted(allowed)}")


def _config(path: str, keys: frozenset, what: str, needs: tuple[str, ...]) -> dict:
    """Read a config and check its shape before any library module loads: the
    schema, no key outside keys (``what`` names the config in the message), a
    grid object with both sizes and no other key, and every key of needs, each
    a window spec or the lattice parameter a or b.  The builders below only build."""
    cfg = _load_json(path)
    if cfg.get("schema") != SCHEMA:
        raise ConfigError(f"config {path!r} must declare \"schema\": \"{SCHEMA}\"")
    _require_keys(cfg, keys, what)
    grid = cfg.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("config needs a \"grid\" object with half_extent and spacing")
    _require_keys(grid, _GRID_KEYS, "grid")
    for key in ("half_extent", "spacing"):
        if key not in grid:
            raise ConfigError(f"grid config is missing {key!r}")
    for key in needs:
        if key not in cfg:
            raise ConfigError(f"config is missing lattice parameter {key!r}" if key in ("a", "b")
                              else f"config is missing the {key!r} window spec")
    return cfg


def _shift_from(cfg: dict, dim: int) -> tuple[float, ...] | None:
    # f_shift as one float per axis: a list gives one per axis, a number
    # moves every axis; the axis count is checked later, by translate
    shift = cfg.get("f_shift")
    if shift is None:
        return None
    return _typed("f_shift", lambda s: tuple(_number(v, "a number or a list of numbers")
                                             for v in (s if isinstance(s, list) else [s] * dim)),
                  shift)


def _grid_from(cfg: dict) -> Grid:
    from .grid import Grid

    return Grid(**cfg["grid"])  # its keys are Grid's parameters, checked by _config


def _window_from(cfg: dict, key: str) -> WindowSpec:
    from .windows import WindowSpec

    try:
        return WindowSpec.from_json(cfg[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {key!r} window spec: {exc}") from exc


def _system_from(cfg: dict) -> GaborSystem:
    from .operators import GaborSystem
    from .windows import sample_window

    grid = _grid_from(cfg)
    g = sample_window(_window_from(cfg, "g"), grid)
    gamma = sample_window(_window_from(cfg, "gamma"), grid) if "gamma" in cfg else g
    return GaborSystem(g, gamma, cfg["a"], cfg["b"])


def _f_from(cfg: dict, grid: Grid) -> GridFunction:
    from .windows import _test_function

    return _test_function(_window_from(cfg, "f"), grid, _shift_from(cfg, grid.dim))


def _emit(text: str, out_path: str | None, meta: dict | None = None) -> None:
    """Write text to out_path plus a .meta.json sidecar (tool, timestamp, meta), or to stdout."""
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(text)
        with open(out_path + ".meta.json", "w") as fp:
            json.dump({"tool": f"gabframes {__version__}", "written_at": time.time(),
                       **(meta or {})}, fp)
            fp.write("\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args) -> int:
    window = _load_json(args.window)
    from .amalgam import ExponentPair, amalgam_norm
    from .grid import Grid
    from .windows import sample_window

    spec = _window_from({"window": window}, "window")
    grid = Grid(args.half_extent, args.spacing, args.dim)
    f = sample_window(spec, grid)
    value = amalgam_norm(f, ExponentPair.of(args.p, args.q))
    _emit(json.dumps({"norm": value}) + "\n", args.out)
    return 0


def _cmd_stft(args) -> int:
    cfg = _config(args.config, _SYSTEM_KEYS, "system config", ("g", "a", "b", "f"))
    from .grid import _write_array
    from .operators import gabor_coefficients

    sys_ = _system_from(cfg)
    f = _f_from(cfg, sys_.grid)
    d = sys_.grid.dim
    names = ["n", "m"] if d == 1 else (
        [f"n_{j+1}" for j in range(d)] + [f"m_{j+1}" for j in range(d)])
    buf = io.StringIO()
    _write_array(buf, names + ["re", "im"], [sys_.time_indices] * d + [sys_.freq_indices] * d,
                 gabor_coefficients(f, sys_))
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_apply(args) -> int:
    if args.method != "janssen" and (args.L, args.N) != (None, None):
        raise ConfigError(f"--L and --N are read by --method janssen only, "
                          f"not by --method {args.method}")
    cfg = _config(args.config, _SYSTEM_KEYS, "system config", ("g", "a", "b", "f"))
    from .grid import write_csv

    sys_ = _system_from(cfg)
    f = _f_from(cfg, sys_.grid)
    if args.method == "direct":
        from .operators import apply_frame_direct
        out = apply_frame_direct(f, sys_)
    elif args.method == "walnut":
        from .walnut import walnut_apply
        out = walnut_apply(f, sys_)
    else:
        from .janssen import JanssenLattice, janssen_apply
        lat = JanssenLattice(sys_, 8 if args.L is None else args.L,
                             8 if args.N is None else args.N)
        out = janssen_apply(f, lat)
    buf = io.StringIO()
    write_csv(out, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _config(args.config, _SYSTEM_KEYS, "system config", ("g", "a", "b"))
    from .walnut import diagonal_deviation, operator_norm_upper_bound, tail_sum

    sys_ = _system_from(cfg)
    ts = tail_sum(sys_)
    payload = {
        "a": sys_.a,
        "b": sys_.b,
        "norm_bound": operator_norm_upper_bound(sys_),
        "tail_sum": ts.tail,
        "diag_dev": diagonal_deviation(sys_),
        "sup_sum": ts.sup_sum,
        "sup_sum_bound": ts.bound,
        "within_bound": ts.within_bound,
    }
    _emit(json.dumps(payload) + "\n", args.out)
    if not ts.within_bound:
        raise ContractViolation(
            f"correlation sup-sum {ts.sup_sum!r} exceeds its bound {ts.bound!r}")
    return 0


def _records_csv(records, cols) -> str:
    """The CSV table of the fields ``cols`` of each record, one row per record."""
    from .grid import _write_table

    buf = io.StringIO()
    _write_table(buf, cols, [[getattr(r, c) for r in records] for c in cols])
    return buf.getvalue()


def _cmd_sweep(args) -> int:
    cfg = _config(args.config, _SWEEP_KEYS, "sweep config", ("g",))
    kind = cfg.get("kind", "convergence")
    if kind not in ("convergence", "opnorm"):
        raise ConfigError(f"sweep kind must be 'convergence' or 'opnorm', got {kind!r}")
    if kind == "opnorm":
        _require_keys(cfg, _OPNORM_KEYS, "opnorm sweep config")
    pairs = cfg.get("pairs")
    if not isinstance(pairs, list):
        raise ConfigError("sweep config needs a \"pairs\" list of [a, b]")
    from .amalgam import Exponent, ExponentPair
    from .experiments import SweepSchedule, convergence_sweep, opnorm_sweep

    grid = _grid_from(cfg)
    g_spec = _window_from(cfg, "g")
    schedule = SweepSchedule(
        grid=grid,
        g_spec=g_spec,
        gamma_spec=_window_from(cfg, "gamma") if "gamma" in cfg else g_spec,
        pairs=pairs,
        pq=ExponentPair(*(_typed(k, Exponent.of, cfg.get(k, 2)) for k in ("p", "q"))),
        f_spec=_window_from(cfg, "f") if "f" in cfg else None,
        f_shift=_shift_from(cfg, grid.dim),
    )
    report = (convergence_sweep if kind == "convergence" else opnorm_sweep)(
        schedule, threads=args.threads)
    cols = ["a", "b", "err_f", "diag_dev", "tail", "norm_bound", "weakstar",
            "proxy_upper", "proxy_lower", "residue"]
    _emit(_records_csv(report.records, cols), args.out,
          {"wall_time": [r.wall_time for r in report.records]})
    summary = {"passed": report.passed, "trend_ratio": report.trend_ratio,
               "monotone": report.monotone}
    sys.stdout.write(json.dumps(summary) + "\n")
    if not report.passed:
        raise ContractViolation(f"trend ratio {report.trend_ratio!r} did not fall "
                                f"below the acceptance limit")
    broken = [(r.a, r.b) for r in report.records if r.bound_ok is False]
    if broken:
        raise ContractViolation(f"error at (a, b) = {broken[0]} exceeds its multiplier/tail bound")
    return 0


def _cmd_wexler_raz(args) -> int:
    cfg = _config(args.system, _SYSTEM_KEYS, "system config", ("g", "a", "b"))
    from .janssen import wexler_raz_check

    sys_ = _system_from(cfg)
    res = wexler_raz_check(sys_, args.tol)
    payload = {
        "is_biorthogonal": res.is_biorthogonal,
        "max_offdiag": res.max_offdiag,
        "diag": {"re": res.diag.real, "im": res.diag.imag},
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return 0


def _cmd_counterexample(args) -> int:
    depths = [_typed("depths", json.loads, tok) for tok in args.depths.split(",") if tok.strip()]
    from .amalgam import Exponent
    from .experiments import counterexample_run

    Exponent.of(args.q)  # refused when it is no exponent, and otherwise read by nothing
    report = counterexample_run(depths)
    _emit(_records_csv(report.records, ["depth", "spacing", "witness_a", "witness_norm",
                                        "contrast_a", "contrast_norm"]), args.out)
    sys.stdout.write(json.dumps({"passed": report.passed}) + "\n")
    if not report.passed:
        raise ContractViolation("counterexample curves failed to separate")
    return 0


def _cmd_selftest(args) -> int:
    import numpy as np

    from .grid import Grid, GridFunction, l2_norm
    from .janssen import wexler_raz_check
    from .operators import GaborSystem
    from .walnut import operator_norm_upper_bound, walnut_apply
    from .windows import WindowSpec, sample_window

    rng = np.random.default_rng(args.seed)
    checks = []

    grid = Grid(4.0, 1 / 32)
    chi = sample_window(WindowSpec.indicator_cube(1.0), grid)
    env = sample_window(WindowSpec.gaussian(1.0, 2.0), grid)
    f = GridFunction(grid, env.values * (rng.standard_normal(grid.shape)
                                         + 1j * rng.standard_normal(grid.shape)))

    # identity regime: indicator pair, a = 1/4, b = 1/2
    sys_ = GaborSystem(chi, chi, 0.25, 0.5)
    err = l2_norm(walnut_apply(f, sys_) - f) / l2_norm(f)
    checks.append(("exact_identity_regime", err, err <= 1e-12))

    # integer lattice biorthogonality
    res = wexler_raz_check(GaborSystem(chi, chi, 1.0, 1.0), tol=1e-10)
    checks.append(("wexler_raz_delta_lattice", res.max_offdiag, res.is_biorthogonal))

    # closed-form operator bound at the unit lattice
    bound = operator_norm_upper_bound(GaborSystem(chi, chi, 1.0, 1.0))
    checks.append(("walnut_bound_constant", bound, bound == 8.0))

    ok = True
    for name, value, passed in checks:
        ok &= passed
        sys.stdout.write(json.dumps({"check": name, "value": value, "passed": passed}) + "\n")
    if not ok:
        raise ContractViolation("selftest failed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabframes",
        description="Gabor frame operators on discretized Wiener amalgam spaces.")
    parser.add_argument("--version", action="version", version=f"gabframes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the result to this file")

    p = sub.add_parser("norm", parents=[common], help="amalgam norm of a window")
    p.add_argument("--window", required=True, help="window spec JSON file")
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="2")
    p.add_argument("--half-extent", dest="half_extent", type=float, default=4.0)
    p.add_argument("--spacing", type=float, default=1 / 32)
    p.add_argument("--dim", type=int, default=1)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("stft", parents=[common], help="Gabor coefficient lattice CSV")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_stft)

    p = sub.add_parser("apply", parents=[common], help="apply the frame operator")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=("direct", "walnut", "janssen"), default="walnut")
    p.add_argument("--L", type=int, help="janssen modulation radius (default 8)")
    p.add_argument("--N", type=int, help="janssen shift radius (default 8)")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("bounds", parents=[common], help="operator-norm bound diagnostics")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("sweep", parents=[common], help="densification sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for independent schedule points")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("wexler-raz", parents=[common], help="biorthogonality check")
    p.add_argument("--system", required=True)
    p.add_argument("--L", type=int, help="chooses nothing: every l is checked")
    p.add_argument("--N", type=int, help="chooses nothing: every n is checked")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_wexler_raz)

    p = sub.add_parser("counterexample", parents=[common],
                       help="sup-norm failure witness table")
    p.add_argument("--depths", required=True, help="comma-separated depths, e.g. 1,2,3")
    p.add_argument("--q", default="inf", help="chooses nothing: every q gives the one-cube sup")
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("selftest", help="run the built-in sanity checks")
    p.add_argument("--seed", type=int, default=0, help="seed for the random test function")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its error code to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except ContractViolation as exc:
        sys.stderr.write(json.dumps({"error": "contract", "message": str(exc)}) + "\n")
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
