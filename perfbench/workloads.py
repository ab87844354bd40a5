"""The four benchmark workloads: generated inputs, CLI commands, reference
results, correctness checks and exact work counts.

Every workload turns ``--seed`` into its config files; the seed picks only the
test-function shift ``f_shift`` (a multiple of 1/32, so commensurate with every
grid used here) and the STFT spot-check entries.  References are computed
in-process with the public library before any job is timed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gabframes as gf

SHIFT_QUANTUM = 1 / 32


@dataclass
class Command:
    """One CLI invocation: its argv after ``gabframes`` and its data file, if any."""

    argv: list[str]
    out: Path | None = None


@dataclass
class Result:
    """What one command left behind."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int = 0


def _shift(rng: np.random.Generator, lo: float, hi: float) -> float:
    k = int(rng.integers(0, round((hi - lo) / SHIFT_QUANTUM) + 1))
    return lo + k * SHIFT_QUANTUM


def _system_config(half_extent, spacing, g, a, b, f, f_shift) -> dict:
    return {"schema": "v1",
            "grid": {"half_extent": half_extent, "spacing": spacing, "dim": 1},
            "g": g, "a": a, "b": b, "f": f, "f_shift": f_shift}


def _system(cfg: dict):
    """(GaborSystem, f) exactly as the CLI builds them from a system config."""
    grid = gf.Grid(cfg["grid"]["half_extent"], cfg["grid"]["spacing"], cfg["grid"]["dim"])
    g = gf.sample_window(gf.WindowSpec.from_json(cfg["g"]), grid)
    f = gf.sample_window(gf.WindowSpec.from_json(cfg["f"]), grid)
    f = gf.translate(f, [cfg["f_shift"]] * grid.dim)
    return gf.GaborSystem(g, g, cfg["a"], cfg["b"]), f


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _base_failures(results: list[Result]) -> list[str]:
    errs = []
    for i, r in enumerate(results):
        if r.code != 0:
            last = (r.stderr.strip().splitlines() or [""])[-1]
            errs.append(f"command {i} exited {r.code}: {last[:300]}")
        elif "Traceback" in r.stderr:
            errs.append(f"command {i} printed a traceback")
    return errs


def _lattice_terms(sys_) -> int:
    return (len(sys_.time_indices) * len(sys_.freq_indices)) ** sys_.grid.dim


def _members(sys_) -> int:
    return math.prod(len(r) for r in gf.walnut.correlation_member_range(sys_))


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir

    def _write(self, fname: str, obj) -> Path:
        path = self.dir / fname
        path.write_text(json.dumps(obj))
        return path

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute everything ``check`` compares against; untimed."""

    def check(self, results: list[Result]) -> list[str]:
        """Failure messages for one job; empty when every output is correct."""
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Work counts per job, from the inputs alone."""
        raise NotImplementedError

    def sweep_schedule(self):
        """The in-process sweep behind ``experiments.threads2_speedup``, or None."""
        return None


class StftCheck:
    """Row count, exact index columns and a seeded spot check of a lattice CSV."""

    def __init__(self, cfg: dict, rng: np.random.Generator, picks: int = 64):
        sys_, f = _system(cfg)
        self.times = np.asarray(sys_.time_indices)
        self.freqs = np.asarray(sys_.freq_indices)
        # spot entries: shifts whose window meets supp f, half near m = 0
        lo, hi = gf.grid.support_index_bounds(f)[0]
        glo, ghi = gf.grid.support_index_bounds(sys_.g)[0]
        near = [n for n in self.times
                if glo + n * sys_.a_steps <= hi and ghi + n * sys_.a_steps >= lo]
        ns = rng.choice(near, picks)
        ms = np.concatenate([rng.choice(self.freqs, picks // 2),
                             rng.integers(-16, 17, picks - picks // 2)])
        self.spots = [(int(n), int(m), gf.stft(f, sys_.g, n * sys_.a, m * sys_.b))
                      for n, m in zip(ns, ms)]

    def __call__(self, path: Path) -> list[str]:
        data = _load_csv(path)
        nt, nf = len(self.times), len(self.freqs)
        if data.shape != (nt * nf, 4):
            return [f"stft: {data.shape[0]} rows, expected {nt * nf}"]
        if not (np.array_equal(data[:, 0], np.repeat(self.times, nf))
                and np.array_equal(data[:, 1], np.tile(self.freqs, nt))):
            return ["stft: index columns differ from the lattice"]
        vals = data[:, 2] + 1j * data[:, 3]
        tol = 1e-12 * np.abs(vals).max()
        errs = []
        for n, m, want in self.spots:
            got = vals[(n - self.times[0]) * nf + (m - self.freqs[0])]
            if abs(got - want) > tol:
                errs.append(f"stft: entry (n={n}, m={m}) is {got!r}, definition gives {want!r}")
        return errs


class Stft1D(Workload):
    name = "stft-1d"
    why = ("gabframes stft at N=8192, r=1024: dense r x N analysis in operators "
           "plus the CLI's 46,080-row CSV loop")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = _system_config(8.0, 1 / 512, {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
                                  0.5, 0.5, {"family": "bspline", "order": 2},
                                  _shift(self.rng, -3.0, 1.0))
        self.cfg_path = self._write("system.json", self.cfg)
        self.out = self.dir / "lattice.csv"

    def commands(self):
        return [Command(["stft", "--config", str(self.cfg_path), "--out", str(self.out)], self.out)]

    def reference(self):
        self.stft_check = StftCheck(self.cfg, self.rng)

    def check(self, results):
        return _base_failures(results) or self.stft_check(self.out)

    def counts(self):
        sys_, _ = _system(self.cfg)
        return {"grid.samples": sys_.grid.size,
                "operators.lattice_terms": _lattice_terms(sys_)}


class Sweep2D(Workload):
    name = "sweep-2d"
    why = ("gabframes sweep on a 640x640 grid, three (a,b) pairs, one thread: Walnut "
           "correlation folds, walnut_apply and amalgam norms, tiny output")

    PAIRS = [[1.0, 1.0], [0.5, 0.5], [0.25, 0.25]]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # bspline(2) lives on [s, s + 2); s in [-1.75, -0.25] keeps the margin
        # of 1/b + both window diameters (= 8) inside [-10, 10)
        self.cfg = {"schema": "v1", "kind": "convergence",
                    "grid": {"half_extent": 10.0, "spacing": 1 / 32, "dim": 2},
                    "g": {"family": "gaussian", "sigma": 0.5, "radius": 1.0},
                    "pairs": self.PAIRS, "p": 2, "q": 2,
                    "f": {"family": "bspline", "order": 2},
                    "f_shift": _shift(self.rng, -1.75, -0.25)}
        self.cfg_path = self._write("sweep.json", self.cfg)
        self.out = self.dir / "sweep.csv"

    def commands(self):
        return [Command(["sweep", "--config", str(self.cfg_path), "--threads", "1",
                         "--out", str(self.out)], self.out)]

    def sweep_schedule(self):
        c = self.cfg
        grid = gf.Grid(c["grid"]["half_extent"], c["grid"]["spacing"], c["grid"]["dim"])
        g = gf.WindowSpec.from_json(c["g"])
        return gf.SweepSchedule(grid=grid, g_spec=g, gamma_spec=g,
                                pairs=tuple(map(tuple, c["pairs"])),
                                pq=gf.ExponentPair.of(c["p"], c["q"]),
                                f_spec=gf.WindowSpec.from_json(c["f"]),
                                f_shift=(c["f_shift"],) * grid.dim)

    def reference(self):
        self.report = gf.convergence_sweep(self.sweep_schedule(), threads=1)

    def check(self, results):
        errs = _base_failures(results)
        if errs:
            return errs
        summary = json.loads(results[0].stdout.strip().splitlines()[-1])
        if summary.get("passed") is not True:
            errs.append(f"sweep: summary {summary} is not passed")
        lines = self.out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(self.report.records):
            return errs + [f"sweep: {len(rows)} rows, expected {len(self.report.records)}"]
        for j, col in enumerate(header):
            if col == "wall_time":  # a timing the program writes into its data
                continue
            want = [getattr(r, col) for r in self.report.records]
            scale = max((abs(v) for v in want if v is not None), default=0.0)
            for row, v in zip(rows, want):
                cell = row[j]
                ok = (cell == "") if v is None else (
                    cell != "" and math.isclose(float(cell), v, rel_tol=1e-10, abs_tol=1e-10 * scale))
                if not ok:
                    errs.append(f"sweep: column {col} has {cell!r}, library gives {v!r}")
        return errs

    def counts(self):
        sched = self.sweep_schedule()
        g, _ = sched.sample_windows()
        return {"grid.samples": sched.grid.size,
                "walnut.members": sum(_members(gf.GaborSystem(g, g, a, b)) for a, b in sched.pairs)}


class Janssen1D(Workload):
    name = "janssen-1d"
    why = ("gabframes apply --method janssen at N=32768, L=64, N=8: (2L+1) x N "
           "coefficient and synthesis matrices plus a 32,768-row CSV write")

    L, N = 64, 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = _system_config(16.0, 1 / 1024, {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
                                  0.5, 0.5, {"family": "bspline", "order": 2},
                                  _shift(self.rng, -3.0, 1.0))
        self.cfg_path = self._write("system.json", self.cfg)
        self.out = self.dir / "janssen.csv"

    def commands(self):
        return [Command(["apply", "--config", str(self.cfg_path), "--method", "janssen",
                         "--L", str(self.L), "--N", str(self.N), "--out", str(self.out)], self.out)]

    def reference(self):
        sys_, f = _system(self.cfg)
        self.x = sys_.grid.axis_coords()
        self.want = gf.walnut_apply(f, sys_).values

    def check(self, results):
        errs = _base_failures(results)
        if errs:
            return errs
        data = _load_csv(self.out)
        if data.shape != (len(self.x), 3) or not np.array_equal(data[:, 0], self.x):
            return [f"janssen: output has shape {data.shape} or x column off the grid"]
        err = np.linalg.norm(data[:, 1] + 1j * data[:, 2] - self.want) / np.linalg.norm(self.want)
        # acceptance criterion 1: janssen agrees with walnut to 1e-6 relative l2
        return [f"janssen: relative l2 error {err:.3e} against walnut_apply"] if err > 1e-6 else []

    def counts(self):
        sys_, _ = _system(self.cfg)
        d = sys_.grid.dim
        return {"grid.samples": sys_.grid.size,
                "janssen.terms": ((2 * self.L + 1) * (2 * self.N + 1)) ** d}


class DeskMix(Workload):
    name = "desk-mix"
    why = ("one pass over the README desk-scale commands (norm, stft, apply, bounds, "
           "wexler-raz, counterexample, selftest): import and per-command fixed cost")

    DEPTHS = (1, 2, 3)
    WR_L, WR_N = 16, 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.g = {"family": "gaussian", "sigma": 1.0, "radius": 3.0}
        self.cfg = _system_config(4.0, 1 / 32, self.g, 0.5, 0.5,
                                  {"family": "bspline", "order": 2},
                                  _shift(self.rng, -2.0, 0.0))
        self.cfg_path = self._write("system.json", self.cfg)
        self.window_path = self._write("window.json", self.g)
        self.outs = {k: self.dir / f"{k}.csv" for k in ("lattice", "out", "witness")}

    def commands(self):
        cfg, o = str(self.cfg_path), self.outs
        return [
            Command(["norm", "--window", str(self.window_path), "--p", "2", "--q", "inf"]),
            Command(["stft", "--config", cfg, "--out", str(o["lattice"])], o["lattice"]),
            Command(["apply", "--config", cfg, "--method", "walnut", "--out", str(o["out"])], o["out"]),
            Command(["bounds", "--config", cfg]),
            Command(["wexler-raz", "--system", cfg, "--L", str(self.WR_L), "--N", str(self.WR_N),
                     "--tol", "1e-10"]),
            Command(["counterexample", "--depths", ",".join(map(str, self.DEPTHS)), "--q", "inf",
                     "--out", str(o["witness"])], o["witness"]),
            Command(["selftest"]),
        ]

    def reference(self):
        sys_, f = _system(self.cfg)
        self.want = gf.apply_frame_direct(f, sys_).values
        self.stft_check = StftCheck(self.cfg, self.rng)

    def check(self, results):
        errs = _base_failures(results)
        if errs:
            return errs
        norm, _, _, bounds, _, counter, selftest = results
        errs += self.stft_check(self.outs["lattice"])
        data = _load_csv(self.outs["out"])
        got = data[:, 1] + 1j * data[:, 2]
        if got.shape != self.want.shape or np.abs(got - self.want).max() > 1e-10 * np.abs(self.want).max():
            errs.append("apply: walnut output differs from apply_frame_direct beyond 1e-10")
        if json.loads(bounds.stdout).get("within_bound") is not True:
            errs.append(f"bounds: not within bound: {bounds.stdout.strip()}")
        if json.loads(counter.stdout.strip().splitlines()[-1]).get("passed") is not True:
            errs.append(f"counterexample: not passed: {counter.stdout.strip()}")
        checks = [json.loads(line) for line in selftest.stdout.splitlines() if line.strip()]
        if not checks or not all(c.get("passed") is True for c in checks):
            errs.append(f"selftest: not passed: {selftest.stdout.strip()}")
        if "norm" not in json.loads(norm.stdout):
            errs.append(f"norm: no value in {norm.stdout.strip()}")
        return errs

    def counts(self):
        sys_, _ = _system(self.cfg)
        n = sys_.grid.size
        # norm, stft, apply, bounds, wexler-raz and selftest each sample one
        # desk-scale grid (selftest's is Grid(4, 1/32) too); counterexample
        # samples [-2, 2) at spacing 4^-k / 8 per depth
        samples = 6 * n + sum(round(4 * 8 * 4 ** k) for k in self.DEPTHS)
        return {"grid.samples": samples,
                "operators.lattice_terms": _lattice_terms(sys_),
                "walnut.members": 2 * _members(sys_),  # apply and bounds
                "janssen.terms": (2 * self.WR_L + 1) * (2 * self.WR_N + 1)}


WORKLOADS = {w.name: w for w in (Stft1D, Sweep2D, Janssen1D, DeskMix)}
