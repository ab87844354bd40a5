"""Benchmark of the gabframes command line, end to end and layer by layer.

    python3 perfbench/run.py --workload stft-1d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the CLI runs as ``python -m gabframes.cli``.  The loop is closed:
one client, one job at a time.  A job is the workload's list of CLI commands.

``--trace 0`` runs every job as subprocesses and reports the end-to-end
metrics: ``setup_s`` (median wall time of ``gabframes --version``, i.e.
interpreter start, package import and parser build, sampled once before
each job), ``job_s.p50`` (median job time, spawn to exit with output
written) and ``peak_rss_mb`` (largest peak resident set of any job process,
from ``os.wait4``).  A run holds tens of jobs, too few to leave ten beyond
a 90th percentile, so no tail percentile is reported.  Failed jobs are
counted in ``failed`` out of ``attempted``.

``--trace 1`` drives the same argv in-process through ``gabframes.cli.main``,
alternating untraced and traced jobs, and reports per-layer self time, call
and error counts per job, exact work counts, ``cli.import_s`` and the tracing
overhead.  Spans go to ``perfbench/.work/spans-<workload>.jsonl``.

Every job's outputs are checked against references computed before timing.
The last line of standard output is the result object; lines before it
describe the environment and each metric in words.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
IMPORT_REPS = 5
THREAD_REPS = 3


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_subprocess(argv: list[str], cwd: Path):
    """Run one program to exit, with its wall time and rusage peak RSS."""
    from workloads import Result

    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss)


def run_job_subprocess(wl, cwd: Path):
    results = []
    for cmd in wl.commands():
        if cmd.out is not None:
            cmd.out.unlink(missing_ok=True)
        results.append(run_subprocess([sys.executable, "-m", "gabframes.cli", *cmd.argv], cwd))
    return results


def run_job_inprocess(wl):
    import gabframes.cli
    from workloads import Result

    results = []
    for cmd in wl.commands():
        if cmd.out is not None:
            cmd.out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gabframes.cli.main(cmd.argv)
            except Exception:  # an escaped exception is a failed command, not a crash
                code = 99
                err.write(traceback.format_exc())
        results.append(Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
    return results


def environment() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    blas_threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                blas_threads = getattr(dll, sym)()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads, "commit": commit}


def measure_import(cwd: Path) -> float:
    code = ("import time; t = time.perf_counter(); import gabframes.cli; "
            "print(repr(time.perf_counter() - t))")
    argv = [sys.executable, "-c", code]
    run_subprocess(argv, cwd)
    return statistics.median(float(run_subprocess(argv, cwd).stdout) for _ in range(IMPORT_REPS))


def closed_loop(seconds: float, step) -> None:
    """Call ``step`` back to back until ``seconds`` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        step()
        if time.perf_counter() >= deadline:
            return


def record(wl, results, report: dict) -> float:
    """Check one job's outputs into ``report``; return its wall time."""
    try:
        failures = wl.check(results)
    except (ValueError, TypeError, AttributeError, LookupError, OSError) as exc:  # malformed output
        failures = [f"{wl.name}: unreadable output: {type(exc).__name__}: {exc}"]
    report["attempted"] += 1
    report["failed"] += bool(failures)
    report["errors"] += failures
    return sum(r.wall_s for r in results)


def run_end_to_end(wl, cwd: Path, seconds: float, report: dict) -> dict:
    wl.reference()
    version = [sys.executable, "-m", "gabframes.cli", "--version"]
    run_subprocess(version, cwd)  # the first call may write bytecode caches
    record(wl, run_job_subprocess(wl, cwd), report)  # cold warm-up: checked, not timed
    setup, times, rss = [], [], []

    def step():
        # one set-up sample per job, so both medians cover the same minutes
        r = run_subprocess(version, cwd)
        if r.code != 0:
            raise RuntimeError(f"gabframes --version exited {r.code}: {r.stderr}")
        setup.append(r.wall_s)
        results = run_job_subprocess(wl, cwd)
        times.append(record(wl, results, report))
        rss.append(max(r.maxrss_kb for r in results))

    closed_loop(seconds, step)
    print(f"# {wl.name}: {len(times)} timed jobs after one warm-up")
    print(f"# failed_frac = {report['failed'] / report['attempted']!r} "
          f"({report['failed']} of {report['attempted']} jobs)")
    return {"setup_s": (statistics.median(setup), "s"),
            "job_s.p50": (statistics.median(times), "s"),
            "peak_rss_mb": (max(rss) / 1024.0, "MB")}


def threads2_speedup(schedule) -> float:
    from gabframes import convergence_sweep

    ratios = []
    for _ in range(THREAD_REPS):
        t0 = time.perf_counter()
        convergence_sweep(schedule, threads=1)
        t1 = time.perf_counter()
        convergence_sweep(schedule, threads=2)
        ratios.append((t1 - t0) / (time.perf_counter() - t1))
    return statistics.median(ratios)


def run_traced(wl, cwd: Path, seconds: float, report: dict) -> dict:
    from tracing import FUNCTIONS, LAYERS, Tracer

    import_s = measure_import(cwd) * len(wl.commands())
    wl.reference()
    tracer = Tracer()
    plain, traced, jobs = [], [], []
    last = []

    def pair():
        plain.append(record(wl, run_job_inprocess(wl), report))
        tracer.job += 1
        tracer.install()
        try:
            results = run_job_inprocess(wl)
        finally:
            tracer.restore()
        jobs.append(tracer.job_stats(tracer.job))
        traced.append(record(wl, results, report))
        last[:] = results

    record(wl, run_job_inprocess(wl), report)  # warm-up
    closed_loop(seconds, pair)
    tracer.write(WORK / f"spans-{wl.name}.jsonl")

    metrics = {"cli.import_s": (import_s, "s")}
    for name in FUNCTIONS:
        metrics[f"{name}.self_s"] = (statistics.median(j[name][0] for j in jobs), "s")
        metrics[f"{name}.calls"] = (statistics.median(j[name][1] for j in jobs), "count")
        metrics[f"{name}.errors"] = (statistics.median(j[name][2] for j in jobs), "count")
    for layer, fns in LAYERS.items():
        if layer != "cli":
            metrics[f"{layer}.self_s"] = (
                sum(metrics[f"{layer}.{fn}.self_s"][0] for fn in fns), "s")
    counts = dict.fromkeys(["grid.samples", "operators.lattice_terms", "walnut.members",
                            "janssen.terms"], 0)
    counts.update(wl.counts())
    outs = [c.out.read_bytes() for c in wl.commands() if c.out is not None]
    outs += [r.stdout.encode() for r in last]
    counts["cli.out_rows"] = sum(b.count(b"\n") for b in outs)
    counts["cli.out_bytes"] = sum(len(b) for b in outs)
    metrics.update({k: (v, "count") for k, v in counts.items()})
    schedule = wl.sweep_schedule()
    metrics["experiments.threads2_speedup"] = (
        threads2_speedup(schedule) if schedule is not None else 0.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    layer_times = [f"{layer}.self_s" for layer in LAYERS if layer != "cli"]
    top = max(layer_times + ["cli.import_s", "cli.main.self_s"], key=lambda k: metrics[k][0])
    print(f"# {wl.name}: {len(jobs)} traced and {len(plain)} untraced in-process jobs; "
          f"largest self time per job: {top} = {metrics[top][0]!r} s")
    if tracer.absent:
        print(f"# absent (reported with 0 calls): {', '.join(tracer.absent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gabframes" / "cli.py").is_file():
        print(f"error: no gabframes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    cwd = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, cwd)
        print("# env " + json.dumps(environment()))
        report = {"attempted": 0, "failed": 0, "errors": []}
        run = run_traced if args.trace else run_end_to_end
        metrics = run(wl, cwd, args.seconds, report)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    for msg in list(dict.fromkeys(report["errors"]))[:20]:
        print(f"# FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
