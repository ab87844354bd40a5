"""Spans around the library's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces each traced function at every ``gabframes``
module that binds it (``experiments.fold_to_cell`` as well as
``walnut.fold_to_cell``), so calls between modules are seen too; ``restore``
puts the originals back.  Spans stay in memory until the run writes them.
A function that no longer exists is reported as absent, with zero calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# layer -> traced functions, named as in the package's own modules.  Every
# layer's self time should move job_s.p50 on the workloads that run it;
# operators and janssen also move peak_rss_mb (their dense phase matrices),
# and cli.import_s moves setup_s.
LAYERS = {
    "cli": ["main"],
    "windows": ["sample_window"],
    "grid": ["shift_array", "write_csv", "inner_product"],
    "operators": ["GaborSystem.__init__", "gabor_coefficients"],
    "walnut": ["fold_to_cell", "correlation_family", "periodic_extension", "walnut_apply",
               "diagonal_correlation", "tail_sum"],
    "janssen": ["janssen_coefficients", "janssen_apply", "wexler_raz_check"],
    "amalgam": ["amalgam_norm", "cube_norms"],
    "experiments": ["convergence_sweep", "counterexample_run"],
}
FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        # span: [job, name, parent index or None, start, end, error]
        self.spans: list[list] = []
        self.job = 0
        self.absent: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [tracer.job, name, stack[-1] if stack else None, time.perf_counter(), None, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return traced

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "gabframes" or k.startswith("gabframes.")]
        self.absent = []
        for qual in FUNCTIONS:
            layer, _, attr = qual.partition(".")
            owner = importlib.import_module(f"gabframes.{layer}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = None if owner is None else getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(qual)
                continue
            traced = self._wrap(qual, fn)
            if path:  # a method: patch the class once
                self._patch(owner, leaf, traced)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, traced)

    def _patch(self, obj, key, new) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def restore(self) -> None:
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)

    def job_stats(self, job: int) -> dict[str, list]:
        """name -> [self seconds, calls, errors] over the spans of one job.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = defaultdict(float)
        for i, (j, _, parent, t0, t1, _) in enumerate(self.spans):
            if j == job and parent is not None:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0.0, 0, 0])
        for i, (j, name, _, t0, t1, err) in enumerate(self.spans):
            if j == job:
                s = stats[name]
                s[0] += (t1 - t0) - child[i]
                s[1] += 1
                s[2] += int(err)
        return stats

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for i, (job, name, parent, t0, t1, err) in enumerate(self.spans):
                fp.write(json.dumps({"job": job, "id": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "error": err}) + "\n")
