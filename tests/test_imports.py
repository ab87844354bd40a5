"""The package namespace loads submodules on first use, and each CLI
subcommand imports only the library modules it runs; exits before any
computation (--version, --help, usage and config-shape errors) load no numpy.

The import sets are read in fresh interpreters, since this one has already
loaded everything.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gabframes as gf

ROOT = Path(__file__).resolve().parent.parent

NAMES = {
    "amalgam": ["Exponent", "ExponentPair", "amalgam_norm", "conjugate_exponent",
                "cube_norms", "holder_bound", "lp_norm_on_cube", "wiener_norm"],
    "errors": ["CommensurabilityError", "ConfigError", "DegenerateWindowPairError",
               "GridMismatchError", "ResolutionError", "UnsupportedDimensionError"],
    "experiments": ["CounterexampleReport", "SweepReport", "SweepSchedule",
                    "convergence_sweep", "counterexample_run", "diagonal_decay_sweep",
                    "opnorm_sweep", "riemann_uniformity"],
    "grid": ["Grid", "GridFunction", "inner_product", "l2_norm", "modulate",
             "mt_commutation_phase", "tf_shift", "translate", "write_csv"],
    "janssen": ["JanssenLattice", "WexlerRazResult", "janssen_apply", "janssen_coefficients",
                "wexler_raz_check"],
    "operators": ["CoefficientLattice", "GaborSystem", "apply_frame_direct",
                  "gabor_coefficients", "stft"],
    "walnut": ["apply_remainder", "apply_diagonal_defect",
               "correlation_family", "correlation_fn", "diagonal_correlation", "frame_bounds",
               "operator_norm_upper_bound", "periodic_extension", "sum_translates", "tail_sum",
               "walnut_apply"],
    "windows": ["WindowSpec", "fat_cantor_intervals", "fat_cantor_measure", "sample_window",
                "window_library"],
}
SUBMODULES = ["amalgam", "errors", "experiments", "grid", "janssen", "operators", "walnut",
              "windows"]
PUBLIC = [name for names in NAMES.values() for name in names]


def test_name_counts():
    assert len(PUBLIC) == len(set(PUBLIC)) == 57
    assert sorted(NAMES) == SUBMODULES


@pytest.mark.parametrize("sub", SUBMODULES)
def test_names_resolve_to_their_definitions(sub):
    module = importlib.import_module(f"gabframes.{sub}")
    assert getattr(gf, sub) is module
    for name in NAMES[sub]:
        assert getattr(gf, name) is getattr(module, name), name
        assert vars(gf)[name] is getattr(module, name), name  # cached after first access


def test_star_import_and_dir_keep_the_names():
    namespace = {}
    exec("from gabframes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC) | set(SUBMODULES)
    assert set(PUBLIC) | set(SUBMODULES) | {"__version__"} <= set(dir(gf))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        gf.nope


# ---------------------------------------------------------------------------
# import sets in fresh interpreters

_PROBE = """
import contextlib, io, json, sys
from gabframes.cli import main
codes, errs = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        codes.append(main(argv))
    errs.append(err.getvalue())
print(json.dumps({"codes": codes, "stderr": errs, "modules": sorted(sys.modules)}))
"""


def probe(cwd, *argvs):
    """Run argvs through ``main`` in one fresh interpreter: each command's exit
    code and stderr, and the interpreter's modules at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def loaded_after(cwd, *argvs):
    """The modules loaded once argvs have all run and exited 0."""
    report = probe(cwd, *argvs)
    assert report["codes"] == [0] * len(argvs), report["stderr"]
    return set(report["modules"])


def library(modules):
    return {m for m in modules if m == "gabframes" or m.startswith("gabframes.")}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    window = d / "w.json"
    window.write_text(json.dumps({"family": "indicator_cube", "side": 1.0}))
    system = d / "sys.json"
    system.write_text(json.dumps({
        "schema": "v1",
        "grid": {"half_extent": 4.0, "spacing": 1 / 32},
        "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "a": 0.5, "b": 0.5,
        "f": {"family": "bspline", "order": 2},
    }))
    sweep = d / "sweep.json"
    sweep.write_text(json.dumps({
        "schema": "v1", "kind": "convergence",
        "grid": {"half_extent": 64.0, "spacing": 1 / 32},
        "g": {"family": "bspline", "order": 2},
        "f": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "pairs": [[2.0 ** -j, 2.0 ** -j] for j in range(1, 5)],
    }))
    return d, str(window), str(system), str(sweep)


FRONT_END = {"gabframes", "gabframes.cli", "gabframes.errors"}


def test_version_loads_only_the_cli(tmp_path):
    loaded = loaded_after(tmp_path, ["--version"])
    assert library(loaded) == FRONT_END
    assert "numpy" not in loaded


DESK = {
    "schema": "v1",
    "grid": {"half_extent": 4.0, "spacing": 1 / 32},
    "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
    "a": 0.5, "b": 0.5,
}


# argv, exit code, and the error type and message start of the JSON on stderr
# (None: argparse's own output); file names are relative to the probe's cwd
@pytest.mark.parametrize("argv,code,error", [
    (["--help"], 0, None),
    (["stft", "--help"], 0, None),
    (["transform"], 1, None),
    (["stft", "--config", "absent.json"], 1,
     ("ConfigError", "cannot read config 'absent.json': [Errno 2]")),
    (["bounds", "--config", "invalid.json"], 1,
     ("ConfigError", "config 'invalid.json' is not valid JSON: ")),
    (["apply", "--config", "schema.json"], 1,
     ("ConfigError", "config 'schema.json' must declare \"schema\": \"v1\"")),
    (["wexler-raz", "--system", "unknown-key.json"], 1,
     ("ConfigError", "unknown system config key(s) ['gama']; expected some of")),
    (["stft", "--config", "no-a.json"], 1,
     ("ConfigError", "config is missing lattice parameter 'a'")),
], ids=["help", "stft-help", "unknown-command", "missing-file", "invalid-json",
        "wrong-schema", "unknown-key", "missing-a"])
def test_front_end_exits_load_no_numpy(tmp_path, argv, code, error):
    (tmp_path / "invalid.json").write_text("{\"schema\": ")
    (tmp_path / "schema.json").write_text(json.dumps({**DESK, "schema": "v0"}))
    (tmp_path / "unknown-key.json").write_text(json.dumps({**DESK, "gama": DESK["g"]}))
    (tmp_path / "no-a.json").write_text(json.dumps({k: v for k, v in DESK.items() if k != "a"}))
    report = probe(tmp_path, argv)
    assert report["codes"] == [code], report["stderr"]
    loaded = set(report["modules"])
    assert library(loaded) == FRONT_END
    assert "numpy" not in loaded
    err = report["stderr"][0]
    if error is None:
        assert err == "" if code == 0 else err.startswith("usage: gabframes")
    else:
        obj = json.loads(err)
        assert obj["error"] == error[0] and obj["message"].startswith(error[1]), obj


def test_norm_skips_the_operator_modules(configs):
    d, window, _, _ = configs
    loaded = library(loaded_after(d, ["norm", "--window", window]))
    assert {"gabframes.grid", "gabframes.windows", "gabframes.amalgam"} <= loaded
    assert not loaded & {"gabframes.operators", "gabframes.walnut", "gabframes.janssen",
                         "gabframes.experiments"}


def test_walnut_apply_skips_janssen_and_experiments(configs):
    d, _, system, _ = configs
    loaded = library(loaded_after(d, ["apply", "--config", system, "--method", "walnut"]))
    assert "gabframes.walnut" in loaded
    assert not loaded & {"gabframes.janssen", "gabframes.experiments"}


def test_no_thread_pool_for_one_thread(configs):
    d, window, system, sweep = configs
    loaded = loaded_after(
        d,
        ["--version"],
        ["norm", "--window", window],
        ["stft", "--config", system],
        *(["apply", "--config", system, "--method", m] for m in ("direct", "walnut", "janssen")),
        ["bounds", "--config", system],
        ["wexler-raz", "--system", system],
        ["sweep", "--config", sweep],
        ["sweep", "--config", sweep, "--threads", "1"],
        ["counterexample", "--depths", "1,2"],
        ["counterexample", "--depths", "1,2", "--threads", "1"],
        ["selftest"],
    )
    assert "gabframes.experiments" in loaded
    assert "concurrent.futures" not in loaded


def test_thread_pool_for_two_threads(configs):
    d = configs[0]
    assert "concurrent.futures" in loaded_after(
        d, ["counterexample", "--depths", "1,2", "--threads", "2"])
