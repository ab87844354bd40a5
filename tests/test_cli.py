import json
import math

import numpy as np
import pytest

from gabframes import (
    GaborSystem,
    Grid,
    WindowSpec,
    gabor_coefficients,
    sample_window,
    translate,
)
from gabframes.cli import _shift_from, main
from gabframes.errors import ConfigError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def indicator_spec(tmp_path):
    return write_json(tmp_path / "w.json", {"family": "indicator_cube", "side": 1.0})


@pytest.fixture
def apply_config(tmp_path):
    return write_json(tmp_path / "apply.json", {
        "schema": "v1",
        "grid": {"half_extent": 4.0, "spacing": 1 / 32},
        "g": {"family": "indicator_cube", "side": 1.0},
        "a": 0.25,
        "b": 0.5,
        "f": {"family": "gaussian", "sigma": 1.0, "radius": 2.0},
    })


@pytest.fixture
def gaussian_config(tmp_path):
    return write_json(tmp_path / "gauss.json", {
        "schema": "v1",
        "grid": {"half_extent": 4.0, "spacing": 1 / 32},
        "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "a": 0.5,
        "b": 0.5,
        "f": {"family": "bspline", "order": 2},
    })


class TestNorm:
    def test_indicator_is_one_for_any_exponents(self, capsys, indicator_spec):
        code, out, _ = run_cli(capsys, "norm", "--window", indicator_spec,
                               "--p", "3", "--q", "7")
        assert code == 0
        assert json.loads(out) == {"norm": 1.0}

    def test_infinite_exponents_parse(self, capsys, indicator_spec):
        code, out, _ = run_cli(capsys, "norm", "--window", indicator_spec,
                               "--p", "inf", "--q", "1")
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(1.0)

    def test_missing_window_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "norm", "--window", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in json.loads(err)

    def test_window_that_samples_to_zero(self, capsys, tmp_path):
        # B_241 underflows to +0 on the whole default grid; the norm used to print 0.0
        spec = write_json(tmp_path / "w.json", {"family": "bspline", "order": 241})
        code, out, err = run_cli(capsys, "norm", "--window", spec)
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "ResolutionError"
        assert "'order': 241}" in obj["message"] and "spacing=1/32" in obj["message"]


class TestApply:
    def parse_csv(self, text):
        lines = text.strip().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return lines[0], rows

    def test_direct_and_walnut_agree(self, capsys, tmp_path, apply_config):
        out_d = tmp_path / "direct.csv"
        out_w = tmp_path / "walnut.csv"
        assert main(["apply", "--config", apply_config, "--method", "direct",
                     "--out", str(out_d)]) == 0
        assert main(["apply", "--config", apply_config, "--method", "walnut",
                     "--out", str(out_w)]) == 0
        hd, rd = self.parse_csv(out_d.read_text())
        hw, rw = self.parse_csv(out_w.read_text())
        assert hd == hw  # byte-identical headers
        assert np.allclose(rd, rw, atol=1e-10)

    def test_janssen_method(self, capsys, tmp_path, gaussian_config):
        out = tmp_path / "janssen.csv"
        assert main(["apply", "--config", gaussian_config, "--method", "janssen",
                     "--L", "6", "--N", "6", "--out", str(out)]) == 0
        header, rows = self.parse_csv(out.read_text())
        assert header == "x_1,re,im"
        assert len(rows) == 256

    def test_reruns_are_byte_identical(self, tmp_path, apply_config, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["apply", "--config", apply_config, "--method", "walnut", "--out", str(out1)])
        main(["apply", "--config", apply_config, "--method", "walnut", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        # timestamps are confined to the sidecar
        assert (tmp_path / "a.csv.meta.json").exists()

    def test_schema_required(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"grid": {}})
        code, _, err = run_cli(capsys, "apply", "--config", cfg)
        assert code == 1
        assert "schema" in json.loads(err)["message"]


class TestStft:
    def test_lattice_csv(self, capsys, apply_config):
        code, out, _ = run_cli(capsys, "stft", "--config", apply_config)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,re,im"
        # full Nyquist period: 64 frequency indices per time index
        n_vals = {int(line.split(",")[0]) for line in lines[1:]}
        m_vals = {int(line.split(",")[1]) for line in lines[1:]}
        assert len(m_vals) == 64
        assert max(n_vals) >= 16

    def test_2d_lattice_matches_per_entry_formatting(self, tmp_path):
        cfg = write_json(tmp_path / "sys2d.json", {
            "schema": "v1",
            "grid": {"half_extent": 1.0, "spacing": 1 / 16, "dim": 2},
            "g": {"family": "gaussian", "sigma": 0.3, "radius": 0.5},
            "a": 0.5, "b": 1.0,
            "f": {"family": "bspline", "order": 2},
            "f_shift": -0.5,
        })
        out = tmp_path / "lattice.csv"
        assert main(["stft", "--config", cfg, "--out", str(out)]) == 0
        grid = Grid(1.0, 1 / 16, dim=2)
        g = sample_window(WindowSpec.gaussian(0.3, 0.5), grid)
        f = translate(sample_window(WindowSpec.bspline(2), grid), [-0.5, -0.5])
        lat = gabor_coefficients(f, GaborSystem(g, g, 0.5, 1.0))
        want = ["n_1,n_2,m_1,m_2,re,im\n"]
        for pos in np.ndindex(lat.entries.shape):
            labels = [str(lat.time_indices[i]) for i in pos[:2]]
            labels += [str(lat.freq_indices[i]) for i in pos[2:]]
            v = lat.entries[pos]
            want.append(",".join(labels) + f",{v.real:.17g},{v.imag:.17g}\n")
        assert out.read_text() == "".join(want)


class TestBounds:
    def test_payload(self, capsys, apply_config):
        code, out, _ = run_cli(capsys, "bounds", "--config", apply_config)
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == 0.25 and payload["b"] == 0.5
        assert payload["tail_sum"] == 0.0
        assert payload["diag_dev"] == 0.0
        assert payload["within_bound"] is True
        assert payload["norm_bound"] == pytest.approx(
            0.25 * 5 * 3, rel=1e-14)  # a (1 + 1/a)(2 + 2b) * 1 * 1


class TestSweep:
    def sweep_config(self, tmp_path, pairs):
        return write_json(tmp_path / "sweep.json", {
            "schema": "v1",
            "kind": "convergence",
            "grid": {"half_extent": 64.0, "spacing": 1 / 32},
            "g": {"family": "bspline", "order": 2},
            "f": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
            "pairs": pairs,
            "p": 2, "q": 2,
        })

    def test_passing_trend(self, capsys, tmp_path):
        cfg = self.sweep_config(tmp_path, [[2.0 ** -j, 2.0 ** -j] for j in range(1, 5)])
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["passed"] is True
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("a,b,err_f,diag_dev,tail,norm_bound")

    def test_stalled_trend_exits_two(self, capsys, tmp_path):
        # two nearby pairs cannot shrink the error fivefold
        cfg = self.sweep_config(tmp_path, [[0.5, 0.5], [0.4375, 0.4]])
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert json.loads(err)["error"] == "contract"

    def test_threads_agree(self, capsys, tmp_path):
        cfg = self.sweep_config(tmp_path, [[2.0 ** -j, 2.0 ** -j] for j in range(1, 4)])
        csv1, csv8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["sweep", "--config", cfg, "--threads", "1", "--out", str(csv1)]) == 0
        assert main(["sweep", "--config", cfg, "--threads", "8", "--out", str(csv8)]) == 0
        assert csv1.read_bytes() == csv8.read_bytes()

    def test_threads_below_one_rejected(self, capsys, tmp_path):
        cfg = self.sweep_config(tmp_path, [[2.0 ** -j, 2.0 ** -j] for j in range(1, 4)])
        for threads in ("0", "-4"):
            code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--threads", threads)
            assert code == 1
            assert out == ""
            obj = json.loads(err)
            assert obj["error"] == "ConfigError" and "threads" in obj["message"]

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        cfg = self.sweep_config(tmp_path, [[2.0 ** -j, 2.0 ** -j] for j in range(1, 4)])
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(csv_a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(csv_b)]) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert "wall_time" not in csv_a.read_text().splitlines()[0]
        # per-pair timings live in the sidecar, one per pair
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert len(meta["wall_time"]) == 3
        assert all(t >= 0 for t in meta["wall_time"])


class TestWexlerRazCommand:
    def system_config(self, tmp_path, a, b):
        return write_json(tmp_path / f"sys_{a}_{b}.json", {
            "schema": "v1",
            "grid": {"half_extent": 4.0, "spacing": 1 / 32},
            "g": {"family": "indicator_cube", "side": 1.0},
            "a": a, "b": b,
        })

    def test_integer_lattice_passes(self, capsys, tmp_path):
        cfg = self.system_config(tmp_path, 1.0, 1.0)
        code, out, _ = run_cli(capsys, "wexler-raz", "--system", cfg,
                               "--L", "16", "--N", "4", "--tol", "1e-10")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_biorthogonal"] is True
        assert payload["max_offdiag"] <= 1e-10
        assert payload["diag"]["re"] == pytest.approx(1.0)

    def test_half_integer_lattice_fails(self, capsys, tmp_path):
        cfg = self.system_config(tmp_path, 0.5, 0.5)
        code, out, _ = run_cli(capsys, "wexler-raz", "--system", cfg,
                               "--L", "16", "--N", "4", "--tol", "1e-10")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_biorthogonal"] is False
        assert payload["max_offdiag"] >= 0.1


class TestCounterexampleCommand:
    def test_table_and_exit(self, capsys, tmp_path):
        out_csv = tmp_path / "witness.csv"
        code, out, _ = run_cli(capsys, "counterexample", "--depths", "1,2",
                               "--q", "inf", "--out", str(out_csv))
        assert code == 0
        assert json.loads(out)["passed"] is True
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "depth,spacing,witness_a,witness_norm,contrast_a,contrast_norm"
        assert len(lines) == 3

    def test_empty_depths_rejected(self, capsys):
        code, _, err = run_cli(capsys, "counterexample", "--depths", ",")
        assert code == 1

    def test_threads_below_one_rejected(self, capsys):
        # used to exit 0 and run serially
        for threads in ("0", "-4"):
            code, out, err = run_cli(capsys, "counterexample", "--depths", "1,2",
                                     "--q", "inf", "--threads", threads)
            assert code == 1
            assert out == ""
            obj = json.loads(err)
            assert obj["error"] == "ConfigError" and "threads" in obj["message"]


class TestSelftest:
    def test_green(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert {rec["check"] for rec in lines} == {
            "exact_identity_regime", "wexler_raz_delta_lattice", "walnut_bound_constant"}
        assert all(rec["passed"] for rec in lines)


class TestMalformedWindowSpec:
    """Every window spec is validated into a typed ConfigError, never a traceback."""

    BAD = {"family": "gaussian", "sigma": "x", "radius": 3}

    def assert_config_error(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert "Traceback" not in err

    @staticmethod
    def system_config(tmp_path, gamma):
        return write_json(tmp_path / "sys.json", {
            "schema": "v1",
            "grid": {"half_extent": 4.0, "spacing": 1 / 32},
            "g": {"family": "indicator_cube", "side": 1.0},
            "gamma": gamma,
            "a": 0.5, "b": 0.5,
            "f": {"family": "bspline", "order": 2},
        })

    @pytest.mark.parametrize("command,flag", [
        ("stft", "--config"), ("apply", "--config"), ("bounds", "--config"),
        ("wexler-raz", "--system")])
    def test_gamma_in_system_config(self, capsys, tmp_path, command, flag):
        self.assert_config_error(capsys, command, flag, self.system_config(tmp_path, self.BAD))

    @pytest.mark.parametrize("gamma", [{}, 0], ids=["empty", "zero"])
    @pytest.mark.parametrize("command,flag", [
        ("stft", "--config"), ("apply", "--config"), ("bounds", "--config"),
        ("wexler-raz", "--system")])
    def test_falsy_gamma_is_not_omitted(self, capsys, tmp_path, command, flag, gamma):
        # only an absent "gamma" key means gamma = g, as in a sweep config
        self.assert_config_error(capsys, command, flag, self.system_config(tmp_path, gamma))

    def test_f_in_sweep_config(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "schema": "v1", "kind": "convergence",
            "grid": {"half_extent": 64.0, "spacing": 1 / 32},
            "g": {"family": "bspline", "order": 2},
            "f": self.BAD,
            "pairs": [[0.5, 0.5], [0.25, 0.25]],
        })
        self.assert_config_error(capsys, "sweep", "--config", cfg)

    def test_norm_window_file(self, capsys, tmp_path):
        spec = write_json(tmp_path / "w.json", self.BAD)
        self.assert_config_error(capsys, "norm", "--window", spec)


@pytest.mark.parametrize("argv", [
    ["stft"], ["apply", "--method", "direct"], ["apply", "--method", "walnut"],
    ["apply", "--method", "janssen"], ["bounds"]])
def test_freq_radius_is_rejected(capsys, tmp_path, argv):
    # a truncated frequency band changed only the direct form's output;
    # every system now sums one full period, so the key fails loudly
    path = write_json(tmp_path / "sys.json", {
        "schema": "v1",
        "grid": {"half_extent": 4.0, "spacing": 1 / 32},
        "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "a": 0.5,
        "b": 0.5,
        "f": {"family": "bspline", "order": 2},
        "freq_radius": 2,
    })
    code, out, err = run_cli(capsys, argv[0], "--config", path, *argv[1:])
    assert code == 1
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ConfigError" and "freq_radius" in obj["message"]


def test_memory_error_is_a_json_error(capsys, monkeypatch, apply_config):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the frame operator")

    monkeypatch.setattr("gabframes.walnut.walnut_apply", exhausted)
    code, _, err = run_cli(capsys, "apply", "--config", apply_config, "--method", "walnut")
    assert code == 1
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "cannot allocate the frame operator"}


def test_direct_form_past_physical_memory_is_a_json_error(capsys, tmp_path):
    # 262144 samples and frequency period 524288: terabytes of phase matrices
    path = write_json(tmp_path / "huge.json", {
        "schema": "v1",
        "grid": {"half_extent": 16.0, "spacing": 1 / 8192},
        "g": {"family": "indicator_cube", "side": 1.0},
        "a": 0.5,
        "b": 1 / 64,
        "f": {"family": "gaussian", "sigma": 1.0, "radius": 2.0},
    })
    code, out, err = run_cli(capsys, "apply", "--config", path, "--method", "direct")
    assert code == 1
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ResolutionError" and "physical memory" in obj["message"]


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_options_only_where_read(capsys, indicator_spec, apply_config):
    # --threads belongs to sweep and counterexample, --seed to selftest
    assert main(["norm", "--window", indicator_spec, "--seed", "1"]) == 1
    assert main(["stft", "--config", apply_config, "--threads", "2"]) == 1
    assert main(["selftest", "--seed", "1"]) == 0
    assert main(["counterexample", "--depths", "1", "--threads", "2"]) == 0


class TestUnknownConfigKeys:
    """A key no command reads fails with a ConfigError before any work starts."""

    DESK = {
        "schema": "v1",
        "grid": {"half_extent": 4.0, "spacing": 1 / 32},
        "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "a": 0.5,
        "b": 0.5,
        "f": {"family": "bspline", "order": 2},
    }

    def assert_rejected(self, capsys, key, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "ConfigError" and repr(key) in obj["message"]

    @pytest.mark.parametrize("command,flag", [
        ("stft", "--config"), ("apply", "--config"), ("bounds", "--config"),
        ("wexler-raz", "--system")])
    def test_misspelt_gamma(self, capsys, tmp_path, command, flag):
        # "gama" used to be ignored, so the run went on with gamma = g
        cfg = write_json(tmp_path / "sys.json", {
            **self.DESK, "gama": {"family": "indicator_cube", "side": 1.0}})
        self.assert_rejected(capsys, "gama", command, flag, cfg)

    def test_grid_key(self, capsys, tmp_path):
        # "dims" used to leave the grid one-dimensional
        cfg = write_json(tmp_path / "sys.json", {
            **self.DESK, "grid": {"half_extent": 4.0, "spacing": 1 / 32, "dims": 2}})
        self.assert_rejected(capsys, "dims", "bounds", "--config", cfg)

    def test_sweep_key(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "schema": "v1", "kind": "convergence",
            "grid": {"half_extent": 64.0, "spacing": 1 / 32},
            "g": {"family": "bspline", "order": 2},
            "f": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
            "pairs": [[0.5, 0.5], [0.25, 0.25]],
            "p": 2, "qq": 1,
        })
        self.assert_rejected(capsys, "qq", "sweep", "--config", cfg)

    def test_every_read_key_is_accepted(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sys.json", {
            **self.DESK, "grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": 1},
            "gamma": self.DESK["g"], "f_shift": -1.0})
        for argv in (["stft", "--config"], ["apply", "--config"], ["bounds", "--config"],
                     ["wexler-raz", "--system"]):
            code, _, err = run_cli(capsys, *argv, cfg)
            assert code == 0, err


class TestConfigValidation:
    """Malformed configs and lattice lengths fail with exit 1 and a JSON error."""

    SWEEP = {
        "schema": "v1", "kind": "convergence",
        "grid": {"half_extent": 64.0, "spacing": 1 / 32},
        "g": {"family": "bspline", "order": 2},
        "f": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
        "pairs": [[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]],
    }

    def assert_json_error(self, capsys, error, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("text", ["{\"schema\": ", "[1, 2]"], ids=["invalid", "array"])
    def test_config_not_a_json_object(self, capsys, tmp_path, text):
        path = tmp_path / "sys.json"
        path.write_text(text)
        self.assert_json_error(capsys, "ConfigError", "bounds", "--config", str(path))

    @pytest.mark.parametrize("change", [
        {"grid": 4.0},
        {"grid": {"half_extent": 4.0}},
        {"g": None},
        {"a": None},
        {"b": None},
    ], ids=["grid-not-object", "grid-incomplete", "no-g", "no-a", "no-b"])
    def test_system_config(self, capsys, tmp_path, change):
        cfg = {k: v for k, v in {**TestUnknownConfigKeys.DESK, **change}.items() if v is not None}
        path = write_json(tmp_path / "sys.json", cfg)
        self.assert_json_error(capsys, "ConfigError", "bounds", "--config", path)

    @pytest.mark.parametrize("change,error", [
        ({"kind": "spectral"}, "ConfigError"),
        ({"pairs": {"a": 0.5, "b": 0.5}}, "ConfigError"),
        ({"pairs": [[0.5, 0]]}, "ConfigError"),
        # rejected before any window is sampled, not by the margin check
        ({"pairs": [[-0.5, 0.5]]}, "CommensurabilityError"),
    ], ids=["kind", "pairs-not-list", "zero-b", "negative-a"])
    def test_sweep_config(self, capsys, tmp_path, change, error):
        path = write_json(tmp_path / "sweep.json", {**self.SWEEP, **change})
        self.assert_json_error(capsys, error, "sweep", "--config", path)

    @pytest.mark.parametrize("command,change,key", [
        ("sweep", {"pairs": [1.0, 0.5]}, "pairs"),
        ("bounds", {"grid": {"half_extent": None, "spacing": 1 / 32}}, "half_extent"),
        ("apply", {"a": None}, "a"),
    ], ids=["flat-pairs", "null-half-extent", "null-a"])
    def test_wrong_json_type_names_its_key(self, capsys, tmp_path, command, change, key):
        # a value of the wrong JSON type used to escape as a TypeError traceback
        base = self.SWEEP if command == "sweep" else TestUnknownConfigKeys.DESK
        path = write_json(tmp_path / "cfg.json", {**base, **change})
        code, _, err = run_cli(capsys, command, "--config", path)
        assert code == 1
        obj = json.loads(err)
        assert obj["error"] == "ConfigError" and repr(key) in obj["message"]

    @pytest.mark.parametrize("change", [{"a": 1e-12}, {"b": 1e12}], ids=["tiny-a", "huge-b"])
    def test_lattice_step_below_one_sample(self, capsys, tmp_path, change):
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, **change})
        for argv in (["bounds", "--config"], ["stft", "--config"], ["wexler-raz", "--system"]):
            self.assert_json_error(capsys, "CommensurabilityError", *argv, path)

    @pytest.mark.parametrize("change,error", [
        ({"a": math.inf}, "CommensurabilityError"),
        ({"f_shift": math.inf}, "CommensurabilityError"),
        ({"grid": {"half_extent": math.inf, "spacing": 1 / 32}}, "ValueError"),
    ], ids=["a", "f_shift", "half_extent"])
    def test_infinite_value(self, capsys, tmp_path, change, error):
        # JSON's Infinity used to escape as an OverflowError traceback
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, **change})
        self.assert_json_error(capsys, error, "apply", "--config", path)

    def test_scalar_f_shift_in_sweep(self, capsys, tmp_path):
        # a scalar shift moves every axis, as the list form does
        csvs = []
        for i, shift in enumerate((-1.0, [-1.0], None)):
            cfg = dict(self.SWEEP) if shift is None else {**self.SWEEP, "f_shift": shift}
            out = tmp_path / f"{i}.csv"
            code, _, err = run_cli(capsys, "sweep", "--config",
                                   write_json(tmp_path / "sweep.json", cfg), "--out", str(out))
            assert code == 0, err
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] != csvs[2]

    @pytest.mark.parametrize("key", ["a", "f_shift"])
    def test_integer_beyond_float_range(self, capsys, tmp_path, key):
        # a JSON integer float() cannot hold used to escape as an OverflowError traceback
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, key: 10 ** 400})
        self.assert_json_error(capsys, "ConfigError", "apply", "--config", path)

    @pytest.mark.parametrize("shift", [{"0.5": "ignored"}, True], ids=["dict", "bool"])
    def test_non_numeric_f_shift(self, capsys, tmp_path, shift):
        # both used to run, as the shift 0.5 and the shift 1
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, "f_shift": shift})
        self.assert_json_error(capsys, "ConfigError", "apply", "--config", path)


@pytest.mark.parametrize("shift,dim,want", [
    (0.5, 2, (0.5, 0.5)),
    (2, 1, (2.0,)),
    ([1, -0.5], 2, (1.0, -0.5)),
    (None, 1, None),
], ids=["float", "int", "list", "absent"])
def test_f_shift_parsing(shift, dim, want):
    # a JSON number repeats over the axes and a list gives one per axis; the
    # axis count is checked later, by translate
    assert _shift_from({} if shift is None else {"f_shift": shift}, dim) == want


@pytest.mark.parametrize("shift,kind", [
    ("abc", "str"),
    ("1.5", "str"),
    (True, "bool"),
    ([1, False], "bool"),
    ({"x": 1}, "dict"),
    ({"1": 0}, "dict"),
    ({}, "dict"),
    ([[1]], "list"),
], ids=["string", "numeric-string", "bool", "bool-in-list", "dict", "numeric-key-dict",
        "empty-dict", "nested-list"])
def test_bad_f_shift_names_its_key(shift, kind):
    # only a JSON number or a list of numbers is a shift; a bool is not a number
    with pytest.raises(ConfigError) as info:
        _shift_from({"f_shift": shift}, 2)
    assert str(info.value) == (f"config key 'f_shift' has a bad value {shift!r}: "
                               f"expected a number or a list of numbers, not {kind}")


def test_sweep_bound_failure_exits_two(capsys, tmp_path, monkeypatch):
    # an operator whose error is ten times the true one keeps the trend ratio
    # but breaks the multiplier/tail bound of every record
    from gabframes import experiments

    exact = experiments.walnut_apply
    monkeypatch.setattr(experiments, "walnut_apply", lambda f, sys: f + 10.0 * (exact(f, sys) - f))
    path = write_json(tmp_path / "sweep.json", TestConfigValidation.SWEEP)
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", path, "--out", str(out_csv))
    assert code == 2
    assert json.loads(out)["passed"] is True
    obj = json.loads(err)
    assert obj["error"] == "contract" and "(0.5, 0.5)" in obj["message"]
    assert len(out_csv.read_text().splitlines()) == 4  # the data is written first
