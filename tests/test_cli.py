import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

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
from gabframes.cli import _GRID_KEYS, _SWEEP_KEYS, _SYSTEM_KEYS, _shift_from, main
from gabframes.errors import ConfigError
from conftest import BAD_LATTICES


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

    @pytest.mark.parametrize("axis", ["--p", "--q"])
    def test_bad_exponent_names_no_axis(self, capsys, indicator_spec, axis):
        # the message said "p >= 1" for a bad q too
        code, out, err = run_cli(capsys, "norm", "--window", indicator_spec, axis, "-1")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "an exponent must be at least 1, got -1.0"}

    @pytest.mark.parametrize("depth", [14, 16])
    def test_fat_cantor_norm_settles(self, capsys, tmp_path, depth):
        spec = write_json(tmp_path / "w.json", {"family": "fat_cantor", "depth": depth})
        code, out, err = run_cli(capsys, "norm", "--window", spec)
        assert code == 0, err
        assert out == '{"norm": 0.7905694150420949}\n'

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

    def test_window_axis_past_physical_memory(self, capsys, tmp_path):
        # 2^-28 spacing: the axis arrays alone need terabytes, refused before numpy allocates them
        spec = write_json(tmp_path / "w.json", {"family": "gaussian", "sigma": 1.0, "radius": 64.0})
        code, out, err = run_cli(capsys, "norm", "--window", spec, "--half-extent", "64",
                                 "--spacing", "3.725290298461914e-09")
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "ResolutionError" and "physical memory" in obj["message"]


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

    def test_janssen_radii_default_to_eight(self, capsys, gaussian_config):
        outs = [run_cli(capsys, "apply", "--config", gaussian_config, "--method", "janssen",
                        *radii) for radii in ([], ["--L", "8", "--N", "8"], ["--L", "6"])]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] != outs[2][1]

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
        sys = GaborSystem(g, g, 0.5, 1.0)
        entries = gabor_coefficients(f, sys)
        want = ["n_1,n_2,m_1,m_2,re,im\n"]
        for pos in np.ndindex(entries.shape):
            labels = [str(sys.time_indices[i]) for i in pos[:2]]
            labels += [str(sys.freq_indices[i]) for i in pos[2:]]
            v = entries[pos]
            want.append(",".join(labels) + f",{v.real:.17g},{v.imag:.17g}\n")
        assert out.read_text() == "".join(want)

    def test_2d_lattice_bytes_are_pinned(self, capsys, tmp_path):
        # B-spline samples at h = 1/4 and a four-point FFT keep every entry
        # dyadic, so the 784 rows are exact on any machine, and the digest
        # pins the writer's format and row order byte for byte
        cfg = write_json(tmp_path / "pin.json", {
            "schema": "v1",
            "grid": {"half_extent": 1.0, "spacing": 0.25, "dim": 2},
            "g": {"family": "bspline", "order": 2},
            "a": 0.5, "b": 1.0,
            "f": {"family": "bspline", "order": 3},
            "f_shift": [-1.5, -0.75],
        })
        code, out, _ = run_cli(capsys, "stft", "--config", cfg)
        assert code == 0
        assert out.startswith("n_1,n_2,m_1,m_2,re,im\n-3,-3,-2,-2,") and out.count("\n") == 785
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "58c79b74fa89d0add5344cf6c63a4fcd726fa73ced56ab59a6b42a14999b206b")


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
    def sweep_config(self, tmp_path, pairs, **change):
        return write_json(tmp_path / "sweep.json", {
            "schema": "v1",
            "kind": "convergence",
            "grid": {"half_extent": 64.0, "spacing": 1 / 32},
            "g": {"family": "bspline", "order": 2},
            "f": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
            "pairs": pairs,
            "p": 2, "q": 2,
            **change,
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

    def test_bad_q_names_its_key_only(self, capsys, tmp_path):
        # the message said "p >= 1" for a bad q
        cfg = self.sweep_config(tmp_path, [[0.5, 0.5]], q=0.5)
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "config key 'q' has a bad value 0.5: an exponent must be at least 1, got 0.5"}

    def test_rows_name_the_snapped_lattice(self, capsys, tmp_path):
        # a = 0.5 + 1e-10 shifts by 16 samples of 1/32: the row names a = 0.5,
        # the lattice its diag_dev was measured on, not the raw 0.50000000010000001
        cfg = write_json(tmp_path / "sweep.json", {
            "schema": "v1", "kind": "opnorm",
            "grid": {"half_extent": 4.0, "spacing": 1 / 32},
            "g": {"family": "gaussian", "sigma": 1.0, "radius": 3.0},
            "pairs": [[0.5000000001, 0.5], [0.25, 0.25]]})
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out", str(out_csv))
        assert code == 0, err
        header, first = (line.split(",") for line in out_csv.read_text().splitlines()[:2])
        row = dict(zip(header, first))
        assert (row["a"], row["b"], row["diag_dev"]) == ("0.5", "0.5", "0.003734885487739259")

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
        # cells of side 3/4 split the unit steps of the indicator unevenly
        cfg = self.system_config(tmp_path, 0.75, 0.5)
        code, out, _ = run_cli(capsys, "wexler-raz", "--system", cfg, "--tol", "1e-10")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_biorthogonal"] is False
        assert payload["max_offdiag"] >= 0.1

    @pytest.mark.parametrize("radii", [["--L", "0", "--N", "0"], ["--L", "16", "--N", "4"]])
    def test_radii_choose_nothing(self, capsys, tmp_path, radii):
        # L = N = 0 passed the gaussian pair, and L = 16 read the alias of
        # c[0, 0] at l = +/-16
        cfg = write_json(tmp_path / "sys.json", TestUnknownConfigKeys.DESK)
        code, out, _ = run_cli(capsys, "wexler-raz", "--system", cfg, *radii)
        assert code == 0
        assert out == run_cli(capsys, "wexler-raz", "--system", cfg)[1]
        assert json.loads(out) == {"is_biorthogonal": False, "max_offdiag": 0.001867442731707998,
                                   "diag": {"re": 1.0000000000000002, "im": 0.0}}

    @pytest.mark.parametrize("tol,shown", [("nan", "nan"), ("-1e-10", "-1e-10"),
                                           ("-inf", "-inf")])
    def test_nan_or_negative_tol_fails(self, capsys, tmp_path, tol, shown):
        # the exact integer lattice used to print "is_biorthogonal": false and exit 0
        cfg = self.system_config(tmp_path, 1.0, 1.0)
        code, out, err = run_cli(capsys, "wexler-raz", "--system", cfg, f"--tol={tol}")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": f"tol must be a nonnegative number, got {shown}"}

    def test_zero_tol_runs(self, capsys, tmp_path):
        cfg = self.system_config(tmp_path, 1.0, 1.0)
        code, out, err = run_cli(capsys, "wexler-raz", "--system", cfg, "--tol", "0")
        assert code == 0 and not err
        assert json.loads(out)["is_biorthogonal"] is True


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
        # the library refuses an empty depth list, which used to pass with no records
        code, out, err = run_cli(capsys, "counterexample", "--depths", ",")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": "the counterexample needs at least one depth"}

    @pytest.mark.parametrize("depths,bad", [("1.5", "1.5"), ("x", "'x'"), ("2,x", "'x'")])
    def test_bad_depth_names_its_key(self, capsys, depths, bad):
        # int() of each token used to exit with a bare ValueError
        code, out, err = run_cli(capsys, "counterexample", "--depths", depths)
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "ConfigError"
        assert obj["message"].startswith(f"config key 'depths' has a bad value {bad}: ")

    def test_whole_float_depth_is_the_integer(self, capsys, tmp_path):
        # a depth reads as a config value does, so 2.0 runs as depth 2
        outs = []
        for depths in ("2.0,1", "2,1"):
            out_csv = tmp_path / "witness.csv"
            code, out, err = run_cli(capsys, "counterexample", "--depths", depths,
                                     "--out", str(out_csv))
            assert code == 0, err
            outs.append((out, out_csv.read_text()))
        assert outs[0] == outs[1]

    def test_depth_sixteen_runs(self, capsys, tmp_path):
        # the grid of 8 * 4^16 samples per unit was refused; the endpoint table is not
        out_csv = tmp_path / "witness.csv"
        code, out, err = run_cli(capsys, "counterexample", "--depths", "16", "--out", str(out_csv))
        assert code == 0 and not err
        assert json.loads(out) == {"passed": True}
        assert out_csv.read_text().splitlines()[1].startswith("16,")


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


@pytest.mark.parametrize("argv,change", [
    (["bounds", "--config"], {"a": 1e20}),
    (["wexler-raz", "--system"], {"a": 1e20}),
], ids=["cell-side", "wexler-raz-cell-side"])
def test_huge_sizes_fail_before_allocating(capsys, tmp_path, argv, change):
    # a = 1e20 used to die in np.pad folding a 3.2e21-sample member cell
    path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, **change})
    run_cli(capsys, *argv, path)  # the first run imports the modules the command reads
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ResolutionError" and "physical memory" in obj["message"]
    assert peak < 2 ** 20


def test_huge_window_box_fails_before_allocating(capsys, indicator_spec):
    # the 4-D product of 256^4 samples died with a bare MemoryError after the
    # 2-D product was built
    argv = ["norm", "--window", indicator_spec, "--dim", "4", "--spacing", "0.00390625"]
    run_cli(capsys, *argv)  # the first run imports the modules the command reads
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ResolutionError" and "physical memory" in obj["message"]
    assert peak < 2 ** 20


class TestWindowParameterTypes:
    """A whole-number float order or depth samples as the integer, and a
    bool is not a number: the number rule refuses it and names its key."""

    @pytest.mark.parametrize("spec", [
        {"family": "bspline", "order": 3},
        {"family": "fat_cantor", "depth": 2},
    ], ids=["bspline", "fat_cantor"])
    def test_whole_float_norm_window(self, capsys, tmp_path, spec):
        outs = []
        key = "order" if "order" in spec else "depth"
        for value in (float, int):
            path = write_json(tmp_path / "w.json", {**spec, key: value(spec[key])})
            code, out, err = run_cli(capsys, "norm", "--window", path)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_whole_float_order_of_f(self, capsys, tmp_path):
        outs = []
        for order in (3.0, 3):
            path = write_json(tmp_path / "sys.json", {
                **TestUnknownConfigKeys.DESK, "f": {"family": "bspline", "order": order}})
            code, out, err = run_cli(capsys, "apply", "--config", path)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("spec", [
        {"family": "bspline", "order": True},
        {"family": "indicator_cube", "side": True},
    ], ids=["order", "side"])
    def test_bool_parameter(self, capsys, tmp_path, spec):
        code, out, err = run_cli(capsys, "norm", "--window", write_json(tmp_path / "w.json", spec))
        assert code == 1
        assert out == ""
        obj = json.loads(err)
        key = next(k for k in spec if k != "family")
        assert obj == {"error": "ConfigError", "message": f"bad 'window' window spec: config key "
                       f"{key!r} has a bad value True: expected a number, not bool"}


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_options_only_where_read(capsys, indicator_spec, apply_config):
    # --threads belongs to sweep, --seed to selftest, and --out to the commands
    # that write data, which selftest does not
    assert main(["norm", "--window", indicator_spec, "--seed", "1"]) == 1
    assert main(["selftest", "--out", "selftest.txt"]) == 1
    assert main(["stft", "--config", apply_config, "--threads", "2"]) == 1
    assert main(["selftest", "--seed", "1"]) == 0
    assert main(["counterexample", "--depths", "1", "--threads", "2"]) == 1
    # --L and --N belong to apply's janssen method; other methods used to
    # ignore them and exit 0
    assert main(["apply", "--config", apply_config, "--method", "walnut",
                 "--L", "3", "--N", "99"]) == 1
    assert main(["apply", "--config", apply_config, "--method", "direct", "--N", "2"]) == 1
    assert main(["apply", "--config", apply_config, "--L", "2"]) == 1


@pytest.mark.parametrize("command,inert,error", [
    ("counterexample", ["--q", "1"], None),
    ("counterexample", ["--q", "2"], None),
    ("counterexample", ["--q", "inf"], None),
    ("wexler-raz", ["--L", "0", "--N", "0"], None),
    ("counterexample", ["--q", "0.5"], "an exponent must be at least 1, got 0.5"),
    ("counterexample", ["--q", "x"], "could not convert string to float: 'x'"),
])
def test_inert_options_change_no_byte(capsys, tmp_path, command, inert, error):
    # counterexample --q and wexler-raz --L/--N are parsed and read by nothing;
    # a --q that is no exponent is still refused before any work
    argv = [command] + (["--depths", "1,2"] if command == "counterexample" else
                        ["--system", write_json(tmp_path / "sys.json", TestUnknownConfigKeys.DESK)])
    plain, given = tmp_path / "plain.out", tmp_path / "given.out"
    want = run_cli(capsys, *argv, "--out", str(plain))
    code, out, err = run_cli(capsys, *argv, *inert, "--out", str(given))
    if error is None:
        assert want[0] == 0 and (code, out, err) == want
        assert given.read_bytes() == plain.read_bytes()
    else:
        assert (code, out) == (1, "") and not given.exists()
        assert json.loads(err) == {"error": "ValueError", "message": error}


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

    @pytest.mark.parametrize("key,value", [
        ("p", 7), ("q", 3), ("f", {"family": "gaussian", "sigma": 1.0, "radius": 3.0}),
        ("f_shift", 999)], ids=["p", "q", "f", "f_shift"])
    def test_opnorm_sweep_key(self, capsys, tmp_path, key, value):
        # an opnorm sweep measures no test function, so it reads none of
        # these; they used to be ignored, an f_shift off the grid with exit 0
        cfg = write_json(tmp_path / "sweep.json", {
            "schema": "v1", "kind": "opnorm",
            "grid": {"half_extent": 8.0, "spacing": 1 / 32},
            "g": {"family": "bspline", "order": 2},
            "pairs": [[0.5, 0.5], [0.25, 0.25]], key: value})
        self.assert_rejected(capsys, key, "sweep", "--config", cfg)

    def test_opnorm_sweep_reads_its_keys(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "schema": "v1", "kind": "opnorm",
            "grid": {"half_extent": 8.0, "spacing": 1 / 32, "dim": 1},
            "g": {"family": "bspline", "order": 2}, "gamma": {"family": "bspline", "order": 2},
            "pairs": [[2.0 ** -j, 2.0 ** -j] for j in range(1, 5)]})
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0, err
        assert json.loads(out.splitlines()[-1])["passed"]

    def test_every_read_key_is_accepted(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sys.json", {
            **self.DESK, "grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": 1},
            "gamma": self.DESK["g"], "f_shift": -1.0})
        for argv in (["stft", "--config"], ["apply", "--config"], ["bounds", "--config"],
                     ["wexler-raz", "--system"]):
            code, _, err = run_cli(capsys, *argv, cfg)
            assert code == 0, err


class TestOneLatticeRule:
    """A bad lattice (a, b) is the grid's one CommensurabilityError on every
    command that reads one, exit 1, before any window is sampled."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        # every window sampled, through the name each caller reads
        from gabframes import experiments, windows

        calls, real = [], windows.sample_window

        def spy(spec, grid):
            calls.append(spec)
            return real(spec, grid)

        monkeypatch.setattr(windows, "sample_window", spy)
        monkeypatch.setattr(experiments, "sample_window", spy)
        return calls

    def assert_refused(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        obj = json.loads(err)
        assert obj["error"] == "CommensurabilityError" and "positive" in obj["message"]

    @pytest.mark.parametrize("a,b", BAD_LATTICES)
    @pytest.mark.parametrize("command,flag", [
        ("stft", "--config"), ("apply", "--config"), ("bounds", "--config"),
        ("wexler-raz", "--system")])
    def test_system_commands(self, capsys, tmp_path, sampled, command, flag, a, b):
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, "a": a, "b": b})
        self.assert_refused(capsys, command, flag, path)
        assert sampled == []

    @pytest.mark.parametrize("a,b", BAD_LATTICES)
    def test_sweep(self, capsys, tmp_path, sampled, a, b):
        path = write_json(tmp_path / "sweep.json",
                          {**TestConfigValidation.SWEEP, "pairs": [[a, b]]})
        self.assert_refused(capsys, "sweep", "--config", path)
        assert sampled == []

    def test_the_spy_sees_a_valid_lattice_sampled(self, capsys, tmp_path, sampled):
        path = write_json(tmp_path / "sys.json", TestUnknownConfigKeys.DESK)
        code, _, _ = run_cli(capsys, "bounds", "--config", path)
        assert code == 0 and sampled


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
        # the grid's one lattice rule, before any window is sampled, not
        # by the margin check
        ({"pairs": [[0.5, 0]]}, "CommensurabilityError"),
        ({"pairs": [[-0.5, 0.5]]}, "CommensurabilityError"),
        # f was the zero function, so every error read 0 and the sweep passed
        ({"f_shift": 100}, "ConfigError"),
    ], ids=["kind", "pairs-not-list", "zero-b", "negative-a", "f-off-the-grid"])
    def test_sweep_config(self, capsys, tmp_path, change, error):
        path = write_json(tmp_path / "sweep.json", {**self.SWEEP, **change})
        self.assert_json_error(capsys, error, "sweep", "--config", path)

    @pytest.mark.parametrize("command,change,key", [
        ("sweep", {"pairs": [1.0, 0.5]}, "pairs"),
        ("bounds", {"grid": {"half_extent": None, "spacing": 1 / 32}}, "half_extent"),
        ("apply", {"a": None}, "a"),
        ("bounds", {"b": "0.5"}, "b"),
        ("bounds", {"grid": {"half_extent": "4", "spacing": 1 / 32}}, "half_extent"),
        ("bounds", {"grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": 1.5}}, "dim"),
        ("bounds", {"grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": "2"}}, "dim"),
        ("bounds", {"grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": math.inf}}, "dim"),
        ("sweep", {"pairs": [[True, 0.5], [0.25, 0.25]]}, "pairs"),
        ("sweep", {"pairs": [[0.5, 0.5], [0.25, "0.25"]]}, "pairs"),
    ], ids=["flat-pairs", "null-half-extent", "null-a", "string-b", "string-half-extent",
            "fractional-dim", "string-dim", "infinite-dim", "true-in-pair", "string-in-pair"])
    def test_wrong_json_type_names_its_key(self, capsys, tmp_path, command, change, key):
        # a value of the wrong JSON type used to escape as a TypeError traceback,
        # and a string, a fractional dim or a true in a pair used to run, as the
        # number, in one dimension or as 1; json writes math.inf as Infinity,
        # which reads back as 1e999 does
        base = self.SWEEP if command == "sweep" else TestUnknownConfigKeys.DESK
        path = write_json(tmp_path / "cfg.json", {**base, **change})
        code, _, err = run_cli(capsys, command, "--config", path)
        assert code == 1
        obj = json.loads(err)
        assert obj["error"] == "ConfigError" and repr(key) in obj["message"]

    def test_tiny_b(self, capsys, tmp_path):
        # a frequency period of 3.2e10 used to fail in numpy while the
        # system was built; only the STFT allocates per frequency
        path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, "b": 1e-9})
        for argv in (["bounds"], ["apply", "--method", "walnut"]):
            code, out, err = run_cli(capsys, *argv, "--config", path)
            assert code == 0 and out and not err, argv
        self.assert_json_error(capsys, "ResolutionError", "stft", "--config", path)

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


@pytest.mark.parametrize("key", sorted(_GRID_KEYS | _SYSTEM_KEYS | _SWEEP_KEYS))
def test_true_is_no_config_value(capsys, tmp_path, key):
    # every key of every config refuses a JSON true; a, b, p, q and the grid
    # sizes used to read it as 1, so a key added later meets the same rule
    runs = []
    for command, keys, base in (("apply", _SYSTEM_KEYS, TestUnknownConfigKeys.DESK),
                                ("sweep", _SWEEP_KEYS, TestConfigValidation.SWEEP)):
        if key in _GRID_KEYS:
            cfg = {**base, "grid": {**base["grid"], key: True}}
        elif key in keys:
            cfg = {**base, key: True}
        else:
            continue
        code, out, err = run_cli(capsys, command, "--config",
                                 write_json(tmp_path / "cfg.json", cfg))
        assert code == 1 and out == "", command
        obj = json.loads(err)
        assert obj["error"] == "ConfigError", obj
        # the message names the key in quotes; the kind message names it as a word
        assert re.search(rf"['\"]{key}['\"]|^sweep {key} ", obj["message"]), obj
        runs.append(command)
    assert runs


def test_whole_float_dim_is_the_integer(capsys, tmp_path):
    outs = []
    for dim in (1.0, 1):
        path = write_json(tmp_path / "sys.json", {
            **TestUnknownConfigKeys.DESK, "grid": {"half_extent": 4.0, "spacing": 1 / 32, "dim": dim}})
        code, out, err = run_cli(capsys, "bounds", "--config", path)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["stft"], ["apply", "--method", "direct"], ["apply", "--method", "walnut"],
    ["apply", "--method", "janssen"]])
def test_f_off_the_grid_fails_on_every_command(capsys, tmp_path, argv):
    # stft wrote 1,856 all-zero rows and apply 256; a sweep already failed
    path = write_json(tmp_path / "sys.json", {**TestUnknownConfigKeys.DESK, "f_shift": 100})
    code, out, err = run_cli(capsys, argv[0], "--config", path, *argv[1:])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "f_shift (100.0,) moves the test function off the grid"}


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


@pytest.mark.parametrize("argv", [
    ["norm", "--window", {"family": "fat_cantor", "depth": 40}],
    ["bounds", "--config",
     {**TestUnknownConfigKeys.DESK, "g": {"family": "fat_cantor", "depth": 40}}],
    ["counterexample", "--depths", "1000000000000"],
], ids=["norm-fat-cantor", "bounds-fat-cantor", "counterexample"])
def test_unbuildable_depths_fail_before_allocating(capsys, tmp_path, argv):
    # the first two built 2^40 exact intervals until killed; the third computed
    # 4^(10^12) for its memory estimate and died with a bare MemoryError
    argv = [write_json(tmp_path / "in.json", v) if isinstance(v, dict) else v for v in argv]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ResolutionError" and "physical memory" in obj["message"]
    assert peak < 2 ** 20


@pytest.mark.parametrize("command", ["bounds", "counterexample", "selftest"])
def test_contract_violation_exits_two(capsys, monkeypatch, apply_config, command):
    # each command's contract check is forced to fail; its result is printed first
    from gabframes import experiments, walnut

    if command == "bounds":
        exact = walnut.tail_sum
        monkeypatch.setattr(walnut, "tail_sum",
                            lambda sys: dataclasses.replace(exact(sys), within_bound=False))
        argv, message = ["--config", apply_config], "correlation sup-sum"
    elif command == "counterexample":
        exact = experiments.counterexample_run

        def failed(*args, **kwargs):
            report = exact(*args, **kwargs)
            report.passed = False
            return report

        monkeypatch.setattr(experiments, "counterexample_run", failed)
        argv, message = ["--depths", "1"], "counterexample curves failed to separate"
    else:
        monkeypatch.setattr(walnut, "operator_norm_upper_bound", lambda sys: 9.0)
        argv, message = [], "selftest failed"
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out
    obj = json.loads(err)
    assert obj["error"] == "contract" and obj["message"].startswith(message)
