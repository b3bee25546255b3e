"""Config-driven runs: exit codes, artifact determinism, round trips."""

import csv
import json

import numpy as np
import pytest

from airylab import AirylabError, Rep, WaveField, make_grid
from airylab.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_TOLERANCE,
    emit_csv,
    emit_svg_plot,
    main,
    run_config,
)

BASE_VERIFY = {
    "command": "Verify",
    "grid": {"n": 4096, "x_min": -256.0, "x_max": 256.0},
    "state": {"kind": "perelomov", "eps": 1.0, "xi": 0.0, "t": 0.0},
    "experiment": {
        "name": "eigenrelation_residual",
        "parameters": {"window": {"kind": "rect", "interior_fraction": 0.125}},
        "tolerances": {"residual": 1.0e-6},
    },
}


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_verify_pass(self, tmp_path):
        cfg = write_config(tmp_path, BASE_VERIFY)
        code, artifacts = run_config(cfg, str(tmp_path / "out"))
        assert code == EXIT_OK
        report = json.load(open(artifacts[0]))
        assert report["passed"] is True
        assert report["reports"][0]["metrics"]["residual"] < 1e-6
        assert report["config"]["grid"]["n"] == 4096

    def test_tolerance_failure(self, tmp_path):
        data = json.loads(json.dumps(BASE_VERIFY))
        data["experiment"]["tolerances"]["residual"] = 1.0e-30
        cfg = write_config(tmp_path, data)
        code, artifacts = run_config(cfg, str(tmp_path / "out"))
        assert code == EXIT_TOLERANCE
        assert json.load(open(artifacts[0]))["passed"] is False

    def test_power_of_two_rule(self, tmp_path, capsys):
        data = json.loads(json.dumps(BASE_VERIFY))
        data["grid"]["n"] = 100
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert artifacts == []
        assert "power of two" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        for mutate in (
            lambda d: d.update(bogus=1),
            lambda d: d["grid"].update(dx=0.1),
            lambda d: d["state"].update(mass=2.0),
            lambda d: d["experiment"].update(extra={}),
            lambda d: d["experiment"]["parameters"].update(unknown=1),
            lambda d: d["experiment"]["tolerances"].update(not_a_metric=1.0),
        ):
            data = json.loads(json.dumps(BASE_VERIFY))
            mutate(data)
            code, _ = run_config(write_config(tmp_path, data),
                                 str(tmp_path / "out"))
            assert code == EXIT_CONFIG

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, artifacts = run_config(str(path), str(tmp_path / "out"))
        assert code == EXIT_CONFIG and artifacts == []

    def test_missing_file_is_io_error(self, tmp_path):
        code, artifacts = run_config(str(tmp_path / "absent.json"),
                                     str(tmp_path / "out"))
        assert code == EXIT_IO and artifacts == []

    def test_unknown_experiment_and_missing_param(self, tmp_path):
        data = json.loads(json.dumps(BASE_VERIFY))
        data["experiment"] = {"name": "not_an_experiment"}
        assert run_config(write_config(tmp_path, data),
                          str(tmp_path / "out"))[0] == EXIT_CONFIG
        data["experiment"] = {"name": "acceleration_fit", "parameters": {}}
        assert run_config(write_config(tmp_path, data),
                          str(tmp_path / "out"))[0] == EXIT_CONFIG

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(phys={"hbar": -1.0}),
        lambda d: d["experiment"]["parameters"]["window"].update(
            interior_fraction=float("nan")),
        lambda d: d["experiment"]["parameters"]["window"].update(
            interior_fraction=1.5),
        lambda d: d["experiment"]["tolerances"].update(residual=float("nan")),
        lambda d: d["grid"].update(x_max=10 ** 400),
        lambda d: d.update(experiment={
            "name": "basis_orthonormality",
            "parameters": {"eps": 1.0, "t": 0.0, "n_states": -3}}),
    ], ids=["negative_hbar", "nan_window_fraction", "window_fraction_above_1",
            "nan_tolerance", "huge_integer", "negative_n_states"])
    def test_bad_values_exit_2_without_traceback(self, tmp_path, capsys,
                                                 mutate):
        data = json.loads(json.dumps(BASE_VERIFY))
        mutate(data)
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and artifacts == []
        assert err.startswith("error: ") and "Traceback" not in err

    def test_domain_error_during_execution(self, tmp_path):
        # validation passes, but the state cannot be resolved on the grid
        data = {
            "command": "State",
            "grid": {"n": 256, "x_min": -32.0, "x_max": 32.0},
            "state": {"kind": "gaussian", "sigma": 0.01},
        }
        code, _ = run_config(write_config(tmp_path, data),
                             str(tmp_path / "out"))
        assert code == EXIT_TOLERANCE


class TestCommands:
    def test_state_artifacts(self, tmp_path):
        data = {
            "command": "State",
            "grid": {"n": 256, "x_min": -32.0, "x_max": 32.0},
            "state": {"kind": "gaussian", "x0": 1.0, "p0": 0.5, "sigma": 2.0},
            "output": {"svg": "rho.svg"},
        }
        out = tmp_path / "out"
        code, artifacts = run_config(write_config(tmp_path, data), str(out))
        assert code == EXIT_OK
        names = {p.split("/")[-1] for p in artifacts}
        assert names == {"state.csv", "rho.svg", "report.json"}
        with open(out / "state.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 256
        for r in rows[:16]:
            re_, im, rho = (float(r["re"]), float(r["im"]),
                            float(r["density"]))
            assert rho == pytest.approx(re_ * re_ + im * im, rel=1e-12)

    def test_evolve_trajectory(self, tmp_path):
        data = {
            "command": "Evolve",
            "grid": {"n": 4096, "x_min": -128.0, "x_max": 128.0},
            "state": {"kind": "perelomov", "eps": 1.0, "xi": 0.0, "t": 0.0},
            "evolve": {"taus": [0.0, 0.5, 1.0]},
        }
        out = tmp_path / "out"
        code, artifacts = run_config(write_config(tmp_path, data), str(out))
        assert code == EXIT_OK
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 2)
        assert list(rows[:, 0]) == [0.0, 0.5, 1.0]
        # free fall toward -x at a = -1/eps
        assert rows[2, 1] < rows[0, 1]

    def test_seed_recorded(self, tmp_path):
        cfg = write_config(tmp_path, BASE_VERIFY)
        out = tmp_path / "out"
        code = main(["--config", cfg, "--out-dir", str(out), "--seed", "7"])
        assert code == EXIT_OK
        assert json.load(open(out / "report.json"))["seed"] == 7


class TestEmitCsv:
    def test_nine_lines_for_eight_points(self, tmp_path):
        g = make_grid(8, -4.0, 4.0)
        field = WaveField(g, Rep.POSITION,
                          np.arange(8) * (0.5 + 0.25j), time=0.0)
        path = tmp_path / "tiny.csv"
        emit_csv(field, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        assert lines[0] == "x,re,im,density"

    def test_exact_round_trip(self, tmp_path):
        g = make_grid(64, -8.0, 8.0)
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        field = WaveField(g, Rep.POSITION, amps)
        path = tmp_path / "field.csv"
        emit_csv(field, str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        # 17 significant digits reproduce every double bit for bit
        assert np.array_equal(data[:, 0], g.x)
        assert np.array_equal(data[:, 1], amps.real)
        assert np.array_equal(data[:, 2], amps.imag)
        assert np.array_equal(data[:, 3], np.abs(amps) ** 2)

    def test_momentum_rep_rejected(self, tmp_path):
        g = make_grid(8, -4.0, 4.0)
        field = WaveField(g, Rep.MOMENTUM, np.ones(8))
        with pytest.raises(AirylabError, match="position representation"):
            emit_csv(field, str(tmp_path / "bad.csv"))

    def test_trajectory_pairs(self, tmp_path):
        path = tmp_path / "traj.csv"
        emit_csv([(0.0, 1.0), (0.5, 0.875)], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_peak"
        assert len(lines) == 3


class TestEmitSvg:
    def test_byte_determinism(self, tmp_path):
        x = np.linspace(0.0, 1.0, 50)
        series = [("a", x, np.sin(x)), ("b", x, np.cos(x))]
        p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
        emit_svg_plot(series, str(p1))
        emit_svg_plot(series, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(AirylabError, match="non-empty"):
            emit_svg_plot([], str(tmp_path / "empty.svg"))

    def test_two_point_series_single_polyline(self, tmp_path):
        path = tmp_path / "line.svg"
        emit_svg_plot([("seg", np.array([0.0, 1.0]), np.array([2.0, 3.0]))],
                      str(path))
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert "<svg" in text and "</svg>" in text

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "esc.svg"
        emit_svg_plot([("a<b&c", np.array([0.0, 1.0]),
                        np.array([0.0, 1.0]))], str(path))
        text = path.read_text()
        assert "a&lt;b&amp;c" in text
        assert "a<b&c" not in text

    def test_degenerate_y_range_padded(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_svg_plot([("flat", np.array([0.0, 1.0, 2.0]),
                        np.zeros(3))], str(path))
        assert "<polyline" in path.read_text()

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(AirylabError, match="equal-length"):
            emit_svg_plot([("bad", np.arange(3), np.arange(4))],
                          str(tmp_path / "bad.svg"))
