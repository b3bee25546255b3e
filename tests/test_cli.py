"""Config-driven runs: exit codes, artifact determinism, round trips."""

import csv
import json
import os
import re

import numpy as np
import pytest

from airylab import (
    AirylabError,
    BandTaper,
    CoherentParams,
    GaussianParams,
    Rep,
    WaveField,
    Window,
    experiments,
    gaussian_packet,
    make_grid,
    perelomov_state,
    to_rep,
)
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


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_verify_pass(self, tmp_path):
        cfg = write_config(tmp_path, BASE_VERIFY)
        code, artifacts = run_config(cfg, str(tmp_path / "out"))
        assert code == EXIT_OK
        report = load_json(artifacts[0])
        assert report["passed"] is True
        assert report["reports"][0]["metrics"]["residual"] < 1e-6
        assert report["config"]["grid"]["n"] == 4096

    def test_tolerance_failure(self, tmp_path):
        data = json.loads(json.dumps(BASE_VERIFY))
        data["experiment"]["tolerances"]["residual"] = 1.0e-30
        cfg = write_config(tmp_path, data)
        code, artifacts = run_config(cfg, str(tmp_path / "out"))
        assert code == EXIT_TOLERANCE
        assert load_json(artifacts[0])["passed"] is False

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

    @pytest.mark.parametrize("name,params,state", [
        ("eigenrelation_residual", {}, None),
        ("acceleration_fit", {"taus": [0.0, 1.0, 2.0]}, {"kind": "gaussian"}),
        ("k_expectation_series", {"taus": [0.0, 1.0]}, None),
    ], ids=["no_state", "wrong_kind", "field_without_state"])
    def test_state_requirement_exits_2(self, tmp_path, capsys, name, params,
                                       state):
        # the state an experiment needs is read from its signature and
        # checked before any computation
        data = json.loads(json.dumps(BASE_VERIFY))
        data["experiment"] = {"name": name, "parameters": params}
        del data["state"]
        if state is not None:
            data["state"] = state
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and artifacts == []
        assert err.startswith("error: ") and "requires a state" in err

    def test_overlap_scan_uses_config_phys(self, tmp_path):
        data = {"command": "Verify",
                "grid": {"n": 256, "x_min": -8.0, "x_max": 8.0},
                "phys": {"hbar": 2.0, "m": 3.0},
                "experiment": {"name": "overlap_scan",
                               "parameters": {"eps_list": [1.0, 2.0, 4.0]}}}
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        report = load_json(artifacts[0])["reports"][0]
        assert code == EXIT_OK
        assert report["config"]["phys"] == {"hbar": 2.0, "m": 3.0}
        ai0 = 0.355028053887817239  # Ai(0)
        expected = (2.0 * 2.0 * 3.0 ** 2) ** (1.0 / 3.0) * ai0 / (2.0 * 3.0)
        assert report["metrics"]["prefactor_expected"] == pytest.approx(
            expected, rel=1e-15)

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
        assert load_json(out / "report.json")["seed"] == 7


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


def _grid(n, lo, hi):
    return {"n": n, "x_min": lo, "x_max": hi}


_PER = {"kind": "perelomov", "eps": 1.0, "xi": 0.5, "t": 0.2}
_GAUSS = {"kind": "gaussian", "x0": 0.5, "p0": 0.3, "sigma": 1.5}


def _rect(f):
    return {"kind": "rect", "interior_fraction": f}


# name -> (grid, state, parameters, tolerances, the same run called directly)
PARITY = {
    "eigenrelation_residual": (
        _grid(2048, -64.0, 64.0), _PER,
        {"window": _rect(0.25), "xi_probe": 0.5}, {"residual": 1e-5},
        lambda g: experiments.eigenrelation_residual(
            CoherentParams(1.0, 0.5, 0.2), g, w=Window.rect(0.25),
            xi_probe=0.5, tol=1e-5)),
    "acceleration_fit": (
        _grid(2048, -200.0, 56.0), _PER,
        {"taus": [0.0, 1.0, 2.0, 3.0], "band": "auto"}, {"rel_err": 0.02},
        lambda g: experiments.acceleration_fit(
            CoherentParams(1.0, 0.5, 0.2), [0.0, 1.0, 2.0, 3.0], g,
            band="auto", tol_rel=0.02)),
    "shape_distortion": (
        _grid(2048, -64.0, 64.0), _PER,
        {"tau": 0.5, "window": _rect(0.5),
         "band": {"p_plateau": 2.0, "p_support": 3.0}}, {},
        lambda g: experiments.shape_distortion(
            CoherentParams(1.0, 0.5, 0.2), 0.5, g, w=Window.rect(0.5),
            band=BandTaper(2.0, 3.0))),
    "evolution_equivalence": (
        _grid(2048, -64.0, 64.0), dict(_PER, t=0.0),
        {"tau": 0.3, "window": {"kind": "tukey", "interior_fraction": 0.5},
         "drop_cubic_phase": True},
        {"fidelity_deficit": 1e-6, "phase_discrepancy": 1e-3},
        lambda g: experiments.evolution_equivalence(
            CoherentParams(1.0, 0.5, 0.0), 0.3, g, w=Window.tukey(0.5),
            drop_cubic_phase=True, tol_fidelity=1e-6, tol_phase=1e-3)),
    "overlap_scan": (
        _grid(256, -8.0, 8.0), None,
        {"eps_list": [1.0, 2.0, 4.0], "xi": 0.3, "t": 0.1, "eps_ref": 0.0,
         "quad_tol": 1e-8, "xi_alt_offset": 2.0}, {"exponent_err": 0.05},
        lambda g: experiments.overlap_scan(
            [1.0, 2.0, 4.0], xi=0.3, t=0.1, eps_ref=0.0, quad_tol=1e-8,
            xi_alt_offset=2.0, tol_exponent=0.05)),
    "basis_orthonormality": (
        _grid(1024, -32.0, 32.0), None,
        {"eps": 1.0, "t": 0.2, "n_states": 32, "window_fraction": 0.5,
         "probe": {"sigma": 1.5}, "sum_taper_frac": 0.2},
        {"reconstruction_err": 0.1},
        lambda g: experiments.basis_orthonormality(
            1.0, 0.2, g, n_states=32, window_fraction=0.5,
            probe=GaussianParams(sigma=1.5), sum_taper_frac=0.2,
            tol_recon=0.1)),
    "k_expectation_series": (
        _grid(1024, -32.0, 32.0), _GAUSS,
        {"taus": [0.0, 0.5], "window": _rect(0.9)}, {"drift": 1e-9},
        lambda g: experiments.k_expectation_series(
            gaussian_packet(GaussianParams(0.5, 0.3, 1.5), g), [0.0, 0.5],
            w=Window.rect(0.9), tol=1e-9)),
    "boost_covariance_residual": (
        _grid(2048, -64.0, 64.0), _PER,
        {"v": 0.8, "tau": 0.7, "window": _rect(0.5)}, {"residual": 1e-7},
        lambda g: experiments.boost_covariance_residual(
            to_rep(perelomov_state(CoherentParams(1.0, 0.5, 0.2),
                                   Rep.MOMENTUM, g), Rep.POSITION),
            0.8, 0.7, w=Window.rect(0.5), tol=1e-7)),
    "berry_balazs_trajectory": (
        _grid(2048, -32.0, 32.0), None,
        {"B": 1.5, "t_list": [0.0, 0.5, 1.0], "window": _rect(0.1)},
        {"coeff_rel_err": 0.05},
        lambda g: experiments.berry_balazs_trajectory(
            1.5, [0.0, 0.5, 1.0], g, w=Window.rect(0.1), tol_coeff=0.05)),
    "representation_crosscheck": (
        _grid(2048, -64.0, 64.0), _PER, {"window": _rect(0.5)}, {},
        lambda g: experiments.representation_crosscheck(
            CoherentParams(1.0, 0.5, 0.2), g, w=Window.rect(0.5))),
    "eps_to_zero_limit": (
        _grid(2048, -64.0, 64.0), None,
        {"eps_seq": [0.5, 0.2], "xi": 0.0, "t": 1.0, "window": _rect(0.5)},
        {},
        lambda g: experiments.eps_to_zero_limit(
            [0.5, 0.2], 0.0, 1.0, g, w=Window.rect(0.5))),
    "eps_to_infinity_fidelity": (
        _grid(2048, -64.0, 64.0), None,
        {"eps_seq": [1.0, 10.0], "tau": 0.5, "window": _rect(0.5),
         "band": "auto"}, {},
        lambda g: experiments.eps_to_infinity_fidelity(
            [1.0, 10.0], 0.5, g, w=Window.rect(0.5), band="auto")),
    "commutator_table": (
        _grid(1024, -32.0, 32.0), None,
        {"window": _rect(0.5), "probe": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
        {"max_rel_err": 1e-6},
        lambda g: experiments.commutator_table(
            g, w=Window.rect(0.5), probe=GaussianParams(0.0, 0.5, 1.5),
            tol=1e-6)),
}


class TestRegistry:
    def test_names_match_readme(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        listed = readme.split("Experiments available to `Verify`/`Scan`:")[1]
        listed = listed.split("Each accepts")[0]
        names = re.findall(r"`(\w+)`", listed)
        assert len(names) == 13
        assert sorted(names) == sorted(experiments.EXPERIMENTS)
        assert sorted(PARITY) == sorted(experiments.EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_cli_report_equals_direct_call(self, tmp_path, name):
        grid, state, params, tols, direct = PARITY[name]
        data = {"command": "Verify", "grid": grid,
                "experiment": {"name": name, "parameters": params,
                               "tolerances": tols}}
        if state is not None:
            data["state"] = state
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert code in (EXIT_OK, EXIT_TOLERANCE) and artifacts
        entry = load_json(artifacts[0])["reports"][0]
        expected = direct(make_grid(grid["n"], grid["x_min"], grid["x_max"]))
        assert entry == json.loads(json.dumps(expected.to_dict()))
        assert code == (EXIT_OK if expected.passed else EXIT_TOLERANCE)
