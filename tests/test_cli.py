"""Config-driven runs: exit codes, artifact determinism, round trips."""

import csv
import errno
import json
import os
import re
import subprocess
import sys

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
from airylab import cli
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

    @pytest.mark.parametrize("data,message", [
        (dict(BASE_VERIFY, experiment={
            "name": "commutator_table",
            "parameters": {"probe": {"x0": "a"}}}),
         "config.experiment.parameters.probe.x0 must be a finite number, "
         "got 'a'"),
        (dict(BASE_VERIFY, experiment={
            "name": "shape_distortion",
            "parameters": {"tau": 0.5,
                           "band": {"p_plateau": "x", "p_support": 3.0}}}),
         "config.experiment.parameters.band.p_plateau must be a finite "
         "number, got 'x'"),
        (dict(BASE_VERIFY, phys={"m": -1.0}),
         "config.phys.m: m must be finite and positive, got -1.0"),
        ({"command": "State", "grid": {"n": 256, "x_min": -32.0, "x_max": 32.0},
          "state": {"kind": "gaussian", "sigma": -1.0}},
         "config.state.sigma: GaussianParams.sigma must be > 0, got -1.0"),
    ], ids=["probe_value", "band_value", "phys_range", "state_range"])
    def test_message_names_the_key_once(self, tmp_path, capsys, data,
                                        message):
        # a value the dataclass rejects is a config error at its own key,
        # found before any computation
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert (code, artifacts) == (EXIT_CONFIG, [])
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("data,message", [
        (dict(BASE_VERIFY, experiments=[{"name": "no_such_experiment"}]),
         "config.experiments only applies to Scan"),
        ({"command": "Scan", "grid": BASE_VERIFY["grid"],
          "experiments": [{"name": "commutator_table"}],
          "experiment": {"name": "bogus", "parameters": {"nonsense": 1}}},
         "config.experiment only applies to Verify"),
        ({"command": "State", "grid": {"n": 256, "x_min": -32.0, "x_max": 32.0},
          "state": {"kind": "gaussian"},
          "output": {"trajectory_csv": "t.csv"}},
         "config.output.trajectory_csv only applies to Evolve"),
        (dict(BASE_VERIFY, output={"csv": "state.csv"}),
         "config.output.csv only applies to State/Evolve"),
        (dict(BASE_VERIFY, output={"svg": "plot.svg"}),
         "config.output.svg only applies to State/Evolve"),
    ], ids=["verify_experiments", "scan_experiment", "state_trajectory",
            "verify_csv", "verify_svg"])
    def test_what_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                    data, message):
        # each command's sections and outputs come from one table; anything
        # else is rejected before any computation, never silently ignored
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert (code, artifacts) == (EXIT_CONFIG, [])
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,message", [
        ({"name": "eps_to_zero_limit",
          "parameters": {"eps_seq": [0.5], "xi": 0.0, "t": 1.0}},
         "need at least two eps values for a trend"),
        ({"name": "commutator_table",
          "parameters": {"window": {"kind": "rect", "interior_fraction": 0.5},
                         "probe": {"x0": 500.0, "p0": 0.0, "sigma": 1.5}}},
         "no weight inside the window"),
    ], ids=["one_point_trend", "probe_outside_window"])
    def test_domain_error_exits_1_with_one_line(self, tmp_path, capsys,
                                                experiment, message):
        data = {"command": "Verify",
                "grid": {"n": 4096, "x_min": -512.0, "x_max": 512.0},
                "experiment": experiment}
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert (code, artifacts) == (EXIT_TOLERANCE, [])
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_write_failing_partway_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        real_fdopen = os.fdopen

        class DiskFull:
            """Takes the first chunk, then reports a full disk."""

            def __init__(self, fh):
                self.fh, self.chunks = fh, 0

            def write(self, text):
                if self.chunks:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.chunks += 1
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(os, "fdopen",
                            lambda *a, **k: DiskFull(real_fdopen(*a, **k)))
        data = {"command": "State",
                "grid": {"n": 4096, "x_min": -64.0, "x_max": 64.0},
                "state": {"kind": "gaussian", "sigma": 2.0}}
        out = tmp_path / "out"
        code, artifacts = run_config(write_config(tmp_path, data), str(out))
        assert (code, artifacts) == (EXIT_IO, [])
        assert "No space left" in capsys.readouterr().err
        # neither the temp file nor a partial state.csv is left behind
        assert os.listdir(out) == []

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

    def test_state_report_echoes_band_edges(self, tmp_path):
        data = {
            "command": "State",
            "grid": {"n": 256, "x_min": -32.0, "x_max": 32.0},
            "state": {"kind": "perelomov", "eps": 1.0,
                      "band": {"p_plateau": 2.0, "p_support": 3.0}},
        }
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        assert code == EXIT_OK
        report = load_json(artifacts[-1])["reports"][0]
        assert report["config"]["band"] == {"p_plateau": 2.0,
                                            "p_support": 3.0}

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

    def test_scan_builds_its_state_once(self, tmp_path, monkeypatch):
        builds = []

        def counted(*args):
            builds.append(args)
            return gaussian_packet(*args)

        monkeypatch.setattr(cli, "gaussian_packet", counted)
        data = {"command": "Scan",
                "grid": {"n": 1024, "x_min": -32.0, "x_max": 32.0},
                "state": _GAUSS,
                "experiments": [
                    {"name": "boost_covariance_residual",
                     "parameters": {"v": 0.8, "tau": 0.7}},
                    {"name": "k_expectation_series",
                     "parameters": {"taus": [0.0, 0.5]}}]}
        code, _ = run_config(write_config(tmp_path, data),
                             str(tmp_path / "out"))
        assert code == EXIT_OK and len(builds) == 1

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
        emit_svg_plot([("a<b&c>d&amp;", np.array([0.0, 1.0]),
                        np.array([0.0, 1.0]))], str(path))
        text = path.read_text()
        assert ">a&lt;b&amp;c&gt;d&amp;amp;</text>" in text
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


# The writers as they were before they formatted whole arrays: one numpy
# scalar at a time through an f-string.  Kept as the byte oracle.

def _reference_csv(field):
    x = field.grid.x
    amps = field.amplitudes
    rho = field.density()
    lines = ["x,re,im,density"]
    lines.extend(
        f"{x[i]:.17g},{amps[i].real:.17g},{amps[i].imag:.17g},{rho[i]:.17g}"
        for i in range(field.grid.n_points))
    return "\n".join(lines) + "\n"


def _reference_svg(series):
    from airylab.cli import (_MB, _ML, _MR, _MT, _PALETTE, _SVG_H, _SVG_W,
                             _axis_range)
    prepared = [(str(label), np.asarray(xs, dtype=float),
                 np.asarray(ys, dtype=float)) for label, xs, ys in series]
    x_lo, x_hi = _axis_range(min(float(s[1].min()) for s in prepared),
                             max(float(s[1].max()) for s in prepared))
    y_lo, y_hi = _axis_range(min(float(s[2].min()) for s in prepared),
                             max(float(s[2].max()) for s in prepared))
    iw = _SVG_W - _ML - _MR
    ih = _SVG_H - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y):
        return _SVG_H - _MB - (y - y_lo) / (y_hi - y_lo) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" '
        f'y2="{_SVG_H - _MB}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4.0
        xp = px(xv)
        parts.append(f'<line x1="{xp:.2f}" y1="{_SVG_H - _MB}" x2="{xp:.2f}" '
                     f'y2="{_SVG_H - _MB + 6}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_SVG_H - _MB + 22}" '
                     f'font-family="monospace" font-size="13" '
                     f'text-anchor="middle">{xv:.6g}</text>')
        yv = y_lo + i * (y_hi - y_lo) / 4.0
        yp = py(yv)
        parts.append(f'<line x1="{_ML - 6}" y1="{yp:.2f}" x2="{_ML}" '
                     f'y2="{yp:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 10}" y="{yp + 4:.2f}" '
                     f'font-family="monospace" font-size="13" '
                     f'text-anchor="end">{yv:.6g}</text>')
    for k, (label, xs, ys) in enumerate(prepared):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 18 + 20 * k
        parts.append(f'<line x1="{_SVG_W - _MR - 150}" y1="{ly - 4}" '
                     f'x2="{_SVG_W - _MR - 120}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        text = label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        parts.append(f'<text x="{_SVG_W - _MR - 112}" y="{ly}" '
                     f'font-family="monospace" font-size="13">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# signed zeros, the smallest subnormal, the largest decades, and values
# whose 17th significant digit is rounded
_EDGE_VALUES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 2.0 / 3.0, 1e23,
    np.nextafter(1.0, 2.0), 9007199254740993.0, -1.0 / 3.0])


def _edge_field(n, with_nonfinite):
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n) \
        + 1j * rng.standard_normal(n)
    values = _EDGE_VALUES
    if with_nonfinite:
        values = np.append(values, [np.nan, np.inf, -np.inf, -np.nan])
    k = min(n, values.size)
    amps.real[:k] = values[:k]
    amps.imag[-k:] = values[:k][::-1]
    return WaveField(make_grid(n, -4.0 * n, 4.0 * n), Rep.POSITION, amps)


class TestWriterBytes:
    @pytest.mark.parametrize("n", [8, 16, 4096])
    def test_csv_matches_scalar_formatting(self, tmp_path, n):
        field = _edge_field(n, with_nonfinite=True)
        path = tmp_path / "field.csv"
        with np.errstate(over="ignore"):
            emit_csv(field, str(path))
            expected = _reference_csv(field)
        assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("n", [8, 4096])
    @pytest.mark.parametrize("n_series", [1, 2, 3])
    def test_svg_matches_scalar_mapping(self, tmp_path, n, n_series):
        rng = np.random.default_rng(n + n_series)
        field = _edge_field(n, with_nonfinite=False)
        series = [("density", field.grid.x, field.amplitudes.real),
                  ("shuffled<&>", rng.permutation(field.grid.x),
                   rng.standard_normal(n) * 1e-3),
                  ("flat", rng.uniform(-1.0, 1.0, n), np.full(n, 2.5))]
        for chosen in (series[:n_series], series[-n_series:]):
            path = tmp_path / "plot.svg"
            # +-1e308 overflow the y span to inf on both sides alike
            with np.errstate(over="ignore", invalid="ignore"):
                emit_svg_plot(chosen, str(path))
                expected = _reference_svg(chosen)
            assert path.read_bytes() == expected.encode("ascii")


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


# name -> the keys of its report's config; an echoed dataclass or
# geometry record has the keys of ECHOED
_GEOM = {"grid", "phys", "window"}
REPORT_CONFIG = {
    "eigenrelation_residual": {"params", "xi_probe", "band"} | _GEOM,
    "acceleration_fit": {"params", "grid", "phys", "band"},
    "shape_distortion": {"params", "tau", "band"} | _GEOM,
    "evolution_equivalence": {"params", "tau", "band",
                              "drop_cubic_phase"} | _GEOM,
    "overlap_scan": {"eps_list", "eps_ref", "xi", "t", "phys", "quad_tol",
                     "xi_alt_offset"},
    "basis_orthonormality": {"eps", "t", "n_states", "window_fraction",
                             "sum_taper_frac", "grid", "phys", "probe"},
    "k_expectation_series": {"taus", "field_time"} | _GEOM,
    "boost_covariance_residual": {"v", "tau", "field_time"} | _GEOM,
    "berry_balazs_trajectory": {"B", "t_list", "band", "family_eps"} | _GEOM,
    "representation_crosscheck": {"params", "band"} | _GEOM,
    "eps_to_zero_limit": {"xi", "t"} | _GEOM,
    "eps_to_infinity_fidelity": {"tau"} | _GEOM,
    "commutator_table": {"probe"} | _GEOM,
}
ECHOED = {
    "params": {"eps", "xi", "t"},
    "grid": {"n_points", "x_min", "x_max"},
    "phys": {"hbar", "m"},
    "window": {"kind", "interior_fraction"},
    "band": {"p_plateau", "p_support"},
    "probe": {"x0", "p0", "sigma"},
}


def _verify_parity(tmp_path, name, tols):
    grid, state, params, _, _ = PARITY[name]
    data = {"command": "Verify", "grid": grid,
            "experiment": {"name": name, "parameters": params,
                           "tolerances": tols}}
    if state is not None:
        data["state"] = state
    code, artifacts = run_config(write_config(tmp_path, data),
                                 str(tmp_path / "out"))
    return code, load_json(artifacts[0])["reports"][0]


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
        config = entry["config"]
        assert set(config) == REPORT_CONFIG[name]
        for key in set(config) & set(ECHOED):
            assert set(config[key]) == ECHOED[key], key
        # every declared bound judges a metric the experiment returns
        assert set(experiments.EXPERIMENTS[name][1]) <= set(entry["tolerances"])
        for key in entry["tolerances"]:
            assert key.removesuffix("_min") in entry["metrics"]

    @pytest.mark.parametrize("name", sorted(
        n for n in PARITY if experiments.EXPERIMENTS[n][1]))
    def test_each_bound_is_inclusive_and_directed(self, tmp_path, name):
        # a bound set to exactly its metric passes; one ulp to the failing
        # side fails: `<metric>_min` from below, every other key from above
        keys = experiments.EXPERIMENTS[name][1]
        loose = {k: -1e300 if k.endswith("_min") else 1e300 for k in keys}
        code, entry = _verify_parity(tmp_path, name, loose)
        assert code == EXIT_OK and entry["passed"] is True
        for key in keys:
            metric = entry["metrics"][key.removesuffix("_min")]
            failing = np.inf if key.endswith("_min") else -np.inf
            for bound, ok in ((metric, True),
                              (float(np.nextafter(metric, failing)), False)):
                code, judged = _verify_parity(tmp_path, name,
                                              dict(loose, **{key: bound}))
                assert judged["tolerances"][key] == bound
                assert judged["metrics"] == entry["metrics"]
                assert judged["passed"] is ok, (key, bound)
                assert code == (EXIT_OK if ok else EXIT_TOLERANCE)

    @pytest.mark.parametrize("name,key", [
        ("eps_to_zero_limit", "monotone_decreasing"),
        ("eps_to_infinity_fidelity", "monotone_increasing"),
    ])
    def test_limit_bounds_are_fixed(self, tmp_path, capsys, name, key):
        grid, state, params, _, direct = PARITY[name]
        assert direct(make_grid(grid["n"], grid["x_min"],
                                grid["x_max"])).tolerances == {key: True}
        data = {"command": "Verify", "grid": grid,
                "experiment": {"name": name, "parameters": params,
                               "tolerances": {key: 1.0}}}
        code, artifacts = run_config(write_config(tmp_path, data),
                                     str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and artifacts == []
        assert err.startswith("error: unknown key(s)") and key in err


def test_import_leaves_network_stack_unloaded():
    # the SVG writer escapes its labels itself; xml.sax.saxutils would pull
    # in urllib.request and with it http, email, ssl and socket
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import airylab.cli; "
            "new = set(sys.modules) - before; "
            "heavy = {'urllib.request', 'http.client', 'email', 'ssl', 'socket'}; "
            "sys.exit(sorted(heavy & new) or 0)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
