"""Command-line front end: config-driven runs with CSV/JSON/SVG artifacts.

The config file is the provenance: a JSON document selecting a command
(State, Evolve, Verify, Scan), a grid, physical constants, a state, and
for verification commands an experiment spec with parameter and
tolerance overrides.  Everything is validated before any computation;
unknown keys are rejected at every level.

Exit codes are a stable contract:
    0  run completed and every declared tolerance passed
    1  tolerance failure, or a domain error during computation
    2  config parse or validation error
    3  I/O failure writing artifacts

Artifacts (report.json, CSV tables, SVG plots) are written atomically:
the bytes land in a temp file in the target directory and are renamed
into place, so readers never observe a half-written file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .core import (
    AirylabError,
    Grid,
    PhysParams,
    Rep,
    WaveField,
    Window,
    make_grid,
    to_rep,
    windowed_norm,
)
from .experiments import (
    _parabolic_peak,
    acceleration_fit,
    basis_orthonormality,
    berry_balazs_trajectory,
    boost_covariance_residual,
    commutator_table,
    eigenrelation_residual,
    eps_to_infinity_fidelity,
    eps_to_zero_limit,
    evolution_equivalence,
    k_expectation_series,
    overlap_scan,
    representation_crosscheck,
    shape_distortion,
)
from .operators import free_evolve
from .states import (
    BandTaper,
    CoherentParams,
    GaussianParams,
    berry_balazs_initial,
    gaussian_packet,
    perelomov_state,
    xi_eigenstate_x,
)

__all__ = ["RunConfig", "run_config", "emit_csv", "emit_svg_plot", "main",
           "EXIT_OK", "EXIT_TOLERANCE", "EXIT_CONFIG", "EXIT_IO"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(AirylabError):
    """Config file failed schema validation."""


# ----------------------------------------------------------------------
# atomic artifact writers

def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".airylab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit_csv(obj, path: str) -> None:
    """Write a field or a trajectory as locale-independent CSV.

    Fields (position representation only, to keep the `x` header honest)
    get one row per grid point with 17 significant digits, enough for an
    exact double round trip.  Trajectories are (t, x_peak) pairs.
    """
    if isinstance(obj, WaveField):
        if obj.rep is not Rep.POSITION:
            raise AirylabError("fields are emitted in the position representation")
        x = obj.grid.x
        amps = obj.amplitudes
        rho = obj.density()
        lines = ["x,re,im,density"]
        lines.extend(
            f"{x[i]:.17g},{amps[i].real:.17g},{amps[i].imag:.17g},{rho[i]:.17g}"
            for i in range(obj.grid.n_points))
    else:
        rows = list(obj)
        lines = ["t,x_peak"]
        for row in rows:
            t, xp = row
            lines.append(f"{float(t):.17g},{float(xp):.17g}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SVG_W, _SVG_H = 960, 600
_ML, _MR, _MT, _MB = 72, 24, 24, 48


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise AirylabError("series contain non-finite values")
    if hi <= lo:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.5
        return lo - pad, lo + pad
    return lo, hi


def emit_svg_plot(series, path: str) -> None:
    """Render labeled (x, y) series as a standalone deterministic SVG.

    Output bytes are a pure function of the input: fixed canvas, fixed
    palette, fixed numeric formatting, no timestamps.
    """
    series = list(series)
    if not series:
        raise AirylabError("series must be non-empty")
    prepared = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 1:
            raise AirylabError(
                f"series {label!r} needs equal-length 1-d x and y arrays")
        prepared.append((str(label), xs, ys))
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
        parts.append(f'<text x="{_SVG_W - _MR - 112}" y="{ly}" '
                     f'font-family="monospace" font-size="13">'
                     f'{escape(label)}</text>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")


# ----------------------------------------------------------------------
# schema validation

def _check_keys(mapping, where: str, required: tuple, optional: tuple) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")


def _num(v, where: str) -> float:
    # json.loads accepts NaN, Infinity and integers beyond any double
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _intval(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return v


def _count(v, where: str) -> int:
    if _intval(v, where) < 1:
        raise ConfigError(f"{where} must be at least 1, got {v!r}")
    return v


def _numlist(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty array of numbers")
    return [_num(e, f"{where}[{i}]") for i, e in enumerate(v)]


def _boolval(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be true or false, got {v!r}")
    return v


def _strval(v, where: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where} must be a non-empty string")
    return v


def _parse_window(v, where: str) -> Window:
    _check_keys(v, where, ("kind", "interior_fraction"), ())
    kind = _strval(v["kind"], f"{where}.kind")
    frac = _num(v["interior_fraction"], f"{where}.interior_fraction")
    try:
        if kind == "rect":
            return Window.rect(frac)
        if kind == "tukey":
            return Window.tukey(frac)
    except (AirylabError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind must be 'rect' or 'tukey', got {kind!r}")


def _parse_band(v, where: str):
    if v is None or v == "auto":
        return v
    _check_keys(v, where, ("p_plateau", "p_support"), ())
    try:
        return BandTaper(_num(v["p_plateau"], f"{where}.p_plateau"),
                         _num(v["p_support"], f"{where}.p_support"))
    except AirylabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_probe(v, where: str) -> GaussianParams:
    _check_keys(v, where, (), ("x0", "p0", "sigma"))
    try:
        return GaussianParams(
            x0=_num(v.get("x0", 0.0), f"{where}.x0"),
            p0=_num(v.get("p0", 0.0), f"{where}.p0"),
            sigma=_num(v.get("sigma", 1.0), f"{where}.sigma"))
    except AirylabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_VALIDATORS = {
    "num": _num,
    "int": _intval,
    "count": _count,
    "bool": _boolval,
    "numlist": _numlist,
    "window": _parse_window,
    "band": _parse_band,
    "probe": _parse_probe,
}

_STATE_KINDS = {
    "perelomov": (("eps",), ("xi", "t", "band")),
    "gaussian": ((), ("x0", "p0", "sigma")),
    "berry_balazs": (("B",), ()),
    "xi_eigenstate": (("xi", "t"), ()),
}


def _validate_state_spec(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _strval(spec.get("kind", ""), f"{where}.kind") \
        if "kind" in spec else None
    if kind not in _STATE_KINDS:
        raise ConfigError(
            f"{where}.kind must be one of {sorted(_STATE_KINDS)}, got {kind!r}")
    required, optional = _STATE_KINDS[kind]
    _check_keys(spec, where, ("kind",) + required, optional)
    out = {"kind": kind}
    for key in required + optional:
        if key in spec:
            out[key] = _parse_band(spec[key], f"{where}.{key}") \
                if key == "band" else _num(spec[key], f"{where}.{key}")
    return out


def _build_state(spec: dict, grid: Grid, phys: PhysParams) -> WaveField:
    kind = spec["kind"]
    if kind == "perelomov":
        c = CoherentParams(eps=spec["eps"], xi=spec.get("xi", 0.0),
                           t=spec.get("t", 0.0))
        mom = perelomov_state(c, Rep.MOMENTUM, grid, phys,
                              band=spec.get("band", "auto"))
        return to_rep(mom, Rep.POSITION)
    if kind == "gaussian":
        g = GaussianParams(x0=spec.get("x0", 0.0), p0=spec.get("p0", 0.0),
                           sigma=spec.get("sigma", 1.0))
        return gaussian_packet(g, grid, phys)
    if kind == "berry_balazs":
        return berry_balazs_initial(spec["B"], grid, phys)
    return xi_eigenstate_x(spec["xi"], spec["t"], grid, phys)


def _coherent_from_state(state_spec: dict | None, name: str) -> CoherentParams:
    if state_spec is None or state_spec["kind"] != "perelomov":
        raise ConfigError(
            f"experiment {name!r} requires a state of kind 'perelomov'")
    return CoherentParams(eps=state_spec["eps"], xi=state_spec.get("xi", 0.0),
                          t=state_spec.get("t", 0.0))


# registry: name -> (param schema {key: (tag, required)},
#                    tolerance metric -> kwarg,
#                    state requirement,
#                    runner(grid, phys, state_spec, params, tols))

def _run_eigen(grid, phys, state_spec, p, tols):
    c = _coherent_from_state(state_spec, "eigenrelation_residual")
    return eigenrelation_residual(
        c, grid, phys, w=p.get("window"), band=p.get("band", "auto"),
        xi_probe=p.get("xi_probe"), **tols)


def _run_accel(grid, phys, state_spec, p, tols):
    c = _coherent_from_state(state_spec, "acceleration_fit")
    return acceleration_fit(c, p["taus"], grid, phys,
                            band=p.get("band", "auto"), **tols)


def _run_shape(grid, phys, state_spec, p, tols):
    c = _coherent_from_state(state_spec, "shape_distortion")
    return shape_distortion(c, p["tau"], grid, phys, w=p.get("window"),
                            band=p.get("band", "auto"), **tols)


def _run_evolution(grid, phys, state_spec, p, tols):
    c = _coherent_from_state(state_spec, "evolution_equivalence")
    return evolution_equivalence(
        c, p["tau"], grid, phys, w=p.get("window"),
        band=p.get("band", "auto"),
        drop_cubic_phase=p.get("drop_cubic_phase", False), **tols)


def _run_overlap(grid, phys, state_spec, p, tols):
    return overlap_scan(p["eps_list"], xi=p.get("xi", 0.0), t=p.get("t", 0.0),
                        eps_ref=p.get("eps_ref", 0.0),
                        quad_tol=p.get("quad_tol", 1.0e-7),
                        xi_alt_offset=p.get("xi_alt_offset", 5.0), **tols)


def _run_basis(grid, phys, state_spec, p, tols):
    kwargs = {}
    if "n_states" in p:
        kwargs["n_states"] = p["n_states"]
    if "window_fraction" in p:
        kwargs["window_fraction"] = p["window_fraction"]
    if "sum_taper_frac" in p:
        kwargs["sum_taper_frac"] = p["sum_taper_frac"]
    return basis_orthonormality(p["eps"], p["t"], grid, phys,
                                probe=p.get("probe"), **kwargs, **tols)


def _run_kseries(grid, phys, state_spec, p, tols):
    if state_spec is None:
        raise ConfigError("experiment 'k_expectation_series' requires a state")
    field = _build_state(state_spec, grid, phys)
    return k_expectation_series(field, p["taus"], phys, w=p.get("window"),
                                **tols)


def _run_boostcov(grid, phys, state_spec, p, tols):
    if state_spec is None:
        raise ConfigError("experiment 'boost_covariance_residual' requires a state")
    field = _build_state(state_spec, grid, phys)
    return boost_covariance_residual(field, p["v"], p["tau"], phys,
                                     w=p.get("window"), **tols)


def _run_bbtraj(grid, phys, state_spec, p, tols):
    return berry_balazs_trajectory(p["B"], p["t_list"], grid, phys,
                                   w=p.get("window"),
                                   band=p.get("band", "auto"), **tols)


def _run_crosscheck(grid, phys, state_spec, p, tols):
    c = _coherent_from_state(state_spec, "representation_crosscheck")
    return representation_crosscheck(c, grid, phys, w=p.get("window"),
                                     band=p.get("band", "auto"), **tols)


def _run_epszero(grid, phys, state_spec, p, tols):
    return eps_to_zero_limit(p["eps_seq"], p["xi"], p["t"], grid, phys,
                             w=p.get("window"), band=p.get("band", "auto"))


def _run_epsinf(grid, phys, state_spec, p, tols):
    return eps_to_infinity_fidelity(p["eps_seq"], p["tau"], grid, phys,
                                    w=p.get("window"),
                                    band=p.get("band", "auto"))


def _run_commutators(grid, phys, state_spec, p, tols):
    return commutator_table(grid, phys, w=p.get("window"),
                            probe=p.get("probe"), **tols)


_EXPERIMENTS = {
    "eigenrelation_residual": (
        {"window": ("window", False), "band": ("band", False),
         "xi_probe": ("num", False)},
        {"residual": "tol"}, _run_eigen),
    "acceleration_fit": (
        {"taus": ("numlist", True), "band": ("band", False)},
        {"rel_err": "tol_rel"}, _run_accel),
    "shape_distortion": (
        {"tau": ("num", True), "window": ("window", False),
         "band": ("band", False)},
        {"distortion": "tol"}, _run_shape),
    "evolution_equivalence": (
        {"tau": ("num", True), "window": ("window", False),
         "band": ("band", False), "drop_cubic_phase": ("bool", False)},
        {"fidelity_deficit": "tol_fidelity", "phase_discrepancy": "tol_phase"},
        _run_evolution),
    "overlap_scan": (
        {"eps_list": ("numlist", True), "xi": ("num", False),
         "t": ("num", False), "eps_ref": ("num", False),
         "quad_tol": ("num", False), "xi_alt_offset": ("num", False)},
        {"exponent_err": "tol_exponent", "label_dependence": "tol_label_dep"},
        _run_overlap),
    "basis_orthonormality": (
        {"eps": ("num", True), "t": ("num", True), "n_states": ("count", False),
         "window_fraction": ("num", False), "probe": ("probe", False),
         "sum_taper_frac": ("num", False)},
        {"diag_flatness": "tol_diag",
         "offdiag_suppression_min": "min_suppression",
         "reconstruction_err": "tol_recon"}, _run_basis),
    "k_expectation_series": (
        {"taus": ("numlist", True), "window": ("window", False)},
        {"drift": "tol"}, _run_kseries),
    "boost_covariance_residual": (
        {"v": ("num", True), "tau": ("num", True), "window": ("window", False)},
        {"residual": "tol"}, _run_boostcov),
    "berry_balazs_trajectory": (
        {"B": ("num", True), "t_list": ("numlist", True),
         "window": ("window", False), "band": ("band", False)},
        {"coeff_rel_err": "tol_coeff", "distortion_max": "tol_distortion"},
        _run_bbtraj),
    "representation_crosscheck": (
        {"window": ("window", False), "band": ("band", False)},
        {"sup_rel": "tol"}, _run_crosscheck),
    "eps_to_zero_limit": (
        {"eps_seq": ("numlist", True), "xi": ("num", True), "t": ("num", True),
         "window": ("window", False), "band": ("band", False)},
        {}, _run_epszero),
    "eps_to_infinity_fidelity": (
        {"eps_seq": ("numlist", True), "tau": ("num", True),
         "window": ("window", False), "band": ("band", False)},
        {}, _run_epsinf),
    "commutator_table": (
        {"window": ("window", False), "probe": ("probe", False)},
        {"max_rel_err": "tol"}, _run_commutators),
}


def _validate_experiment_spec(spec, where: str) -> dict:
    _check_keys(spec, where, ("name",), ("parameters", "tolerances"))
    name = _strval(spec["name"], f"{where}.name")
    if name not in _EXPERIMENTS:
        raise ConfigError(
            f"{where}.name: unknown experiment {name!r}; "
            f"known: {sorted(_EXPERIMENTS)}")
    schema, tol_map, _runner = _EXPERIMENTS[name]
    raw_params = spec.get("parameters", {})
    required = tuple(k for k, (_t, req) in schema.items() if req)
    optional = tuple(k for k, (_t, req) in schema.items() if not req)
    _check_keys(raw_params, f"{where}.parameters", required, optional)
    params = {}
    for key, value in raw_params.items():
        tag, _req = schema[key]
        params[key] = _VALIDATORS[tag](value, f"{where}.parameters.{key}")
    raw_tols = spec.get("tolerances", {})
    _check_keys(raw_tols, f"{where}.tolerances", (), tuple(tol_map))
    tols = {tol_map[k]: _num(v, f"{where}.tolerances.{k}")
            for k, v in raw_tols.items()}
    return {"name": name, "params": params, "tols": tols}


_COMMANDS = ("State", "Evolve", "Verify", "Scan")
_OUTPUT_KEYS = ("report", "csv", "trajectory_csv", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: command, grid, phys, state, experiments."""

    command: str
    grid: Grid
    phys: PhysParams
    state_spec: dict | None
    experiments: tuple
    evolve_taus: tuple
    outputs: dict

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        _check_keys(data, "config",
                    ("command", "grid"),
                    ("phys", "state", "experiment", "experiments", "evolve",
                     "output"))
        command = _strval(data["command"], "config.command")
        if command not in _COMMANDS:
            raise ConfigError(
                f"config.command must be one of {list(_COMMANDS)}, "
                f"got {command!r}")
        _check_keys(data["grid"], "config.grid", ("n", "x_min", "x_max"), ())
        phys_spec = data.get("phys", {})
        _check_keys(phys_spec, "config.phys", (), ("hbar", "m"))
        try:
            phys = PhysParams(hbar=_num(phys_spec.get("hbar", 1.0),
                                        "config.phys.hbar"),
                              m=_num(phys_spec.get("m", 1.0), "config.phys.m"))
            grid = make_grid(_intval(data["grid"]["n"], "config.grid.n"),
                             _num(data["grid"]["x_min"], "config.grid.x_min"),
                             _num(data["grid"]["x_max"], "config.grid.x_max"),
                             phys)
        except (AirylabError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        state_spec = None
        if "state" in data:
            state_spec = _validate_state_spec(data["state"], "config.state")
        if command in ("State", "Evolve") and state_spec is None:
            raise ConfigError(f"command {command} requires config.state")
        experiments: list = []
        if command == "Verify":
            if "experiment" not in data:
                raise ConfigError("command Verify requires config.experiment")
            experiments = [_validate_experiment_spec(data["experiment"],
                                                     "config.experiment")]
        elif command == "Scan":
            specs = data.get("experiments")
            if not isinstance(specs, list) or not specs:
                raise ConfigError(
                    "command Scan requires a non-empty config.experiments array")
            experiments = [
                _validate_experiment_spec(s, f"config.experiments[{i}]")
                for i, s in enumerate(specs)]
        else:
            for key in ("experiment", "experiments"):
                if key in data:
                    raise ConfigError(
                        f"config.{key} only applies to Verify/Scan")
        evolve_taus: tuple = ()
        if command == "Evolve":
            if "evolve" not in data:
                raise ConfigError("command Evolve requires config.evolve")
            _check_keys(data["evolve"], "config.evolve", ("taus",), ())
            evolve_taus = tuple(_numlist(data["evolve"]["taus"],
                                         "config.evolve.taus"))
        elif "evolve" in data:
            raise ConfigError("config.evolve only applies to Evolve")
        out_spec = data.get("output", {})
        _check_keys(out_spec, "config.output", (), _OUTPUT_KEYS)
        outputs = {k: _strval(v, f"config.output.{k}")
                   for k, v in out_spec.items()}
        outputs.setdefault("report", "report.json")
        if command == "State":
            outputs.setdefault("csv", "state.csv")
        if command == "Evolve":
            outputs.setdefault("csv", "state.csv")
            outputs.setdefault("trajectory_csv", "trajectory.csv")
        return cls(command=command, grid=grid, phys=phys,
                   state_spec=state_spec, experiments=tuple(experiments),
                   evolve_taus=evolve_taus, outputs=outputs)


# ----------------------------------------------------------------------
# execution

def _run_experiments(cfg: RunConfig) -> list:
    reports = []
    for spec in cfg.experiments:
        _schema, _tols, runner = _EXPERIMENTS[spec["name"]]
        reports.append(runner(cfg.grid, cfg.phys, cfg.state_spec,
                              spec["params"], spec["tols"]))
    return reports


def _execute(cfg: RunConfig, out_dir: str, echo, seed) -> tuple[bool, list]:
    artifacts = []

    def target(name: str) -> str:
        path = cfg.outputs[name]
        if not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        artifacts.append(path)
        return path

    reports = []
    passed = True
    if cfg.command in ("State", "Evolve"):
        field = _build_state(cfg.state_spec, cfg.grid, cfg.phys)
        if cfg.command == "State":
            emit_csv(field, target("csv"))
            if "svg" in cfg.outputs:
                emit_svg_plot([("density", cfg.grid.x, field.density())],
                              target("svg"))
            reports.append({
                "name": "state",
                "metrics": {"l2_norm": windowed_norm(field),
                            "time": field.time},
                "config": cfg.state_spec, "tolerances": {}, "passed": True})
        else:
            rows = []
            final = field
            for tau in cfg.evolve_taus:
                final = to_rep(free_evolve(field, tau, cfg.phys), Rep.POSITION)
                rows.append((final.time, _parabolic_peak(final)))
            emit_csv(final, target("csv"))
            emit_csv(rows, target("trajectory_csv"))
            if "svg" in cfg.outputs:
                first = to_rep(free_evolve(field, cfg.evolve_taus[0], cfg.phys),
                               Rep.POSITION)
                emit_svg_plot(
                    [(f"tau={cfg.evolve_taus[0]:g}", cfg.grid.x,
                      first.density()),
                     (f"tau={cfg.evolve_taus[-1]:g}", cfg.grid.x,
                      final.density())],
                    target("svg"))
            reports.append({
                "name": "evolve",
                "metrics": {"taus": list(cfg.evolve_taus),
                            "peaks": [r[1] for r in rows]},
                "config": cfg.state_spec, "tolerances": {}, "passed": True})
    else:
        for rep in _run_experiments(cfg):
            reports.append(rep.to_dict())
            passed = passed and rep.passed

    payload = {
        "command": cfg.command,
        "passed": bool(passed),
        "reports": reports,
        "config": echo,
        "seed": seed,
    }
    _atomic_write_text(target("report"),
                       json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return passed, artifacts


def run_config(path: str, out_dir: str = ".",
               seed: int | None = None) -> tuple[int, list]:
    """Execute a config file; return (exit code, artifact paths written)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO, []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG, []
    try:
        cfg = RunConfig.from_dict(data)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG, []
    try:
        os.makedirs(out_dir, exist_ok=True)
        passed, artifacts = _execute(cfg, out_dir, data, seed)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO, []
    except AirylabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE, []
    return (EXIT_OK if passed else EXIT_TOLERANCE), artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="airy-lab",
        description="Run Airy coherent-family computations from a JSON config.")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--out-dir", default=".",
                        help="directory for artifacts (default: current)")
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; recorded in the report for provenance")
    args = parser.parse_args(argv)
    code, artifacts = run_config(args.config, args.out_dir, args.seed)
    for a in artifacts:
        print(a)
    return code


if __name__ == "__main__":
    sys.exit(main())
