"""Command-line front end: config-driven runs with CSV/JSON/SVG artifacts.

The config file is the provenance: a JSON document selecting a command
(State, Evolve, Verify, Scan), a grid, physical constants, a state, and
for verification commands an experiment spec with parameter and
tolerance overrides.  The grid is built with the constants and carries
them into every computation.  Everything is validated before any
computation; unknown keys are rejected at every level, and so is a
section or output that the command does not read (`_COMMANDS`).  What an
experiment accepts is its signature, as `experiments.EXPERIMENTS`
derives it: each parameter the config may give, with its validator and
required when it has no default, and each tolerance keyword; `c` or
`field` in the signature means the config needs a state.  A value the
config leaves out keeps the default of its function or dataclass.

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
import functools
import inspect
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

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
from . import experiments
from .experiments import ExperimentReport, _parabolic_peak
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

def _atomic_write(path: str, chunks) -> None:
    """Write the strings of `chunks`, in order, to a temp file next to
    `path`, then rename it into place; on any failure remove the temp file
    and leave `path` as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".airylab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Rows per format call: enough that the call costs little next to %.17g,
# few enough that each block's text (about 6 kB) reuses the same small
# heap chunks.  Blocks of 512 rows ran as fast but left the C heap
# fragmented, and peak RSS on a run of 2^16-point States rose by 5%.
_CSV_BLOCK = 64


def _field_csv(field: WaveField):
    yield "x,re,im,density\n"
    table = np.column_stack((field.grid.x, field.amplitudes.real,
                             field.amplitudes.imag, field.density()))
    for start in range(0, len(table), _CSV_BLOCK):
        block = table[start:start + _CSV_BLOCK]
        yield "%.17g,%.17g,%.17g,%.17g\n" * len(block) % tuple(
            block.ravel().tolist())


def emit_csv(obj, path: str) -> None:
    """Write a field or a trajectory as locale-independent CSV.

    Fields (position representation only, to keep the `x` header honest)
    get one row per grid point with 17 significant digits, enough for an
    exact double round trip.  Trajectories are (t, x_peak) pairs.

    Rows are formatted a block at a time from whole columns and streamed
    to the file.  What remains is `%.17g` itself, about 0.34-0.5 us per
    value in CPython on a 2-core x86 box and the floor for these bytes:
    about 0.1-0.2 s for a 2^16-point field.
    """
    if isinstance(obj, WaveField):
        if obj.rep is not Rep.POSITION:
            raise AirylabError("fields are emitted in the position representation")
        _atomic_write(path, _field_csv(obj))
    else:
        _atomic_write(path, ["t,x_peak\n"] + [
            f"{float(t):.17g},{float(xp):.17g}\n" for t, xp in obj])


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
        # px and py map whole arrays with the scalar arithmetic, elementwise
        pixels = np.column_stack((px(xs), py(ys)))
        pts = " ".join(["%.3f,%.3f"] * len(pixels)) % tuple(
            pixels.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 18 + 20 * k
        parts.append(f'<line x1="{_SVG_W - _MR - 150}" y1="{ly - 4}" '
                     f'x2="{_SVG_W - _MR - 120}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        # XML-escape the label, "&" first
        text = label.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        parts.append(f'<text x="{_SVG_W - _MR - 112}" y="{ly}" '
                     f'font-family="monospace" font-size="13">{text}</text>')
    parts.append("</svg>")
    _atomic_write(path, ["\n".join(parts), "\n"])


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


def _given(cls, spec: dict, where: str):
    """`cls` built from the fields a spec gives; the rest keep their defaults.

    Each field is checked on its own by its dataclass, so the fields are
    given one more at a time and a value the class rejects is reported at
    its own key, `where.<field>`.
    """
    given, built = {}, None
    for f in fields(cls):
        if f.name in spec:
            given[f.name] = spec[f.name]
            try:
                built = cls(**given)
            except (AirylabError, ValueError) as exc:
                raise ConfigError(f"{where}.{f.name}: {exc}") from exc
    return cls() if built is None else built


def _parse_band(v, where: str):
    if v is None or v == "auto":
        return v
    _check_keys(v, where, ("p_plateau", "p_support"), ())
    edges = (_num(v["p_plateau"], f"{where}.p_plateau"),
             _num(v["p_support"], f"{where}.p_support"))
    try:
        return BandTaper(*edges)
    except AirylabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_probe(v, where: str) -> GaussianParams:
    _check_keys(v, where, (), ("x0", "p0", "sigma"))
    return _given(GaussianParams,
                  {k: _num(x, f"{where}.{k}") for k, x in v.items()}, where)


_VALIDATORS = {
    "num": _num,
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
# the dataclass that checks a state kind's labels
_STATE_PARAMS = {"perelomov": CoherentParams, "gaussian": GaussianParams}


def _validate_state_spec(spec, where: str) -> tuple[dict, object]:
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
    return out, (_given(_STATE_PARAMS[kind], out, where)
                 if kind in _STATE_PARAMS else None)


def _build_state(cfg: RunConfig) -> WaveField:
    spec, labels, grid = cfg.state_spec, cfg.state_labels, cfg.grid
    kind = spec["kind"]
    if kind == "perelomov":
        mom = perelomov_state(labels, Rep.MOMENTUM, grid,
                              band=spec.get("band", "auto"))
        return to_rep(mom, Rep.POSITION)
    if kind == "gaussian":
        return gaussian_packet(labels, grid)
    if kind == "berry_balazs":
        return berry_balazs_initial(spec["B"], grid)
    return xi_eigenstate_x(spec["xi"], spec["t"], grid)


# the keyword each config parameter is passed as, where it is not its key
_KEYWORDS = {key: name for name, key in experiments._CONFIG_KEYS.items()}


def _validate_experiment_spec(spec, where: str, state_spec) -> dict:
    _check_keys(spec, where, ("name",), ("parameters", "tolerances"))
    name = _strval(spec["name"], f"{where}.name")
    if name not in experiments.EXPERIMENTS:
        raise ConfigError(
            f"{where}.name: unknown experiment {name!r}; "
            f"known: {sorted(experiments.EXPERIMENTS)}")
    tags, tol_map = experiments.EXPERIMENTS[name]
    signature = inspect.signature(getattr(experiments, name)).parameters
    if "c" in signature and (state_spec is None
                             or state_spec["kind"] != "perelomov"):
        raise ConfigError(
            f"experiment {name!r} requires a state of kind 'perelomov'")
    if "field" in signature and state_spec is None:
        raise ConfigError(f"experiment {name!r} requires a state")
    required = tuple(k for k in tags if signature[_KEYWORDS.get(k, k)].default
                     is inspect.Parameter.empty)
    raw_params = spec.get("parameters", {})
    _check_keys(raw_params, f"{where}.parameters", required,
                tuple(k for k in tags if k not in required))
    params = {key: _VALIDATORS[tags[key]](value, f"{where}.parameters.{key}")
              for key, value in raw_params.items()}
    raw_tols = spec.get("tolerances", {})
    _check_keys(raw_tols, f"{where}.tolerances", (), tuple(tol_map))
    tols = {tol_map[k]: _num(v, f"{where}.tolerances.{k}")
            for k, v in raw_tols.items()}
    return {"name": name, "params": params, "tols": tols}


# command -> (config section -> what the command requires when it is
# missing, or None where the command only reads it; output -> its default
# path, or None where it is written only when the config names it).  A
# section or output that a command does not list is rejected.
_COMMANDS = {
    "State": ({"state": "config.state"},
              {"report": "report.json", "csv": "state.csv", "svg": None}),
    "Evolve": ({"state": "config.state", "evolve": "config.evolve"},
               {"report": "report.json", "csv": "state.csv",
                "trajectory_csv": "trajectory.csv", "svg": None}),
    "Verify": ({"experiment": "config.experiment", "state": None},
               {"report": "report.json"}),
    "Scan": ({"experiments": "a non-empty config.experiments array",
              "state": None}, {"report": "report.json"}),
}
_SECTIONS = ("state", "experiment", "experiments", "evolve")
_OUTPUT_KEYS = ("report", "csv", "trajectory_csv", "svg")


def _stray(where: str, key: str, part: int) -> ConfigError:
    """`where` is a section (part 0) or an output (part 1) of other commands."""
    users = "/".join(c for c, spec in _COMMANDS.items() if key in spec[part])
    return ConfigError(f"{where} only applies to {users}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: command, grid (which holds the physical
    constants), state with its labels, experiments."""

    command: str
    grid: Grid
    state_spec: dict | None
    state_labels: CoherentParams | GaussianParams | None
    experiments: tuple
    evolve_taus: tuple
    outputs: dict

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        _check_keys(data, "config", ("command", "grid"),
                    ("phys", "output") + _SECTIONS)
        command = _strval(data["command"], "config.command")
        if command not in _COMMANDS:
            raise ConfigError(
                f"config.command must be one of {list(_COMMANDS)}, "
                f"got {command!r}")
        sections, writes = _COMMANDS[command]
        _check_keys(data["grid"], "config.grid", ("n", "x_min", "x_max"), ())
        phys_spec = data.get("phys", {})
        _check_keys(phys_spec, "config.phys", (), ("hbar", "m"))
        phys = _given(PhysParams, {k: _num(v, f"config.phys.{k}")
                                   for k, v in phys_spec.items()},
                      "config.phys")
        try:
            grid = make_grid(_intval(data["grid"]["n"], "config.grid.n"),
                             _num(data["grid"]["x_min"], "config.grid.x_min"),
                             _num(data["grid"]["x_max"], "config.grid.x_max"),
                             phys)
        except (AirylabError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for key in _SECTIONS:
            if key in data and key not in sections:
                raise _stray(f"config.{key}", key, 0)
            if sections.get(key) and key not in data:
                raise ConfigError(f"command {command} requires {sections[key]}")
        state_spec, labels = (_validate_state_spec(data["state"], "config.state")
                              if "state" in data else (None, None))
        runs: list = []
        if "experiment" in data:
            runs = [_validate_experiment_spec(data["experiment"],
                                              "config.experiment", state_spec)]
        if "experiments" in data:
            specs = data["experiments"]
            if not isinstance(specs, list) or not specs:
                raise ConfigError(
                    f"command {command} requires {sections['experiments']}")
            runs = [_validate_experiment_spec(s, f"config.experiments[{i}]",
                                              state_spec)
                    for i, s in enumerate(specs)]
        evolve_taus: tuple = ()
        if "evolve" in data:
            _check_keys(data["evolve"], "config.evolve", ("taus",), ())
            evolve_taus = tuple(_numlist(data["evolve"]["taus"],
                                         "config.evolve.taus"))
        out_spec = data.get("output", {})
        _check_keys(out_spec, "config.output", (), _OUTPUT_KEYS)
        outputs = {k: v for k, v in writes.items() if v is not None}
        for key, path in out_spec.items():
            if key not in writes:
                raise _stray(f"config.output.{key}", key, 1)
            outputs[key] = _strval(path, f"config.output.{key}")
        return cls(command=command, grid=grid, state_spec=state_spec,
                   state_labels=labels, experiments=tuple(runs),
                   evolve_taus=evolve_taus, outputs=outputs)


# ----------------------------------------------------------------------
# execution

def _run_experiment(cfg: RunConfig, spec: dict, state):
    """Call the named experiment, looked up on its module at call time,
    with the validated parameters and tolerances as keywords; anything
    not given keeps the function's own default; `state()` is the built state."""
    run = getattr(experiments, spec["name"])
    signature = inspect.signature(run).parameters
    kwargs = {_KEYWORDS.get(k, k): v for k, v in spec["params"].items()}
    supplied = {"grid": cfg.grid, "phys": cfg.grid.phys, "c": cfg.state_labels}
    kwargs.update((k, v) for k, v in supplied.items() if k in signature)
    if "field" in signature:
        kwargs["field"] = state()
    return run(**kwargs, **spec["tols"])


def _execute(cfg: RunConfig, out_dir: str, echo, seed) -> tuple[bool, list]:
    artifacts = []

    def target(name: str) -> str:
        path = cfg.outputs[name]
        if not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        artifacts.append(path)
        return path

    state = functools.cache(lambda: _build_state(cfg))
    if cfg.command == "State":
        field = state()
        emit_csv(field, target("csv"))
        if "svg" in cfg.outputs:
            emit_svg_plot([("density", cfg.grid.x, field.density())],
                          target("svg"))
        runs = [ExperimentReport(
            "state", {"l2_norm": windowed_norm(field), "time": field.time},
            cfg.state_spec, {}, True)]
    elif cfg.command == "Evolve":
        rows = []
        for tau in cfg.evolve_taus:
            final = to_rep(free_evolve(state(), tau), Rep.POSITION)
            if not rows:
                first = final
            rows.append((final.time, _parabolic_peak(final)))
        emit_csv(final, target("csv"))
        emit_csv(rows, target("trajectory_csv"))
        if "svg" in cfg.outputs:
            emit_svg_plot(
                [(f"tau={cfg.evolve_taus[0]:g}", cfg.grid.x, first.density()),
                 (f"tau={cfg.evolve_taus[-1]:g}", cfg.grid.x,
                  final.density())],
                target("svg"))
        runs = [ExperimentReport(
            "evolve", {"taus": list(cfg.evolve_taus),
                       "peaks": [r[1] for r in rows]},
            cfg.state_spec, {}, True)]
    else:
        runs = [_run_experiment(cfg, spec, state) for spec in cfg.experiments]
    passed = all(r.passed for r in runs)
    payload = {
        "command": cfg.command,
        "passed": passed,
        "reports": [r.to_dict() for r in runs],
        "config": echo,
        "seed": seed,
    }
    # a State/Evolve report echoes its state spec, whose band is a BandTaper
    _atomic_write(target("report"),
                  [json.dumps(payload, indent=2, sort_keys=True,
                              default=asdict), "\n"])
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
    except (AirylabError, ArithmeticError) as exc:
        # overflow or a zero divisor from extreme labels is a domain error
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
