"""Config fuzz: strategies built from the experiment registry.

Valid configs of every command (Verify, Scan, State, Evolve) must end
in one of the documented exit codes with no traceback; a config with
one schema violation must exit 2 before any computation, and an output
path that cannot be written must exit 3.
"""

import contextlib
import copy
import inspect
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from airylab import experiments
from airylab.cli import EXIT_CONFIG, EXIT_IO, run_config

NAMES = sorted(experiments.EXPERIMENTS)

nums = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
positive = st.floats(0.1, 10.0)
VALUES = {
    "num": nums,
    "numlist": st.lists(nums, min_size=1, max_size=5),
    "count": st.integers(1, 8),
    "bool": st.booleans(),
    "window": st.fixed_dictionaries({
        "kind": st.sampled_from(["rect", "tukey"]),
        "interior_fraction": st.floats(0.05, 1.0)}),
    "band": st.one_of(
        st.just("auto"), st.none(),
        st.fixed_dictionaries({"p_plateau": positive,
                               "p_support": positive})),
    "probe": st.fixed_dictionaries({}, optional={
        "x0": nums, "p0": nums, "sigma": positive}),
}

PERELOMOV = st.fixed_dictionaries(
    {"kind": st.just("perelomov"), "eps": nums},
    optional={"xi": nums, "t": nums, "band": VALUES["band"]})
STATES = st.one_of(
    PERELOMOV,
    st.fixed_dictionaries({"kind": st.just("gaussian")},
                          optional={"x0": nums, "p0": nums,
                                    "sigma": positive}),
    st.fixed_dictionaries({"kind": st.just("berry_balazs"), "B": nums}),
    st.fixed_dictionaries({"kind": st.just("xi_eigenstate"), "xi": nums,
                           "t": nums}))


def _signature(name):
    return inspect.signature(getattr(experiments, name)).parameters


def _required(name):
    tags, _ = experiments.EXPERIMENTS[name]
    signature = _signature(name)
    return [k for k in tags
            if signature["w" if k == "window" else k].default
            is inspect.Parameter.empty]


def _spec(draw, name):
    """A registry-drawn experiment spec with random tolerance overrides."""
    tags, tol_map = experiments.EXPERIMENTS[name]
    required = _required(name)
    params = {k: draw(VALUES[tag]) for k, tag in tags.items()
              if k in required or draw(st.booleans())}
    tols = {k: draw(st.floats(1e-12, 1.0)) for k in tol_map
            if draw(st.booleans())}
    return {"name": name, "parameters": params, "tolerances": tols}


def _grid(draw):
    # grid.n stays at or below 2^12: every draw is a real allocation
    lo = draw(st.floats(-128.0, -1.0))
    return {"n": 2 ** draw(st.integers(3, 12)), "x_min": lo,
            "x_max": draw(st.floats(1.0, 128.0))}


def _phys(draw, cfg):
    if draw(st.booleans()):
        cfg["phys"] = {"hbar": draw(positive), "m": draw(positive)}
    return cfg


@st.composite
def valid_configs(draw):
    name = draw(st.sampled_from(NAMES))
    spec = _spec(draw, name)
    cfg = {"command": "Verify", "grid": _grid(draw), "experiment": spec}
    signature = _signature(name)
    if "c" in signature:
        cfg["state"] = draw(PERELOMOV)
    elif "field" in signature or draw(st.booleans()):
        cfg["state"] = draw(STATES)
    return _phys(draw, cfg)


@st.composite
def scan_configs(draw):
    """Two or three registry-drawn experiments on one perelomov state."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=3))
    cfg = {"command": "Scan", "grid": _grid(draw), "state": draw(PERELOMOV),
           "experiments": [_spec(draw, name) for name in names]}
    return _phys(draw, cfg)


@st.composite
def state_configs(draw):
    """State and Evolve configs, with or without an SVG plot."""
    cfg = {"command": draw(st.sampled_from(["State", "Evolve"])),
           "grid": _grid(draw), "state": draw(STATES)}
    if cfg["command"] == "Evolve":
        cfg["evolve"] = {"taus": draw(VALUES["numlist"])}
    if draw(st.booleans()):
        cfg["output"] = {"svg": "plot.svg"}
    return _phys(draw, cfg)


@st.composite
def resolved_configs(draw):
    """Gaussian State and Evolve configs (hbar = m = 1) on a grid drawn
    from the packet's own scales, so the build and the run resolve: x0 +-
    6 sigma inside the box, sigma >= 4 dx, and |p0| + 6 hbar/(2 sigma)
    inside the Nyquist band pi hbar/dx."""
    sigma, x0, p0 = (draw(st.floats(0.5, 4.0)), draw(st.floats(-10.0, 10.0)),
                     draw(st.floats(-2.0, 2.0)))
    half = abs(x0) + 6.0 * sigma + draw(st.floats(1.0, 20.0))
    dx = 0.9 * min(sigma / 4.0, math.pi / (abs(p0) + 3.0 / sigma))
    # at most 2^10 points: half <= 54 and dx >= 0.1125
    cfg = {"command": draw(st.sampled_from(["State", "Evolve"])),
           "grid": {"n": 2 ** math.ceil(math.log2(2.0 * half / dx)),
                    "x_min": -half, "x_max": half},
           "state": {"kind": "gaussian", "x0": x0, "p0": p0, "sigma": sigma}}
    if cfg["command"] == "Evolve":
        # the peak travels |p0| tau <= 4, inside the 1 + 6 sigma margin
        cfg["evolve"] = {"taus": draw(st.lists(st.floats(0.0, 2.0),
                                               min_size=1, max_size=3))}
    return cfg


ANY_CONFIG = st.one_of(valid_configs(), scan_configs(), state_configs())
# the artifacts each command writes, in the order it writes them
WRITES = {"Verify": ("report",), "Scan": ("report",),
          "State": ("csv", "report"),
          "Evolve": ("csv", "trajectory_csv", "report")}


def _mutations(cfg):
    """Each returns a copy of cfg with exactly one schema violation."""
    name = cfg["experiment"]["name"]
    signature = _signature(name)
    out = []
    for where in ("", "grid", "experiment", "experiment.parameters",
                  "experiment.tolerances", "state", "phys"):
        def unknown_key(d, where=where):
            target = d
            for key in filter(None, where.split(".")):
                target = target.setdefault(key, {})
            target["bogus"] = 1.0
        if where not in ("state", "phys") or where in cfg:
            out.append(unknown_key)
    for key in cfg["experiment"]["parameters"]:
        def wrong_type(d, key=key):
            d["experiment"]["parameters"][key] = "oops"
        out.append(wrong_type)
    for key in ("n", "x_min", "x_max"):
        def wrong_grid_type(d, key=key):
            d["grid"][key] = [d["grid"][key]]
        out.append(wrong_grid_type)
    for key in _required(name):
        def missing(d, key=key):
            del d["experiment"]["parameters"][key]
        out.append(missing)
    if "c" in signature:
        def wrong_kind(d):
            d["state"] = {"kind": "gaussian"}
        out.append(wrong_kind)
    if "c" in signature or "field" in signature:
        def no_state(d):
            del d["state"]
        out.append(no_state)
    # a section or output that Verify does not read
    for key, value in (("experiments", [cfg["experiment"]]),
                       ("evolve", {"taus": [1.0]}),
                       ("output", {"svg": "plot.svg"})):
        def unread(d, key=key, value=value):
            d[key] = value
        out.append(unread)
    return out


def _run(cfg, blocked=None):
    """Run cfg; `blocked` names an output moved under the config file
    itself, a path that cannot be created even by root."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        if blocked is not None:
            cfg = copy.deepcopy(cfg)
            cfg.setdefault("output", {})[blocked] = os.path.join(
                path, "artifact")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, artifacts = run_config(path, os.path.join(tmp, "out"))
    return code, err.getvalue(), artifacts


FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=40)
@given(valid_configs())
def test_valid_configs_keep_the_exit_contract(cfg):
    code, err, _ = _run(cfg)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(FUZZ, max_examples=30)
@given(st.one_of(scan_configs(), state_configs()))
@example({"command": "State", "grid": {"n": 8, "x_min": -3.0, "x_max": 1.0},
          "state": {"kind": "xi_eigenstate", "xi": -2.0,
                    "t": 5.186069348858173e-308}})
def test_scan_state_evolve_keep_the_exit_contract(cfg):
    code, err, _ = _run(cfg)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(FUZZ, max_examples=40)
# half of the draws resolve, so they reach the blocked write; st.one_of
# would flatten ANY_CONFIG and give them only a quarter
@given(st.booleans().flatmap(
    lambda resolved: resolved_configs() if resolved else ANY_CONFIG), st.data())
def test_unwritable_output_exits_3(cfg, data):
    blocked = data.draw(st.sampled_from(WRITES[cfg["command"]]))
    code, err, artifacts = _run(cfg, blocked)
    assert "Traceback" not in err
    if code != EXIT_IO:
        # the run stopped before that artifact: as it does when writable
        free_code, free_err, free_artifacts = _run(cfg)
        assert (code, err) == (free_code, free_err) and not free_artifacts
    else:
        assert err.startswith("error: I/O failure") and artifacts == []


@settings(FUZZ, max_examples=60)
@given(valid_configs(), st.data())
def test_one_violation_exits_2(cfg, data):
    mutate = data.draw(st.sampled_from(_mutations(cfg)))
    bad = copy.deepcopy(cfg)
    mutate(bad)
    code, err, _ = _run(bad)
    assert code == EXIT_CONFIG, (mutate.__name__, bad)
    assert err.startswith("error: ") and "Traceback" not in err
