"""Seeded operations of the four benchmark workloads.

Every operation calls airylab's public API through module attributes
(`experiments.overlap_scan`, `cli.run_config`, ...) looked up at call
time, so the wrappers of `instrument` see each call.  Each workload runs
a fixed cycle of operation kinds; the seed fixes every label: the
continuous labels of each kind come from a low-discrepancy sequence with a
seeded offset, so that a short run still covers each label range evenly
and the cost of a run barely moves between seeds.

Why each workload exists:

* airy_build: representation_crosscheck and berry_balazs_trajectory at the
  acceptance geometry (2^14 points over [-256, 256], so dx = 1/32).  The
  Airy evaluator does over 90% of the work; it does none on
  spectral_family or quadrature.  Smaller boxes miss the 1e-6 tolerance,
  so none are used.
* spectral_family: momentum-side experiments, n = 2^13..2^16.  FFTs,
  operators and band planning; no Airy points and no quadrature, so Airy
  and quadrature changes must leave it unchanged.
* quadrature: overlap_scan ladders s*{1,2,4,8,16} and general-label
  cubic_phase_integral calls.  The oscillatory layer with no grid work.
  Labels stay inside the ranges where every call converges today.
* cli_artifacts: run_config on State/Evolve/Verify/Scan configs writing
  report.json, CSV and SVG, and bad configs the CLI must reject with exit
  2; artifact writing and validation dominate.

No operation of any workload fails today, so a failure is a regression.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from airylab import cli, core, experiments, oscillatory, states

from . import oracles

ORDER = ("airy_build", "spectral_family", "quadrature", "cli_artifacts")


@dataclass
class Outcome:
    """Verdict on one attempt: passed, wrong output, tolerance margins."""

    passed: bool
    wrong: bool = False
    margins: list = field(default_factory=list)
    note: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # check(result, error, capture) -> Outcome; error is the exception the
    # attempt raised, or None
    check: Callable
    cleanup: Callable[[], None] = lambda: None


class Draws:
    """Per-kind points in [0, 1)^4: an anchor first, then seeded draws.

    The first point of a kind is its anchor, the corner of its label ranges
    that sits closest to a tolerance, so that every run checks the same
    worst case.  The rest follow the Kronecker sequence
    frac(offset + i * alpha) from a seeded offset; alpha holds the
    fractional parts of the golden ratio, sqrt 2, sqrt 3 and sqrt 7, whose
    bounded continued fractions spread every coordinate evenly over any
    stretch of the sequence.
    """

    DIMS = 4

    def __init__(self, rng: np.random.Generator, anchors: dict):
        self.alpha = np.array([(1.0 + 5 ** 0.5) / 2.0, 2 ** 0.5, 3 ** 0.5,
                               7 ** 0.5]) % 1.0
        self.rng = rng
        self.anchors = anchors
        self.offsets: dict = {}
        self.count: dict = {}

    def __call__(self, kind: str) -> tuple[int, np.ndarray]:
        """(how many points of this kind came before, the next point)."""
        i = self.count.get(kind, 0)
        self.count[kind] = i + 1
        if i == 0:
            self.offsets[kind] = self.rng.random(self.DIMS)
            if kind in self.anchors:
                return i, np.array(self.anchors[kind], dtype=float)
        return i, (self.offsets[kind] + i * self.alpha) % 1.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _uniform(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _sign(u: float) -> float:
    return -1.0 if u < 0.5 else 1.0


def _half(u: float) -> float:
    """Rescale the upper or lower half of [0, 1) back onto [0, 1)."""
    return (2.0 * u) % 1.0


def _size(i: int, lo_exp: int, hi_exp: int) -> int:
    """The i-th grid size of a kind: 2^hi_exp, then down to 2^lo_exp, and
    again, so every run holds the same mix of sizes."""
    return 2 ** (hi_exp - i % (hi_exp - lo_exp + 1))


def _experiment_check(result, error, capture, rng) -> Outcome:
    """Shared check of an ExperimentReport plus every captured Airy build and
    cubic-phase value."""
    if error is not None:
        return Outcome(False, note=f"{type(error).__name__}: {error}")
    margins, airy_miss = oracles.airy_spot_check(capture.airy, rng)
    cubic_margins, cubic_miss = oracles.cubic_check(capture.cubic)
    margins += cubic_margins
    report = result.to_dict()
    margins += oracles.report_margins(report)
    wrong = airy_miss or cubic_miss
    return Outcome(report["passed"] and not wrong, wrong, margins,
                   "" if report["passed"] else "report passed=false")


def _experiment_op(kind, rng, call) -> Op:
    return Op(kind, call,
              lambda result, error, capture: _experiment_check(
                  result, error, capture, rng))


# ----------------------------------------------------------------------
# airy_build

def _airy_op(kind: str, u: np.ndarray, rng) -> Op:
    Window = core.Window
    # 2^14 points over [-256, 256]: dx = 1/32, and every operation costs
    # about the same, so a run's latencies form one cluster
    n, half_width = 2 ** 14, 256.0
    if kind == "xcheck":
        eps = _log_uniform(u[0], 0.5, 2.0)

        def run():
            grid = core.make_grid(n, -half_width, half_width)
            return experiments.representation_crosscheck(
                states.CoherentParams(eps), grid, w=Window.rect(0.5), tol=1e-6)
        return _experiment_op(kind, rng, run)
    # |B| >= 1.2 resolves on this box; smaller |B| fails the 1e-8 distortion
    # and needs 2^15 points over [-512, 512], twice the cost per operation
    B = _sign(u[1]) * _log_uniform(u[0], 1.2, 2.0)

    def run():
        grid = core.make_grid(n, -half_width, half_width)
        return experiments.berry_balazs_trajectory(
            B, [0.0, 0.5, 1.0, 1.5, 2.0], grid, w=Window.rect(0.1))
    return _experiment_op(kind, rng, run)


# ----------------------------------------------------------------------
# spectral_family

def _spectral_op(kind: str, i: int, u: np.ndarray, rng) -> Op:
    Window, C = core.Window, states.CoherentParams
    n = _size(i, 13, 16)
    label = f"{kind}{n.bit_length() - 1}"

    def grid(half_width, lo=None):
        return core.make_grid(n, -half_width if lo is None else lo, half_width)

    def probe():
        return states.GaussianParams(_uniform(u[0], -2.0, 2.0),
                                     _uniform(u[1], -1.0, 1.0),
                                     _uniform(u[2], 1.0, 2.0))

    if kind == "acceleration_fit":
        c = C(_log_uniform(u[0], 1.0, 2.0))

        def run():
            return experiments.acceleration_fit(
                c, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], grid(100.0, -400.0),
                tol_rel=0.01)
    elif kind == "shape_distortion":
        # at 2^13 points (dx = 1/8) the distortion floor exceeds 1e-8
        n = _size(i, 14, 16)
        label = f"{kind}{n.bit_length() - 1}"
        c = C(_log_uniform(u[0], 0.5, 2.0))
        tau = _uniform(u[1], 0.5, 1.5)

        def run():
            return experiments.shape_distortion(c, tau, grid(512.0),
                                                w=Window.rect(0.5), tol=1e-8)
    elif kind == "evolution_equivalence":
        c = C(_log_uniform(u[0], 1.0, 2.0))
        tau = _uniform(u[1], 0.25, 0.5)

        def run():
            g = grid(256.0)
            fits = [states.fit_band(C(c.eps, 0.0, t), g, x_margin=40.0,
                                    p_margin=3.0, taper_frac=0.3)
                    for t in (0.0, tau)]
            band = states.BandTaper(min(f.p_plateau for f in fits),
                                    min(f.p_support for f in fits))
            return experiments.evolution_equivalence(
                c, tau, g, w=Window.rect(0.25), band=band,
                tol_fidelity=1e-8, tol_phase=1e-6)
    elif kind == "eigenrelation_residual":
        c = C(_log_uniform(u[0], 0.5, 2.0), _uniform(u[1], -3.0, 2.0),
              _uniform(u[2], 0.0, 1.0))

        def run():
            g = grid(256.0)
            band = states.fit_band(c, g, x_margin=40.0, taper_frac=0.3)
            return experiments.eigenrelation_residual(
                c, g, w=Window.rect(0.125), band=band, tol=1e-6)
    elif kind == "boost_covariance_residual":
        v, tau = _uniform(u[2], 0.3, 1.0), _uniform(u[0], 0.3, 1.0)

        def run():
            g = grid(64.0)
            field = states.gaussian_packet(probe(), g)
            return experiments.boost_covariance_residual(
                field, v, tau, w=Window.rect(0.5), tol=1e-8)
    elif kind == "k_expectation_series":
        def run():
            g = grid(64.0)
            field = states.gaussian_packet(probe(), g)
            return experiments.k_expectation_series(
                field, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5], w=Window.rect(0.9),
                tol=1e-10)
    elif kind == "commutator_table":
        # p^3 amplifies transform roundoff at the band edge, so the box grows
        # with n to hold dx = 1/16 and the band edge at 16 pi
        def run():
            return experiments.commutator_table(
                grid(n / 32.0), w=Window.rect(0.5), probe=probe(), tol=1e-7)
    elif kind == "eps_to_infinity_fidelity":
        e0 = _log_uniform(u[0], 0.5, 2.0)
        tau = _uniform(u[1], 0.3, 0.7)

        def run():
            return experiments.eps_to_infinity_fidelity(
                [e0, 10.0 * e0, 100.0 * e0], tau, grid(128.0),
                w=Window.rect(0.5))
    elif kind == "basis_orthonormality":
        # the Gram matrix holds n_states x n complex values (33 MB at 2^13),
        # so this experiment stays at the smallest size of the workload
        n = 2 ** 13
        label = f"{kind}13"
        eps, t = _log_uniform(u[0], 0.5, 2.0), _uniform(u[1], -1.0, 1.0)

        def run():
            return experiments.basis_orthonormality(eps, t, grid(256.0))
    else:
        raise ValueError(kind)
    return _experiment_op(label, rng, run)


SPECTRAL_KINDS = ("acceleration_fit", "shape_distortion",
                  "evolution_equivalence", "eigenrelation_residual",
                  "boost_covariance_residual", "k_expectation_series",
                  "commutator_table", "eps_to_infinity_fidelity",
                  "basis_orthonormality")


# ----------------------------------------------------------------------
# quadrature

QUAD_TOL = 1e-7


def _quadrature_op(kind: str, u: np.ndarray, rng) -> Op:
    if kind == "scan":
        # scans converge for s in about [0.17, 0.75] today and raise outside
        s = _log_uniform(u[0], 0.2, 0.6)
        xi, t = _uniform(u[1], -2.0, 2.0), _uniform(u[2], -1.0, 1.0)

        def run():
            return experiments.overlap_scan([s * k for k in (1, 2, 4, 8, 16)],
                                            xi=xi, t=t, quad_tol=QUAD_TOL)
        return _experiment_op(kind, rng, run)

    # <eps_a, xi_a; t_a | eps_b, xi_b; t_b> with hbar = m = 1 reduces to the
    # cubic-phase integral with these coefficients.  Calls converge for
    # |delta eps| above about 0.8 at these delta t and delta xi, and raise
    # for most smaller ones today.
    d_eps = _sign(u[3]) * _log_uniform(u[0], 1.0, 10.0)
    d_t = _sign(_half(u[3])) * _uniform(u[1], 0.4, 0.6)
    d_xi = _sign(_half(_half(u[3]))) * _uniform(u[2], 0.8, 1.2)
    c3, c2, c1 = -d_eps / 6.0, -d_t / 2.0, d_xi

    def run():
        return oscillatory.cubic_phase_integral(c3, c2, c1, 0.0, tol=QUAD_TOL)

    def check(result, error, capture):
        if error is not None:
            return Outcome(False, note=f"{type(error).__name__}: {error}")
        margins, missed = oracles.cubic_check(capture.cubic)
        return Outcome(not missed, missed, margins)
    return Op("cubic", run, check)


def frontier_calls() -> list:
    """Quadrature calls over wide label ranges, many of which do not
    converge today: scan ladders with s log-spaced over [0.05, 2] and
    triples with |delta eps| log-spaced over [0.01, 10].  The quadrature
    workload keeps to the labels that converge, so the share of these calls
    that converge is what shows a fix for the others."""
    calls = [lambda s=s: experiments.overlap_scan(
        [s * k for k in (1, 2, 4, 8, 16)], quad_tol=QUAD_TOL)
        for s in np.geomspace(0.05, 2.0, 8)]
    calls += [lambda d=d: oscillatory.cubic_phase_integral(
        -d / 6.0, -0.25, 1.0, 0.0, tol=QUAD_TOL)
        for d in np.geomspace(0.01, 10.0, 8)]
    return calls


# ----------------------------------------------------------------------
# cli_artifacts

EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG = (cli.EXIT_OK, cli.EXIT_TOLERANCE,
                                        cli.EXIT_CONFIG)


def _verify_base(n: int, eps: float, xi: float) -> dict:
    return {
        "command": "Verify",
        "grid": {"n": n, "x_min": -256.0, "x_max": 256.0},
        "state": {"kind": "perelomov", "eps": eps, "xi": xi, "t": 0.0},
        "experiment": {
            "name": "eigenrelation_residual",
            "parameters": {"window": {"kind": "rect",
                                      "interior_fraction": 0.125}},
            "tolerances": {"residual": 1.0e-6},
        },
    }


def _cli_config(kind: str, i: int, u: np.ndarray) -> tuple[dict, int]:
    """(config, exit code the documented contract requires)."""
    eps = _log_uniform(u[0], 0.5, 2.0)
    xi = _uniform(u[1], -2.0, 2.0)
    if kind == "state_perelomov":
        return {"command": "State",
                "grid": {"n": _size(i, 13, 16), "x_min": -256.0,
                         "x_max": 256.0},
                "state": {"kind": "perelomov", "eps": eps, "xi": xi,
                          "t": _uniform(u[2], 0.0, 1.0)},
                "output": {"svg": "state.svg"}}, EXIT_OK
    if kind == "state_gaussian":
        return {"command": "State",
                "grid": {"n": _size(i, 13, 16), "x_min": -128.0,
                         "x_max": 128.0},
                "state": {"kind": "gaussian", "x0": 10.0 * xi,
                          "p0": _uniform(u[2], -2.0, 2.0),
                          "sigma": _uniform(u[0], 1.0, 4.0)},
                "output": {"svg": "state.svg"}}, EXIT_OK
    if kind == "state_xi":
        return {"command": "State",
                "grid": {"n": _size(i, 13, 16), "x_min": -128.0,
                         "x_max": 128.0},
                "state": {"kind": "xi_eigenstate", "xi": xi,
                          "t": _sign(u[2]) * _uniform(_half(u[2]), 0.5, 2.0)},
                "output": {}}, EXIT_OK
    if kind == "evolve":
        return {"command": "Evolve",
                "grid": {"n": _size(i, 13, 15), "x_min": -256.0,
                         "x_max": 256.0},
                "state": {"kind": "perelomov", "eps": _uniform(u[0], 1.0, 2.0),
                          "xi": xi},
                "evolve": {"taus": [0.5, 1.0, 1.5]},
                "output": {"svg": "evolve.svg"}}, EXIT_OK
    if kind == "verify":
        return _verify_base(_size(i, 12, 14), eps, xi), EXIT_OK
    if kind == "scan":
        window = {"kind": "rect", "interior_fraction": 0.5}
        return {"command": "Scan",
                "grid": {"n": _size(i, 11, 13), "x_min": -64.0,
                         "x_max": 64.0},
                "state": {"kind": "gaussian", "x0": xi,
                          "p0": _uniform(u[2], -1.0, 1.0),
                          "sigma": _uniform(u[0], 1.0, 2.0)},
                "experiments": [
                    {"name": "boost_covariance_residual",
                     "parameters": {"v": 0.8, "tau": 0.7, "window": window}},
                    {"name": "k_expectation_series",
                     "parameters": {"taus": [0.0, 0.5, 1.0, 1.5],
                                    "window": {"kind": "rect",
                                               "interior_fraction": 0.9}}},
                    {"name": "commutator_table",
                     "parameters": {"window": window}},
                ]}, EXIT_OK
    base = _verify_base(4096, eps, xi)
    if kind == "bad_unknown_key":
        base["grid"]["dx"] = 0.1
    elif kind == "bad_grid_n":
        base["grid"]["n"] = 1000
    elif kind == "bad_no_experiment":
        del base["experiment"]
    elif kind == "bad_experiment_name":
        base["experiment"]["name"] = "no_such_experiment"
    else:
        raise ValueError(kind)
    return base, EXIT_CONFIG


BAD_KINDS = ("bad_unknown_key", "bad_grid_n", "bad_no_experiment",
             "bad_experiment_name")
VALID_KINDS = ("state_perelomov", "state_gaussian", "state_xi", "evolve",
               "verify", "scan")


def _check_artifacts(cfg: dict, code: int, paths: list) -> str:
    """Empty string if the written artifacts are well formed, else why not."""
    by_name = {os.path.basename(p): p for p in paths}
    report_path = by_name.get("report.json")
    if report_path is None:
        return "no report.json"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report["passed"] != (code == EXIT_OK):
        return "report.passed disagrees with the exit code"
    n = cfg["grid"]["n"]
    if "state.csv" in by_name:
        with open(by_name["state.csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "x,re,im,density" or len(lines) != n + 1:
            return "state.csv is malformed"
    for name in by_name:
        if name.endswith(".svg"):
            with open(by_name[name], encoding="utf-8") as fh:
                text = fh.read()
            if not (text.startswith("<svg") and text.endswith("</svg>\n")):
                return f"{name} is malformed"
    return ""


def _cli_op(kind: str, i: int, u: np.ndarray, work: str, index: int) -> Op:
    cfg, expected = _cli_config(kind, i, u)
    out_dir = os.path.join(work, f"out{index}")
    cfg_path = os.path.join(work, f"cfg{index}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)

    def run():
        try:
            return cli.run_config(cfg_path, out_dir)
        except Exception:
            # uncaught, this ends `python -m airylab.cli` with a traceback
            # and exit status 1
            return EXIT_TOLERANCE, []

    def check(result, error, capture):
        code, paths = result
        if code != expected:
            return Outcome(False,
                           note=f"exit {code}, contract says {expected}")
        if code == EXIT_CONFIG:
            return Outcome(True)
        bad = _check_artifacts(cfg, code, paths)
        if bad:
            return Outcome(False, True, note=bad)
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        margins = [m for r in reports for m in oracles.report_margins(r)]
        return Outcome(True, margins=margins)

    def cleanup():
        shutil.rmtree(out_dir, ignore_errors=True)
        os.remove(cfg_path)

    return Op(kind, run, check, cleanup)


# ----------------------------------------------------------------------
# schedules

# The kinds of one cycle, in the order they run.
CYCLES = {
    "airy_build": ("xcheck", "bb"),
    "spectral_family": SPECTRAL_KINDS,
    "quadrature": ("scan", "scan", "cubic"),
    # 28 configs: 24 valid and 4 that the CLI rejects with exit 2, spread
    # through the cycle so that where a run stops barely moves its mix
    "cli_artifacts": tuple(kind for bad in BAD_KINDS
                           for kind in VALID_KINDS + (bad,)),
}

# Anchor points (see Draws): eps = 2 for the crosscheck, |B| = 1.2 for the
# Berry-Balazs fit, the widest zero-momentum probe at n = 2^16 for the
# commutators
ANCHORS = {
    "xcheck": (1.0, 0.5, 0.5, 0.5),
    "bb": (0.0, 0.5, 0.5, 0.5),
    "commutator_table": (0.5, 0.5, 1.0, 1.0),
}


def operations(workload: str, seed: int, work: str):
    """Endless seeded stream of Ops for one workload."""
    if workload not in ORDER:
        raise ValueError(f"unknown workload {workload!r}; known: {ORDER}")
    rng = np.random.default_rng(seed)
    draws = Draws(rng, ANCHORS)
    index = 0
    while True:
        for kind in CYCLES[workload]:
            check_rng = np.random.default_rng([seed, index])
            if workload == "airy_build":
                op = _airy_op(kind, draws(kind)[1], check_rng)
            elif workload == "spectral_family":
                op = _spectral_op(kind, *draws(kind), check_rng)
            elif workload == "quadrature":
                op = _quadrature_op(kind, draws(kind)[1], check_rng)
            else:
                op = _cli_op(kind, *draws(kind), work, index)
            index += 1
            yield op
