"""End-to-end acceptance battery for the package's headline guarantees.

One test function per criterion, so `pytest -v` emits exactly one
pass/fail line for each:

  1  free-fall acceleration -1/eps within 1%, each fit under 5 s
  2  Berry-Balazs peak law x0 + t^2/4 within 1% over t in [0, 2]
  3  shape rigidity under free evolution, distortion < 1e-8, plus a
     spreading-Gaussian control that must distort
  4  eigenrelation residual < 1e-6 across labels including eps = 0,
     plus a wrong-label control that must fail
  5  propagator vs displacement route: fidelity deficit < 1e-8 and
     phase < 1e-6, plus a dropped-cubic-phase control exposing
     m tau^3 / 3 hbar eps^2
  6  overlap decay |<eps|eps'>| ~ |delta eps|^(-1/3) within 0.01,
     label independence < 1e-8, prefactor reported
  7  Airy evaluator: gamma identity at 0 to 1e-12, independent oracle
     rows on [-5, 3] to 1e-8, ODE residual converging at 2nd order
  8  momentum-build vs closed-form position profiles, sup < 1e-6
  9  boost covariance < 1e-8, <K> drift < 1e-10, commutators < 1e-7
 10  monotone eps -> 0 and eps -> infinity limits over pinned sequences
 11  CLI exit-code contract, SVG byte determinism, CSV exact round trip

The geometries below (box sizes, band margins, window fractions) are
load-bearing: windowed metrics bottom out at apodization ringing, which
falls off with the product of taper width and clearance, so the tight
tolerances need wide boxes with taper images far from both the window
edge and the periodic seam.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.special

from airylab import (
    BandTaper,
    CoherentParams,
    GaussianParams,
    Rep,
    WaveField,
    Window,
    ai_values,
    airy_ai,
    fit_band,
    gaussian_packet,
    make_grid,
)
from airylab.cli import emit_csv, emit_svg_plot, run_config
from airylab.experiments import (
    acceleration_fit,
    berry_balazs_trajectory,
    boost_covariance_residual,
    commutator_table,
    density_shift_distortion,
    eigenrelation_residual,
    eps_to_infinity_fidelity,
    eps_to_zero_limit,
    evolution_equivalence,
    k_expectation_series,
    overlap_scan,
    representation_crosscheck,
    shape_distortion,
)

TAUS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_criterion_01_free_fall_acceleration():
    grid = make_grid(8192, -400.0, 100.0)
    for eps in (1.0, 2.0):
        start = time.perf_counter()
        r = acceleration_fit(CoherentParams(eps, 0.0, 0.0), TAUS, grid,
                             tol_rel=0.01)
        elapsed = time.perf_counter() - start
        assert r.passed, f"eps={eps}: rel_err={r.metrics['rel_err']:.3e}"
        assert abs(r.metrics["accel_abs"] - 1.0 / eps) <= 0.01 / eps
        assert elapsed < 5.0, f"fit took {elapsed:.2f}s"
        print(f"criterion 1 eps={eps}: |a|={r.metrics['accel_abs']:.6f} "
              f"(target {1.0 / eps}), rel_err={r.metrics['rel_err']:.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_02_berry_balazs_peak_law():
    grid = make_grid(8192, -256.0, 256.0)
    r = berry_balazs_trajectory(1.0, [0.0, 0.5, 1.0, 1.5, 2.0], grid,
                                w=Window.rect(0.3), tol_coeff=0.01)
    assert r.passed
    assert abs(r.metrics["coeff"] - 0.25) <= 0.01 * 0.25
    assert r.metrics["distortion_max"] < 1e-8
    print(f"criterion 2: coeff={r.metrics['coeff']:.8f} (target 0.25), "
          f"distortion_max={r.metrics['distortion_max']:.2e}")


def test_criterion_03_shape_rigidity():
    grid = make_grid(16384, -512.0, 512.0)
    r = shape_distortion(CoherentParams(1.0, 0.0, 0.0), 1.0, grid,
                         w=Window.rect(0.5), tol=1e-8)
    assert r.passed
    assert r.metrics["distortion"] < 1e-8
    # control: a Gaussian spreads, so no rigid shift can reproduce it
    control = gaussian_packet(GaussianParams(0.0, 0.0, 0.5), grid)
    d_control = density_shift_distortion(control, 1.0, -0.5,
                                         w=Window.rect(0.5))
    assert d_control > 0.1
    print(f"criterion 3: D={r.metrics['distortion']:.2e} (tol 1e-8), "
          f"gaussian control D={d_control:.3f} > 0.1")


def test_criterion_04_eigenrelation_residuals():
    grid = make_grid(16384, -256.0, 256.0)
    w = Window.rect(0.125)
    worst = 0.0
    for eps in (0.0, 1.0, 2.0):
        for xi in (0.0, 2.0, -3.0):
            for t in (0.0, 1.0):
                c = CoherentParams(eps, xi, t)
                band = "auto" if eps == 0.0 else fit_band(
                    c, grid, x_margin=40.0, taper_frac=0.3)
                r = eigenrelation_residual(c, grid, w=w, band=band, tol=1e-6)
                assert r.passed, (
                    f"eps={eps} xi={xi} t={t}: r={r.metrics['residual']:.3e}")
                worst = max(worst, r.metrics["residual"])
    control = eigenrelation_residual(
        CoherentParams(1.0, 0.0, 0.0), grid, w=w,
        band=fit_band(CoherentParams(1.0, 0.0, 0.0), grid,
                      x_margin=40.0, taper_frac=0.3),
        xi_probe=0.5, tol=1e-6)
    assert not control.passed
    assert control.metrics["residual"] > 0.4
    print(f"criterion 4: worst residual {worst:.2e} over 18 labels "
          f"(tol 1e-6); wrong-label control {control.metrics['residual']:.2f}")


def _evolution_band(eps: float, tau: float, grid):
    bands = [fit_band(CoherentParams(eps, 0.0, t), grid, x_margin=40.0,
                      p_margin=3.0, taper_frac=0.3) for t in (0.0, tau)]
    return BandTaper(min(b.p_plateau for b in bands),
                     min(b.p_support for b in bands))


def test_criterion_05_evolution_equivalence():
    grid = make_grid(8192, -256.0, 256.0)
    w = Window.rect(0.25)
    for eps in (1.0, 2.0):
        for tau in (0.25, 0.5):
            r = evolution_equivalence(
                CoherentParams(eps, 0.0, 0.0), tau, grid, w=w,
                band=_evolution_band(eps, tau, grid),
                tol_fidelity=1e-8, tol_phase=1e-6)
            assert r.passed, (f"eps={eps} tau={tau}: "
                              f"deficit={r.metrics['fidelity_deficit']:.2e} "
                              f"phase={r.metrics['phase_discrepancy']:.2e}")
    eps, tau = 1.0, 0.5
    control = evolution_equivalence(
        CoherentParams(eps, 0.0, 0.0), tau, grid, w=w,
        band=_evolution_band(eps, tau, grid), drop_cubic_phase=True)
    assert not control.passed
    expected_phase = tau ** 3 / (3.0 * eps ** 2)
    assert control.metrics["phase_discrepancy"] == pytest.approx(
        expected_phase, abs=1e-6)
    print(f"criterion 5: all four label pairs pass; dropping the cubic "
          f"phase leaves {control.metrics['phase_discrepancy']:.6f} "
          f"= tau^3/3 eps^2")


def test_criterion_06_overlap_power_law():
    r = overlap_scan([0.5, 1.0, 2.0, 4.0, 8.0], tol_exponent=0.01,
                     tol_label_dep=1e-8)
    assert r.passed
    assert abs(r.metrics["exponent"] + 1.0 / 3.0) <= 0.01
    assert r.metrics["label_dependence"] < 1e-8
    assert r.metrics["prefactor_rel_err"] < 1e-8
    print(f"criterion 6: exponent={r.metrics['exponent']:.10f} "
          f"(target -1/3), prefactor={r.metrics['prefactor']:.6f} "
          f"(expected {r.metrics['prefactor_expected']:.6f}), "
          f"label_dep={r.metrics['label_dependence']:.1e}")


# mpmath (40 digits) rows inside [-5, 3], an oracle independent of both
# this package and scipy
AI_WINDOW_ORACLE = [
    (-5.0, 0.35076100902411432),
    (-4.0, -0.070265532949289515),
    (-3.0, -0.37881429367765807),
    (-2.338107410459767, 1.7701838305148285e-25),
    (-1.5, 0.46425657774886941),
    (-1.0, 0.53556088329235212),
    (0.0, 0.35502805388781724),
    (1.0, 0.13529241631288142),
    (2.0, 0.034924130423274379),
    (3.0, 0.0065911393574607191),
]


def test_criterion_07_airy_evaluator():
    exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(airy_ai(0.0).value - exact) <= 1e-12
    for z, ref in AI_WINDOW_ORACLE:
        assert abs(airy_ai(z).value - ref) <= 1e-8
    z = np.linspace(-5.0, 3.0, 161)
    assert np.max(np.abs(ai_values(z) - scipy.special.airy(z)[0])) <= 1e-8

    def residual(z0, h):
        second = (airy_ai(z0 + h).value - 2.0 * airy_ai(z0).value
                  + airy_ai(z0 - h).value) / (h * h)
        return abs(second - z0 * airy_ai(z0).value)

    ratios = []
    for z0 in (-3.7, 0.9):
        r1, r2 = residual(z0, 1e-2), residual(z0, 5e-3)
        ratios.append(r1 / r2)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)
    print(f"criterion 7: Ai(0) gamma identity to 1e-12, oracle rows to "
          f"1e-8, ODE residual ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
          f"(2nd order -> 4)")


def test_criterion_08_representation_agreement():
    grid = make_grid(16384, -256.0, 256.0)
    for eps in (0.5, 1.0, 2.0):
        r = representation_crosscheck(CoherentParams(eps, 0.0, 0.0), grid,
                                      w=Window.rect(0.5), tol=1e-6)
        assert r.passed, f"eps={eps}: sup={r.metrics['sup_rel']:.3e}"
        print(f"criterion 8 eps={eps}: sup_rel={r.metrics['sup_rel']:.2e} "
              f"(tol 1e-6)")


def test_criterion_09_covariance_and_commutators():
    grid = make_grid(2048, -64.0, 64.0)
    probe = gaussian_packet(GaussianParams(0.0, 0.7, 1.5), grid)
    cov = boost_covariance_residual(probe, 0.8, 0.7, w=Window.rect(0.5),
                                    tol=1e-8)
    assert cov.passed
    assert cov.metrics["time_skew"] == 0.0
    kser = k_expectation_series(probe, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5],
                                w=Window.rect(0.9), tol=1e-10)
    assert kser.passed
    comm = commutator_table(grid, w=Window.rect(0.5), tol=1e-7)
    assert comm.passed
    print(f"criterion 9: covariance={cov.metrics['residual']:.2e}, "
          f"<K> drift={kser.metrics['drift']:.2e}, commutator "
          f"worst={comm.metrics['max_rel_err']:.2e}")


def test_criterion_10_monotone_limits():
    to_zero = eps_to_zero_limit(
        [0.5, 0.1, 0.02], 0.0, 1.0, make_grid(2048, -64.0, 64.0),
        w=Window.rect(0.03125), band=BandTaper(6.0, 10.0))
    assert to_zero.passed
    errs = to_zero.metrics["errors"]
    assert errs[0] > errs[1] > errs[2]
    to_inf = eps_to_infinity_fidelity(
        [1.0, 10.0, 100.0], 0.5, make_grid(4096, -128.0, 128.0),
        w=Window.rect(0.5))
    assert to_inf.passed
    fids = to_inf.metrics["fidelities"]
    assert fids[0] < fids[1] < fids[2]
    print(f"criterion 10: eps->0 errors {[f'{e:.3f}' for e in errs]} "
          f"decreasing; eps->inf fidelities "
          f"{[f'{f:.3f}' for f in fids]} increasing")


def test_criterion_11_cli_contract(tmp_path):
    base = {
        "command": "Verify",
        "grid": {"n": 4096, "x_min": -256.0, "x_max": 256.0},
        "state": {"kind": "perelomov", "eps": 1.0, "xi": 0.0, "t": 0.0},
        "experiment": {
            "name": "eigenrelation_residual",
            "parameters": {"window": {"kind": "rect",
                                      "interior_fraction": 0.125}},
            "tolerances": {"residual": 1.0e-6},
        },
    }

    def run(data, sub):
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(data))
        return run_config(str(cfg), str(tmp_path / sub))

    code, arts = run(base, "ok")
    assert code == 0
    with open(arts[0], encoding="utf-8") as fh:
        assert json.load(fh)["passed"] is True

    tight = json.loads(json.dumps(base))
    tight["experiment"]["tolerances"]["residual"] = 1e-30
    assert run(tight, "tight")[0] == 1

    bad = json.loads(json.dumps(base))
    bad["grid"]["n"] = 100
    assert run(bad, "bad")[0] == 2

    assert run_config(str(tmp_path / "missing.json"), str(tmp_path))[0] == 3

    # SVG determinism and exact CSV round trip
    x = np.linspace(-1.0, 1.0, 64)
    series = [("density", x, np.exp(-x * x))]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_plot(series, str(p1))
    emit_svg_plot(series, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    g = make_grid(128, -16.0, 16.0)
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    field = WaveField(g, Rep.POSITION, amps)
    csv_path = tmp_path / "f.csv"
    emit_csv(field, str(csv_path))
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], amps.real)
    assert np.array_equal(data[:, 2], amps.imag)
    print("criterion 11: exit codes 0/1/2/3 honored, SVG byte-stable, "
          "CSV round trip exact")
