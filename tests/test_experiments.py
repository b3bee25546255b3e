"""Verification battery: reports, pass flags, and negative controls.

Each experiment gets a fast pass-case on a compact grid plus a control
that must fail or raise, so a silently broken metric cannot stay green.
The large-grid, tight-tolerance runs live in the acceptance suite.
"""

import inspect
import json
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from scipy import special

from airylab import (
    AirylabError,
    BandTaper,
    CoherentParams,
    GaussianParams,
    GeometryError,
    PhysParams,
    Rep,
    Window,
    experiments,
    gaussian_packet,
    inner_product,
    make_grid,
    perelomov_state,
    to_rep,
    windowed_norm,
)
from airylab.airy import airy_ai
from airylab.core import TWO_PI, window_weights
from airylab.experiments import (
    _AIRY_AI_ZERO,
    ExperimentReport,
    _pair_overlap,
    acceleration_fit,
    basis_orthonormality,
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
from airylab.operators import GeneratorKind, apply_generator
from airylab.states import _family_phase, _smoothstep


@pytest.fixture(scope="module")
def g128():
    return make_grid(4096, -128.0, 128.0)


class TestReportShape:
    def test_to_dict_round_trips_json(self, g128):
        r = eigenrelation_residual(CoherentParams(1.0, 0.0, 0.0), g128,
                                   w=Window.rect(0.125))
        d = json.loads(json.dumps(r.to_dict()))
        assert d["name"] == "eigenrelation_residual"
        assert set(d) == {"name", "metrics", "config", "tolerances", "passed"}
        assert d["config"]["grid"]["n_points"] == 4096
        assert d["tolerances"]["residual"] == 1e-6

    def test_wrapper_keeps_name_and_signature(self):
        # the CLI and the config fuzz read each experiment's parameters
        # from inspect.signature, through the verdict wrapper
        for name in experiments.EXPERIMENTS:
            fn = getattr(experiments, name)
            assert fn.__name__ == name
            assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)
        keywords = inspect.signature(eigenrelation_residual).parameters
        assert keywords["tol"].kind is inspect.Parameter.KEYWORD_ONLY


class TestEigenrelation:
    def test_family_member_passes(self, g128):
        r = eigenrelation_residual(CoherentParams(1.0, 0.0, 0.0), g128,
                                   w=Window.rect(0.125))
        assert r.passed
        assert r.metrics["residual"] < 1e-6

    def test_wrong_label_probe_fails(self, g128):
        r = eigenrelation_residual(CoherentParams(1.0, 0.0, 0.0), g128,
                                   w=Window.rect(0.125), xi_probe=0.5)
        assert not r.passed
        assert r.metrics["residual"] > 0.4


class TestAccelerationFit:
    def test_free_fall_coefficient(self, g128):
        r = acceleration_fit(CoherentParams(1.0, 0.0, 0.0), [0.0, 1.0, 2.0],
                             g128)
        assert r.passed
        assert r.metrics["accel"] == pytest.approx(-1.0, rel=1e-6)
        assert r.metrics["rel_err"] < 1e-6

    def test_validation(self, g128):
        with pytest.raises(AirylabError, match="at least three"):
            acceleration_fit(CoherentParams(1.0, 0.0, 0.0), [0.0, 1.0], g128)
        with pytest.raises(GeometryError, match="travel"):
            acceleration_fit(CoherentParams(1.0, 0.0, 0.0),
                             [0.0, 0.05, 0.1], g128)
        with pytest.raises(AirylabError):
            acceleration_fit(CoherentParams(0.0, 0.0, 0.0), [0.0, 1.0, 2.0],
                             g128)
        # a subnormal eps overflows the travel: a typed error, not a numpy
        # overflow warning
        with pytest.raises(GeometryError, match="travel overflows"):
            acceleration_fit(CoherentParams(1e-310), [0.0, 0.5, 1.0], g128)


class TestShapeInvariance:
    def test_rigid_translation(self, g128):
        r = shape_distortion(CoherentParams(1.0, 0.0, 0.0), 0.5, g128,
                             w=Window.rect(0.5), tol=1e-4)
        assert r.passed
        assert r.metrics["displacement"] == pytest.approx(-0.125)
        assert r.metrics["distortion"] < 1e-4

    def test_gaussian_control_distorts(self, g128):
        # a spreading packet compared against a rigid shift of itself
        psi = gaussian_packet(GaussianParams(0.0, 0.0, 1.0), g128)
        d_exact = density_shift_distortion(
            to_rep(perelomov_state(CoherentParams(1.0, 0.0, 0.0),
                                   Rep.MOMENTUM, g128), Rep.POSITION),
            0.5, -0.125)
        d_gauss = density_shift_distortion(psi, 1.0, 0.0)
        assert d_exact < 1e-4
        assert d_gauss > 0.1


class TestEvolutionEquivalence:
    def test_displacement_route_matches_propagator(self, g128):
        r = evolution_equivalence(CoherentParams(1.0, 0.0, 0.0), 0.25, g128,
                                  w=Window.rect(0.25))
        assert r.passed
        assert r.metrics["fidelity_deficit"] < 1e-8
        assert r.metrics["phase_discrepancy"] < 1e-6

    def test_dropping_cubic_phase_is_detected(self, g128):
        tau, eps = 0.5, 1.0
        r = evolution_equivalence(CoherentParams(eps, 0.0, 0.0), tau, g128,
                                  w=Window.rect(0.25), drop_cubic_phase=True)
        assert not r.passed
        expected = tau ** 3 / (3.0 * eps ** 2)
        assert r.metrics["phase_discrepancy"] == pytest.approx(
            expected, abs=1e-6)

    def test_requires_zero_label_time(self, g128):
        with pytest.raises(AirylabError):
            evolution_equivalence(CoherentParams(1.0, 0.0, 0.3), 0.5, g128)
        with pytest.raises(AirylabError):
            evolution_equivalence(CoherentParams(0.0, 0.0, 0.0), 0.5, g128)

    @pytest.mark.parametrize("eps,tau", [(1.38e-183, 0.0), (1e-170, 0.5)])
    def test_underflowing_eps_is_a_geometry_error(self, g128, eps, tau):
        # eps^2 underflows to 0; these were a ZeroDivisionError and an
        # OverflowError from the boost by tau/eps
        with pytest.raises(GeometryError, match="eps\\^2"):
            evolution_equivalence(CoherentParams(eps, 0.0, 0.0), tau, g128)

    def test_overflowing_zassenhaus_phase_is_a_geometry_error(self, g128):
        # eps^2 is still positive, but m eps v^3 at v = tau/eps overflows
        with pytest.raises(GeometryError, match="overflows"):
            evolution_equivalence(CoherentParams(1e-155, 0.0, 0.0), 0.5,
                                  g128, band=None)


class TestOverlapScan:
    def test_cube_root_law(self):
        r = overlap_scan([0.5, 1.0, 2.0, 4.0, 8.0])
        assert r.passed
        assert r.metrics["exponent"] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert r.metrics["prefactor_rel_err"] < 1e-10
        assert r.metrics["label_dependence"] < 1e-12

    def test_cube_root_law_at_small_separations(self):
        r = overlap_scan([0.01, 0.02, 0.05, 0.1, 0.2])
        assert r.passed
        assert r.metrics["exponent"] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert r.metrics["prefactor_rel_err"] < 1e-10

    def test_tolerance_override_can_fail(self):
        r = overlap_scan([0.5, 1.0, 2.0], tol_exponent=1e-18)
        assert not r.passed

    @pytest.mark.parametrize("phys,band,la,lb,resolved", [
        (PhysParams(), (10.0, 20.0), (0.0, 0.0, 0.3), (1.0, 0.0, 0.3), True),
        (PhysParams(), (10.0, 20.0), (0.0, 0.0, 0.3), (-1.0, 0.0, 0.3), True),
        (PhysParams(), (10.0, 20.0), (0.5, 0.2, 0.3), (-0.5, -0.4, 0.1), True),
        (PhysParams(0.7, 2.5), (20.0, 40.0), (0.0, 0.0, 0.3), (1.0, 0.0, 0.3),
         True),
        (PhysParams(0.7, 2.5), (20.0, 40.0), (0.0, 0.3, 0.3), (1.0, -0.5, 0.1),
         True),
        # the same labels on too narrow a band: the check can fail
        (PhysParams(0.7, 2.5), (10.0, 20.0), (0.0, 0.0, 0.3), (1.0, 0.0, 0.3),
         False),
    ])
    def test_pair_overlap_matches_grid_inner_product(self, phys, band, la, lb,
                                                     resolved):
        # the quadrature integrates the family phase of the label
        # difference; the grid multiplies the two banded builds
        g = make_grid(16384, -256.0, 256.0, phys)
        ca, cb = CoherentParams(*la), CoherentParams(*lb)
        taper = BandTaper(*band)
        on_grid = inner_product(
            perelomov_state(ca, Rep.MOMENTUM, g, band=taper),
            perelomov_state(cb, Rep.MOMENTUM, g, band=taper))
        quad = _pair_overlap(ca, cb, phys, 1e-10)
        assert (abs(on_grid - quad) <= 1e-10 * abs(quad)) == resolved


class TestOverlapPrefactor:
    def test_airy_ai_zero_constant(self):
        # Ai(0) = 3^(-2/3) / Gamma(2/3), rounded once to a double
        with mpmath.workdps(40):
            third = mpmath.mpf(1) / 3
            closed = float(mpmath.power(3, -2 * third)
                           / mpmath.gamma(2 * third))
        assert _AIRY_AI_ZERO == closed == airy_ai(0.0).value
        assert _AIRY_AI_ZERO == special.airy(0.0)[0]


def _reference_basis_orthonormality(eps, t, grid, n_states, window_fraction,
                                    probe, sum_taper_frac):
    """The full-grid metrics: every lattice state over all n bins, with
    the window's zero-weight bins carried through each sum."""
    hbar, m = grid.phys.hbar, grid.phys.m
    ww = window_weights(grid, Window.rect(window_fraction), Rep.MOMENTUM)
    m_pts = int(round(float(np.sum(ww))))
    delta_xi = TWO_PI * m * hbar / (m_pts * grid.dp)
    offsets = (np.arange(n_states) - (n_states - 1) / 2.0) * delta_xi
    common = _family_phase(CoherentParams(eps, 0.0, t), grid)
    norm = 1.0 / np.sqrt(TWO_PI * hbar * m)
    states = norm * common * np.exp(1j * np.outer(offsets, grid.p) / (m * hbar))
    weighted = states.conj() * ww
    gram = (weighted @ states.T) * grid.dp
    diag = np.real(np.diag(gram)).copy()
    off = np.abs(gram - np.diag(np.diag(gram)))
    probe_m = to_rep(gaussian_packet(probe, grid), Rep.MOMENTUM)
    coeffs = (weighted @ probe_m.amplitudes) * grid.dp
    u = (np.arange(n_states) + 0.5) / n_states
    ramp = np.minimum(u, 1.0 - u) / max(sum_taper_frac, 1.0e-12)
    sum_taper = _smoothstep(np.clip(ramp, 0.0, 1.0))
    recon = ((coeffs * sum_taper) @ states) * delta_xi
    diff = (recon - probe_m.amplitudes) * np.sqrt(ww)
    ref = probe_m.amplitudes * np.sqrt(ww)
    return {"diag_flatness": float(np.max(np.abs(diag * delta_xi - 1.0))),
            "offdiag_suppression": float(np.min(diag) / np.max(off)),
            "reconstruction_err": float(np.linalg.norm(diff)
                                        / np.linalg.norm(ref)),
            "delta_xi": float(delta_xi), "window_points": m_pts}


class TestBasisOrthonormality:
    def test_empty_lattice_rejected(self, grid64):
        with pytest.raises(AirylabError, match="n_states"):
            basis_orthonormality(1.0, 0.0, grid64, n_states=0)

    def test_lattice_no_larger_than_window(self):
        # n = 256 on [-16, 16] keeps M = 129 bins at window_fraction 0.5;
        # state i + M is state i again on them, so M + 1 states are no frame
        grid = make_grid(256, -16.0, 16.0)
        r = basis_orthonormality(1.0, 0.0, grid, n_states=129)
        assert r.metrics["window_points"] == 129
        assert r.metrics["offdiag_suppression"] > 1e12
        with pytest.raises(AirylabError, match="n_states .* 129 bins"):
            basis_orthonormality(1.0, 0.0, grid, n_states=130)

    @pytest.mark.parametrize("frac", [-1.0, -1e-300, 0.5000001, 5.0,
                                      float("nan")])
    def test_sum_taper_frac_outside_domain_rejected(self, grid64, frac):
        with pytest.raises(AirylabError, match="sum_taper_frac"):
            basis_orthonormality(1.0, 0.0, grid64, sum_taper_frac=frac)

    @pytest.mark.parametrize("frac", [0.0, 0.5])
    def test_sum_taper_frac_domain_is_closed(self, grid64, frac):
        r = basis_orthonormality(1.0, 0.0, grid64, sum_taper_frac=frac)
        assert r.config["sum_taper_frac"] == frac

    @pytest.mark.parametrize("window_fraction,n_states,sigma,phys", [
        (0.25, 128, 2.0, PhysParams()),
        (0.5, 128, 1.0, PhysParams()),
        (1.0, 256, 1.0, PhysParams()),
        (0.5, 128, 1.0, PhysParams(0.7, 2.5)),
    ])
    def test_window_bins_match_full_grid(self, window_fraction, n_states,
                                         sigma, phys):
        # dropping the zero-weight bins only reorders the sums: the metrics
        # that measure roundoff move at roundoff, the rest stay put
        grid = make_grid(1024, -32.0, 32.0, phys)
        args = dict(n_states=n_states, window_fraction=window_fraction,
                    probe=GaussianParams(sigma=sigma), sum_taper_frac=0.25)
        got = basis_orthonormality(1.0, 0.2, grid, **args).metrics
        ref = _reference_basis_orthonormality(1.0, 0.2, grid, **args)
        assert got["delta_xi"] == ref["delta_xi"]
        assert got["window_points"] == ref["window_points"]
        assert got["diag_flatness"] <= 1e-15
        assert got["offdiag_suppression"] == pytest.approx(
            ref["offdiag_suppression"], rel=0.05)
        assert got["reconstruction_err"] == pytest.approx(
            ref["reconstruction_err"], rel=1e-9)

    def test_single_state_has_unbounded_suppression(self, grid64):
        r = basis_orthonormality(1.0, 0.0, grid64, n_states=1)
        assert r.metrics["offdiag_suppression"] == np.inf

    def test_gram_and_reconstruction(self, grid64):
        r = basis_orthonormality(1.0, 0.0, grid64)
        assert r.passed
        assert r.metrics["diag_flatness"] < 1e-12
        assert r.metrics["offdiag_suppression"] > 1e6
        assert r.metrics["reconstruction_err"] < 1e-3


class TestConservationAndCovariance:
    def test_k_expectation_constant(self, grid64):
        probe = gaussian_packet(GaussianParams(1.0, 0.7, 1.5), grid64)
        r = k_expectation_series(probe, [0.0, 0.4, 0.8, 1.2], w=Window.rect(0.9))
        assert r.passed
        # <K> = t <p> - m <x> stays at its t = 0 value, here -x0
        assert r.metrics["k_initial"] == pytest.approx(-1.0, abs=1e-9)
        assert r.metrics["drift"] < 1e-10

    def test_boost_covariance(self, grid64):
        probe = gaussian_packet(GaussianParams(0.0, 0.7, 1.5), grid64)
        r = boost_covariance_residual(probe, 0.8, 0.7, w=Window.rect(0.5))
        assert r.passed
        assert r.metrics["residual"] < 1e-12
        assert r.metrics["time_skew"] == 0.0

    def test_time_skew_raises(self, grid64, monkeypatch):
        # both orderings end at field.time + tau; a skew is a broken
        # invariant, not a failed tolerance
        probe = gaussian_packet(GaussianParams(0.0, 0.7, 1.5), grid64)
        real, calls = experiments.free_evolve, []

        def skewed(field, tau):
            out = real(field, tau)
            calls.append(tau)
            skew = 1e-9 if len(calls) == 2 else 0.0
            return out.with_amplitudes(out.amplitudes, time=out.time + skew)

        monkeypatch.setattr(experiments, "free_evolve", skewed)
        with pytest.raises(AirylabError, match="apart in time"):
            boost_covariance_residual(probe, 0.8, 0.7, w=Window.rect(0.5))

    def test_commutator_table(self, grid64):
        r = commutator_table(grid64, w=Window.rect(0.5))
        assert r.passed
        for key in ("x_p", "x_h", "x_p3over6", "p_h", "p_p3over6",
                    "h_p3over6"):
            assert r.metrics[key] < 1e-7


def _reference_commutator_table(grid, w, probe, tol):
    """Every bracket and scale with each operator chain applied afresh."""
    psi = gaussian_packet(probe, grid)
    hbar, m = grid.phys.hbar, grid.phys.m

    def X(f):
        return apply_generator(GeneratorKind.x(), f)

    def P(f):
        return apply_generator(GeneratorKind.p(), f)

    def H(f):
        return apply_generator(GeneratorKind.h(), f)

    def C3(f):
        g = P(P(P(f)))
        return g.with_amplitudes(g.amplitudes / 6.0)

    def bracket(A, Bop):
        lhs = A(Bop(psi))
        rhs = Bop(A(psi))
        return lhs.with_amplitudes(lhs.amplitudes - rhs.amplitudes)

    cases = {
        "x_p": (bracket(X, P), psi.with_amplitudes(1j * hbar * psi.amplitudes)),
        "x_h": (bracket(X, H),
                psi.with_amplitudes(1j * hbar / m * P(psi).amplitudes)),
        "x_p3over6": (bracket(X, C3),
                      psi.with_amplitudes(
                          0.5j * hbar * P(P(psi)).amplitudes)),
        "p_h": (bracket(P, H), None),
        "p_p3over6": (bracket(P, C3), None),
        "h_p3over6": (bracket(H, C3), None),
    }
    scales = {
        "p_h": windowed_norm(P(H(psi)), w),
        "p_p3over6": windowed_norm(P(C3(psi)), w),
        "h_p3over6": windowed_norm(H(C3(psi)), w),
    }
    metrics = {}
    for name, (got, expected) in cases.items():
        if expected is None:
            err = windowed_norm(got, w) / scales[name]
        else:
            diff = got.with_amplitudes(got.amplitudes - expected.amplitudes)
            err = windowed_norm(diff, w) / windowed_norm(expected, w)
        metrics[name] = float(err)
    metrics["max_rel_err"] = float(max(metrics.values()))
    config = {**experiments._geometry(grid, w), "probe": asdict(probe)}
    return ExperimentReport("commutator_table", metrics, config,
                            {"max_rel_err": tol},
                            metrics["max_rel_err"] <= tol).to_dict()


class TestCommutatorTable:
    @pytest.mark.parametrize("phys", [PhysParams(), PhysParams(0.7, 2.5)])
    def test_equals_fresh_application(self, monkeypatch, phys):
        # each chain applied once gives the very same report, from 30
        # transforms where applying every chain afresh takes 86
        grid = make_grid(1024, -32.0, 32.0, phys)
        w, probe = Window.rect(0.5), GaussianParams(0.3, 0.5, 1.5)
        ref = _reference_commutator_table(grid, w, probe, 1e-7)
        calls = []

        def counted(transform):
            def call(a):
                calls.append(transform)
                return transform(a)
            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        got = commutator_table(grid, w=w, probe=probe, tol=1e-7).to_dict()
        assert got == ref
        assert len(calls) == 30

    def test_probe_outside_window_is_a_geometry_error(self):
        # every norm the brackets divide by is 0, which once surfaced as a
        # bare ZeroDivisionError
        with pytest.raises(GeometryError, match="no weight inside the window"):
            commutator_table(make_grid(4096, -512.0, 512.0),
                             w=Window.rect(0.5),
                             probe=GaussianParams(500.0, 0.0, 1.5))


class TestBerryBalazsTrajectory:
    def test_quarter_coefficient(self, g128):
        r = berry_balazs_trajectory(1.0, [0.0, 0.4, 0.8], g128,
                                    w=Window.rect(0.3), tol_distortion=1e-5)
        assert r.passed
        assert r.metrics["coeff"] == pytest.approx(0.25, rel=0.01)
        assert r.metrics["distortion_max"] < 1e-5
        assert r.metrics["family_coeff_rel_diff"] < 0.01

    @pytest.mark.parametrize("B", [1.0, -1.0])
    def test_distortions_are_density_shift_distortion(self, g128, B):
        # each evolved member serves both the distortion and the peak fit;
        # sharing it must not change the one distortion formula
        times, w = [0.0, 0.4, 0.8], Window.rect(0.3)
        r = berry_balazs_trajectory(B, times, g128, w=w, tol_distortion=1e-5)
        eps = r.config["family_eps"]
        mom0 = perelomov_state(CoherentParams(eps), Rep.MOMENTUM, g128,
                               band=BandTaper(**r.config["band"]))
        assert r.metrics["distortions"] == [
            density_shift_distortion(mom0, t, -t * t / (2.0 * eps), w)
            for t in times]


class TestRepresentationCrosscheck:
    def test_fft_matches_closed_form(self, g128):
        r = representation_crosscheck(CoherentParams(1.0, 0.0, 0.0), g128,
                                      w=Window.rect(0.25), tol=1e-4)
        assert r.passed
        assert r.metrics["sup_rel"] < 1e-4


class TestLimits:
    def test_sequence_validation(self, g128):
        with pytest.raises(AirylabError, match="strictly decreasing"):
            eps_to_zero_limit([0.5, 0.7, 0.02], 0.0, 1.0, g128)
        with pytest.raises(GeometryError, match="t != 0"):
            eps_to_zero_limit([0.5, 0.1], 0.0, 0.0, g128)
        with pytest.raises(AirylabError, match="strictly increasing"):
            eps_to_infinity_fidelity([10.0, 1.0], 0.5, g128)

    def test_a_trend_needs_two_points(self, g128):
        with pytest.raises(AirylabError, match="at least two eps values"):
            eps_to_zero_limit([0.5], 0.0, 1.0, g128)
        with pytest.raises(AirylabError, match="at least two eps values"):
            eps_to_infinity_fidelity([1.0], 0.5, g128)
        probe = gaussian_packet(GaussianParams(0.0, 0.7, 1.5), g128)
        for taus in ([0.7], []):
            with pytest.raises(AirylabError, match="at least two sample times"):
                k_expectation_series(probe, taus)

    def test_flat_limit_improves_with_stiffness(self, g128):
        r = eps_to_infinity_fidelity([1.0, 10.0, 100.0], 0.5, g128,
                                     w=Window.rect(0.5))
        assert r.passed
        fids = r.metrics["fidelities"]
        assert fids[-1] > 0.99


class TestReportIsPlain:
    def test_experiment_report_is_dataclass_like(self, g128):
        r = shape_distortion(CoherentParams(1.0, 0.0, 0.0), 0.5, g128,
                             w=Window.rect(0.5), tol=1e-4)
        assert isinstance(r, ExperimentReport)
        assert isinstance(r.metrics["distortion"], float)
        assert not isinstance(r.metrics["distortion"], np.floating)


_C = CoherentParams(1.0, 0.5, 0.2)
_PROBE = GaussianParams(0.5, 0.3, 1.5)
# name -> (a call with every window and probe left to its default, those
# defaults spelled out as arguments)
DEFAULTED = {
    "eigenrelation_residual": (
        lambda g, **kw: eigenrelation_residual(_C, g, **kw),
        {"w": Window.rect(0.5)}),
    "shape_distortion": (
        lambda g, **kw: shape_distortion(_C, 0.5, g, **kw),
        {"w": Window.rect(0.5)}),
    "evolution_equivalence": (
        lambda g, **kw: evolution_equivalence(CoherentParams(1.0, 0.5), 0.3,
                                              g, **kw),
        {"w": Window.rect(0.5)}),
    "basis_orthonormality": (
        lambda g, **kw: basis_orthonormality(1.0, 0.2, g, n_states=32, **kw),
        {"probe": GaussianParams(0.0, 0.0, 1.0)}),
    "k_expectation_series": (
        lambda g, **kw: k_expectation_series(gaussian_packet(_PROBE, g),
                                             [0.0, 0.5], **kw),
        {"w": Window.rect(0.5)}),
    "boost_covariance_residual": (
        lambda g, **kw: boost_covariance_residual(gaussian_packet(_PROBE, g),
                                                  0.8, 0.7, **kw),
        {"w": Window.rect(0.5)}),
    "berry_balazs_trajectory": (
        lambda g, **kw: berry_balazs_trajectory(1.5, [0.0, 0.5, 1.0], g,
                                                **kw),
        {"w": Window.rect(0.5)}),
    "representation_crosscheck": (
        lambda g, **kw: representation_crosscheck(_C, g, **kw),
        {"w": Window.rect(0.5)}),
    "eps_to_zero_limit": (
        lambda g, **kw: eps_to_zero_limit([0.5, 0.2], 0.0, 1.0, g, **kw),
        {"w": Window.rect(0.5)}),
    "eps_to_infinity_fidelity": (
        lambda g, **kw: eps_to_infinity_fidelity([1.0, 10.0], 0.5, g, **kw),
        {"w": Window.rect(0.5)}),
    "commutator_table": (
        lambda g, **kw: commutator_table(g, **kw),
        {"w": Window.rect(0.5), "probe": GaussianParams(0.0, 0.7, 1.5)}),
}


class TestDefaultsAreValues:
    def test_every_window_and_probe_parameter_is_covered(self):
        assert set(DEFAULTED) == {
            name for name in experiments.EXPERIMENTS
            if {"w", "probe"} & set(inspect.signature(
                getattr(experiments, name)).parameters)}

    @pytest.mark.parametrize("name", sorted(DEFAULTED))
    def test_omitted_equals_old_default(self, grid64, name):
        call, explicit = DEFAULTED[name]
        assert call(grid64).to_dict() == call(grid64, **explicit).to_dict()

    def test_density_shift_distortion_default_window(self, grid64):
        field = perelomov_state(_C, Rep.MOMENTUM, grid64)
        assert density_shift_distortion(field, 0.5, -0.35) == \
            density_shift_distortion(field, 0.5, -0.35, Window.rect(0.5))
