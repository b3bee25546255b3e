"""Verification battery: reports, pass flags, and negative controls.

Each experiment gets a fast pass-case on a compact grid plus a control
that must fail or raise, so a silently broken metric cannot stay green.
The large-grid, tight-tolerance runs live in the acceptance suite.
"""

import json

import numpy as np
import pytest

from airylab import (
    AirylabError,
    BandTaper,
    CoherentParams,
    GaussianParams,
    GeometryError,
    PhysParams,
    Rep,
    Window,
    gaussian_packet,
    inner_product,
    make_grid,
    perelomov_state,
    to_rep,
)
from airylab.experiments import (
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


class TestBasisOrthonormality:
    def test_empty_lattice_rejected(self, grid64):
        with pytest.raises(AirylabError, match="n_states"):
            basis_orthonormality(1.0, 0.0, grid64, n_states=0)

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

    def test_commutator_table(self, grid64):
        r = commutator_table(grid64, w=Window.rect(0.5))
        assert r.passed
        for key in ("x_p", "x_h", "x_p3over6", "p_h", "p_p3over6",
                    "h_p3over6"):
            assert r.metrics[key] < 1e-7


class TestBerryBalazsTrajectory:
    def test_quarter_coefficient(self, g128):
        r = berry_balazs_trajectory(1.0, [0.0, 0.4, 0.8], g128,
                                    w=Window.rect(0.3), tol_distortion=1e-5)
        assert r.passed
        assert r.metrics["coeff"] == pytest.approx(0.25, rel=0.01)
        assert r.metrics["distortion_max"] < 1e-5
        assert r.metrics["family_coeff_rel_diff"] < 0.01


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
