"""Generator algebra, displacement flows, and the free propagator."""

import numpy as np
import pytest

from airylab import (
    AirylabError,
    BoostParams,
    CoherentParams,
    GaussianParams,
    GeneratorKind,
    GeometryError,
    PhysParams,
    Rep,
    Window,
    apply_displacement_U,
    apply_generator,
    berry_balazs_initial,
    boost,
    boost_covariance_residual,
    fourier,
    free_evolve,
    gaussian_packet,
    inner_product,
    k_expectation_series,
    make_grid,
    perelomov_state,
    translate,
    windowed_norm,
    xi_eigenstate_x,
    zassenhaus_rhs,
)


def probe(grid, x0=1.0, p0=0.7, sigma=1.5):
    return gaussian_packet(GaussianParams(x0, p0, sigma), grid)


class TestGeneratorKind:
    def test_factories(self):
        assert GeneratorKind.x().tag == "x"
        assert GeneratorKind.k(0.5).t == 0.5

    def test_k_requires_finite_time(self):
        with pytest.raises(AirylabError):
            GeneratorKind.k(float("nan"))

    def test_time_rejected_off_k(self):
        with pytest.raises(AirylabError):
            GeneratorKind(tag="x", t=1.0)
        with pytest.raises(AirylabError):
            GeneratorKind(tag="k", t=None)


class TestApplyGenerator:
    def test_expectation_values(self, grid64):
        psi = probe(grid64)
        x0, p0, sigma = 1.0, 0.7, 1.5

        def expect(kind):
            return inner_product(psi, apply_generator(kind, psi)).real

        assert expect(GeneratorKind.x()) == pytest.approx(x0, abs=1e-10)
        assert expect(GeneratorKind.p()) == pytest.approx(p0, abs=1e-10)
        # <p^2>/2m for the minimal packet: (p0^2 + hbar^2/4 sigma^2)/2
        assert expect(GeneratorKind.h()) == pytest.approx(
            (p0 ** 2 + 1.0 / (4.0 * sigma ** 2)) / 2.0, rel=1e-10)
        t = 0.8
        assert expect(GeneratorKind.k(t)) == pytest.approx(
            t * p0 - x0, abs=1e-10)

    def test_preserves_representation(self, grid64):
        psi = probe(grid64)
        mom = fourier(psi, Rep.MOMENTUM)
        assert apply_generator(GeneratorKind.x(), mom).rep is Rep.MOMENTUM
        assert apply_generator(GeneratorKind.p(), psi).rep is Rep.POSITION


class TestTranslate:
    def test_matches_shifted_gaussian(self, grid64):
        a, x0, p0, sigma = 2.3, 1.0, 0.7, 1.5
        moved = translate(probe(grid64, x0, p0, sigma), a)
        target = probe(grid64, x0 + a, p0, sigma)
        # a spectral shift keeps the e^(i p0 x) convention anchored at the
        # old center, leaving a constant relative phase e^(-i p0 a)
        diff = moved.amplitudes - np.exp(-1j * p0 * a) * target.amplitudes
        assert np.max(np.abs(diff)) < 1e-12

    def test_full_period_is_identity(self, grid64):
        psi = probe(grid64)
        wrapped = translate(psi, grid64.x_max - grid64.x_min)
        assert np.max(np.abs(wrapped.amplitudes - psi.amplitudes)) < 1e-11

    def test_rejects_non_finite(self, grid64):
        with pytest.raises(AirylabError, match="finite"):
            translate(probe(grid64), float("inf"))

    def test_keeps_timestamp(self, grid64):
        psi = probe(grid64).with_amplitudes(probe(grid64).amplitudes, time=2.0)
        assert translate(psi, 1.0).time == 2.0


class TestBoost:
    def test_momentum_kick_at_t_zero(self, grid64):
        v = 0.5
        out = boost(probe(grid64), BoostParams(v=v, t=0.0))
        mom = fourier(out, Rep.MOMENTUM)
        mean_p = np.sum(grid64.p * mom.density()) * grid64.dp
        assert mean_p == pytest.approx(0.7 - v, abs=1e-10)

    def test_derivative_is_generator(self, grid64):
        # (e^(i v K/hbar) - e^(-i v K/hbar)) psi / 2v -> (i K/hbar) psi
        psi = probe(grid64)
        t, v = 0.8, 1.0e-3
        plus = boost(psi, BoostParams(v=v, t=t))
        minus = boost(psi, BoostParams(v=-v, t=t))
        derived = (plus.amplitudes - minus.amplitudes) / (2.0 * v)
        k_psi = apply_generator(GeneratorKind.k(t), psi)
        expected = 1j * k_psi.amplitudes
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(derived - expected)) < 1e-5 * scale

    def test_unitary_and_keeps_time(self, grid64):
        psi = probe(grid64)
        out = boost(psi, BoostParams(v=0.6, t=0.4))
        assert windowed_norm(out) == pytest.approx(1.0, rel=1e-12)
        assert out.time == psi.time

    def test_rejects_non_finite(self):
        with pytest.raises(AirylabError):
            BoostParams(v=float("nan"), t=0.0)

    @pytest.mark.parametrize("v,t", [(1e200, 1.0), (1e160, 0.0)])
    def test_overflowing_phase_is_a_geometry_error(self, grid64, v, t):
        # v^2 overflows float64; this was a bare OverflowError
        with pytest.raises(GeometryError, match="overflows"):
            boost(probe(grid64), BoostParams(v=v, t=t))


class TestFreeEvolve:
    def test_gaussian_moments(self, grid64):
        x0, p0, sigma, tau = 1.0, 0.7, 1.5, 2.0
        out = free_evolve(probe(grid64, x0, p0, sigma), tau)
        assert out.time == tau
        rho = out.density()
        mean = np.sum(grid64.x * rho) * grid64.dx
        var = np.sum((grid64.x - mean) ** 2 * rho) * grid64.dx
        assert mean == pytest.approx(x0 + p0 * tau, rel=1e-10)
        assert var == pytest.approx(sigma ** 2 + (tau / (2.0 * sigma)) ** 2,
                                    rel=1e-10)
        assert windowed_norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_reversible(self, grid64):
        psi = probe(grid64)
        back = free_evolve(free_evolve(psi, 1.3), -1.3)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12
        assert back.time == pytest.approx(0.0, abs=1e-15)

    def test_momentum_density_invariant(self, grid64):
        psi = probe(grid64)
        before = fourier(psi, Rep.MOMENTUM).density()
        after = fourier(free_evolve(psi, 2.0), Rep.MOMENTUM).density()
        assert np.max(np.abs(after - before)) < 1e-13

    def test_rejects_non_finite(self, grid64):
        with pytest.raises(AirylabError, match="finite"):
            free_evolve(probe(grid64), float("nan"))


class TestDisplacement:
    def test_reproduces_family_member(self, grid64):
        flat = perelomov_state(CoherentParams(0.0, 0.0, 0.0), Rep.MOMENTUM,
                               grid64)
        c = CoherentParams(1.2, -0.4, 0.3)
        displaced = apply_displacement_U(flat, c)
        direct = perelomov_state(c, Rep.MOMENTUM, grid64, band=None)
        assert np.array_equal(displaced.amplitudes, direct.amplitudes)

    def test_inverse_composition(self, grid64):
        psi = probe(grid64)
        c = CoherentParams(0.9, 0.5, -0.2)
        c_inv = CoherentParams(-0.9, -0.5, 0.2)
        back = apply_displacement_U(apply_displacement_U(psi, c), c_inv)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-13

    def test_momentum_density_invariant_and_time_kept(self, grid64):
        psi = probe(grid64)
        out = apply_displacement_U(psi, CoherentParams(1.0, 0.3, 0.6))
        assert out.time == psi.time
        before = fourier(psi, Rep.MOMENTUM).density()
        after = fourier(out, Rep.MOMENTUM).density()
        assert np.max(np.abs(after - before)) < 1e-13


class TestZassenhaus:
    @staticmethod
    def _strang_exponential(psi, v, eps, t, n_steps):
        """e^(i v (K(t) + eps H)/hbar) by symmetric operator splitting.

        Each step applies e^(i (d/2) eps H/hbar), e^(i d K/hbar),
        e^(i (d/2) eps H/hbar) with d = v/n; both factors are exact, so
        the only error is the O(d^2) splitting error.
        """
        d = v / n_steps
        out = psi
        for _ in range(n_steps):
            out = free_evolve(out, -0.5 * d * eps)
            out = boost(out, BoostParams(v=d, t=t))
            out = free_evolve(out, -0.5 * d * eps)
        return out

    def test_agrees_with_split_exponential(self):
        g = make_grid(1024, -64.0, 64.0)
        psi = gaussian_packet(GaussianParams(0.0, 0.7, 1.5), g)
        v, eps, t = 0.4, 0.7, 0.3
        rhs = zassenhaus_rhs(psi, v, eps, t)

        def err(n):
            ref = self._strang_exponential(psi, v, eps, t, n)
            return np.max(np.abs(ref.amplitudes - rhs.amplitudes))

        e_coarse, e_fine = err(256), err(1024)
        assert e_fine < 1e-6
        # quadratic convergence toward the product form: quadrupling the
        # step count must shrink the gap ~16x, so the two sides agree in
        # the continuum limit rather than at a fixed offset
        assert e_coarse / e_fine > 8.0

    def test_preserves_timestamp_and_norm(self, grid64):
        psi = probe(grid64)
        out = zassenhaus_rhs(psi, 0.3, 0.5, 0.2)
        assert out.time == psi.time
        assert windowed_norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_non_finite(self, grid64):
        with pytest.raises(AirylabError, match="finite"):
            zassenhaus_rhs(probe(grid64), float("nan"), 1.0, 0.0)

    @pytest.mark.parametrize("v", [1e110, 1e200])
    def test_overflowing_phase_is_a_geometry_error(self, grid64, v):
        # m eps v^3 leaves float64 before v^2 eps/2 does
        with pytest.raises(GeometryError, match="overflows"):
            zassenhaus_rhs(probe(grid64), v, 1.0, 0.0)


class TestHbarSource:
    """hbar and m come from the field's grid, the only place that holds them."""

    def test_default_phys_follows_grid(self):
        phys = PhysParams(hbar=2.0, m=3.0)
        grid = make_grid(2048, -64.0, 64.0, phys)
        assert grid.phys == phys and grid.hbar == 2.0
        psi = probe(grid, x0=0.0)
        r = boost_covariance_residual(psi, 0.8, 0.7)
        assert r.metrics["residual"] < 1e-12
        assert r.config["phys"] == {"hbar": 2.0, "m": 3.0}
        a = free_evolve(boost(psi, BoostParams(0.8, 0.3)), 0.5)
        # the spelled-out propagator with grid.phys's hbar and m
        b = boost(psi, BoostParams(0.8, 0.3))
        mom = fourier(b, Rep.MOMENTUM)
        mom = mom.with_amplitudes(
            np.exp(-1j * grid.p ** 2 * 0.5 / (2.0 * grid.phys.m * grid.hbar))
            * mom.amplitudes)
        assert np.array_equal(a.amplitudes,
                              fourier(mom, Rep.POSITION).amplitudes)

    def test_mass_from_grid(self):
        # amplitudes frozen from builds that passed PhysParams(hbar=0.5,
        # m=2.0) explicitly, when the grid held hbar alone and m defaulted
        # to 1 unless given
        grid = make_grid(2048, -64.0, 64.0, PhysParams(hbar=0.5, m=2.0))
        gauss = gaussian_packet(GaussianParams(1.0, 0.4, 2.0), grid)
        builds = {
            "gaussian": gauss,
            "xi_eigenstate": xi_eigenstate_x(0.3, 0.7, grid),
            "momentum": perelomov_state(CoherentParams(1.0, 0.3, 0.2),
                                        Rep.MOMENTUM, grid),
            "position": perelomov_state(CoherentParams(4.0, 0.3, 0.2),
                                        Rep.POSITION, grid),
            "berry_balazs": berry_balazs_initial(1.0, grid),
            "evolved": free_evolve(gauss, 0.5),
        }
        frozen = {
            "gaussian": [0.10950433515824931 - 0.2816617533071552j,
                         0.3111644888109519 + 0.3203869552646227j],
            "xi_eigenstate": [0.2813977224465254 - 0.612816229089843j,
                              -0.5667416977727265 - 0.3654206573795113j],
            "momentum": [0.39869577691921704 + 0.014022145295113723j,
                         0.3986036728399684 - 0.01643335298661909j],
            "position": [0.015531690730884349 + 0.0042873762673529036j,
                         0.027126503912806067 - 0.006370569591475772j],
            "berry_balazs": [-0.03012606414116718, 0.06364093179537238],
            "evolved": [0.09474238056998055 - 0.2769754351466376j,
                        0.3258947825605202 + 0.3049430994270558j],
        }
        for name, field in builds.items():
            at = [5, 60] if name == "momentum" else [1000, 1040]
            np.testing.assert_allclose(field.amplitudes[at], frozen[name],
                                       rtol=1e-12, err_msg=name)
        r = k_expectation_series(gauss, [0.0, 0.5, 1.0], w=Window.rect(0.5))
        # <K(0)> = -m <x> = -2 x0
        assert r.metrics["k_initial"] == pytest.approx(-2.0, rel=1e-14)
        assert r.config["phys"] == {"hbar": 0.5, "m": 2.0}
