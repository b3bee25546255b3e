"""State constructors: closed forms, band planning, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylab import states
from airylab import (
    AirylabError,
    BandTaper,
    CoherentParams,
    GaussianParams,
    GeometryError,
    GridError,
    PhysParams,
    Rep,
    ResolutionError,
    Window,
    ai_values,
    berry_balazs_initial,
    content_map,
    fit_band,
    fourier,
    gaussian_packet,
    make_grid,
    perelomov_state,
    to_rep,
    windowed_norm,
    xi_eigenstate_x,
)

TWO_PI = 2.0 * np.pi

# spot references frozen from an independent evaluation of the closed
# form (mpmath airyai at 40 digits for the Airy factor, exact arithmetic
# for phase and prefactor), hbar = m = 1
SPOT_ORACLE = [
    # (eps, xi, t, x, value)
    (0.8, 0.7, 0.6, 0.9, -0.03348085322761373 + 0.1267263073147039j),
    (-0.8, 0.7, 0.6, -0.9, 0.6431143624486115 - 0.1728049883235242j),
]


def lattice_grid():
    # chosen so x = +-0.9 are exact lattice sites (dx = 0.028125)
    return make_grid(16384, -230.4, 230.4)


class TestPerelomovPosition:
    @pytest.mark.parametrize("eps,xi,t,x,expected", SPOT_ORACLE)
    def test_spot_values(self, eps, xi, t, x, expected):
        g = lattice_grid()
        f = perelomov_state(CoherentParams(eps, xi, t), Rep.POSITION, g)
        j = int(round((x - g.x_min) / g.dx))
        assert g.x[j] == pytest.approx(x, abs=1e-12)
        assert abs(f.amplitudes[j] - expected) < 1e-12

    def test_real_at_t_zero(self, grid64):
        f = perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.POSITION, grid64)
        assert np.max(np.abs(f.amplitudes.imag)) == 0.0
        # eps = -2 m^2/B^3 at B = 1 reproduces the Ai(x) profile exactly
        g = perelomov_state(CoherentParams(-2.0, 0.0, 0.0), Rep.POSITION, grid64)
        bb = berry_balazs_initial(1.0, grid64)
        assert np.max(np.abs(g.amplitudes - bb.amplitudes)) < 1e-13

    def test_oscillatory_tail_side_follows_sign(self, grid64):
        pos = perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.POSITION, grid64)
        neg = perelomov_state(CoherentParams(-1.0, 0.0, 0.0), Rep.POSITION, grid64)
        rho_pos, rho_neg = pos.density(), neg.density()
        x = grid64.x
        # eps > 0: oscillatory tail toward +x, decay toward -x
        assert np.sum(rho_pos[x > 5]) > 100.0 * np.sum(rho_pos[x < -5])
        # parity image on the lattice: x_j -> -x_j is reverse + roll by 1;
        # j = 0 (x = x_min) has no partner, +x_max is the periodic seam
        mirrored = np.roll(rho_neg[::-1], 1)
        assert np.max(np.abs(rho_pos[1:] - mirrored[1:])) < 1e-12 * np.max(rho_pos)

    def test_timestamp_carries_label_time(self, grid64):
        f = perelomov_state(CoherentParams(1.0, 0.0, 0.75), Rep.POSITION, grid64)
        assert f.time == 0.75

    def test_band_rejected_in_position(self, grid64):
        with pytest.raises(AirylabError, match="momentum builds only"):
            perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.POSITION,
                            grid64, band=BandTaper(3.0, 5.0))

    def test_under_resolution_rejected(self):
        g = make_grid(64, -64.0, 64.0)
        with pytest.raises(ResolutionError, match="quarter local wavelength"):
            perelomov_state(CoherentParams(0.01, 0.0, 0.0), Rep.POSITION, g)


class TestPerelomovDegenerate:
    def test_eps_zero_t_nonzero_flat_magnitude(self, grid64):
        t = 0.8
        f = perelomov_state(CoherentParams(0.0, 1.3, t), Rep.POSITION, grid64)
        mag = np.abs(f.amplitudes)
        assert np.max(np.abs(mag - 1.0 / np.sqrt(TWO_PI * t))) < 1e-13

    @pytest.mark.parametrize("t", [0.8, -0.8])
    def test_eps_zero_matches_boost_eigenstate(self, grid64, t):
        xi = 1.3
        fam = perelomov_state(CoherentParams(0.0, xi, t), Rep.POSITION, grid64)
        eig = xi_eigenstate_x(xi, t, grid64)
        ratio = fam.amplitudes / eig.amplitudes
        expected = np.exp(-1j * np.sign(t) * np.pi / 4.0) * np.exp(
            1j * xi * xi / (2.0 * t))
        assert np.max(np.abs(ratio - expected)) < 1e-12

    def test_eps_zero_t_zero_position_rejected(self, grid64):
        with pytest.raises(AirylabError, match="delta"):
            perelomov_state(CoherentParams(0.0, 0.0, 0.0), Rep.POSITION, grid64)

    def test_eps_zero_t_zero_momentum_is_plane_phase(self, grid64):
        xi = -3.0
        f = perelomov_state(CoherentParams(0.0, xi, 0.0), Rep.MOMENTUM, grid64)
        norm = 1.0 / np.sqrt(TWO_PI)
        assert np.max(np.abs(np.abs(f.amplitudes) - norm)) < 1e-15
        pos = fourier(f, Rep.POSITION)
        peak = grid64.x[int(np.argmax(pos.density()))]
        assert peak == pytest.approx(-xi, abs=grid64.dx / 2)

    def test_xi_eigenstate_rejects_t_zero(self, grid64):
        with pytest.raises(AirylabError, match="eps = 0"):
            xi_eigenstate_x(0.0, 0.0, grid64)


class TestPerelomovMomentum:
    def test_banded_amplitudes(self, grid64):
        band = BandTaper(4.0, 7.0)
        f = perelomov_state(CoherentParams(1.0, 0.5, 0.2), Rep.MOMENTUM,
                            grid64, band=band)
        p = grid64.p
        mag = np.abs(f.amplitudes)
        norm = 1.0 / np.sqrt(TWO_PI)
        assert np.max(np.abs(mag[np.abs(p) <= 4.0] - norm)) < 1e-15
        assert np.all(mag[np.abs(p) >= 7.0] == 0.0)

    def test_bare_phase_with_band_none(self, grid64):
        f = perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.MOMENTUM,
                            grid64, band=None)
        assert np.max(np.abs(np.abs(f.amplitudes)
                             - 1.0 / np.sqrt(TWO_PI))) < 1e-15

    def test_auto_band_matches_fit_band(self, grid64):
        c = CoherentParams(1.0, 0.0, 0.0)
        auto = perelomov_state(c, Rep.MOMENTUM, grid64)
        planned = perelomov_state(c, Rep.MOMENTUM, grid64,
                                  band=fit_band(c, grid64))
        assert np.array_equal(auto.amplitudes, planned.amplitudes)

    def test_bad_band_argument(self, grid64):
        with pytest.raises(AirylabError, match="band must be"):
            perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.MOMENTUM,
                            grid64, band="wide")

    def test_hbar_mismatch_rejected(self, grid64):
        # the grid holds hbar; a second one has no parameter to go to
        with pytest.raises(TypeError, match="phys"):
            perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.MOMENTUM,
                            grid64, phys=PhysParams(hbar=0.5))

    def test_delta_normalization_scale(self, grid64):
        # <eps,xi|eps,xi'> -> delta(xi - xi'): on the lattice the self
        # inner product equals 1/(2 pi hbar m) * (2 pi hbar / dx)... the
        # clean invariant is the flat magnitude (2 pi hbar m)^(-1/2)
        phys = PhysParams(hbar=0.5, m=2.0)
        g = make_grid(2048, -64.0, 64.0, phys)
        f = perelomov_state(CoherentParams(1.0, 0.0, 0.0), Rep.MOMENTUM,
                            g, band=None)
        assert np.max(np.abs(np.abs(f.amplitudes)
                             - 1.0 / np.sqrt(TWO_PI * 0.5 * 2.0))) < 1e-15


def literal_momentum_build(c, grid, band):
    """The momentum closed form written out term by term, in the
    floating-point order of the build: norm, then taper, then phase."""
    hbar, m = grid.phys.hbar, grid.phys.m
    p = grid.p
    norm = 1.0 / np.sqrt(TWO_PI * hbar * m)
    phase = np.exp(
        1j * (p * c.xi / m - c.t * p * p / (2.0 * m)
              - c.eps * p ** 3 / (6.0 * m * m)) / hbar)
    if band is None:
        return norm * phase
    return norm * band.weights(p) * phase


class TestMomentumBuildBitwise:
    """The momentum build is U(eps, t, xi) on the flat fiducial state,
    equal bit for bit to the literal closed form."""

    LABELS = [(1.0, 0.0, 0.0), (-1.3, 0.0, 0.0), (0.8, -0.7, 0.0),
              (1.2, 0.4, 0.3), (-0.9, 1.1, -0.5), (0.0, 0.6, 0.4)]

    @pytest.mark.parametrize("phys", [PhysParams(), PhysParams(0.7, 2.5)])
    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("policy", [None, "auto", BandTaper(2.0, 4.0)])
    def test_matches_literal_expression(self, phys, label, policy):
        g = make_grid(2048, -64.0, 64.0, phys)
        c = CoherentParams(*label)
        band = fit_band(c, g) if policy == "auto" else policy
        built = perelomov_state(c, Rep.MOMENTUM, g, band=policy)
        assert np.array_equal(built.amplitudes,
                              literal_momentum_build(c, g, band))

    @pytest.mark.parametrize("phys", [PhysParams(), PhysParams(0.7, 2.5)])
    @pytest.mark.parametrize("band", [None, "auto", BandTaper(2.0, 4.0)])
    def test_grid_delta_matches_literal_expression(self, phys, band):
        # eps = t = 0 ignores the band policy and keeps the full band
        g = make_grid(2048, -64.0, 64.0, phys)
        c = CoherentParams(0.0, -1.5, 0.0)
        built = perelomov_state(c, Rep.MOMENTUM, g, band=band)
        assert np.array_equal(built.amplitudes,
                              literal_momentum_build(c, g, None))


class TestBandPlanning:
    def test_band_taper_profile(self):
        band = BandTaper(2.0, 5.0)
        p = np.linspace(-7.0, 7.0, 2001)
        w = band.weights(p)
        assert np.all(w[np.abs(p) <= 2.0] == 1.0)
        assert np.all(w[np.abs(p) >= 5.0] == 0.0)
        assert np.all((0.0 <= w) & (w <= 1.0))
        mid = w[(p > 2.0) & (p < 5.0)]
        assert np.all(np.diff(mid) <= 1e-12)

    def test_band_taper_validation(self):
        with pytest.raises(AirylabError):
            BandTaper(5.0, 5.0)
        with pytest.raises(AirylabError):
            BandTaper(-1.0, 2.0)

    def test_content_map_values(self):
        phys = PhysParams()
        c = CoherentParams(2.0, 3.0, 0.5)
        p = np.array([0.0, 1.0, -2.0])
        expected = -3.0 + 0.5 * p + 2.0 * p ** 2 / 2.0
        assert np.allclose(content_map(c, phys, p), expected, atol=1e-15)

    def test_fit_band_keeps_content_inside_box(self, grid64):
        c = CoherentParams(1.0, 0.0, 0.5)
        band = fit_band(c, grid64)
        assert 0.0 < band.p_plateau < band.p_support <= grid64.p_nyquist
        p_edge = np.array([-band.p_support, band.p_support])
        content = content_map(c, PhysParams(), p_edge)
        assert np.all(content > grid64.x_min)
        assert np.all(content < grid64.x_max)

    def test_plan_band_fits_each_distinct_endpoint_once(self, grid64,
                                                        monkeypatch):
        fitted = []

        def counting_fit(c, grid, **kwargs):
            fitted.append(c.t)
            return fit_band(c, grid, **kwargs)

        monkeypatch.setattr(states, "fit_band", counting_fit)
        c = CoherentParams(1.0, 0.0, 0.5)
        perelomov_state(c, Rep.MOMENTUM, grid64)
        assert fitted == [0.5]
        fitted.clear()
        band = states._plan_band(c, [0.5, 0.2, 0.9, 0.2], grid64, "auto")
        assert sorted(fitted) == [0.2, 0.9]
        fits = [fit_band(CoherentParams(1.0, 0.0, t), grid64)
                for t in (0.2, 0.9)]
        assert band == BandTaper(min(f.p_plateau for f in fits),
                                 min(f.p_support for f in fits))

    def test_fit_band_margins_exceed_box(self):
        g = make_grid(64, -2.0, 2.0)
        with pytest.raises(GeometryError, match="margins exceed"):
            fit_band(CoherentParams(1.0, 0.0, 0.0), g)

    def test_fit_band_plateau_collapse(self):
        # box admits the margins but only a sliver of band survives
        g = make_grid(1024, -8.0, 8.0)
        with pytest.raises(GeometryError, match="plateau collapsed"):
            fit_band(CoherentParams(1.0, 0.0, 0.0), g)

    def test_param_validation(self):
        with pytest.raises(AirylabError):
            CoherentParams(float("inf"), 0.0, 0.0)
        with pytest.raises(AirylabError):
            GaussianParams(0.0, 0.0, -1.0)


class TestGaussian:
    def test_normalized_with_analytic_moments(self, grid64):
        g = GaussianParams(1.5, -0.8, 2.0)
        f = gaussian_packet(g, grid64)
        assert windowed_norm(f) == pytest.approx(1.0, rel=1e-13)
        rho = f.density()
        mean_x = np.sum(grid64.x * rho) * grid64.dx
        var_x = np.sum((grid64.x - mean_x) ** 2 * rho) * grid64.dx
        assert mean_x == pytest.approx(1.5, abs=1e-12)
        assert var_x == pytest.approx(4.0, rel=1e-12)
        mom = fourier(f, Rep.MOMENTUM)
        rho_p = mom.density()
        mean_p = np.sum(grid64.p * rho_p) * grid64.dp
        assert mean_p == pytest.approx(-0.8, abs=1e-12)

    def test_resolution_guards(self, grid64):
        with pytest.raises(ResolutionError, match="under-resolved"):
            gaussian_packet(GaussianParams(0.0, 0.0, 0.1), grid64)
        with pytest.raises(GridError, match="leaves the box"):
            gaussian_packet(GaussianParams(60.0, 0.0, 2.0), grid64)
        with pytest.raises(ResolutionError, match="Nyquist"):
            gaussian_packet(GaussianParams(0.0, 50.0, 2.0), grid64)

    @settings(max_examples=20, deadline=None)
    @given(x0=st.floats(-10.0, 10.0), p0=st.floats(-5.0, 5.0),
           sigma=st.floats(0.5, 3.0))
    def test_round_trip_property(self, x0, p0, sigma):
        g = make_grid(1024, -64.0, 64.0)
        f = gaussian_packet(GaussianParams(x0, p0, sigma), g)
        back = fourier(fourier(f, Rep.MOMENTUM), Rep.POSITION)
        assert windowed_norm(f) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(back.amplitudes - f.amplitudes)) < 1e-10


class TestBerryBalazs:
    def test_profile_matches_airy(self, grid64):
        f = berry_balazs_initial(1.0, grid64)
        expected = ai_values(grid64.x)
        assert np.max(np.abs(f.amplitudes.real - expected)) == 0.0
        assert np.max(np.abs(f.amplitudes.imag)) == 0.0

    def test_hbar_scaling(self):
        phys = PhysParams(hbar=0.5)
        g = make_grid(2048, -64.0, 64.0, phys)
        f = berry_balazs_initial(1.0, g)
        expected = ai_values(g.x / 0.5 ** (2.0 / 3.0))
        assert np.max(np.abs(f.amplitudes - expected)) == 0.0

    def test_negative_slope_mirrors(self, grid64):
        f = berry_balazs_initial(-1.0, grid64)
        g = berry_balazs_initial(1.0, grid64)
        mirrored = np.roll(g.amplitudes[::-1], 1)
        assert np.max(np.abs(f.amplitudes[1:] - mirrored[1:])) < 1e-15

    def test_validation(self, grid64):
        with pytest.raises(AirylabError):
            berry_balazs_initial(0.0, grid64)
        with pytest.raises(ResolutionError):
            berry_balazs_initial(40.0, grid64)


class TestCrossRepresentation:
    def test_momentum_build_reproduces_position_closed_form(self, grid64):
        c = CoherentParams(1.0, 0.0, 0.25)
        mom = perelomov_state(c, Rep.MOMENTUM, grid64)
        via_fft = to_rep(mom, Rep.POSITION)
        closed = perelomov_state(c, Rep.POSITION, grid64)
        w = Window.rect(0.25)
        diff = via_fft.with_amplitudes(via_fft.amplitudes - closed.amplitudes)
        rel = windowed_norm(diff, w) / windowed_norm(closed, w)
        # the floor here is band-taper ringing on this compact box; the
        # large-box experiment battery drives the same residual to 1e-6
        assert rel < 1e-4
