"""Grid construction, the unitary transform pair, and windowed metrics."""

import dataclasses

import numpy as np
import pytest

from airylab import (
    GridError,
    PhysParams,
    Rep,
    WaveField,
    Window,
    WindowKind,
    fourier,
    inner_product,
    make_grid,
    to_rep,
    window_weights,
    windowed_norm,
)
from airylab.states import GaussianParams, gaussian_packet


class TestMakeGrid:
    def test_accepts_power_of_two(self):
        g = make_grid(256, -8.0, 8.0)
        assert g.n_points == 256
        assert g.dx == pytest.approx(16.0 / 256)

    @pytest.mark.parametrize("n", [100, 7, 4, 0, 1000, 2049])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(GridError, match="power of two"):
            make_grid(n, -8.0, 8.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(GridError, match="x_max must exceed x_min"):
            make_grid(64, 2.0, -2.0)
        with pytest.raises(GridError):
            make_grid(64, 1.0, 1.0)

    def test_lattice_layout(self):
        g = make_grid(64, -3.0, 5.0)
        assert g.x[0] == -3.0
        assert g.x[-1] == pytest.approx(5.0 - g.dx)
        assert np.allclose(np.diff(g.x), g.dx)

    def test_conjugate_lattice_exact_relation(self):
        for hbar in (1.0, 0.37):
            g = make_grid(512, -10.0, 22.0, PhysParams(hbar=hbar))
            assert g.dx * g.dp * g.n_points == pytest.approx(
                2.0 * np.pi * hbar, rel=1e-15)
            assert g.p_nyquist == pytest.approx(np.pi * hbar / g.dx, rel=1e-15)
            assert g.p[0] == 0.0
            assert np.min(g.p) == pytest.approx(-g.p_nyquist)


class TestWaveField:
    def test_amplitudes_are_frozen(self, grid64):
        f = WaveField(grid64, Rep.POSITION, np.ones(grid64.n_points))
        with pytest.raises(ValueError):
            f.amplitudes[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.time = 1.0

    def test_shape_mismatch(self, grid64):
        with pytest.raises(GridError, match="shape"):
            WaveField(grid64, Rep.POSITION, np.ones(7))

    def test_with_amplitudes_overrides(self, grid64):
        f = WaveField(grid64, Rep.POSITION, np.ones(grid64.n_points), time=0.5)
        g = f.with_amplitudes(2.0 * f.amplitudes, rep=Rep.MOMENTUM, time=1.5)
        assert g.rep is Rep.MOMENTUM
        assert g.time == 1.5
        assert np.all(g.amplitudes == 2.0)
        h = f.with_amplitudes(f.amplitudes)
        assert h.rep is f.rep and h.time == f.time

    def test_density_and_coords(self, grid64):
        amps = (1.0 + 2.0j) * np.ones(grid64.n_points)
        f = WaveField(grid64, Rep.POSITION, amps)
        assert np.allclose(f.density(), 5.0)
        assert f.coords() is grid64.x
        assert f.with_amplitudes(amps, rep=Rep.MOMENTUM).coords() is grid64.p


class TestFourier:
    def test_round_trip(self, grid64):
        psi = gaussian_packet(GaussianParams(1.5, 2.0, 2.0), grid64)
        back = fourier(fourier(psi, Rep.MOMENTUM), Rep.POSITION)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    def test_unitarity(self, grid64):
        psi = gaussian_packet(GaussianParams(-3.0, 1.0, 1.5), grid64)
        mom = fourier(psi, Rep.MOMENTUM)
        assert windowed_norm(mom) == pytest.approx(windowed_norm(psi), rel=1e-12)

    def test_matches_analytic_gaussian_transform(self):
        # psi(x) = (2 pi s^2)^(-1/4) e^(i p0 x/hbar) e^(-(x-x0)^2/4 s^2)
        # maps to |psi_p(p)| = (2 s^2/(pi hbar^2))^(1/4) e^(-s^2 (p-p0)^2/hbar^2)
        hbar = 0.7
        phys = PhysParams(hbar=hbar)
        g = make_grid(4096, -80.0, 80.0, phys)
        s, x0, p0 = 2.0, 1.0, 0.8
        psi = gaussian_packet(GaussianParams(x0, p0, s), g)
        mom = fourier(psi, Rep.MOMENTUM)
        expected_mag = (2.0 * s * s / (np.pi * hbar * hbar)) ** 0.25 * np.exp(
            -(s * (g.p - p0) / hbar) ** 2)
        assert np.max(np.abs(np.abs(mom.amplitudes) - expected_mag)) < 1e-12
        # the transform carries the phase factor e^(-i (p - p0) x0 / hbar)
        j = int(np.argmin(np.abs(g.p - p0)))
        got = mom.amplitudes[j] / np.abs(mom.amplitudes[j])
        expected_phase = np.exp(-1j * (g.p[j] - p0) * x0 / hbar)
        assert got == pytest.approx(expected_phase, abs=1e-10)

    def test_rejects_same_rep(self, grid64):
        psi = gaussian_packet(GaussianParams(0.0, 0.0, 1.0), grid64)
        with pytest.raises(GridError, match="already"):
            fourier(psi, Rep.POSITION)
        assert to_rep(psi, Rep.POSITION) is psi

    def test_preserves_timestamp(self, grid64):
        psi = gaussian_packet(GaussianParams(0.0, 0.0, 1.0), grid64)
        shifted = psi.with_amplitudes(psi.amplitudes, time=2.5)
        assert fourier(shifted, Rep.MOMENTUM).time == 2.5


def literal_fourier(amps, g, target):
    """The transform written out with its phase built in place, in the
    floating-point order that `fourier` reproduces."""
    scale = 1.0 / np.sqrt(2.0 * np.pi * g.hbar)
    phase = np.exp(-1j * g.p * (g.x_min / g.hbar))
    if target is Rep.MOMENTUM:
        return (g.dx * scale) * phase * np.fft.fft(amps)
    return (g.n_points * g.dp * scale) * np.fft.ifft(np.conj(phase) * amps)


class TestFourierKernel:
    """The grid holds the transform kernel; `fourier` runs no exp of its own
    and stays equal bit for bit to the literal expression."""

    BOXES = [(-256.0, 256.0), (-37.3, 101.9)]

    @pytest.mark.parametrize("n", [2 ** 12, 2 ** 13, 2 ** 14, 2 ** 16])
    @pytest.mark.parametrize("phys", [PhysParams(), PhysParams(1.3, 0.7)])
    @pytest.mark.parametrize("box", BOXES)
    def test_matches_literal_expression(self, n, phys, box):
        g = make_grid(n, *box, phys)
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for source, target in ((Rep.POSITION, Rep.MOMENTUM),
                               (Rep.MOMENTUM, Rep.POSITION)):
            out = fourier(WaveField(g, source, amps), target)
            assert np.array_equal(out.amplitudes,
                                  literal_fourier(amps, g, target))

    def test_kernel_and_output_read_only(self, grid64):
        fwd, inv = grid64._fourier_kernel
        assert grid64._fourier_kernel[0] is fwd
        assert not fwd.flags.writeable and not inv.flags.writeable
        psi = gaussian_packet(GaussianParams(0.0, 0.5, 1.0), grid64)
        for out in (fourier(psi, Rep.MOMENTUM),
                    fourier(fourier(psi, Rep.MOMENTUM), Rep.POSITION)):
            assert not out.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                out.amplitudes[0] = 0.0

    def test_cached_kernel_keeps_grid_equality(self):
        a = make_grid(256, -8.0, 24.0, PhysParams(1.3, 0.7))
        b = make_grid(256, -8.0, 24.0, PhysParams(1.3, 0.7))
        a._fourier_kernel
        assert a == b and hash(a) == hash(b)
        psi = gaussian_packet(GaussianParams(8.0, 0.0, 1.0), a)
        other = WaveField(b, Rep.POSITION, psi.amplitudes)
        assert inner_product(psi, other) == pytest.approx(1.0, rel=1e-12)


class TestWindows:
    def test_interior_fraction_bounds(self):
        with pytest.raises(ValueError):
            Window.rect(0.0)
        with pytest.raises(ValueError):
            Window.tukey(1.2)
        assert Window.rect(1.0).interior_fraction == 1.0

    def test_rect_counts(self, grid64):
        w = window_weights(grid64, Window.rect(0.5), Rep.POSITION)
        assert set(np.unique(w)) == {0.0, 1.0}
        # central fraction f of the periodic domain keeps f*N + 1 samples
        # (both boundary points land on lattice sites and are inclusive)
        assert int(np.sum(w)) == grid64.n_points // 2 + 1
        assert np.all(w[np.abs(grid64.x) <= 32.0] == 1.0)
        assert np.all(w[np.abs(grid64.x) > 32.0 + 1e-9] == 0.0)

    def test_rect_momentum_fft_order(self, grid64):
        w = window_weights(grid64, Window.rect(0.5), Rep.MOMENTUM)
        keep = np.abs(grid64.p) <= grid64.p_nyquist / 2 + 1e-12
        assert np.all(w[keep] == 1.0)
        assert np.all(w[np.abs(grid64.p) > grid64.p_nyquist / 2 + 1e-9] == 0.0)

    def test_tukey_profile(self, grid64):
        w = window_weights(grid64, Window.tukey(0.6), Rep.POSITION)
        u = (grid64.x - grid64.x_min) / (grid64.x_max - grid64.x_min)
        assert np.all((0.0 <= w) & (w <= 1.0))
        assert np.all(w[np.abs(u - 0.5) <= 0.3 - 1e-12] == 1.0)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        # ramp is monotone on each side
        ramp = w[u < 0.2]
        assert np.all(np.diff(ramp) >= 0.0)

    def test_tukey_full_interior_is_flat(self, grid64):
        assert np.all(window_weights(grid64, Window.tukey(1.0)) == 1.0)


class TestInnerProduct:
    def test_conjugate_symmetry_and_norm(self, grid64):
        a = gaussian_packet(GaussianParams(1.0, 0.5, 1.5), grid64)
        b = gaussian_packet(GaussianParams(-2.0, 1.0, 2.0), grid64)
        w = Window.tukey(0.7)
        assert inner_product(a, b, w) == pytest.approx(
            np.conj(inner_product(b, a, w)))
        assert windowed_norm(a) == pytest.approx(1.0, rel=1e-12)
        assert windowed_norm(a, w) ** 2 == pytest.approx(
            inner_product(a, a, w).real, rel=1e-12)

    def test_riemann_weight_follows_rep(self, grid64):
        a = gaussian_packet(GaussianParams(0.0, 0.0, 1.5), grid64)
        mom = fourier(a, Rep.MOMENTUM)
        assert inner_product(mom, mom).real == pytest.approx(1.0, rel=1e-12)

    def test_mismatched_lattices_rejected(self, grid64, grid128):
        a = gaussian_packet(GaussianParams(0.0, 0.0, 1.5), grid64)
        b = gaussian_packet(GaussianParams(0.0, 0.0, 1.5), grid128)
        with pytest.raises(GridError, match="different grids"):
            inner_product(a, b)
        mom = fourier(a, Rep.MOMENTUM)
        with pytest.raises(GridError, match="representations"):
            inner_product(a, mom)

    def test_window_kind_enum_values(self):
        assert WindowKind.RECT.value == "rect"
        assert WindowKind.TUKEY.value == "tukey"
