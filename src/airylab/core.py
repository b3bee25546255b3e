"""Grids, representations, Fourier transforms, and windowed inner products.

Everything downstream moves through the fixed transform convention

    psi_p(p) = (2 pi hbar)^(-1/2) * Integral dx e^(-i p x / hbar) psi(x)

discretized so that the forward/inverse pair is exactly unitary on the
lattice.  Non square-integrable states are always compared under a window
confined to the grid interior; see :class:`Window`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


class AirylabError(Exception):
    """Base class for all errors raised by this package."""


class GridError(AirylabError):
    """Invalid grid construction or mismatched grids/representations."""


class ResolutionError(AirylabError):
    """A requested state cannot be resolved on the given grid."""


class GeometryError(AirylabError):
    """No admissible band/box geometry exists for the requested build."""


class WindowEscapeError(AirylabError):
    """An operation would push support outside the representable band or box."""


class QuadratureError(AirylabError):
    """Oscillatory quadrature failed to converge.

    Carries the achieved error estimate so callers can report it.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class Rep(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class WindowKind(enum.Enum):
    RECT = "rect"
    TUKEY = "tukey"


@dataclass(frozen=True)
class PhysParams:
    """Physical constants: hbar and the particle mass, natural units by default."""

    hbar: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be finite and positive, got {self.hbar}")
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise ValueError(f"m must be finite and positive, got {self.m}")


@dataclass(frozen=True)
class Grid:
    """Uniform position lattice with its conjugate momentum lattice.

    x samples are x_min + k*dx for k = 0..n_points-1 (x_max itself is the
    periodic seam, not a sample).  The momentum lattice is in FFT order with
    spacing 2*pi*hbar/(n_points*dx) and max |p| = pi*hbar/dx.  The grid is
    the one holder of the physical constants: every state, operator and
    experiment on it reads hbar and m from `phys`.  Like `x` and `p`, the
    transform kernel is computed once per grid and held read-only.
    """

    n_points: int
    x_min: float
    x_max: float
    phys: PhysParams = PhysParams()

    @property
    def hbar(self) -> float:
        return self.phys.hbar

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def dp(self) -> float:
        return TWO_PI * self.hbar / (self.n_points * self.dx)

    @property
    def p_nyquist(self) -> float:
        return np.pi * self.hbar / self.dx

    @cached_property
    def x(self) -> np.ndarray:
        xs = self.x_min + self.dx * np.arange(self.n_points)
        xs.setflags(write=False)
        return xs

    @cached_property
    def p(self) -> np.ndarray:
        ps = TWO_PI * self.hbar * np.fft.fftfreq(self.n_points, d=self.dx)
        ps.setflags(write=False)
        return ps

    @cached_property
    def _fourier_kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(forward, inverse) factors of `fourier`: the forward one is
        (dx/sqrt(2 pi hbar)) e^(-i p x_min/hbar), the inverse its conjugate."""
        phase = np.exp(-1j * self.p * (self.x_min / self.hbar))
        fwd = (self.dx * (1.0 / np.sqrt(TWO_PI * self.hbar))) * phase
        inv = np.conj(phase)
        fwd.setflags(write=False)
        inv.setflags(write=False)
        return fwd, inv


def make_grid(n_points: int, x_min: float, x_max: float,
              phys: PhysParams | None = None) -> Grid:
    """Build a Grid, enforcing the power-of-two and ordering contracts."""
    if n_points < 8 or (n_points & (n_points - 1)) != 0:
        raise GridError(
            f"n_points must be a power of two and at least 8, got {n_points}")
    if not x_max > x_min:
        raise GridError(f"x_max must exceed x_min, got [{x_min}, {x_max}]")
    return Grid(n_points=int(n_points), x_min=float(x_min), x_max=float(x_max),
                phys=phys or PhysParams())


@dataclass(frozen=True)
class WaveField:
    """Complex amplitudes on a Grid in a declared representation, with a timestamp."""

    grid: Grid
    rep: Rep
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise GridError(
                f"amplitudes shape {amps.shape} does not match grid "
                f"n_points {self.grid.n_points}")
        if amps is self.amplitudes and amps.flags.writeable:
            amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def with_amplitudes(self, amps: np.ndarray, *, rep: Rep | None = None,
                        time: float | None = None) -> "WaveField":
        return WaveField(self.grid, self.rep if rep is None else rep,
                         np.asarray(amps, dtype=np.complex128),
                         self.time if time is None else float(time))

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def coords(self) -> np.ndarray:
        return self.grid.x if self.rep is Rep.POSITION else self.grid.p


@dataclass(frozen=True)
class Window:
    """Weight profile confined to the central interior_fraction of the domain.

    Rect is the sharp indicator of the central fraction.  Tukey ramps with a
    C1 raised cosine from 0 at the domain edges to 1 on the central fraction.
    """

    kind: WindowKind = WindowKind.TUKEY
    interior_fraction: float = 0.6

    def __post_init__(self):
        if not (0.0 < self.interior_fraction <= 1.0):
            raise ValueError(
                f"interior_fraction must lie in (0, 1], got {self.interior_fraction}")

    @staticmethod
    def rect(interior_fraction: float = 0.6) -> "Window":
        return Window(WindowKind.RECT, interior_fraction)

    @staticmethod
    def tukey(interior_fraction: float = 0.6) -> "Window":
        return Window(WindowKind.TUKEY, interior_fraction)


def window_weights(grid: Grid, window: Window, rep: Rep = Rep.POSITION) -> np.ndarray:
    """Window weights evaluated on the coordinate lattice of the given rep.

    For momentum the domain is the symmetric band [-pi*hbar/dx, pi*hbar/dx)
    and the weights come back in FFT order, aligned with grid.p.
    """
    if rep is Rep.POSITION:
        lo, hi = grid.x_min, grid.x_max
        coords = grid.x
    else:
        lo, hi = -grid.p_nyquist, grid.p_nyquist
        coords = grid.p
    u = (coords - lo) / (hi - lo)
    f = window.interior_fraction
    if window.kind is WindowKind.RECT:
        half = 0.5 * f
        w = np.where(np.abs(u - 0.5) <= half + 1e-15, 1.0, 0.0)
        return w
    a = 0.5 * (1.0 - f)
    if a == 0.0:
        return np.ones_like(u)
    w = np.ones_like(u)
    left = u < a
    right = u > 1.0 - a
    w[left] = 0.5 * (1.0 - np.cos(np.pi * u[left] / a))
    w[right] = 0.5 * (1.0 - np.cos(np.pi * (1.0 - u[right]) / a))
    return w


def _check_same_lattice(a: WaveField, b: WaveField) -> None:
    if a.grid != b.grid:
        raise GridError("fields live on different grids")
    if a.rep is not b.rep:
        raise GridError(
            f"fields are in different representations: {a.rep} vs {b.rep}")


def fourier(field: WaveField, target: Rep) -> WaveField:
    """Map a field between position and momentum representations.

    The pair is exactly unitary on the lattice: dx * dp * n = 2 pi hbar, so a
    round trip reproduces the amplitudes to machine rounding.  The timestamp
    is unchanged.
    """
    if field.rep is target:
        raise GridError(f"field is already in the {target.value} representation")
    g = field.grid
    fwd, inv = g._fourier_kernel
    if target is Rep.MOMENTUM:
        # in place: no second n-point buffer, and the rounding numpy gives
        # (dx * scale * phase) * fft once it elides that temporary (n >= 2^14);
        # tests/test_core.py pins the two equal bit for bit
        out = np.fft.fft(field.amplitudes)
        np.multiply(fwd, out, out=out)
    else:
        scale = 1.0 / np.sqrt(TWO_PI * g.hbar)
        out = (g.n_points * g.dp * scale) * np.fft.ifft(
            inv * field.amplitudes)
    out.setflags(write=False)
    return field.with_amplitudes(out, rep=target)


def to_rep(field: WaveField, target: Rep) -> WaveField:
    """Like fourier, but a no-op when the field is already in target rep."""
    return field if field.rep is target else fourier(field, target)


def inner_product(a: WaveField, b: WaveField, w: Window | None = None) -> complex:
    """Windowed L2 inner product <a|b> on the shared lattice of a and b.

    Computed as sum conj(a) * b * weights * dstep with dstep = dx or dp
    according to the representation; w=None means uniform weights.
    """
    _check_same_lattice(a, b)
    g = a.grid
    dstep = g.dx if a.rep is Rep.POSITION else g.dp
    prod = np.conj(a.amplitudes) * b.amplitudes
    if w is not None:
        prod = prod * window_weights(g, w, a.rep)
    return complex(np.sum(prod) * dstep)


def windowed_norm(a: WaveField, w: Window | None = None) -> float:
    val = inner_product(a, a, w).real
    return float(np.sqrt(max(val, 0.0)))
