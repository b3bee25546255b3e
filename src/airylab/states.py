"""Closed-form wavefunction constructors on uniform grids.

Builds every state used by the experiments directly from its analytic
form: Gaussian probes, the boost-eigenstate chirp, the Perelomov
coherent-state family in both representations, and the accelerating
Airy profile of Berry & Balazs (1979).

Momentum-side family builds can carry a smooth band taper so that
spectrally applied operators stay free of Nyquist-seam artifacts.  The
taper is an explicit, inspectable object with an exact plateau (weights
identically 1.0 there), not a hidden smoothing step; `fit_band` plans
the widest taper whose stationary-phase image stays inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airy import ai_values
from .core import (
    TWO_PI,
    AirylabError,
    GeometryError,
    Grid,
    GridError,
    PhysParams,
    Rep,
    ResolutionError,
    WaveField,
)


@dataclass(frozen=True)
class CoherentParams:
    """Labels (eps, xi, t) of one member of the coherent family.

    eps is an inverse acceleration (time^2/length), xi the eigenvalue of
    K(t) + eps*H (mass*length), t the time label of the build.  Either
    sign of eps is allowed; eps = 0 labels the boost eigenstate itself.
    """

    eps: float
    xi: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        for name in ("eps", "xi", "t"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise AirylabError(f"CoherentParams.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class GaussianParams:
    """Center, mean momentum, and width of a normalizable probe."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("x0", "p0", "sigma"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise AirylabError(f"GaussianParams.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.sigma <= 0:
            raise AirylabError(f"GaussianParams.sigma must be > 0, got {self.sigma}")


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity monotone step: exactly 0 for u <= 0, exactly 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape, dtype=float)
    out[u >= 1.0] = 1.0
    inside = (u > 0.0) & (u < 1.0)
    if np.any(inside):
        ui = u[inside]
        a = np.exp(-1.0 / ui)
        b = np.exp(-1.0 / (1.0 - ui))
        out[inside] = a / (a + b)
    return out


@dataclass(frozen=True)
class BandTaper:
    """Even momentum-space taper: 1 on |p| <= p_plateau, 0 on |p| >= p_support."""

    p_plateau: float
    p_support: float

    def __post_init__(self):
        if not (np.isfinite(self.p_plateau) and np.isfinite(self.p_support)):
            raise AirylabError("BandTaper edges must be finite")
        if not (0.0 < self.p_plateau < self.p_support):
            raise AirylabError(
                f"BandTaper requires 0 < p_plateau < p_support, got "
                f"({self.p_plateau}, {self.p_support})")

    def weights(self, p: np.ndarray) -> np.ndarray:
        ap = np.abs(np.asarray(p, dtype=float))
        u = (self.p_support - ap) / (self.p_support - self.p_plateau)
        return _smoothstep(u)


def content_map(c: CoherentParams, phys: PhysParams,
                p: float | np.ndarray) -> float | np.ndarray:
    """Stationary-phase position reached by momentum component p.

    x(p) = -xi/m + t*p/m + eps*p^2/(2 m^2); the band planner and the
    window choices of the experiments are all driven by this map.  A
    Python float maps to a float, anything else to an array.
    """
    m = phys.m
    if not isinstance(p, float):
        p = np.asarray(p, dtype=float)
    return -c.xi / m + c.t * p / m + c.eps * p * p / (2.0 * m * m)


def fit_band(
    c: CoherentParams,
    grid: Grid,
    *,
    x_margin: float | None = None,
    p_margin: float | None = None,
    taper_frac: float = 0.15,
) -> BandTaper:
    """Widest band taper whose stationary-phase image fits inside the box.

    Raises GeometryError when no plateau of useful width survives the
    margins (the state's content cannot be represented on this grid
    without folding).
    """
    phys = grid.phys
    if c.eps == 0.0 and c.t == 0.0:
        raise GeometryError(
            "eps = 0, t = 0 labels a grid delta; no band taper applies")
    if x_margin is None:
        # clearance several analytic decay lengths past the content edge
        if c.eps != 0.0:
            scale = (phys.hbar ** 2 * abs(c.eps) / (2.0 * phys.m ** 2)) ** (1.0 / 3.0)
        else:
            scale = np.sqrt(phys.hbar * abs(c.t) / phys.m)
        x_margin = 8.0 * grid.dx + 6.0 * scale
    if p_margin is None:
        p_margin = 8.0 * grid.dp
    x_lo = grid.x_min + x_margin
    x_hi = grid.x_max - x_margin
    if not x_lo < x_hi:
        raise GeometryError("margins exceed the box; enlarge the grid")
    p_cap = grid.p_nyquist - p_margin
    if p_cap <= 0:
        raise GeometryError("momentum margin exceeds the Nyquist band")

    def feasible(P: float) -> bool:
        ps = [-P, P]
        if c.eps != 0.0:
            p_vertex = -c.t * phys.m / c.eps
            if abs(p_vertex) <= P:
                ps.append(p_vertex)
        return all(x_lo <= content_map(c, phys, q) <= x_hi for q in ps)

    # feasibility is an interval (0, P*]: the image endpoints move
    # monotonically outward with P, so bisection finds the edge
    if feasible(p_cap):
        support = p_cap
    else:
        lo, hi = 0.0, p_cap
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        support = lo
    width = max(taper_frac * support, 16.0 * grid.dp)
    plateau = support - width
    if plateau < 8.0 * grid.dp:
        raise GeometryError(
            f"usable plateau collapsed ({plateau:.3g} < {8.0 * grid.dp:.3g}); "
            "the state's content does not fit this grid")
    return BandTaper(p_plateau=plateau, p_support=support)


def _plan_band(c: CoherentParams, times, grid: Grid,
               band: BandTaper | str | None) -> BandTaper | None:
    """Resolve a band policy against the worst-case content over `times`.

    The content map is linear in t at fixed p, so its extremes over a
    time interval sit at the endpoints; the tightest of the endpoint
    fits, one per distinct endpoint, covers every intermediate instant.
    """
    if c.eps == 0.0 and all(t == 0.0 for t in times):
        # a grid delta takes the full band (a taper would smear its spike)
        return None
    if band is None or isinstance(band, BandTaper):
        return band
    if band != "auto":
        raise AirylabError(f"band must be 'auto', None, or a BandTaper, got {band!r}")
    fits = [fit_band(CoherentParams(c.eps, c.xi, t), grid)
            for t in {float(min(times)), float(max(times))}]
    return BandTaper(p_plateau=min(f.p_plateau for f in fits),
                     p_support=min(f.p_support for f in fits))


def _family_phase(c: CoherentParams, grid: Grid) -> np.ndarray:
    """The family's one phase on the momentum lattice, the group element
    U(eps, t, xi) = e^((i/hbar)(p xi/m - t p^2/2m - eps p^3/6m^2))."""
    hbar, m, p = grid.phys.hbar, grid.phys.m, grid.p
    return np.exp(1j * (p * c.xi / m - c.t * p * p / (2.0 * m)
                        - c.eps * p ** 3 / (6.0 * m * m)) / hbar)


def _family_coefficients(eps: float, xi: float, t: float,
                         phys: PhysParams) -> tuple[float, float, float]:
    """(c3, c2, c1) with that phase = e^(i(c3 p^3 + c2 p^2 + c1 p)).  It is
    linear in the label, so <a|b> integrates the phase of b - a over 2 pi hbar m."""
    hbar, m = phys.hbar, phys.m
    return -eps / (6.0 * m * m * hbar), -t / (2.0 * m * hbar), xi / (m * hbar)


def gaussian_packet(g: GaussianParams, grid: Grid) -> WaveField:
    """Unit-normalized Gaussian e^(i p0 x / hbar) e^(-(x-x0)^2 / 4 sigma^2).

    The packet must be resolvable (sigma >= 4 dx) and comfortably inside
    both the box and the momentum band, so that grid moments reproduce
    the analytic ones.
    """
    if g.sigma < 4.0 * grid.dx:
        raise ResolutionError(
            f"sigma = {g.sigma:g} under-resolved: needs >= 4 dx = {4.0 * grid.dx:g}")
    if g.x0 - 6.0 * g.sigma < grid.x_min or g.x0 + 6.0 * g.sigma > grid.x_max:
        raise GridError(
            f"Gaussian support [x0 +- 6 sigma] leaves the box for x0 = {g.x0:g}")
    p_width = grid.hbar / (2.0 * g.sigma)
    if abs(g.p0) + 6.0 * p_width > grid.p_nyquist:
        raise ResolutionError(
            f"momentum content |p0| + 6 hbar/(2 sigma) = "
            f"{abs(g.p0) + 6.0 * p_width:g} exceeds the Nyquist band "
            f"{grid.p_nyquist:g}")
    x = grid.x
    amps = np.exp(1j * g.p0 * x / grid.hbar) * np.exp(
        -((x - g.x0) ** 2) / (4.0 * g.sigma ** 2))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
    return WaveField(grid=grid, rep=Rep.POSITION, amplitudes=amps, time=0.0)


def xi_eigenstate_x(xi: float, t: float, grid: Grid) -> WaveField:
    """Boost eigenstate in position form, delta-normalized in xi.

    psi(x) = (2 pi hbar |t|)^(-1/2) e^((i/hbar)(m x^2 / 2t + xi x / t)),
    the eigenfunction of K(t) = t p - m x with eigenvalue xi.
    """
    t = float(t)
    xi = float(xi)
    if not (np.isfinite(t) and np.isfinite(xi)):
        raise AirylabError("xi and t must be finite")
    if t == 0.0:
        raise AirylabError(
            "t = 0 makes the chirp prefactor singular; build "
            "perelomov_state with eps = 0 in the momentum representation instead")
    hbar, m = grid.phys.hbar, grid.phys.m
    x_far = max(abs(grid.x_min), abs(grid.x_max))
    if not np.isfinite((m * x_far * x_far / 2.0 + abs(xi) * x_far)
                       / abs(t) / hbar):
        raise GeometryError(f"the chirp phase overflows on this box at t = {t:g}")
    x = grid.x
    amps = np.exp(1j * (m * x * x / (2.0 * t) + xi * x / t) / hbar) / np.sqrt(
        TWO_PI * hbar * abs(t))
    return WaveField(grid=grid, rep=Rep.POSITION, amplitudes=amps.astype(complex),
                     time=t)


def perelomov_state(
    c: CoherentParams,
    rep: Rep,
    grid: Grid,
    band: BandTaper | str | None = "auto",
) -> WaveField:
    """Coherent family member |eps, xi; t> in either representation.

    Momentum representation: U(eps, t, xi) on the flat fiducial state,
    the delta-normalized amplitudes
        (2 pi hbar m)^(-1/2) e^((i/hbar)(p xi/m - t p^2/2m - eps p^3/6m^2)),
    optionally multiplied by a band taper (band="auto" plans one with
    fit_band; band=None builds the bare phase, which periodizes).

    Position representation (eps != 0): the equivalent closed form
        (|C|/(hbar sqrt(m))) e^(-(i/hbar)((xi + m x) t/eps + m t^3/3 eps^2))
            * Ai(-(C/hbar)(x + xi/m + t^2/2 eps)),
    with C = sign(eps) (2 hbar m^2/|eps|)^(1/3); the real signed cube
    root also covers eps < 0.  For eps = 0 and t != 0 the family
    degenerates to the boost eigenstate times the Fresnel constant
    e^(-i sign(t) pi/4) e^(i xi^2 / 2 m t hbar).
    """
    hbar, m = grid.phys.hbar, grid.phys.m

    if rep == Rep.MOMENTUM:
        scale = 1.0 / np.sqrt(TWO_PI * hbar * m)
        band = _plan_band(c, [c.t], grid, band)
        if band is not None:
            scale = scale * band.weights(grid.p)
        return WaveField(grid=grid, rep=Rep.MOMENTUM,
                         amplitudes=scale * _family_phase(c, grid), time=c.t)

    if rep != Rep.POSITION:
        raise AirylabError(f"unknown representation {rep!r}")
    if band is not None and band != "auto":
        raise AirylabError("band tapers apply to momentum builds only")
    x = grid.x
    if c.eps == 0.0:
        if c.t == 0.0:
            raise AirylabError(
                "eps = 0, t = 0 in position representation is a delta "
                "distribution; build it in the momentum representation")
        u_far = max(abs(grid.x_min + c.xi / m), abs(grid.x_max + c.xi / m))
        if not np.isfinite(m * u_far * u_far / 2.0 / abs(c.t) / hbar):
            raise GeometryError(
                f"the chirp phase overflows on this box at t = {c.t:g}")
        u = x + c.xi / m
        amps = np.exp(-1j * np.sign(c.t) * np.pi / 4.0) * np.exp(
            1j * m * u * u / (2.0 * c.t) / hbar) / np.sqrt(TWO_PI * hbar * abs(c.t))
        return WaveField(grid=grid, rep=Rep.POSITION, amplitudes=amps, time=c.t)
    cube = float(np.copysign((2.0 * hbar * m * m / abs(c.eps)) ** (1.0 / 3.0), c.eps))
    # bound |arg| in scalars first: the array product would overflow noisily
    shift = c.xi / m + c.t * c.t / (2.0 * c.eps)
    if not np.isfinite((cube / hbar) * max(abs(grid.x_min + shift),
                                           abs(grid.x_max + shift))):
        raise GeometryError(
            f"the Airy argument overflows on this box at eps = {c.eps:g}")
    arg = -(cube / hbar) * (x + c.xi / m + c.t * c.t / (2.0 * c.eps))
    # dx must stay under a quarter of the fastest local wavelength
    z_osc = max(0.0, float(-np.min(arg)))
    k_airy = (abs(cube) / hbar) * float(np.sqrt(z_osc))
    k_chirp = m * abs(c.t) / (abs(c.eps) * hbar)
    k = k_airy + k_chirp
    if k > 0 and grid.dx > np.pi / (2.0 * k):
        raise ResolutionError(
            f"dx = {grid.dx:g} exceeds a quarter local wavelength "
            f"{np.pi / (2.0 * k):g} at the box edge")
    phase = np.exp(-1j * ((c.xi + m * x) * c.t / c.eps
                          + m * c.t ** 3 / (3.0 * c.eps ** 2)) / hbar)
    amps = (abs(cube) / (hbar * np.sqrt(m))) * phase * ai_values(arg)
    return WaveField(grid=grid, rep=Rep.POSITION, amplitudes=amps.astype(complex),
                     time=c.t)


def berry_balazs_initial(B: float, grid: Grid) -> WaveField:
    """Non-spreading accelerating profile psi(x, 0) = Ai(B x / hbar^(2/3)).

    Real-valued, non-normalizable; B of either sign (the oscillatory
    tail points along -sign(B) x).  The grid must resolve the fastest
    oscillation inside the box.
    """
    B = float(B)
    if not np.isfinite(B) or B == 0.0:
        raise AirylabError(f"B must be finite and nonzero, got {B!r}")
    hbar = grid.hbar
    scale = abs(B) / hbar ** (2.0 / 3.0)
    x_edge = grid.x_min if B > 0 else grid.x_max
    z_edge = scale * abs(x_edge)
    k_edge = scale * float(np.sqrt(z_edge))
    quarter = np.pi / (2.0 * k_edge) if k_edge > 0 else np.inf
    if z_edge > 0 and quarter == np.inf:
        raise GeometryError(
            f"the local wavelength at x = {x_edge:g} overflows at B = {B:g}")
    if grid.dx > quarter:
        raise ResolutionError(
            f"dx = {grid.dx:g} exceeds a quarter local wavelength "
            f"{quarter:g} at x = {x_edge:g}")
    amps = ai_values(B * grid.x / hbar ** (2.0 / 3.0)).astype(complex)
    return WaveField(grid=grid, rep=Rep.POSITION, amplitudes=amps, time=0.0)
