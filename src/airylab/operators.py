"""Generators and unitaries of the closed algebra, applied spectrally.

Every operator here is diagonal (or local) in one representation, so
applications are exact for the grid-represented field: no Trotter
splitting, no finite differences, no dense matrices.  Unitaries return
a field in the same representation they received.

hbar and the mass m come from the field's grid (`grid.phys`).

Time stamps: free_evolve advances the field's time; translate, boost,
the displacement unitary, and the Zassenhaus product preserve it (they
relabel the state, they do not propagate it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AirylabError, GeometryError, Rep, WaveField, to_rep
from .states import CoherentParams, _family_phase

_TAGS = ("x", "p", "h", "k")


@dataclass(frozen=True)
class GeneratorKind:
    """One of the generators x, p, H = p^2/2m, or K(t) = t p - m x.

    K carries its time argument explicitly; the other tags must not
    have one.  Use the factory methods rather than the constructor.
    """

    tag: str
    t: float | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise AirylabError(f"unknown generator tag {self.tag!r}")
        if self.tag == "k":
            if self.t is None or not np.isfinite(self.t):
                raise AirylabError("K requires a finite time argument")
        elif self.t is not None:
            raise AirylabError(f"generator {self.tag!r} takes no time argument")

    @staticmethod
    def x() -> "GeneratorKind":
        return GeneratorKind("x")

    @staticmethod
    def p() -> "GeneratorKind":
        return GeneratorKind("p")

    @staticmethod
    def h() -> "GeneratorKind":
        return GeneratorKind("h")

    @staticmethod
    def k(t: float) -> "GeneratorKind":
        return GeneratorKind("k", float(t))


@dataclass(frozen=True)
class BoostParams:
    """Velocity v and the time t at which the boost generator is taken."""

    v: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.v) and np.isfinite(self.t)):
            raise AirylabError("BoostParams require finite v and t")


def apply_generator(kind: GeneratorKind, field: WaveField) -> WaveField:
    """Apply one generator, diagonal in its own representation.

    The result comes back in the representation of the input field.
    K(t) = t p - m x combines the two diagonal applications.
    """
    m = field.grid.phys.m
    if kind.tag == "x":
        pos = to_rep(field, Rep.POSITION)
        out = pos.with_amplitudes(field.grid.x * pos.amplitudes)
        return to_rep(out, field.rep)
    if kind.tag == "p":
        mom = to_rep(field, Rep.MOMENTUM)
        out = mom.with_amplitudes(field.grid.p * mom.amplitudes)
        return to_rep(out, field.rep)
    if kind.tag == "h":
        mom = to_rep(field, Rep.MOMENTUM)
        out = mom.with_amplitudes(
            field.grid.p ** 2 / (2.0 * m) * mom.amplitudes)
        return to_rep(out, field.rep)
    pa = apply_generator(GeneratorKind.p(), field)
    xa = apply_generator(GeneratorKind.x(), field)
    return field.with_amplitudes(kind.t * pa.amplitudes - m * xa.amplitudes)


def translate(field: WaveField, a: float) -> WaveField:
    """Exact spectral shift psi(x - a); a need not be a lattice multiple."""
    a = float(a)
    if not np.isfinite(a):
        raise AirylabError("translation distance must be finite")
    mom = to_rep(field, Rep.MOMENTUM)
    out = mom.with_amplitudes(
        np.exp(-1j * field.grid.p * a / field.grid.hbar) * mom.amplitudes)
    return to_rep(out, field.rep)


def boost(field: WaveField, b: BoostParams) -> WaveField:
    """e^(i v K(t)/hbar) in its exact factorized form.

    Global phase e^(-i m v^2 t / 2 hbar), then the momentum kick
    e^(-i v m x/hbar), applied to psi(x + v t).
    """
    hbar, m = field.grid.phys.hbar, field.grid.phys.m
    if not np.isfinite(b.v * b.v * b.t):
        raise GeometryError(
            f"boost phase m v^2 t/2 hbar overflows at v = {b.v}, t = {b.t}")
    shifted = to_rep(translate(field, -b.v * b.t), Rep.POSITION)
    amps = (np.exp(-1j * m * b.v ** 2 * b.t / (2.0 * hbar))
            * np.exp(-1j * b.v * m * field.grid.x / hbar)
            * shifted.amplitudes)
    return to_rep(shifted.with_amplitudes(amps), field.rep)


def free_evolve(field: WaveField, tau: float) -> WaveField:
    """Exact free propagator e^(-i H tau/hbar); advances field.time by tau."""
    tau = float(tau)
    if not np.isfinite(tau):
        raise AirylabError("evolution time must be finite")
    hbar, m = field.grid.phys.hbar, field.grid.phys.m
    mom = to_rep(field, Rep.MOMENTUM)
    amps = np.exp(-1j * field.grid.p ** 2 * tau / (2.0 * m * hbar)) * mom.amplitudes
    out = WaveField(grid=mom.grid, rep=Rep.MOMENTUM, amplitudes=amps,
                    time=field.time + tau)
    return to_rep(out, field.rep)


def apply_displacement_U(field: WaveField, c: CoherentParams) -> WaveField:
    """Coherent-family displacement, a single momentum-diagonal phase:

    U(eps, t, xi) = exp((i/hbar)(xi p/m - t p^2/2m - eps p^3/6m^2)).
    On the flat fiducial state it is perelomov_state(c, band=None).
    """
    mom = to_rep(field, Rep.MOMENTUM)
    phase = _family_phase(c, field.grid)
    return to_rep(mom.with_amplitudes(phase * mom.amplitudes), field.rep)


def _translate_boost(field: WaveField, v: float, eps: float,
                     t: float) -> tuple[WaveField, complex]:
    """e^(i v K(t)/hbar) e^(i v^2 eps p/2 hbar) applied right to left, and
    the scalar e^(-i m eps v^3/3 hbar): the Zassenhaus product less its
    free-evolution factor, with the scalar left for the caller to apply."""
    phys = field.grid.phys
    theta = phys.m * eps * v * v * v / (3.0 * phys.hbar)
    if not np.isfinite(theta):
        raise GeometryError(f"Zassenhaus phase m eps v^3/3 hbar overflows at v = {v}")
    out = boost(translate(field, -v * v * eps / 2.0), BoostParams(v=v, t=t))
    return out, np.exp(-1j * theta)


def zassenhaus_rhs(field: WaveField, v: float, eps: float, t: float) -> WaveField:
    """Disentangled product e^(-i m eps v^3/3 hbar) e^(i v eps H/hbar)
    e^(i v K(t)/hbar) e^(i v^2 eps p/2 hbar), applied right to left.

    The factorization of e^(i v (K + eps H)/hbar) closes at these four
    factors because the algebra's deeper nested brackets vanish.
    """
    v, eps, t = float(v), float(eps), float(t)
    if not (np.isfinite(v) and np.isfinite(eps) and np.isfinite(t)):
        raise AirylabError("zassenhaus_rhs requires finite v, eps, t")
    out, scalar = _translate_boost(field, v, eps, t)
    out = free_evolve(out, -v * eps)
    return out.with_amplitudes(scalar * out.amplitudes, time=field.time)
