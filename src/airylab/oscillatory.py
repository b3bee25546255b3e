"""Cubic-phase oscillatory integrals by contour-deformed quadrature.

cubic_phase_integral evaluates

    I(c3, c2, c1; eta) = Integral dp exp(i (c3 p^3 + c2 p^2 + c1 p)) exp(-eta p^2)

The integrand is entire, so the line of integration may be bent into
directions where it decays; adaptive quadrature then converges rapidly.

For eta = 0 and c3 != 0 the shift p = q - c2/(3 c3) completes the cube,

    I = e^(i phi0) J,  J = Integral dq exp(i (c3 q^3 + b q)),
    b = c1 - c2^2/(3 c3),  phi0 = 2 c2^3/(27 c3^2) - c1 c2/(3 c3),

and J (normalized to c3 > 0 by conjugation) is integrated undamped along
its steepest-descent contour (DLMF 9.5, 9.7).  For b >= 0 that is the
horizontal line through the upper saddle i sqrt(b/3c3), on which the
integrand has a Gaussian envelope.  For b < 0 it is the V through the
real saddles +-q0, whose arms leave them at 45 degrees and meet at -i q0.
Both contours are symmetric under q -> -conj(q), so J is twice the real
part of the integral over the right half: one real quadrature on the
line, two on the V, with no eta extrapolation.  The error estimate adds
to quad's own the truncated tails, the rounding of the integrand's phase,
and the rounding of b and phi0.

For eta > 0 the real segment [-a, a] is joined to rays at pi/6 and
5 pi/6 that leave it beyond the stationary points.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AirylabError, QuadratureError

_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)

# contours are cut where the envelope has fallen by e^-_CUT; the tails
# beyond are bounded and added to the estimate
_CUT = 50.0
_EPS = float(np.finfo(float).eps)
_SQRT_PI = math.sqrt(math.pi)


def _quad(func, lo, hi, **opts):
    # scipy.integrate is imported on first use: it is most of the cold
    # start of `import airylab`, and only this module needs it
    from scipy.integrate import quad

    return quad(func, lo, hi, **_QUAD_OPTS, **opts)


def _quad_c(func, lo, hi) -> tuple[complex, float]:
    val, err = _quad(func, lo, hi, complex_func=True)
    return complex(val), float(np.max(np.abs(np.atleast_1d(err))))


def _quad_real(func, lo, hi) -> tuple[float, float]:
    """Real quadrature whose failure (QUADPACK ier != 0) is reported as an
    infinite estimate instead of an IntegrationWarning."""
    val, err, *failure = _quad(func, lo, hi, full_output=1)
    return float(val), (math.inf if len(failure) > 1 else float(err))


def _saddle_line(c3: float, b: float) -> tuple[float, float, float]:
    """J for c3 > 0, b >= 0 along q = s + i h, h = max(sqrt(b/3c3), c3^(-1/3)/2).

    There exp(i(c3 q^3 + b q)) = e^(a - g s^2) e^(i s (c3 s^2 + k)) with
    a = h (c3 h^2 - b), g = 3 c3 h, k = b - 3 c3 h^2.  Returns the value,
    its estimate, and a bound on the integral of |q| |integrand| over the
    whole line (|dJ/db| is at most that).
    """
    h = max(math.sqrt(b / (3.0 * c3)), 0.5 * c3 ** (-1.0 / 3.0))
    a = h * (c3 * h * h - b)
    g = 3.0 * c3 * h
    k = b - 3.0 * c3 * h * h
    span = math.sqrt((_CUT + max(a, 0.0)) / g)

    def f(s):
        return math.exp(a - g * s * s) * math.cos(s * (c3 * s * s + k))

    val, err = _quad_real(f, 0.0, span)
    peak = math.exp(a)
    tail = peak * math.exp(-g * span * span) / (2.0 * g * span)
    mass = 0.5 * peak * _SQRT_PI / math.sqrt(g)
    rounding = 4.0 * _EPS * (c3 * span ** 3 + abs(k) * span + abs(a) + _CUT) * mass
    moment = h * mass + 0.5 * peak / g
    return 2.0 * val, 2.0 * (err + tail + rounding), 2.0 * moment


def _saddle_vee(c3: float, b: float) -> tuple[float, float, float]:
    """J for c3 > 0, b < 0 along the arm q = q0 + t e^(i pi/4), t >= -sqrt2 q0,
    with q0 = sqrt(-b/3c3); same returns as _saddle_line.

    On the arm exp(i(c3 q^3 + b q)) e^(i pi/4) =
    e^(-t^2 (g + r t)) e^(i (phi - r t^3)) with g = 3 c3 q0, r = c3/sqrt2,
    phi = pi/4 - 2 c3 q0^3.  The envelope is at most e^(-2 g t^2/3) for
    t < 0 and e^(-g t^2), e^(-r t^3) for t > 0.
    """
    q0 = math.sqrt(-b / (3.0 * c3))
    g = 3.0 * c3 * q0
    r = c3 / math.sqrt(2.0)
    phi = 0.25 * math.pi - 2.0 * c3 * q0 ** 3

    def f(t):
        return math.exp(-t * t * (g + r * t)) * math.cos(phi - r * t ** 3)

    lo = -math.sqrt(2.0) * q0
    lo_cut = -math.sqrt(1.5 * _CUT / g)
    hi = min(math.sqrt(_CUT / g), (_CUT / r) ** (1.0 / 3.0))
    v_neg, e_neg = _quad_real(f, max(lo, lo_cut), 0.0)
    v_pos, e_pos = _quad_real(f, 0.0, hi)
    tail = math.exp(-_CUT) / (2.0 * g * hi + 3.0 * r * hi * hi)
    if lo_cut > lo:
        tail += math.exp(-_CUT) * 0.75 / (g * -lo_cut)
        lo = lo_cut
    mass = (min(0.5 * _SQRT_PI * math.sqrt(1.5 / g), -lo)
            + min(0.5 * _SQRT_PI / math.sqrt(g), 0.9 * r ** (-1.0 / 3.0), hi))
    rounding = 4.0 * _EPS * (abs(phi) + r * max(hi, -lo) ** 3 + _CUT) * mass
    moment = (q0 * mass + min(0.75 / g, 0.5 * lo * lo)
              + min(0.5 / g, 0.5 * r ** (-2.0 / 3.0), 0.5 * hi * hi))
    return (2.0 * (v_neg + v_pos), 2.0 * (e_neg + e_pos + tail + rounding),
            2.0 * moment)


def _undamped_cubic(c3: float, c2: float, c1: float) -> tuple[complex, float]:
    """I(c3,c2,c1;0) for c3 != 0 by the cube completion in the module docstring."""
    if c3 < 0.0:
        val, err = _undamped_cubic(-c3, -c2, -c1)
        return val.conjugate(), err
    shift_sq = c2 * c2 / (3.0 * c3)
    b = c1 - shift_sq
    phase_cubic = 2.0 * c2 ** 3 / (27.0 * c3 * c3)
    phase_linear = c1 * c2 / (3.0 * c3)
    j, err, moment = (_saddle_line if b >= 0.0 else _saddle_vee)(c3, b)
    b_rounding = 2.0 * _EPS * (abs(c1) + shift_sq + abs(b))
    phase_rounding = 4.0 * _EPS * (abs(phase_cubic) + abs(phase_linear))
    phase = phase_cubic - phase_linear
    value = complex(math.cos(phase), math.sin(phase)) * j
    return value, err + moment * b_rounding + abs(j) * phase_rounding


def _damped_positive_c3(c3: float, c2: float, c1: float, eta: float) -> tuple[complex, float]:
    """Contour: real segment [-a, a], then rays a + s e^(i pi/6) and
    -a + s e^(i 5 pi/6).  Requires c3 > 0; on both rays every exponent term
    has non-positive real part once the cubic dominates, which the choice
    of a guarantees."""

    def f(p):
        return np.exp(1j * (c3 * p ** 3 + c2 * p ** 2 + c1 * p) - eta * p * p)

    # a beyond the stationary points and the scale where |c2| p^2 competes
    stat = (abs(c2) + np.sqrt(c2 * c2 + 3.0 * c3 * abs(c1))) / (3.0 * c3)
    a = max(10.0, 2.0 * stat, (abs(c2) + 1.0) / c3)

    seg, e1 = _quad_c(f, -a, a)
    w_r = np.exp(1j * np.pi / 6)
    ray_r, e2 = _quad_c(lambda s: f(a + w_r * s) * w_r, 0.0, np.inf)
    w_l = np.exp(1j * 5 * np.pi / 6)
    ray_l, e3 = _quad_c(lambda s: f(-a + w_l * s) * w_l, 0.0, np.inf)
    # the left ray is parametrized outward, i.e. traversed toward -infinity
    return seg + ray_r - ray_l, e1 + e2 + e3


def _damped_quadratic(c2: float, c1: float, eta: float) -> tuple[complex, float]:
    """c3 = 0, c2 > 0: with a = c2 + i eta the integrand is exp(i(a p^2 + c1 p)),
    and on the line p = -c1/2a + s e^(i pi/4) through its stationary point
    it is e^(-a s^2) e^(-i c1^2/4a) e^(i pi/4).  The even Gaussian is
    integrated over s >= 0, cut where it has fallen by e^-_CUT."""
    span = math.sqrt(_CUT / c2)
    re, e_re = _quad_real(
        lambda s: math.exp(-c2 * s * s) * math.cos(eta * s * s), 0.0, span)
    im, e_im = _quad_real(
        lambda s: -math.exp(-c2 * s * s) * math.sin(eta * s * s), 0.0, span)
    phase = -1j * c1 * c1 / (4.0 * complex(c2, eta))
    value = 2.0 * complex(re, im) * np.exp(phase + 0.25j * math.pi)
    tail = math.exp(-_CUT) / (2.0 * c2 * span)
    rounding = 4.0 * _EPS * (abs(phase) + _CUT) * abs(value)
    return value, 2.0 * (e_re + e_im + tail) * math.exp(phase.real) + rounding


def _damped_linear(c1: float, eta: float) -> tuple[complex, float]:
    """c3 = c2 = 0: plain Gaussian times linear phase, real-line quadrature."""

    def f(p):
        return np.exp(1j * c1 * p - eta * p * p)

    span = 12.0 / np.sqrt(eta)
    val, err = _quad_c(f, -span, span)
    return val, err


def _damped_value(c3: float, c2: float, c1: float, eta: float) -> tuple[complex, float]:
    """I(c3,c2,c1;eta) with sign normalized to c3 >= 0 via conjugation:
    I(-c3,-c2,-c1;eta) = conj(I(c3,c2,c1;eta)).  eta = 0 is allowed only
    for c3 = 0, c2 != 0."""
    if c3 < 0.0 or (c3 == 0.0 and c2 < 0.0):
        val, err = _damped_value(-c3, -c2, -c1, eta)
        return np.conj(val), err
    if c3 > 0.0:
        return _damped_positive_c3(c3, c2, c1, eta)
    if c2 > 0.0:
        return _damped_quadratic(c2, c1, eta)
    return _damped_linear(c1, eta)


def cubic_phase_integral(c3: float, c2: float, c1: float, damping: float,
                         tol: float = 1e-8) -> complex:
    """Evaluate the damped cubic-phase integral defined above.

    damping > 0 returns the damped value itself.  damping = 0 returns the
    undamped integral, on the steepest-descent contour when c3 != 0 and on
    the Fresnel line through the stationary point when c3 = 0 (the damped
    c3 = 0 case uses the same line); it requires c3 != 0 or c2 != 0
    (a bare linear phase has no eta -> 0 limit).
    Raises QuadratureError, carrying the achieved estimate, when the error
    estimate exceeds tol * max(1, |value|) or the value is not finite.
    """
    for name, val in (("c3", c3), ("c2", c2), ("c1", c1), ("damping", damping)):
        if not np.isfinite(val):
            raise AirylabError(f"{name} must be finite, got {val}")
    if damping < 0.0:
        raise AirylabError(f"damping must be >= 0, got {damping}")

    if damping > 0.0:
        value, err = _damped_value(c3, c2, c1, damping)
        if err > tol * max(1.0, abs(value)):
            raise QuadratureError("oscillatory quadrature did not converge", err)
        return value

    if c3 == 0.0 and c2 == 0.0:
        raise AirylabError(
            "cubic_phase_integral with damping = 0 requires c3 != 0 or c2 != 0")
    if c3 != 0.0:
        value, est = _undamped_cubic(c3, c2, c1)
    else:
        value, est = _damped_value(0.0, c2, c1, 0.0)
    if not (np.isfinite(value) and est <= tol * max(1.0, abs(value))):
        raise QuadratureError(
            "steepest-descent quadrature did not reach tol", est)
    return complex(value)
