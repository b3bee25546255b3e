"""Cubic-phase oscillatory integrals by contour-deformed quadrature.

cubic_phase_integral evaluates

    I(c3, c2, c1; eta) = Integral dp exp(i (c3 p^3 + c2 p^2 + c1 p)) exp(-eta p^2)
                       = Integral dp exp(i (c3 p^3 + a p^2 + c1 p)),  a = c2 + i eta,

so the damping is the imaginary part of a complex quadratic coefficient.
The integrand is entire, so the line of integration may be bent into
directions where it decays; adaptive quadrature then converges rapidly.

For c3 != 0 (normalized to c3 > 0 by I(-c3, -c2, -c1; eta) = conj I) the
shift p = q - a/(3 c3) completes the cube,

    I = e^(i phi0) J,  J = Integral dq exp(i (c3 q^3 + b q)),
    b = c1 - a^2/(3 c3),  phi0 = 2 a^3/(27 c3^2) - c1 a/(3 c3),

with b and phi0 complex when eta > 0, and J is integrated along its
steepest-descent contour (DLMF 9.5).  Where -b lies within pi/3 of the
positive real axis, |Im b| < -sqrt3 Re b, that is the V through the
saddles +-w, w = sqrt(-b/3c3), whose straight arms leave them along their
steepest-descent directions and meet between them.  Elsewhere it is the
horizontal line through the upper saddle i sqrt(b/3c3), on which the
integrand has an exact Gaussian envelope.  For real b (eta = 0) both
contours are symmetric under q -> -conj(q), so J is twice the real part
of the right half: one real quadrature on the line, two on the V.  The
log-magnitude of the saddle value is added to i phi0 before a single exp,
since at small c3 either alone can overflow.  The error estimate adds to
quad's own the truncated tails, the rounding of the integrand's phase,
and the rounding of b and phi0.

For c3 = 0 the line through the stationary point -c1/2a, turned by
pi/4 - arg(a)/2, carries the integrand e^(-i c1^2/4a) e^(-|a| s^2)
exactly, so I = sqrt(i pi/a) e^(-i c1^2/4a) needs no quadrature.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import AirylabError, QuadratureError

_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400, full_output=1)

# contours are cut where the envelope has fallen by e^-_CUT from its peak;
# the tails beyond are bounded and added to the estimate
_CUT = 50.0
_EPS = float(np.finfo(float).eps)
_SQRT_PI = math.sqrt(math.pi)


def _quad_real(func, lo, hi) -> tuple[float, float]:
    """Real quadrature whose failure (QUADPACK ier != 0) is reported as an
    infinite estimate instead of an IntegrationWarning."""
    # scipy.integrate is imported on first use: it is most of the cold
    # start of `import airylab`, and only this module needs it
    from scipy.integrate import quad

    val, err, *failure = quad(func, lo, hi, **_QUAD_OPTS)
    return float(val), (math.inf if len(failure) > 1 else float(err))


def _saddle_line(c3: float, b: complex) -> tuple[complex, complex, float, float]:
    """J for c3 > 0 along q = z0 + s, z0 = x0 + i h, where
    h = max(Im i sqrt(b/3c3), c3^(-1/3)/2) and x0 = -Im b/(6 c3 h).

    There exp(i(c3 q^3 + b q)) = e^f0 e^(-g s^2) e^(i (c3 s^3 + beta s^2 + k s))
    with f0 = i z0 (c3 z0^2 + b), g = 3 c3 h, beta = 3 c3 x0 and
    k = Re b + 3 c3 (x0^2 - h^2): x0 makes the linear coefficient real.
    The odd part of the cubic phase cancels, leaving
    J = 2 e^f0 Integral_0 e^(-g s^2) cos(c3 s^3 + k s) e^(i beta s^2) ds.
    Returns f0, J e^-f0, its estimate, and a bound on the integral of
    |q| |integrand| e^-Re(f0) over the line (|dJ/db| is at most that).
    """
    h = max(cmath.sqrt(b / (3.0 * c3)).real, 0.5 * c3 ** (-1.0 / 3.0))
    x0 = -b.imag / (6.0 * c3 * h)
    z0 = complex(x0, h)
    f0 = 1j * z0 * (c3 * z0 * z0 + b)
    g = 3.0 * c3 * h
    beta = 3.0 * c3 * x0
    k = b.real + 3.0 * c3 * (x0 * x0 - h * h)
    span = math.sqrt(_CUT / g)

    def f(s):
        return math.exp(-g * s * s) * math.cos(s * (c3 * s * s + k))

    if beta == 0.0:
        val, err = _quad_real(f, 0.0, span)
    else:
        re, e_re = _quad_real(lambda s: f(s) * math.cos(beta * s * s), 0.0, span)
        im, e_im = _quad_real(lambda s: f(s) * math.sin(beta * s * s), 0.0, span)
        val, err = complex(re, im), e_re + e_im
    tail = math.exp(-_CUT) / (2.0 * g * span)
    mass = 0.5 * _SQRT_PI / math.sqrt(g)
    rounding = 4.0 * _EPS * mass * (c3 * span ** 3 + abs(beta) * span * span
                                    + abs(k) * span + _CUT)
    moment = abs(z0) * mass + 0.5 / g
    return f0, 2.0 * val, 2.0 * (err + tail + rounding), 2.0 * moment


def _arm(g: float, kr: float, ki: float, phi: float, lo: float,
         both: bool) -> tuple[complex, float, float, float]:
    """Integral over t >= lo (lo <= 0) of e^(-t^2 (g - kr t)) e^(i (phi + ki t^3)),
    kr <= 0: its real part only unless `both`.  Returns the value, its
    estimate, and bounds on the integrals of the envelope and of |t| times it.

    On [lo, 0] the envelope is at most e^(-gmin t^2), gmin = g - kr lo;
    for t > 0 it is at most e^(-g t^2) and e^(kr t^3).  Both sides are cut
    where that bound has fallen by e^-_CUT.
    """
    def re(t):
        return math.exp(-t * t * (g - kr * t)) * math.cos(phi + ki * t ** 3)

    def im(t):
        return math.exp(-t * t * (g - kr * t)) * math.sin(phi + ki * t ** 3)

    gmin = g - kr * lo
    lo_cut = -math.sqrt(_CUT / gmin)
    decay = (-kr) ** (-1.0 / 3.0) if kr < 0.0 else math.inf
    hi = min(math.sqrt(_CUT / g), _CUT ** (1.0 / 3.0) * decay)
    tail = math.exp(-_CUT) / (2.0 * g * hi - 3.0 * kr * hi * hi)
    if lo_cut > lo:
        tail += math.exp(-_CUT) / (2.0 * gmin * -lo_cut)
        lo = lo_cut
    parts, err = [], 0.0
    for part in (re, im) if both else (re,):
        v_neg, e_neg = _quad_real(part, lo, 0.0)
        v_pos, e_pos = _quad_real(part, 0.0, hi)
        parts.append(v_neg + v_pos)
        err += e_neg + e_pos
    mass = (min(0.5 * _SQRT_PI / math.sqrt(gmin), -lo)
            + min(0.5 * _SQRT_PI / math.sqrt(g), 0.9 * decay, hi))
    rounding = 4.0 * _EPS * (abs(phi) + abs(ki) * max(hi, -lo) ** 3 + _CUT) * mass
    moment = (min(0.5 / gmin, 0.5 * lo * lo)
              + min(0.5 / g, 0.5 * decay * decay, 0.5 * hi * hi))
    return complex(*parts), err + tail + rounding, mass, moment


def _saddle_vee(c3: float, b: complex) -> tuple[float, complex, float, float]:
    """J for c3 > 0 along the V through the saddles +-w, w = sqrt(-b/3c3):
    the right arm q = w + t u, u = e^(i theta), theta = pi/4 - arg(w)/2, and
    the left arm q = -w + t i u, each along its saddle's steepest-descent
    direction.  They meet at t = -Re(2w/u) on the right arm and
    t = Im(2w/u) on the left.

    On the right arm exp(i(c3 q^3 + b q)) u =
    e^(-2 i c3 w^3 + i theta) e^(-g t^2 + i c3 u^3 t^3), g = 3 c3 |w|; the
    left arm, traversed toward its saddle, contributes
    e^(2 i c3 w^3 + i (theta - pi/2)) e^(-g t^2 + c3 u^3 t^3).  L, the larger
    saddle log-magnitude |2 c3 Im w^3|, is taken out and the other arm is
    scaled down by the rest (it may underflow to 0).  For real b the arms
    are mirror images and J is twice the real part of the right one.
    Returns L, J e^-L, its estimate and the |dJ/db| bound of _saddle_line.
    """
    w = cmath.sqrt(-b / (3.0 * c3))
    g = 3.0 * c3 * abs(w)
    theta = 0.25 * math.pi - 0.5 * cmath.phase(w)
    u = cmath.exp(1j * theta)
    meet = 2.0 * w / u
    cubic = 1j * c3 * u ** 3
    w3 = 2.0 * c3 * w ** 3
    right = (g, cubic.real, cubic.imag, theta - w3.real, -meet.real)
    if b.imag == 0.0:
        val, err, mass, moment = _arm(*right, both=False)
        return 0.0, 2.0 * val.real, 2.0 * err, 2.0 * (abs(w) * mass + moment)
    left = (g, cubic.imag, -cubic.real, theta - 0.5 * math.pi + w3.real, meet.imag)
    lead = abs(w3.imag)
    j = est = bound = 0.0
    for arm, log_mag in ((right, w3.imag), (left, -w3.imag)):
        scale = math.exp(log_mag - lead)
        val, err, mass, moment = _arm(*arm, both=True)
        j += scale * val
        est += scale * err
        bound += scale * (abs(w) * mass + moment)
    return lead, j, est, bound


def _cubic(c3: float, a: complex, c1: float) -> tuple[complex, float]:
    """I for c3 != 0 and a = c2 + i eta by the cube completion in the module
    docstring: the value and its error estimate."""
    if c3 < 0.0:
        val, err = _cubic(-c3, -a.conjugate(), -c1)
        return val.conjugate(), err
    shift_sq = a * a / (3.0 * c3)
    b = c1 - shift_sq
    phase_cubic = 2.0 * a ** 3 / (27.0 * c3 * c3)
    phase_linear = c1 * a / (3.0 * c3)
    vee = abs(b.imag) < -math.sqrt(3.0) * b.real
    lead, j, err, moment = (_saddle_vee if vee else _saddle_line)(c3, b)
    scale = cmath.exp(1j * (phase_cubic - phase_linear) + lead)
    value = scale * j
    b_rounding = 2.0 * _EPS * (abs(c1) + abs(shift_sq) + abs(b))
    phase_rounding = 4.0 * _EPS * (abs(phase_cubic) + abs(phase_linear) + abs(lead))
    return value, abs(scale) * (err + moment * b_rounding) + abs(value) * phase_rounding


def _quadratic(a: complex, c1: float) -> tuple[complex, float]:
    """I for c3 = 0, in closed form as in the module docstring."""
    exponent = -0.25j * c1 * c1 / a
    value = cmath.sqrt(1j * math.pi / a) * cmath.exp(exponent)
    return value, 4.0 * _EPS * (abs(exponent) + 1.0) * abs(value)


def cubic_phase_integral(c3: float, c2: float, c1: float, damping: float,
                         tol: float = 1e-8) -> complex:
    """Evaluate the damped cubic-phase integral defined above.

    The damping enters as the imaginary part of a = c2 + i damping: for
    c3 != 0 the cube is completed with complex a and J is integrated on
    the V when |Im b| < -sqrt3 Re b and on the saddle line otherwise; for
    c3 = 0 the value is the Gaussian integral on the turned line through
    -c1/2a.  A bare linear phase (c3 = c2 = damping = 0) has no value.
    Raises QuadratureError, carrying the achieved estimate, when the error
    estimate exceeds tol * max(1, |value|) or the value is not finite.
    """
    for name, val in (("c3", c3), ("c2", c2), ("c1", c1), ("damping", damping)):
        if not np.isfinite(val):
            raise AirylabError(f"{name} must be finite, got {val}")
    if damping < 0.0:
        raise AirylabError(f"damping must be >= 0, got {damping}")

    a = complex(c2, damping)
    if c3 == 0.0 and a == 0.0:
        raise AirylabError(
            "cubic_phase_integral with damping = 0 requires c3 != 0 or c2 != 0")
    try:
        value, est = _cubic(c3, a, c1) if c3 != 0.0 else _quadratic(a, c1)
    except (ArithmeticError, ValueError):
        # math range or domain error: phi0, b or a saddle value is beyond
        # float range
        value, est = complex(math.nan), math.inf
    if not (cmath.isfinite(value) and est <= tol * max(1.0, abs(value))):
        raise QuadratureError(
            "steepest-descent quadrature did not reach tol", est)
    return complex(value)
