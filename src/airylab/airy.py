"""Real-argument Airy function Ai with rigorous error estimates.

One array routine, `_ai`, evaluates Ai and a bound on its error for every
element of z, in two regimes:

* Maclaurin two-series form for -8 <= z <= 6, accumulated in extended
  precision (np.longdouble) because the series suffers catastrophic
  cancellation on the oscillatory side.  In 80-bit arithmetic the roundoff
  floor stays below 1e-12 absolute down to z = -8.
* Poincare asymptotic expansions beyond (DLMF 9.7.5, 9.7.9), truncated
  per element at the smallest term, whose magnitude bounds the truncation
  error.

Each element stops on its own criterion, so `ai_values` and the 0-d
`airy_ai` agree bitwise.  The documented domain is |z| <= 1e4.  For large
positive z the value underflows to 0.0 with a tiny error bound: past
z = 108, where Ai(z) < 1e-326, the asymptotic branch would round its value
to 0.0 and its bound below tiny, so `_ai` returns (0.0, tiny) there
without evaluating it, bit for bit the same result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AirylabError

_LD = np.longdouble
_LD_EPS = float(np.finfo(_LD).eps)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3), as extended
# precision literals; float64 seeds would cap the series accuracy near 4e-13
# where the two sums cancel.  The Gamma identities are asserted in the tests.
_C1_LD = _LD("0.35502805388781723926006318600418317640")
_C2_LD = _LD("0.25881940379280679840518356018920396348")
_TWO_PI_LD = _LD("6.2831853071795864769252867665590057684")
_SQRT_PI_LD = np.sqrt(_TWO_PI_LD / 2)
# 2/3 must be formed in extended precision: a double-rounded constant injects
# a relative 3.7e-17 into zeta ~ 1900, i.e. an absolute phase error ~ 7e-14
_TWO_THIRDS_LD = _LD(2.0) / _LD(3.0)

_SERIES_LO = -8.0
_SERIES_HI = 6.0
_DOMAIN = 1.0e4
# past this Ai(z) < 1e-326 and _asymptotic returns exactly (0.0, tiny), as
# the tests check densely up to 1e4; _ai skips the evaluation there
_UNDERFLOW = 108.0
_MAX_SERIES_TERMS = 60
_MAX_ASYMPTOTIC_TERMS = 40


@dataclass(frozen=True)
class AiryResult:
    """Value of Ai(z) together with a bound on the evaluation error."""

    value: float
    est_error: float


def _series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maclaurin evaluation in longdouble; returns (value, error bound).

    Ai(z) = c1*f(z) - c2*g(z) with
      f = sum a_k z^(3k),    a_0 = 1, a_{k+1} = a_k / ((3k+2)(3k+3))
      g = sum b_k z^(3k+1),  b_0 = 1, b_{k+1} = b_k / ((3k+3)(3k+4))
    Each element stops once its latest terms fall below 1e-25 of its sums
    and leaves the working arrays.  The error bound combines the roundoff
    of the accumulated absolute sum with the first omitted term of each
    series.
    """
    zl = z.astype(_LD)
    z3 = zl * zl * zl
    a = np.ones_like(zl)
    b = zl.copy()
    f = a.copy()
    g = b.copy()
    abssum = np.abs(a) + np.abs(b)
    live = np.arange(z.size)
    # per element: f, g, the absolute sum, and the first omitted terms
    out = np.empty((4, z.size), dtype=_LD)
    for k in range(1, _MAX_SERIES_TERMS + 1):
        a = a * z3 / _LD((3 * k - 1) * (3 * k))
        b = b * z3 / _LD((3 * k) * (3 * k + 1))
        f += a
        g += b
        latest = np.abs(a) + np.abs(b)
        abssum += latest
        stop = ((latest < _LD(1e-25) * np.maximum(np.abs(f) + np.abs(g), _LD(1.0)))
                | (k == _MAX_SERIES_TERMS))
        if stop.any():
            # one more recurrence step bounds the truncation tail (|z| <= 8
            # keeps the term ratio below ~0.6 here, so a factor 4 covers the
            # geometric tail)
            z3s = np.abs(z3[stop])
            out[:, live[stop]] = (
                f[stop], g[stop], abssum[stop],
                np.abs(a[stop]) * z3s / _LD((3 * k + 2) * (3 * k + 3))
                + np.abs(b[stop]) * z3s / _LD((3 * k + 3) * (3 * k + 4)))
            keep = ~stop
            live, a, b, f, g, abssum, z3 = (
                v[keep] for v in (live, a, b, f, g, abssum, z3))
            if not live.size:
                break
    f, g, abssum, tail = out
    value = (_C1_LD * f - _C2_LD * g).astype(float)
    round_err = 16.0 * _LD_EPS * abssum.astype(float) + 4.0 * _EPS * np.abs(value)
    return value, 4.0 * tail.astype(float) + round_err


def _asymptotic(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poincare expansions for |z| beyond the series seams, zeta = (2/3)|z|^(3/2).

    z > 6:  Ai(z) ~ e^(-zeta)/(2 sqrt(pi) z^(1/4)) * sum (-1)^k u_k zeta^-k
    z < -8: Ai(z) = (1/(sqrt(pi) |z|^(1/4))) * [ sin(zeta + pi/4) * S_even
                                                 - cos(zeta + pi/4) * S_odd ]
      S_even = sum (-1)^k u_{2k} zeta^(-2k),  S_odd = sum (-1)^k u_{2k+1} zeta^(-2k-1).
    Both signs share one pass over k, with u_0 = 1 and
      u_k = u_{k-1} (6k-1)(6k-3)(6k-5) / (216 k (2k-1)).
    An element leaves the pass at its first term that does not decrease or
    is negligible; that omitted term bounds the truncation error.  After 40
    decreasing terms the last one bounds it.

    zeta = (2/3) |z| sqrt|z| and |z|^(1/4) = sqrt(sqrt|z|) are formed in
    longdouble from correctly rounded sqrt and products (a powl call costs
    about 50 sqrts).  For z > 108 (see _UNDERFLOW) the value rounds to 0.0
    and the bound to below tiny, so the result there is exactly (0.0, tiny).
    """
    neg = z < 0.0
    az = np.abs(z.astype(_LD))
    root_az = np.sqrt(az)
    zeta = _TWO_THIRDS_LD * (az * root_az)
    live = np.arange(z.size)
    live_neg = neg.copy()
    zeta_f = zeta.astype(float)
    inv_zeta = 1.0 / zeta_f.astype(_LD)
    power = np.ones_like(zeta)
    prev = np.ones_like(zeta)
    # sums of the even and the odd terms, signed per branch; pos adds them
    s = np.zeros((2, z.size), dtype=_LD)
    s[0] = 1.0
    # per element: both sums and the truncation bound
    out = np.empty((3, z.size), dtype=_LD)
    u = _LD(1.0)
    for k in range(1, _MAX_ASYMPTOTIC_TERMS):
        u = u * _LD((6 * k - 1) * (6 * k - 3) * (6 * k - 5)) / _LD(216 * k * (2 * k - 1))
        power = power * inv_zeta
        term = u * power
        # a term below 1e-30 no longer moves the longdouble sums
        stop = ~(term < prev) | (term < 1e-30)
        if stop.any():
            out[:, live[stop]] = (s[0, stop], s[1, stop], term[stop])
            keep = ~stop
            live, live_neg, inv_zeta, power, term = (
                v[keep] for v in (live, live_neg, inv_zeta, power, term))
            s = s[:, keep]
            if not live.size:
                break
        # pos signs alternate every k, neg signs every second k
        pos_sign = -1.0 if k % 2 else 1.0
        neg_sign = -1.0 if (k // 2) % 2 else 1.0
        s[k % 2] += np.where(live_neg, neg_sign, pos_sign) * term
        prev = term
    else:
        out[:, live] = (s[0], s[1], prev)
    s_even, s_odd, trunc = out
    root = _SQRT_PI_LD * np.sqrt(root_az)
    pref = 1.0 / root
    pref[~neg] = np.exp(-zeta[~neg]) / (2 * root[~neg])
    # Ai = pref * (c_even * S_even + c_odd * S_odd), with both c = 1 for z > 6
    c_even, c_odd = np.ones_like(zeta), np.ones_like(zeta)
    # reduce the phase mod 2 pi in extended precision before sin/cos; zeta
    # reaches ~1900 at z = -200 and libm reduction cannot be relied on there
    phase = zeta[neg] + _TWO_PI_LD / 8
    phase = phase - _TWO_PI_LD * np.floor(phase / _TWO_PI_LD)
    c_even[neg], c_odd[neg] = np.sin(phase), -np.cos(phase)
    value = (pref * (c_even * s_even + c_odd * s_odd)).astype(float)
    pref_f = pref.astype(float)
    # phase error in units of u = _LD_EPS/2, relative to zeta: at most 4u
    # from forming zeta (the 2/3 constant, sqrt, two products), 1u from
    # adding pi/4 and about 3u from the reduction mod 2 pi; 8 _LD_EPS = 16u
    # covers them.  4 _EPS is a fixed margin for longdouble sin/cos.
    phase_err = np.where(neg, pref_f * (zeta_f * 8.0 * _LD_EPS + 4.0 * _EPS), 0.0)
    # near the underflow threshold the bound itself underflows while the
    # value is still representable as a subnormal; tiny covers the ulp there
    err = pref_f * trunc.astype(float) + phase_err + 8.0 * _EPS * np.abs(value)
    return value, np.maximum(err, _TINY)


def _ai(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai(z) and its error bound, elementwise, for a float array of any shape."""
    bad = ~(np.abs(z) <= _DOMAIN)
    if bad.any():
        raise AirylabError(
            f"Ai domain is finite |z| <= {_DOMAIN:g}, got {z[bad].flat[0]}")
    flat = z.ravel()
    value = np.empty(flat.shape)
    err = np.empty(flat.shape)
    series = (flat >= _SERIES_LO) & (flat <= _SERIES_HI)
    under = flat > _UNDERFLOW
    value[under], err[under] = 0.0, _TINY
    for mask, regime in ((series, _series), (~(series | under), _asymptotic)):
        if mask.any():
            value[mask], err[mask] = regime(flat[mask])
    return value.reshape(z.shape), err.reshape(z.shape)


def airy_ai(z: float) -> AiryResult:
    """Evaluate Ai(z) for real z with |z| <= 1e4.

    Returns an AiryResult whose est_error is a conservative bound combining
    series/asymptotic truncation with accumulated roundoff.  This is the
    0-d case of ai_values, so both return the same value bitwise.  It is
    not a fast scalar path: a call costs about 60 us at z = 0 to 520 us at
    z = -5 (numpy overhead per recurrence step on one element; timeit
    minima on a 2-core Xeon), 13 us past z = 108.  Evaluate many points
    with one ai_values call.
    """
    value, err = _ai(np.asarray(float(z)))
    return AiryResult(value=float(value), est_error=float(err))


def ai_values(z: np.ndarray) -> np.ndarray:
    """Ai at every element of z (|z| <= 1e4), as a float array of z's shape.

    The same evaluation as airy_ai, one array pass per regime; the error
    bounds are computed alongside and dropped.
    """
    return _ai(np.asarray(z, dtype=float))[0]
