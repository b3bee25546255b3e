"""Independent checks of airylab's outputs.

Each check returns the log10 margins log10(tolerance / observed error) of
what it compared and whether any comparison missed its tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special

# Absolute agreement required of every spot-checked Ai value; |Ai| <= 0.54
# on the real line, and scipy's cephes evaluator is accurate to ~1e-15 there.
AIRY_TOL = 1.0e-10
AIRY_SPOTS = 16


def margin(tol: float, err: float) -> float | None:
    """log10(tol / err), or None when the error is exactly zero."""
    if err == 0.0:
        return None
    ratio = tol / err
    if not (ratio > 0.0 and math.isfinite(ratio)):
        return -math.inf
    return math.log10(ratio)


def airy_spot_check(calls, rng) -> tuple[list, bool]:
    """Compare AIRY_SPOTS random points of each captured ai_values call with
    scipy.special.airy."""
    margins, missed = [], False
    for args, kwargs, out in calls:
        z = np.ravel(np.asarray(args[0] if args else kwargs["z"], dtype=float))
        got = np.ravel(out)
        if z.size == 0:
            continue
        idx = rng.choice(z.size, size=min(AIRY_SPOTS, z.size), replace=False)
        err = float(np.max(np.abs(got[idx] - scipy.special.airy(z[idx])[0])))
        missed |= not err <= AIRY_TOL
        m = margin(AIRY_TOL, err)
        if m is not None:
            margins.append(m)
    return margins, missed


def cubic_closed_form(c3: float, c2: float, c1: float) -> complex:
    """Integral of exp(i(c3 p^3 + c2 p^2 + c1 p)) over the real line, c3 != 0.

    Completing the cube with p = q - c2/(3 c3) gives
    2 pi (3a)^(-1/3) exp(i(2b^3/27a^2 - bc/3a)) Ai((c - b^2/3a)/(3a)^(1/3));
    a negative leading coefficient follows from I(-a,-b,-c) = conj I(a,b,c).
    """
    if c3 < 0.0:
        return cubic_closed_form(-c3, -c2, -c1).conjugate()
    a, b, c = c3, c2, c1
    s = (3.0 * a) ** (1.0 / 3.0)
    phase = 2.0 * b ** 3 / (27.0 * a * a) - b * c / (3.0 * a)
    ai = scipy.special.airy((c - b * b / (3.0 * a)) / s)[0]
    return 2.0 * math.pi / s * complex(math.cos(phase), math.sin(phase)) * ai


def cubic_check(calls) -> tuple[list, bool]:
    """Check each captured undamped cubic_phase_integral value against the
    closed form, at the tolerance the call requested."""
    margins, missed = [], False
    for args, kwargs, value in calls:
        names = ("c3", "c2", "c1", "damping", "tol")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        if bound.get("damping", 0.0) != 0.0 or bound["c3"] == 0.0:
            continue
        ref = cubic_closed_form(bound["c3"], bound["c2"], bound["c1"])
        tol = bound.get("tol", 1e-8) * max(1.0, abs(ref))
        err = abs(complex(value) - ref)
        missed |= not err <= tol
        m = margin(tol, err)
        if m is not None:
            margins.append(m)
    return margins, missed


def report_margins(report: dict) -> list:
    """Margins of every numeric tolerance in an experiment report dict.

    Tolerances named `<metric>_min` are lower bounds on `<metric>`; every
    other tolerance is an upper bound on the metric of the same name.
    """
    out = []
    for key, tol in report["tolerances"].items():
        if isinstance(tol, bool):
            continue
        if key.endswith("_min"):
            value = report["metrics"][key[:-len("_min")]]
            m = margin(value, tol)
        else:
            m = margin(tol, report["metrics"][key])
        if m is not None:
            out.append(m)
    return out
