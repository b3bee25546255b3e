"""Measurement protocols packaged as reproducible reports.

Each function here runs one numerical experiment on the Airy coherent
family (eigenrelation residuals, peak-trajectory fits, overlap scans,
basis Gram matrices, evolution identities, limit trends) and returns an
ExperimentReport holding the measured metrics, the configuration that
produced them, the tolerances they were judged against, and a pass flag.
The body of an experiment returns only its metrics and config.  Its
`@_experiment` declaration names each judged metric once, and the
decorator builds the report: the tolerances are the bounds of the call,
and the verdict follows the one rule stated on ExperimentReport.

Geometry is always explicit: callers supply the grid, window, and band
policy, so a report can be reproduced from its config dict alone.  The
grid carries the physical constants hbar and m (`grid.phys`); only
overlap_scan, which takes no grid, takes a `phys` of its own.
Windowed norms deliberately exclude the band-taper shoulders, whose
stationary-phase images carry the apodization error of a truncated
momentum build; metrics inside the window probe the family itself.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    AirylabError,
    GeometryError,
    Grid,
    PhysParams,
    Rep,
    TWO_PI,
    WaveField,
    Window,
    WindowEscapeError,
    inner_product,
    to_rep,
    window_weights,
    windowed_norm,
)
from .operators import (
    BoostParams,
    GeneratorKind,
    _translate_boost,
    apply_generator,
    boost,
    free_evolve,
    translate,
)
from .oscillatory import cubic_phase_integral
from .states import (
    BandTaper,
    CoherentParams,
    GaussianParams,
    _family_coefficients,
    _family_phase,
    _plan_band,
    _smoothstep,
    berry_balazs_initial,
    gaussian_packet,
    perelomov_state,
)

__all__ = [
    "ExperimentReport",
    "eigenrelation_residual",
    "acceleration_fit",
    "shape_distortion",
    "density_shift_distortion",
    "evolution_equivalence",
    "overlap_scan",
    "basis_orthonormality",
    "k_expectation_series",
    "boost_covariance_residual",
    "berry_balazs_trajectory",
    "representation_crosscheck",
    "eps_to_zero_limit",
    "eps_to_infinity_fidelity",
    "commutator_table",
]

# first maximum of Ai, to the double nearest the true root of Ai'
_AIRY_FIRST_PEAK = -1.0187929716474771
# Ai(0) = 3^(-2/3) / Gamma(2/3), to the nearest double
_AIRY_AI_ZERO = 0.3550280538878172

# the window of every experiment that is not given one
_WINDOW = Window.rect(0.5)

# The experiments a config can name: name -> (config parameter ->
# validator tag, tolerance key -> keyword), derived from the signature
# once, at registration.  The config parameters are all parameters but
# the bound keywords and the four the config runner supplies: `c` takes
# the config's perelomov state, `field` its built state, `grid` and
# `phys` its grid.  A parameter without a default is required.  A bound
# fixed in the declaration (the limits' monotone flags) has no keyword,
# so a config cannot override it.
EXPERIMENTS: dict[str, tuple[dict, dict]] = {}
_SUPPLIED = ("c", "field", "grid", "phys")
# a parameter's config key where it differs from the parameter's name
_CONFIG_KEYS = {"w": "window"}
# the validator tag of each config parameter that is not a plain number
_TAGS = {"window": "window", "band": "band", "probe": "probe",
         "n_states": "count", "drop_cubic_phase": "bool",
         "taus": "numlist", "t_list": "numlist", "eps_list": "numlist",
         "eps_seq": "numlist"}


def _meets(metrics: dict, key: str, bound) -> bool:
    if isinstance(bound, bool):
        return metrics[key] == bound
    if key.endswith("_min"):
        return metrics[key[:-4]] >= bound
    return metrics[key] <= bound


def _experiment(bounds: dict):
    """Register an experiment and build its report from its declaration.

    `bounds` maps each tolerance key to the keyword-only parameter that
    holds its bound, or to a fixed bool.  The decorated body returns
    (metrics, config); the report's tolerances are the bound values of
    this call, and it passes when every bound is met under the rule
    stated on ExperimentReport.
    """
    keywords = {k: kw for k, kw in bounds.items() if isinstance(kw, str)}

    def register(fn):
        defaults = fn.__kwdefaults__

        @functools.wraps(fn)
        def run(*args, **kwargs):
            metrics, config = fn(*args, **kwargs)
            tolerances = {k: kwargs.get(kw, defaults[kw]) if k in keywords
                          else kw for k, kw in bounds.items()}
            return ExperimentReport(
                fn.__name__, metrics, config, tolerances,
                all(_meets(metrics, k, b) for k, b in tolerances.items()))
        params = [_CONFIG_KEYS.get(p, p) for p in inspect.signature(fn).parameters
                  if p not in _SUPPLIED and p not in keywords.values()]
        EXPERIMENTS[fn.__name__] = ({p: _TAGS.get(p, "num") for p in params},
                                    keywords)
        return run
    return register


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: metrics, config, tolerances, verdict.

    `passed` is derived from the experiment's declaration: each
    `<metric>_min` tolerance is a lower bound (>=) on `<metric>`, each
    other numeric tolerance an upper bound (<=) on the metric of the
    same name, both inclusive, and a bool tolerance must equal its
    metric exactly.
    """

    name: str
    metrics: dict
    config: dict
    tolerances: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metrics": dict(self.metrics),
            "config": dict(self.config),
            "tolerances": dict(self.tolerances),
            "passed": bool(self.passed),
        }


def _geometry(grid: Grid, w: Window | None = None) -> dict:
    """Config echo of a grid, the constants it carries and a window."""
    echo = {"grid": {"n_points": grid.n_points, "x_min": grid.x_min,
                     "x_max": grid.x_max},
            "phys": asdict(grid.phys)}
    if w is not None:
        echo["window"] = {"kind": w.kind.value,
                          "interior_fraction": w.interior_fraction}
    return echo


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _parabolic_peak(field: WaveField) -> float:
    """Sub-bin density peak via a three-point parabola through the maximum."""
    rho = field.density()
    grid = field.grid
    j = int(np.argmax(rho))
    if j < 2 or j > grid.n_points - 3:
        raise WindowEscapeError(
            f"density peak at bin {j} sits against the box edge; the "
            "trajectory left the observation window")
    d2 = rho[j - 1] - 2.0 * rho[j] + rho[j + 1]
    if d2 >= 0.0:
        raise WindowEscapeError("density maximum is not locally parabolic")
    return float(grid.x[j] + 0.5 * grid.dx * (rho[j - 1] - rho[j + 1]) / d2)


def _member(c: CoherentParams, times, grid: Grid,
            band: BandTaper | str | None) -> tuple[WaveField, dict | None]:
    """c's momentum build, banded over the label times, and its band echo."""
    band_r = _plan_band(c, times, grid, band)
    return (perelomov_state(c, Rep.MOMENTUM, grid, band=band_r),
            None if band_r is None else asdict(band_r))


def _weight(field: WaveField, w: Window,
            message: str = "no weight inside the window") -> float:
    """A windowed norm that a metric divides by; GeometryError if it is 0."""
    norm = windowed_norm(field, w)
    if norm == 0.0:
        raise GeometryError(message)
    return norm


@_experiment({"residual": "tol"})
def eigenrelation_residual(
    c: CoherentParams,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
    *,
    xi_probe: float | None = None,
    tol: float = 1.0e-6,
) -> ExperimentReport:
    """Windowed residual of (K(t) + eps H) psi = xi psi on a family member.

    xi_probe overrides the eigenvalue used in the residual operator
    (the state itself keeps c.xi); probing a wrong eigenvalue is the
    negative control and must fail the tolerance.
    """
    probe = c.xi if xi_probe is None else float(xi_probe)
    mom, band_echo = _member(c, [c.t], grid, band)
    psi = to_rep(mom, Rep.POSITION)
    kpsi = apply_generator(GeneratorKind.k(c.t), psi)
    hpsi = apply_generator(GeneratorKind.h(), psi)
    res = psi.with_amplitudes(
        kpsi.amplitudes + c.eps * hpsi.amplitudes - probe * psi.amplitudes)
    denom = _weight(psi, w, "state has no weight inside the window")
    r = windowed_norm(res, w) / denom
    return ({"residual": float(r), "windowed_norm": float(denom)},
            {"params": asdict(c), "xi_probe": probe, **_geometry(grid, w),
             "band": band_echo})


@_experiment({"rel_err": "tol_rel"})
def acceleration_fit(
    c: CoherentParams,
    taus,
    grid: Grid,
    band: BandTaper | str | None = "auto",
    *,
    tol_rel: float = 0.01,
) -> ExperimentReport:
    """Fit x_peak(tau) = x0 + a tau^2/2 over free evolution of a member.

    The fitted a must reproduce the self-acceleration -1/eps.  taus are
    offsets from c.t; the tau range must let the peak travel at least
    20 dx so the quadratic term is measured, not extrapolated.
    """
    if c.eps == 0.0:
        raise GeometryError("eps = 0 has no density peak to track")
    taus = np.asarray(sorted(float(t) for t in taus), dtype=float)
    if taus.size < 3:
        raise AirylabError("need at least three sample times for the fit")
    lo, hi = float(taus.min()), float(taus.max())
    travel = (hi * hi - lo * lo) / (2.0 * abs(c.eps))
    if not np.isfinite(travel):
        raise GeometryError(f"expected peak travel overflows at eps = {c.eps:g}")
    if travel < 20.0 * grid.dx:
        raise GeometryError(
            f"expected peak travel {travel:.3g} spans fewer than 20 grid "
            "steps; widen the tau range")
    mom0, band_echo = _member(c, [c.t + lo, c.t + hi], grid, band)
    peaks = []
    for tau in taus:
        evolved = to_rep(free_evolve(mom0, float(tau)), Rep.POSITION)
        peaks.append(_parabolic_peak(evolved))
    peaks = np.asarray(peaks)
    design = np.stack([np.ones_like(taus), taus ** 2 / 2.0], axis=1)
    theta, *_ = np.linalg.lstsq(design, peaks, rcond=None)
    accel = float(theta[1])
    fit_resid = float(np.max(np.abs(design @ theta - peaks)))
    rel_err = abs(abs(accel) * abs(c.eps) - 1.0)
    return ({"accel": accel, "accel_abs": abs(accel),
             "accel_expected_abs": 1.0 / abs(c.eps),
             "rel_err": float(rel_err), "fit_residual": fit_resid,
             "peaks": _floats(peaks), "taus": _floats(taus)},
            {"params": asdict(c), **_geometry(grid), "band": band_echo})


def density_shift_distortion(
    field: WaveField,
    tau: float,
    shift: float,
    w: Window = _WINDOW,
) -> float:
    """Windowed L1 mismatch between the evolved density and a rigid shift.

    Evolves `field` by tau, translates the original by `shift`, and
    returns sum w |rho_tau - rho_shifted| / sum w rho_0.  Zero means the
    evolution only displaced the profile.
    """
    pos_tau = to_rep(free_evolve(field, float(tau)), Rep.POSITION)
    ww = window_weights(field.grid, w, Rep.POSITION)
    return _shift_distortion(to_rep(field, Rep.POSITION), pos_tau, shift, ww)


def _shift_distortion(pos0: WaveField, pos_tau: WaveField, shift: float,
                      ww: np.ndarray) -> float:
    """density_shift_distortion from the position fields it compares and
    the window weights, so a caller that already holds them reuses them."""
    ref = to_rep(translate(pos0, shift), Rep.POSITION)
    num = float(np.sum(ww * np.abs(pos_tau.density() - ref.density())))
    den = float(np.sum(ww * pos0.density()))
    if den == 0.0:
        raise GeometryError("reference density has no weight inside the window")
    return num / den


@_experiment({"distortion": "tol"})
def shape_distortion(
    c: CoherentParams,
    tau: float,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
    *,
    tol: float = 1.0e-8,
) -> ExperimentReport:
    """Non-spreading check: the evolved density is a rigid displacement.

    The family member at c.t is evolved by tau and compared against its
    own initial density translated by the closed-form displacement
    -((c.t+tau)^2 - c.t^2)/(2 eps).  The distortion metric should sit at
    the apodization floor; any genuine spreading would show up directly.
    """
    tau = float(tau)
    if c.eps == 0.0:
        raise GeometryError("eps = 0 does not displace rigidly; no prediction")
    mom0, band_echo = _member(c, [c.t, c.t + tau], grid, band)
    displacement = -((c.t + tau) ** 2 - c.t ** 2) / (2.0 * c.eps)
    d = density_shift_distortion(mom0, tau, displacement, w)
    return ({"distortion": float(d), "displacement": float(displacement)},
            {"params": asdict(c), "tau": tau, **_geometry(grid, w),
             "band": band_echo})


@_experiment({"fidelity_deficit": "tol_fidelity",
              "phase_discrepancy": "tol_phase"})
def evolution_equivalence(
    c: CoherentParams,
    tau: float,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
    *,
    drop_cubic_phase: bool = False,
    tol_fidelity: float = 1.0e-8,
    tol_phase: float = 1.0e-6,
) -> ExperimentReport:
    """Free evolution versus the displacement-operator factorization.

    Checks e^(-i tau H/hbar)|eps,xi;0> against
    e^(-i tau xi/hbar eps) e^(-i m tau^3/3 hbar eps^2)
        e^(i (tau/eps) K(0)/hbar) e^(i tau^2 p/2 hbar eps) |eps,xi;0>
    through windowed fidelity and phase discrepancy.  Omitting the cubic
    scalar (drop_cubic_phase) is the negative control: fidelity stays
    perfect but the phase discrepancy becomes m tau^3/3 hbar eps^2.
    """
    tau = float(tau)
    if c.eps * c.eps == 0.0:
        # the phase m tau^3/3 hbar eps^2 divides by eps^2
        raise GeometryError(
            f"the factorization needs eps^2 > 0 in float64, got eps = {c.eps}")
    if c.t != 0.0:
        raise AirylabError("the identity is anchored at label time t = 0")
    mom0, band_echo = _member(c, [0.0, tau], grid, band)
    lhs = to_rep(free_evolve(mom0, tau), Rep.POSITION)
    rhs, cubic = _translate_boost(mom0, tau / c.eps, c.eps, 0.0)
    scalar = np.exp(-1j * tau * c.xi / (grid.phys.hbar * c.eps))
    if not drop_cubic_phase:
        scalar *= cubic
    rhs = to_rep(rhs.with_amplitudes(scalar * rhs.amplitudes, time=tau),
                 Rep.POSITION)
    ip = inner_product(lhs, rhs, w)
    fidelity = abs(ip) / (_weight(lhs, w) * _weight(rhs, w))
    deficit = max(0.0, 1.0 - fidelity)
    phase = abs(float(np.angle(ip)))
    return ({"fidelity": float(fidelity), "fidelity_deficit": float(deficit),
             "phase_discrepancy": phase},
            {"params": asdict(c), "tau": tau, **_geometry(grid, w),
             "band": band_echo, "drop_cubic_phase": bool(drop_cubic_phase)})


def _pair_overlap(ca: CoherentParams, cb: CoherentParams,
                  phys: PhysParams, quad_tol: float) -> complex:
    """<ca | cb>: the cubic-phase integral of the family phase at cb - ca."""
    c3, c2, c1 = _family_coefficients(cb.eps - ca.eps, cb.xi - ca.xi,
                                      cb.t - ca.t, phys)
    val = cubic_phase_integral(c3, c2, c1, damping=0.0, tol=quad_tol)
    return complex(val) / (TWO_PI * phys.hbar * phys.m)


@_experiment({"exponent_err": "tol_exponent",
              "label_dependence": "tol_label_dep"})
def overlap_scan(
    eps_list,
    xi: float = 0.0,
    t: float = 0.0,
    eps_ref: float = 0.0,
    phys: PhysParams = PhysParams(),
    *,
    quad_tol: float = 1.0e-7,
    xi_alt_offset: float = 5.0,
    tol_exponent: float = 0.01,
    tol_label_dep: float = 1.0e-8,
) -> ExperimentReport:
    """Overlap magnitude between family members versus their eps separation.

    |<eps_ref,xi;t | eps,xi;t>| should scale as |delta eps|^(-1/3) with
    prefactor (2 hbar m^2)^(1/3) Ai(0)/(hbar m), independent of the
    common xi and t labels.  The exponent comes from a log-log fit.
    Every overlap is a quadrature of the family phase at the label
    difference, so label_dependence, the change under a common xi shift,
    is exactly 0 by construction; it can bite only once the scan
    measures overlaps of grid builds.
    """
    hbar, m = phys.hbar, phys.m
    eps_list = [float(e) for e in eps_list]
    deltas = [e - eps_ref for e in eps_list]
    if any(d == 0.0 for d in deltas):
        raise AirylabError("eps_list must exclude eps_ref itself")
    if len(set(abs(d) for d in deltas)) < 2:
        raise AirylabError("need at least two distinct separations for the fit")

    def scan(xi_val: float, t_val: float) -> np.ndarray:
        ca = CoherentParams(eps=eps_ref, xi=xi_val, t=t_val)
        return np.asarray([
            _pair_overlap(ca, CoherentParams(eps=e, xi=xi_val, t=t_val),
                          phys, quad_tol)
            for e in eps_list])

    base = scan(xi, t)
    shifted = scan(xi + xi_alt_offset, t)
    mags = np.abs(base)
    logd = np.log(np.abs(deltas))
    slope, intercept = np.polyfit(logd, np.log(mags), 1)
    exponent = float(slope)
    prefactor = float(np.mean(mags * np.abs(deltas) ** (1.0 / 3.0)))
    prefactor_expected = ((2.0 * hbar * m * m) ** (1.0 / 3.0)
                          * _AIRY_AI_ZERO / (hbar * m))
    label_dep = float(np.max(np.abs(base - shifted)))
    exp_err = abs(exponent + 1.0 / 3.0)
    return ({"abs_overlaps": _floats(mags), "deltas": _floats(deltas),
             "exponent": exponent, "exponent_err": float(exp_err),
             "prefactor": prefactor,
             "prefactor_expected": float(prefactor_expected),
             "prefactor_rel_err": float(
                 abs(prefactor / prefactor_expected - 1.0)),
             "label_dependence": label_dep,
             "intercept": float(intercept)},
            {"eps_list": _floats(eps_list), "eps_ref": eps_ref,
             "xi": xi, "t": t, "phys": asdict(phys),
             "quad_tol": quad_tol, "xi_alt_offset": xi_alt_offset})


@_experiment({"diag_flatness": "tol_diag",
              "offdiag_suppression_min": "min_suppression",
              "reconstruction_err": "tol_recon"})
def basis_orthonormality(
    eps: float,
    t: float,
    grid: Grid,
    *,
    n_states: int = 256,
    window_fraction: float = 0.5,
    probe: GaussianParams = GaussianParams(),
    sum_taper_frac: float = 0.25,
    tol_diag: float = 0.02,
    min_suppression: float = 1.0e3,
    tol_recon: float = 1.0e-3,
) -> ExperimentReport:
    """Delta-normalization of a xi lattice, measured on a momentum window.

    Raw momentum builds at fixed (eps, t) and xi_i on a uniform lattice
    have constant modulus, so the windowed Gram over the M retained
    momentum bins is an exact geometric sum: spacing
    delta_xi = 2 pi m hbar / (M dp) makes the diagonal exactly
    1/delta_xi and every off-diagonal an exact zero.  A Gaussian probe
    whose content sits inside the window is then reconstructed through
    the frame sum as an end-to-end completeness check.  The lattice
    must span the probe's xi-content (position spread plus the chirp
    fan-out eps p^2/2m of its momentum support); sum_taper_frac ramps
    the outer coefficients smoothly so truncating the infinite lattice
    converges superpolynomially instead of at the Dirichlet 1/n rate.

    The states, the Gram matrix and the reconstruction are formed on the
    M retained bins only: the rect window gives every other bin weight
    exactly 0, so it adds nothing to any sum.  n_states lies in [1, M],
    since state i + M is state i again on the window.  sum_taper_frac
    lies in [0, 0.5]; 0 means no taper, and above 0.5 the ramp would
    never reach full weight.
    """
    hbar, m = grid.phys.hbar, grid.phys.m
    if n_states < 1:
        raise AirylabError(f"n_states must be at least 1, got {n_states}")
    if not 0.0 < window_fraction <= 1.0:
        raise AirylabError(
            f"window_fraction must lie in (0, 1], got {window_fraction}")
    if not 0.0 <= sum_taper_frac <= 0.5:
        raise AirylabError(
            f"sum_taper_frac must lie in [0, 0.5], got {sum_taper_frac}")
    keep = np.flatnonzero(window_weights(grid, Window.rect(window_fraction),
                                         Rep.MOMENTUM))
    m_pts = keep.size
    if m_pts < 8:
        raise GeometryError("momentum window retains too few bins")
    if n_states > m_pts:
        raise AirylabError(
            f"n_states must not exceed the window's {m_pts} bins, "
            f"got {n_states}")
    delta_xi = TWO_PI * m * hbar / (m_pts * grid.dp)
    offsets = (np.arange(n_states) - (n_states - 1) / 2.0) * delta_xi

    # U(eps, t, xi) = U(eps, t, 0) U(0, 0, xi): one common phase times
    # the plane waves of the xi lattice.  cos and sin fill one buffer at
    # half the cost of a complex exp.  Multiplying by 1/(m hbar) rounds as
    # numpy's complex division by m hbar does, and the common phase stays
    # the left operand: numpy's complex product is not bitwise commutative.
    theta = np.outer(offsets, grid.p[keep])
    theta *= 1.0 / (m * hbar)
    states = np.empty(theta.shape, complex)
    np.cos(theta, out=states.real)
    np.sin(theta, out=states.imag)
    norm = 1.0 / np.sqrt(TWO_PI * hbar * m)
    common = norm * _family_phase(CoherentParams(eps, 0.0, t), grid)[keep]
    np.multiply(common, states, out=states)

    bras = states.conj()
    gram = (bras @ states.T) * grid.dp
    diag = np.real(np.diag(gram)).copy()
    off = np.abs(gram - np.diag(np.diag(gram)))
    diag_flatness = float(np.max(np.abs(diag * delta_xi - 1.0)))
    max_off = float(np.max(off))
    with np.errstate(over="ignore"):
        # an off-diagonal of exactly 0 (always at n_states = 1) is
        # suppressed without bound
        suppression = float(np.min(diag) / max(max_off, np.finfo(float).tiny))

    probe_m = to_rep(gaussian_packet(probe, grid),
                     Rep.MOMENTUM).amplitudes[keep]
    coeffs = (bras @ probe_m) * grid.dp
    u = (np.arange(n_states) + 0.5) / n_states
    ramp = np.minimum(u, 1.0 - u) / max(sum_taper_frac, 1.0e-12)
    sum_taper = _smoothstep(np.clip(ramp, 0.0, 1.0))
    recon = ((coeffs * sum_taper) @ states) * delta_xi
    recon_err = float(np.linalg.norm(recon - probe_m) / np.linalg.norm(probe_m))

    return ({"diag_flatness": diag_flatness,
             "offdiag_suppression": suppression,
             "reconstruction_err": recon_err,
             "delta_xi": float(delta_xi), "window_points": m_pts},
            {"eps": eps, "t": t, "n_states": n_states,
             "window_fraction": window_fraction,
             "sum_taper_frac": sum_taper_frac, **_geometry(grid),
             "probe": asdict(probe)})


@_experiment({"drift": "tol"})
def k_expectation_series(
    field: WaveField,
    taus,
    w: Window = _WINDOW,
    *,
    tol: float = 1.0e-10,
) -> ExperimentReport:
    """<K(t)> along free evolution; the invariant must not drift.

    K(t) = t p - m x commutes with the free motion when its explicit
    time argument tracks the field's clock, so the windowed expectation
    is conserved to roundoff.
    """
    taus = [float(t) for t in taus]
    if len(taus) < 2:
        raise AirylabError("need at least two sample times for a drift")
    values = []
    for tau in taus:
        evolved = free_evolve(field, tau)
        kf = apply_generator(GeneratorKind.k(evolved.time), evolved)
        # the square can underflow where the norm does not
        norm2 = _weight(evolved, w) ** 2
        if norm2 == 0.0:
            raise GeometryError("no weight inside the window")
        values.append(float(np.real(inner_product(evolved, kf, w)) / norm2))
    drift = float(np.max(np.abs(np.asarray(values) - values[0])))
    return ({"k_values": _floats(values), "k_initial": values[0],
             "drift": drift},
            {"taus": _floats(taus), "field_time": field.time,
             **_geometry(field.grid, w)})


@_experiment({"residual": "tol"})
def boost_covariance_residual(
    field: WaveField,
    v: float,
    tau: float,
    w: Window = _WINDOW,
    *,
    tol: float = 1.0e-8,
) -> ExperimentReport:
    """Boost-then-evolve versus evolve-then-boost on an arbitrary field.

    The boost generator taken at the matching instant commutes through
    free evolution: K(t0 + tau) after evolving equals evolving after
    K(t0).  The windowed residual between the two orderings is the
    covariance defect.
    """
    v, tau = float(v), float(tau)
    a = boost(free_evolve(field, tau), BoostParams(v, field.time + tau))
    b = free_evolve(boost(field, BoostParams(v, field.time)), tau)
    diff = a.with_amplitudes(a.amplitudes - b.amplitudes)
    resid = windowed_norm(diff, w) / _weight(a, w)
    time_skew = abs(a.time - b.time)
    if time_skew != 0.0:
        # both orderings reach field.time + tau by the same float addition
        raise AirylabError(
            f"boost and evolution orderings end {time_skew:g} apart in time")
    return ({"residual": float(resid), "time_skew": float(time_skew)},
            {"v": v, "tau": tau, "field_time": field.time,
             **_geometry(field.grid, w)})


@_experiment({"coeff_rel_err": "tol_coeff",
              "distortion_max": "tol_distortion"})
def berry_balazs_trajectory(
    B: float,
    t_list,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
    *,
    tol_coeff: float = 0.01,
    tol_distortion: float = 1.0e-8,
) -> ExperimentReport:
    """Accelerating Airy beam: peak law x*(t) = x0 + (B^3/4m^2) t^2.

    Tracks the density peak of the Berry & Balazs (1979) profile under
    free evolution and fits the quadratic coefficient.  The matching
    coherent-family member (eps = -2 m^2/B^3, xi = 0) supplies the
    rigid-displacement control: its windowed distortion against the
    shifted initial density stays at the apodization floor, and its own
    peak trajectory must agree with the raw profile's.
    """
    B = float(B)
    hbar, m = grid.phys.hbar, grid.phys.m
    t_list = sorted(float(t) for t in t_list)
    if len(t_list) < 3:
        raise AirylabError("need at least three sample times for the fit")
    raw = berry_balazs_initial(B, grid)
    peaks = [_parabolic_peak(to_rep(free_evolve(raw, t), Rep.POSITION))
             for t in t_list]
    ts = np.asarray(t_list)
    design = np.stack([np.ones_like(ts), ts ** 2], axis=1)
    theta, *_ = np.linalg.lstsq(design, np.asarray(peaks), rcond=None)
    coeff = float(theta[1])
    coeff_expected = B ** 3 / (4.0 * m * m)
    coeff_rel_err = abs(coeff / coeff_expected - 1.0)

    c = CoherentParams(eps=-2.0 * m * m / B ** 3, xi=0.0, t=0.0)
    mom0, band_echo = _member(c, [0.0, ts.max()], grid, band)
    # each member is evolved once for both its distortion and its peak
    pos0 = to_rep(mom0, Rep.POSITION)
    ww = window_weights(grid, w, Rep.POSITION)
    distortions = []
    fam_peaks = []
    for t in t_list:
        evolved = to_rep(free_evolve(mom0, t), Rep.POSITION)
        distortions.append(
            _shift_distortion(pos0, evolved, -t * t / (2.0 * c.eps), ww))
        fam_peaks.append(_parabolic_peak(evolved))
    theta_f, *_ = np.linalg.lstsq(design, np.asarray(fam_peaks), rcond=None)
    family_coeff_rel_diff = abs(float(theta_f[1]) / coeff_expected - 1.0)
    distortion_max = float(np.max(distortions))

    x0_expected = _AIRY_FIRST_PEAK * hbar ** (2.0 / 3.0) / B
    return ({"peaks": _floats(peaks), "times": _floats(ts),
             "coeff": coeff, "coeff_expected": float(coeff_expected),
             "coeff_rel_err": float(coeff_rel_err),
             "intercept": float(theta[0]),
             "intercept_expected": float(x0_expected),
             "distortions": _floats(distortions),
             "distortion_max": distortion_max,
             "family_coeff_rel_diff": float(family_coeff_rel_diff)},
            {"B": B, "t_list": _floats(ts), **_geometry(grid, w),
             "band": band_echo, "family_eps": c.eps})


@_experiment({"sup_rel": "tol"})
def representation_crosscheck(
    c: CoherentParams,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
    *,
    tol: float = 1.0e-6,
) -> ExperimentReport:
    """Closed-form position build versus the transformed momentum build.

    The windowed sup-norm difference, scaled by the windowed sup of the
    closed form, bounds the apodization plus transform error where the
    two constructions must agree.
    """
    closed = perelomov_state(c, Rep.POSITION, grid)
    mom, band_echo = _member(c, [c.t], grid, band)
    via_fft = to_rep(mom, Rep.POSITION)
    ww = window_weights(grid, w, Rep.POSITION)
    diff = ww * np.abs(closed.amplitudes - via_fft.amplitudes)
    scale = float(np.max(ww * np.abs(closed.amplitudes)))
    if scale == 0.0:
        raise GeometryError("closed form has no weight inside the window")
    sup_rel = float(np.max(diff) / scale)
    dd = closed.with_amplitudes(closed.amplitudes - via_fft.amplitudes)
    l2_rel = windowed_norm(dd, w) / _weight(
        closed, w, "closed form has no weight inside the window")
    return ({"sup_rel": sup_rel, "l2_rel": float(l2_rel)},
            {"params": asdict(c), **_geometry(grid, w), "band": band_echo})


@_experiment({"monotone_decreasing": True})
def eps_to_zero_limit(
    eps_seq,
    xi: float,
    t: float,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
) -> ExperimentReport:
    """Family members approach the boost eigenstate as eps decreases.

    Measures the windowed relative L2 error of banded builds against the
    eps = 0 closed form (chirp times Fresnel constant) for a decreasing
    eps sequence; the trend, not a rate, is the assertion.
    """
    if t == 0.0:
        raise GeometryError("the eps -> 0 closed form needs t != 0")
    eps_seq = [float(e) for e in eps_seq]
    if len(eps_seq) < 2:
        raise AirylabError("need at least two eps values for a trend")
    if not all(a > b > 0.0 for a, b in zip(eps_seq, eps_seq[1:])):
        raise AirylabError("eps_seq must be positive and strictly decreasing")
    ref = perelomov_state(CoherentParams(0.0, xi, t), Rep.POSITION, grid)
    ref_norm = _weight(ref, w)
    errors = []
    for e in eps_seq:
        psi = to_rep(perelomov_state(CoherentParams(e, xi, t), Rep.MOMENTUM,
                                     grid, band=band), Rep.POSITION)
        diff = psi.with_amplitudes(psi.amplitudes - ref.amplitudes)
        errors.append(windowed_norm(diff, w) / ref_norm)
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    return ({"errors": _floats(errors), "eps_seq": _floats(eps_seq),
             "monotone_decreasing": bool(monotone)},
            {"xi": xi, "t": t, **_geometry(grid, w)})


@_experiment({"monotone_increasing": True})
def eps_to_infinity_fidelity(
    eps_seq,
    tau: float,
    grid: Grid,
    w: Window = _WINDOW,
    band: BandTaper | str | None = "auto",
) -> ExperimentReport:
    """Members freeze under evolution as eps grows.

    Windowed fidelity between a member at t = 0 and its tau-evolved self
    for an increasing eps sequence; the decoherence phase shrinks as
    m tau/eps, so the fidelity must increase monotonically toward 1.
    """
    tau = float(tau)
    eps_seq = [float(e) for e in eps_seq]
    if len(eps_seq) < 2:
        raise AirylabError("need at least two eps values for a trend")
    if not all(0.0 < a < b for a, b in zip(eps_seq, eps_seq[1:])):
        raise AirylabError("eps_seq must be positive and strictly increasing")
    fidelities = []
    for e in eps_seq:
        mom0, _ = _member(CoherentParams(e, 0.0, 0.0), [0.0, tau], grid, band)
        psi0 = to_rep(mom0, Rep.POSITION)
        psi_tau = to_rep(free_evolve(mom0, tau), Rep.POSITION)
        ip = inner_product(psi0, psi_tau, w)
        fidelities.append(abs(ip) / (_weight(psi0, w) * _weight(psi_tau, w)))
    monotone = all(a < b for a, b in zip(fidelities, fidelities[1:]))
    return ({"fidelities": _floats(fidelities), "eps_seq": _floats(eps_seq),
             "monotone_increasing": bool(monotone)},
            {"tau": tau, **_geometry(grid, w)})


@_experiment({"max_rel_err": "tol"})
def commutator_table(
    grid: Grid,
    w: Window = _WINDOW,
    probe: GaussianParams = GaussianParams(0.0, 0.7, 1.5),
    *,
    tol: float = 1.0e-7,
) -> ExperimentReport:
    """Grid commutators among x, p, H, and p^3/6 against the algebra.

    Each bracket acts on a smooth Gaussian probe and is compared with
    its closed form ([x,p] = i hbar, [x,H] = i hbar p/m,
    [x,p^3/6] = i hbar p^2/2, and the three vanishing brackets) in the
    windowed relative norm.  Each operator chain is applied to each
    field once and reused wherever the brackets and their scales meet it
    again, so every value comes from the same floating-point operations
    as a fresh application would.
    """
    psi = gaussian_packet(probe, grid)
    hbar, m = grid.phys.hbar, grid.phys.m

    def once(apply):
        # keyed by id; holding the field keeps its id from being reused
        done = {}

        def applied(f):
            if id(f) not in done:
                done[id(f)] = (f, apply(f))
            return done[id(f)][1]
        return applied

    X, P, H = (once(functools.partial(apply_generator, kind))
               for kind in (GeneratorKind.x(), GeneratorKind.p(),
                            GeneratorKind.h()))

    @once
    def C3(f):
        g = P(P(P(f)))
        return g.with_amplitudes(g.amplitudes / 6.0)

    def bracket(A, Bop):
        lhs = A(Bop(psi))
        rhs = Bop(A(psi))
        return lhs.with_amplitudes(lhs.amplitudes - rhs.amplitudes)

    cases = {
        "x_p": (bracket(X, P), psi.with_amplitudes(1j * hbar * psi.amplitudes)),
        "x_h": (bracket(X, H),
                psi.with_amplitudes(1j * hbar / m * P(psi).amplitudes)),
        "x_p3over6": (bracket(X, C3),
                      psi.with_amplitudes(
                          0.5j * hbar * P(P(psi)).amplitudes)),
        "p_h": (bracket(P, H), None),
        "p_p3over6": (bracket(P, C3), None),
        "h_p3over6": (bracket(H, C3), None),
    }
    scales = {
        "p_h": _weight(P(H(psi)), w),
        "p_p3over6": _weight(P(C3(psi)), w),
        "h_p3over6": _weight(H(C3(psi)), w),
    }
    metrics = {}
    for name, (got, expected) in cases.items():
        if expected is None:
            err = windowed_norm(got, w) / scales[name]
        else:
            diff = got.with_amplitudes(got.amplitudes - expected.amplitudes)
            err = windowed_norm(diff, w) / _weight(expected, w)
        metrics[name] = float(err)
    max_rel = max(metrics.values())
    metrics["max_rel_err"] = float(max_rel)
    return (metrics,
            {**_geometry(grid, w),
             "probe": asdict(probe)})
