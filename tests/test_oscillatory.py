"""Cubic-phase quadrature against frozen mpmath references and the
completed-cube closed form."""

import cmath
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special

import airylab
from airylab import AirylabError, QuadratureError, cubic_phase_integral
from airylab.oscillatory import _cubic

SQRT_2PI_FRESNEL = 1.772453850905516027298  # sqrt(2 pi) e^(i pi/4) / (1 + i)

# frozen with mpmath at 40 digits: I = Integral dp e^(i(c3 p^3 + c2 p^2 + c1 p) - eta p^2)
FROZEN = [
    # (c3, c2, c1, damping, expected)
    (1.0 / 3.0, 0.0, 0.0, 0.0, 2.230707051824495741427 + 0.0j),
    (1.0 / 3.0, 0.0, 1.0, 0.0, 0.850067322349920313255 + 0.0j),
    (1.0 / 3.0, 0.0, -2.0, 0.0, 1.428843011620327542564 + 0.0j),
    (0.4, -0.3, 1.2, 1.0e-3, 0.71623282185214509923 + 0.2113455746292822600776j),
    (0.4, -0.3, 1.2, 0.0, 0.7154879151739186288478 + 0.2115641850355507369116j),
    (0.0, 0.5, 0.0, 0.0, SQRT_2PI_FRESNEL * (1.0 + 1.0j)),
    # a damped contour through the real segment [-300, 300] returned the
    # real parts alone here: its imaginary-part pass sampled only where
    # e^(-eta p^2) is 0
    (0.01, 2.0, 1.0, 1.0, 1.014909108238945306222 + 0.4932039737488337173542j),
    (-0.02529974209401817, 1.4293498804154185, 0.8879128630357744,
     0.3465590175714599, 1.206713131529667231338 + 0.7239306013847370269935j),
]


class TestFrozenValues:
    @pytest.mark.parametrize("c3,c2,c1,damping,expected", FROZEN,
                             ids=[f"case{i}" for i in range(len(FROZEN))])
    def test_value(self, c3, c2, c1, damping, expected):
        got = cubic_phase_integral(c3, c2, c1, damping, tol=1e-7)
        assert abs(got - expected) < 1e-7

    def test_pure_cubic_is_real(self):
        got = cubic_phase_integral(1.0 / 3.0, 0.0, 0.7, 0.0, tol=1e-7)
        assert abs(got.imag) < 1e-8


class TestSymmetries:
    def test_parity(self):
        a = cubic_phase_integral(1.0 / 3.0, 0.2, 0.7, 0.0, tol=1e-7)
        b = cubic_phase_integral(-1.0 / 3.0, 0.2, -0.7, 0.0, tol=1e-7)
        assert abs(a - b) < 2e-7

    def test_conjugation(self):
        a = cubic_phase_integral(0.25, 0.1, -0.4, 0.0, tol=1e-7)
        b = cubic_phase_integral(-0.25, -0.1, 0.4, 0.0, tol=1e-7)
        assert abs(np.conj(a) - b) < 2e-7


def closed_form(c3, c2, c1):
    """Integral of exp(i(c3 p^3 + c2 p^2 + c1 p)) for c3 != 0, by completing
    the cube: 2 pi (3a)^(-1/3) e^(i(2b^3/27a^2 - bc/3a)) Ai((c - b^2/3a)/(3a)^(1/3))
    for a = c3 > 0, and I(-a,-b,-c) = conj I(a,b,c)."""
    if c3 < 0.0:
        return closed_form(-c3, -c2, -c1).conjugate()
    s = (3.0 * c3) ** (1.0 / 3.0)
    phase = 2.0 * c2 ** 3 / (27.0 * c3 * c3) - c2 * c1 / (3.0 * c3)
    ai = scipy.special.airy((c1 - c2 * c2 / (3.0 * c3)) / s)[0]
    return 2.0 * math.pi / s * complex(math.cos(phase), math.sin(phase)) * ai


def sweep_triples(n=64, seed=20261018):
    """|c3| log-uniform over [0.01, 3.2] with both signs, c2 in [-2, 2],
    c1 in [-5, 5]."""
    rng = np.random.default_rng(seed)
    mags = np.exp(rng.uniform(np.log(0.01), np.log(3.2), n))
    signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return list(zip(signs * mags, rng.uniform(-2.0, 2.0, n),
                    rng.uniform(-5.0, 5.0, n)))


# (c3, c2, c1, eta, I) with I from mpmath at 40 digits (the completed cube,
# as in closed_form, with complex a = c2 + i eta).  The first twelve are
# triples where quad's estimate alone, without the rounding of b, phi0 and
# the integrand's phase, is below the actual error.  The damped rows follow
# them; the third and fourth put arg(-b) at pi/3 - 0.01 (V) and
# pi/3 + 0.01 (line).
HONEST = [
    (-0.003943995760438423, -1.8845347622958442, -4.286345069875642, 0.0,
     1.137047768930180823334 + 0.9478791748657689605724j),
    (-0.015552637501049977, 1.7897879872656333, 3.627350913309874, 0.0,
     0.04383300710865768482868 + 0.02480494228292361887696j),
    (-0.009840793899462618, -1.8683502107283538, -1.9998005206015335, 0.0,
     0.2275545105335619502484 + 0.4702219242518258153151j),
    (-0.010110430366332464, 1.0906759610196222, 0.6607466187004523, 0.0,
     1.03918145383479771552 - 0.598399157902027870882j),
    (0.00468380652289679, -1.8305697272000385, 2.978388312473421, 0.0,
     -0.0982000534704714509493 + 0.3139889843895521052512j),
    (-0.004332790050686868, -1.618508232596978, -0.006206083205585244, 0.0,
     0.5962438025501513507796 + 0.3526841466040805974166j),
    (-0.003407010035523756, -1.4259389740412343, -1.8850741738579488, 0.0,
     0.839135664239835553163 + 1.109073683410850562091j),
    (0.004283384263593839, -1.7597476838038961, -3.1539991759523445, 0.0,
     0.9547170219218702011123 + 2.104841990598090813046j),
    (-0.008019185694940402, -1.67747454960179, 3.370779086434018, 0.0,
     0.15240246466999410244 + 2.233495585725888736136j),
    (-0.004698754889964225, -1.94995663798655, 1.088751626897717, 0.0,
     2.27524643669065586539 - 0.9433147066026072390595j),
    (-0.007250742188495521, -1.67296151355843, 0.0626721252060598, 0.0,
     0.0896424069347877198217 - 2.018731140692992637426j),
    (0.00589579695529852, -1.8886893067038848, -4.641945765759402, 0.0,
     0.5605194864862912393498 + 0.5845999264339363465336j),
    (-0.5164635336661673, -1.407403337339248, 0.34525601441170206, 0.0,
     1.238060727648127884395 - 2.360782438368410955341j),
    (-0.05001621614745521, 1.8308007486055415, 4.382947414649893, 0.0,
     0.5603808168747481392368 - 0.2611155975291951379076j),
    (-0.7274772045828064, -0.4111863878789417, -0.08230140916012019, 0.0,
     1.715040410074430922228 + 0.009905341526876769564812j),
    (-0.008163919949376448, -0.4988782639920135, -1.4910683014772186, 0.0,
     1.436461974149433307512 - 1.495379941112047424984j),
    (0.16271400129660013, 1.7169146449206045, -0.6467623571233005, 0.0,
     1.970659668821563216774 + 1.752371017722064094672j),
    (0.01135653276551559, -0.8593997188262215, -2.5999610952020435, 0.0,
     2.283950529947579326806 + 0.6122539855053861079239j),
    (-0.15214590861314667, -1.9218660768423463, 0.45666468023978357, 0.0,
     0.6869544465703950038308 + 0.3706592202763751015875j),
    (-3.116685651171182, 0.4433794425140878, 1.7803708398560243, 0.0,
     1.571270089648826919072 + 0.1340226790718150192485j),
    (0.01, 2.0, 1.0, 1.0,
     1.014909108238945306222 + 0.4932039737488337173542j),
    (-0.02529974209401817, 1.4293498804154185, 0.8879128630357744,
     0.3465590175714599, 1.206713131529667231338 + 0.7239306013847370269935j),
    (0.5, 1.0, 0.10615901385099585, 0.5,
     1.757486681771180774615 + 0.5885584900033545245171j),
    (0.5, 1.0, 0.12393797691668418, 0.5,
     1.755571078245842193335 + 0.5754206040855007454303j),
    (-1.7, 0.8, -3.0, 0.05,
     0.1918359072424627768464 - 0.09142323098860138676614j),
    (2.5, -1.5, 4.0, 1e-4,
     0.09583885671232651932819 + 0.0910846434335761572738j),
    (0.03, -0.5, -4.0, 0.7,
     -0.0453959074483705918213 + 0.02639768130739004704122j),
    (0.4, -0.3, 1.2, 1e-3,
     0.7162328218521451384012 + 0.2113455746292822435895j),
    (1.2, 0.6, -4.0, 0.3,
     -0.4196687575611670675168 - 0.4795276110447818582247j),
    (-0.2, 1.0, 3.0, 0.02,
     0.1706370820188336936658 - 0.3829817408957735124697j),
]


@pytest.mark.parametrize("c3,c2,c1,eta,expected", HONEST,
                         ids=[f"triple{i}" for i in range(len(HONEST))])
def test_estimate_bounds_error(c3, c2, c1, eta, expected):
    value, est = _cubic(c3, complex(c2, eta), c1)
    assert abs(value - expected) <= est


class TestSweep:
    """Over the whole sweep each call meets tol against the closed form or
    raises, and no IntegrationWarning escapes.  Near 1e-12 the rounding of
    the constant phase 2 c2^3/27 c3^2 makes small-|c3| calls raise."""

    @pytest.mark.parametrize("tol", [1e-11, 1e-12])
    def test_meets_tol_or_raises(self, tol):
        triples = sweep_triples()
        assert min(abs(t[0]) for t in triples) < 0.02
        assert {np.sign(t[0]) for t in triples} == {-1.0, 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c3, c2, c1 in triples:
                ref = closed_form(c3, c2, c1)
                try:
                    got = cubic_phase_integral(c3, c2, c1, 0.0, tol=tol)
                except QuadratureError as exc:
                    assert exc.estimate > 0.0
                    continue
                assert abs(got - ref) <= tol * max(1.0, abs(ref)), (c3, c2, c1)

    def test_every_triple_converges_at_1e_7(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c3, c2, c1 in sweep_triples():
                got = cubic_phase_integral(c3, c2, c1, 0.0, tol=1e-7)
                ref = closed_form(c3, c2, c1)
                assert abs(got - ref) <= 1e-7 * max(1.0, abs(ref)), (c3, c2, c1)

    def test_both_contours_and_the_seam(self):
        # b = c1 - c2^2/3c3 on both sides of 0 and at 0: the saddle line,
        # the V through the real saddles, and the monkey saddle between
        for c3, c2, c1 in [(0.5, 0.0, 0.0), (0.5, 0.0, 1e-300),
                           (0.5, 0.0, -1e-300), (0.5, 0.0, 30.0),
                           (0.5, 0.0, -30.0), (-0.02, 1.0, 16.0)]:
            got = cubic_phase_integral(c3, c2, c1, 0.0, tol=1e-10)
            ref = closed_form(c3, c2, c1)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (c3, c2, c1)



def damped_closed_form(c3, c2, c1, eta):
    """closed_form with complex a = c2 + i eta: e^(i phi0) and Ai at the
    complex argument z can each overflow, so Ai enters through
    scipy.special.airye, Ai(z) e^(2/3 z^(3/2)), inside one exp."""
    if c3 < 0.0:
        return damped_closed_form(-c3, -c2, -c1, eta).conjugate()
    a = complex(c2, eta)
    s = (3.0 * c3) ** (1.0 / 3.0)
    z = (c1 - a * a / (3.0 * c3)) / s
    phase = 2.0 * a ** 3 / (27.0 * c3 * c3) - a * c1 / (3.0 * c3)
    aie = scipy.special.airye(z)[0]
    return 2.0 * math.pi / s * aie * cmath.exp(1j * phase - 2.0 / 3.0 * z ** 1.5)


class TestDampedSweep:
    """The damped integral runs on the same contours with a complex b.
    Each call meets tol against the Airy closed form at a complex argument,
    or raises; no warning escapes."""

    @staticmethod
    def quadruples(n=64, seed=20261020):
        """sweep_triples' ranges with eta log-uniform over [1e-4, 1], drawn
        from another seed so that eta and |c3| are independent."""
        etas = np.exp(np.random.default_rng(seed).uniform(np.log(1e-4), 0.0, n))
        return [t + (eta,) for t, eta in zip(sweep_triples(n, seed + 1), etas)]

    @pytest.mark.parametrize("tol,must_converge",
                             [(1e-7, True), (1e-10, True),
                              (1e-11, False), (1e-12, False)])
    def test_meets_tol_or_raises(self, tol, must_converge):
        quads = self.quadruples()
        # the hard corner: small |c3| with strong damping, where e^(i phi0)
        # and the saddle values overflow on their own
        assert any(abs(q[0]) < 0.05 and q[3] > 0.3 for q in quads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c3, c2, c1, eta in quads:
                ref = damped_closed_form(c3, c2, c1, eta)
                try:
                    got = cubic_phase_integral(c3, c2, c1, eta, tol=tol)
                except QuadratureError:
                    assert not must_converge, (c3, c2, c1, eta)
                    continue
                assert abs(got - ref) <= tol * max(1.0, abs(ref)), (c3, c2, c1, eta)

    def test_undamped_limit(self):
        # a tiny eta takes the complex-b branch of each contour (both arms
        # of the V, the cos and sin parts on the line), which must agree
        # with the real-b branch; |dI/d eta| is about 2e3 here at most
        for c3, c2, c1 in [(0.5, 0.3, 2.0), (0.5, 0.3, -2.0), (-0.02, 1.0, 3.0)]:
            undamped = cubic_phase_integral(c3, c2, c1, 0.0, tol=1e-10)
            damped = cubic_phase_integral(c3, c2, c1, 1e-13, tol=1e-10)
            assert abs(damped - undamped) < 1e-8 * max(1.0, abs(undamped))


def fresnel_closed_form(c2, c1, eta):
    """Integral of exp(i(c2 p^2 + c1 p) - eta p^2) for c2 != 0 or eta > 0:
    sqrt(pi/z) e^(-c1^2/4z) with z = eta - i c2 (principal root)."""
    z = complex(eta, -c2)
    return cmath.sqrt(math.pi / z) * cmath.exp(-c1 * c1 / (4.0 * z))


class TestQuadraticSweep:
    """c3 = 0 integrates on the line through the stationary point -c1/2a,
    a = c2 + i eta; far from p = 0 a line through the origin cancels."""

    @staticmethod
    def triples(n=32, seed=20261019):
        """|c2| log-uniform over [0.01, 3] with both signs, c1 in [-20, 20],
        eta = 0 for every other triple and log-uniform over [1e-4, 1] else."""
        rng = np.random.default_rng(seed)
        mags = np.exp(rng.uniform(np.log(0.01), np.log(3.0), n))
        signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        etas = np.exp(rng.uniform(np.log(1e-4), 0.0, n))
        etas[::2] = 0.0
        return list(zip(signs * mags, rng.uniform(-20.0, 20.0, n), etas))

    @pytest.mark.parametrize("tol", [1e-7, 1e-10])
    def test_meets_tol_against_closed_form(self, tol):
        triples = self.triples() + [(0.1, 5.0, 0.0), (0.05, 20.0, 0.0),
                                    (0.5, 1.0, 1e-3), (0.0, 3.0, 0.5),
                                    (0.0, -1.0, 1e-4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c2, c1, eta in triples:
                ref = fresnel_closed_form(c2, c1, eta)
                got = cubic_phase_integral(0.0, c2, c1, eta, tol=tol)
                assert abs(got - ref) <= tol * max(1.0, abs(ref)), (c2, c1, eta)


class TestFailureModes:
    def test_unreachable_tolerance_raises_with_estimate(self):
        with pytest.raises(QuadratureError, match="did not reach tol") as info:
            cubic_phase_integral(-1.0 / 12.0, 0.0, 0.0, 0.0, tol=1e-16)
        assert 0.0 < info.value.estimate < 1e-6
        assert "achieved error estimate" in str(info.value)

    @pytest.mark.parametrize("c3,c2,c1,eta", [
        (1e-300, 1.0, 1.0, 0.0), (1e-10, 1.0, 1.0, 0.5), (1.0, 1e200, 1.0, 0.5),
        (0.0, 9e-69, -2.5e144, 0.0)])
    def test_beyond_float_range_raises(self, c3, c2, c1, eta):
        # phi0, b, the saddle values or c1^2/4a overflow; the first three
        # gave a ZeroDivisionError, a silent 0j and nan + nanj from the
        # earlier contours
        with pytest.raises(QuadratureError, match="did not reach tol"):
            cubic_phase_integral(c3, c2, c1, eta, tol=1e-7)

    def test_bare_linear_phase_rejected(self):
        with pytest.raises(AirylabError, match="requires c3 != 0 or c2 != 0"):
            cubic_phase_integral(0.0, 0.0, 1.0, 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(AirylabError, match="finite"):
            cubic_phase_integral(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(AirylabError, match="damping"):
            cubic_phase_integral(1.0, 0.0, 0.0, -1.0e-3)


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(airylab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, airylab; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
