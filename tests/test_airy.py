"""Airy evaluator against frozen high-precision references.

The reference values were computed with mpmath at 40 decimal digits and
frozen here, so this suite never trusts the code under test for its own
expectations.  scipy.special.airy serves as a second, independent
cross-oracle over a dense sample.
"""

import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
import scipy.special

from airylab import AirylabError, ai_values, airy, airy_ai

# (z, Ai(z)) pairs, mpmath mp.airyai at mp.dps = 40
AI_ORACLE = [
    (-199.5, 0.09256111899142596927388),
    (-150.5, 0.02482255551365513124093),
    (-50.25, -0.1022800726250564528749),
    (-20.0, -0.1764061270779846895902),
    (-8.5, -0.3302902376302088790217),
    (-8.0, -0.05270505035638620262208),
    (-7.9, 0.04170188361738670938698),
    (-5.5, 0.01778154127657497560302),
    (-2.338107410459767, 2.743319340666282999607e-17),
    (-1.0, 0.5355608832923521187995),
    (-0.5, 0.4757280916105395887986),
    (0.0, 0.3550280538878172392601),
    (0.5, 0.2316936064808334897691),
    (1.0, 0.1352924163128814155241),
    (2.5, 0.01572592338047048999527),
    (5.0, 0.0001083444281360744173499),
    (5.999, 9.972489426853128127738e-6),
    (6.0, 9.947694360252889570239e-6),
    (6.001, 9.922958979844528123226e-6),
    (7.5, 1.917256067513430751645e-7),
    (10.0, 1.104753255289868593355e-10),
    (25.0, 8.116026824691386683758e-38),
    (87.3, 6.319658311217842771464e-238),
    # Ai(150) ~ 1.015e-533 lies far below the double floor; the evaluator
    # must underflow gracefully to exactly 0 with a tiny estimate
    (150.0, 0.0),
]

# Seeded sweep over the whole domain, (z, Ai(z)) with Ai from mpmath
# mp.airyai at mp.dps = 40 at the exact double z, kept as 40-digit strings.
# Draws from default_rng(20261018): 24 points log-uniform on [-1e4, -8],
# 10 uniform on [-8, 6], 12 uniform on [6, 100]; fixed points: both ends
# of the domain, both sides of each seam, the worst case just above the
# positive seam (6.0001), and the underflow edge (Ai(107.5) < half the
# smallest subnormal).
AI_SWEEP = [
    (-10000.0, "2.705738360464257920896969739521499838281e-2"),
    (-8029.240248229381, "3.045126147845474242334859170751139137209e-2"),
    (-4090.0881983149056, "6.988331992792344802984078659341127505127e-2"),
    (-3915.0518172976745, "-5.705094546353538300016278528108262504831e-2"),
    (-3659.440629517102, "4.637283820751740183906084759996291718895e-2"),
    (-2735.501755130901, "-3.113355081024011846667993818748214550443e-2"),
    (-2087.7486009121167, "-6.90864673781057390564991375642813251012e-2"),
    (-1938.9551617550874, "6.21496048844232032053321474901063620471e-2"),
    (-1846.9041449711503, "-8.590753299878628237723062630374696600467e-2"),
    (-1501.3910341458954, "-9.06049882009557506495315005255146474641e-2"),
    (-1416.2383875965006, "6.91764867055407543759721071621460229458e-2"),
    (-925.990519462099, "-5.948157148782551739155931171202644941864e-2"),
    (-125.55036805554552, "1.080408544394808745476636903439048698243e-1"),
    (-46.251520850791266, "4.242025000070901161427529759685969570405e-4"),
    (-27.68585027261714, "-1.205797766143713178079111645212783118122e-1"),
    (-24.286452962097346, "-2.271497055442176693702058550297556408485e-1"),
    (-22.162354885183685, "2.44638275176611877279476905115191924474e-1"),
    (-21.049682454219862, "1.899113967672403016254667879950096625354e-1"),
    (-18.699489369506782, "-2.603069947475023549080664215732093899196e-1"),
    (-18.53488982634074, "-1.478338468872947962133097857192582520347e-1"),
    (-13.087130556492712, "2.377868263605318379801600195026158042245e-1"),
    (-10.198970264831447, "-1.527928856760192128717799558189841921509e-1"),
    (-9.706049139665692, "2.772463192162256763459162726163213234125e-1"),
    (-9.131825179274339, "1.048492831397106975245313951385162099438e-1"),
    (-8.13377141175203, "-1.711187554826841469690163350070649982752e-1"),
    (-8.000000000000002, "-5.270505035638786451215392007010377052664e-2"),
    (-8.0, "-5.270505035638620262208267579388862081638e-2"),
    (-7.689538207223753, "2.213297106475233885654203417716327949896e-1"),
    (-7.257041915121586, "3.257964213346444666178587416255298517273e-1"),
    (-4.521558448356135, "3.031257773245532756899576121122745388719e-1"),
    (-2.260104199888392, "5.456926008876971050068974049787857605106e-2"),
    (-1.1830795993127756, "5.27915326617679566384933210049866894828e-1"),
    (-1.1443937007089646, "5.311815642509151627880327722651346600738e-1"),
    (-0.2894544155658014, "4.283593163693379318271286179369253976993e-1"),
    (1.8918629768523196, "4.108875560733050204148907520768188157447e-2"),
    (3.7710901555932654, "1.514781092780007222713621039440699695647e-3"),
    (3.8927367400672495, "1.185030363377887072979972461328394605086e-3"),
    (6.0, "9.947694360252889570238847668828779047343e-6"),
    (6.000000000000001, "9.947694360252867574322295473432237889481e-6"),
    (6.0001, "9.945218138620916687073840327641153765171e-6"),
    (7.0, "7.492128863997167080771040272103909935141e-7"),
    (8.0, "4.692207616099231625649081703488224455253e-8"),
    (10.165610248804782, "6.503298425477846137780439790226713789276e-11"),
    (11.6337057888365, "4.944988978983497287710107074187612606757e-13"),
    (16.248430366901715, "1.527118270318356737110741563980490394328e-20"),
    (39.23420759407361, "7.92975565691077533650249394987181262949e-73"),
    (53.98024870414709, "1.548332045619942335457491777678613206428e-116"),
    (62.82113556816394, "6.893981235283007640524521185733976680662e-146"),
    (63.723700163343665, "5.235702801985720442345142039081428883839e-149"),
    (65.96931197756545, "7.275029072679329856673482585882142614444e-157"),
    (67.7815856288878, "2.645869104391828884513362354964659139993e-163"),
    (77.62757058376391, "8.998759788912216086946739359406141582618e-200"),
    (87.21252072497734, "1.431157652543783945326532261996036329822e-237"),
    (92.5640596661014, "1.30305758621123526605004293274209486037e-259"),
    (104.9, "7.524547410896200043216342234403224664086e-313"),
    (105.5, "1.596629470513505700996794891607578941879e-315"),
    (106.5, "5.380829454923779869387934537607878490247e-320"),
    (107.5, "1.727675284522081795479929646544108250872e-324"),
    (10000.0, "6.248745756958942219035094055329848242687e-289532"),
]

FIRST_ZERO = -2.338107410459767038489197


class TestReferenceTable:
    @pytest.mark.parametrize("z,expected", AI_ORACLE,
                             ids=[f"z={z}" for z, _ in AI_ORACLE])
    def test_value(self, z, expected):
        res = airy_ai(z)
        # near zeros and in the positive-axis cancellation region the
        # achievable error is absolute, set by the O(1) series envelope
        assert abs(res.value - expected) <= 1e-13 * max(abs(expected), 0.5)

    @pytest.mark.parametrize("z,expected", AI_ORACLE,
                             ids=[f"z={z}" for z, _ in AI_ORACLE])
    def test_error_estimate_honest_and_tight(self, z, expected):
        res = airy_ai(z)
        assert abs(res.value - expected) <= res.est_error + 1e-320
        assert res.est_error <= max(1e-8 * abs(expected), 1e-11)

    def test_asymptotic_rows_keep_relative_precision(self):
        # away from zeros and the series seam there is no cancellation,
        # so the deep-decay rows must hold to relative accuracy
        for z, expected in AI_ORACLE:
            if abs(z) >= 7.5 and expected != 0.0:
                res = airy_ai(z)
                assert abs(res.value - expected) <= 1e-12 * abs(expected)

    def test_gamma_identity_at_origin(self):
        exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert abs(airy_ai(0.0).value - exact) <= 1e-14

    def test_first_zero(self):
        assert abs(airy_ai(FIRST_ZERO).value) < 1e-16


class TestSweep:
    @staticmethod
    def _abs_error(value: float, expected: str) -> Decimal:
        # exact decimal arithmetic: neither the double rounding of the
        # reference nor float subtraction may hide a bound violation
        with localcontext() as ctx:
            ctx.prec = 60
            return abs(Decimal(value) - Decimal(expected))

    @pytest.mark.parametrize("z,expected", AI_SWEEP,
                             ids=[f"z={z!r}" for z, _ in AI_SWEEP])
    def test_error_estimate_honest_and_tight(self, z, expected):
        res = airy_ai(z)
        assert self._abs_error(res.value, expected) <= Decimal(res.est_error)
        assert res.est_error <= max(1e-8 * abs(float(expected)), 1e-11)

    def test_positive_tail_relative_precision(self):
        # from z = 8 on the asymptotic sum converges far below double
        # precision; only subnormal results lose relative digits
        for z, expected in AI_SWEEP:
            ref = float(expected)
            if z >= 8.0 and ref >= np.finfo(float).tiny:
                err = self._abs_error(airy_ai(z).value, expected)
                assert err <= Decimal(3e-15) * Decimal(expected)


class TestAsymptoticBranch:
    def test_underflow_cut_is_exact(self):
        # _ai returns (0.0, tiny) past the cut without evaluating; that is
        # bit for bit what the asymptotic branch itself gives there
        cut = airy._UNDERFLOW
        z = np.concatenate([[cut, np.nextafter(cut, np.inf)],
                            np.linspace(cut, 1.0e4, 20001),
                            np.geomspace(cut, 1.0e4, 20001)])
        value, err = airy._asymptotic(z)
        assert np.all(value == 0.0) and not np.any(np.signbit(value))
        assert np.all(err == np.finfo(float).tiny)
        got_value, got_err = airy._ai(z)
        assert np.array_equal(got_value, value) and np.array_equal(got_err, err)
        assert np.array_equal(ai_values(z), value)
        for zi in z[::1000]:
            assert airy_ai(zi) == airy.AiryResult(0.0, np.finfo(float).tiny)

    def test_underflow_edge_takes_full_path(self):
        # the sweep's subnormal rows sit below the cut and are evaluated
        edge = [z for z, _ in AI_SWEEP if 104.0 < z < 108.0]
        assert edge == [104.9, 105.5, 106.5, 107.5]
        for z in edge:
            assert z <= airy._UNDERFLOW
            value, err = airy._asymptotic(np.array([z]))
            assert airy_ai(z) == airy.AiryResult(value[0], err[0])
        assert airy_ai(104.9).value > 0.0

    def test_error_estimate_honest_against_mpmath(self):
        # seeded points on both asymptotic sides, referenced live at 40
        # digits; the rounding of zeta and |z|^(1/4) must stay in the bound
        rng = np.random.default_rng(20261020)
        z = np.concatenate([-np.exp(rng.uniform(np.log(8.0), np.log(1.0e4), 64)),
                            rng.uniform(6.0, 108.0, 32)])
        value, err = airy._ai(z)
        with mpmath.workdps(40):
            for zi, vi, ei in zip(z, value, err):
                ref = mpmath.airyai(mpmath.mpf(float(zi)))
                assert abs(mpmath.mpf(float(vi)) - ref) <= ei, zi


class TestVectorized:
    def test_matches_scalar(self):
        # dense across both seams, so every regime and both asymptotic signs
        # run in one array call next to elements that stop at other terms
        z = np.concatenate([[-30.0, -2.5, 0.0, 1.25, 40.0, -1.0e4, 120.0],
                            np.linspace(-12.0, 10.0, 2201),
                            [z for z, _ in AI_SWEEP]])
        vals = ai_values(z)
        for zi, vi in zip(z, vals):
            assert vi == airy_ai(float(zi)).value

    def test_scipy_cross_oracle(self):
        rng = np.random.default_rng(20260822)
        z = rng.uniform(-30.0, 5.0, size=400)
        ours = ai_values(z)
        ref = scipy.special.airy(z)[0]
        scale = np.maximum(np.abs(ref), 1e-280)
        assert np.max(np.abs(ours - ref) / scale) < 1e-12

    def test_positive_axis_monotone_decay(self):
        z = np.linspace(0.0, 80.0, 1601)
        vals = ai_values(z)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_preserves_shape(self):
        z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert ai_values(z).shape == (3, 4)


class TestDomain:
    def test_domain_boundary(self):
        airy_ai(1.0e4)
        airy_ai(-1.0e4)
        with pytest.raises(AirylabError):
            airy_ai(1.1e4)
        with pytest.raises(AirylabError):
            airy_ai(float("nan"))
        with pytest.raises(AirylabError):
            ai_values(np.array([0.0, -2.0e4]))
        with pytest.raises(AirylabError):
            ai_values(np.array([0.0, float("nan")]))


class TestDifferentialEquation:
    @staticmethod
    def _residual(z0: float, h: float) -> float:
        vm, v0, vp = (airy_ai(z0 - h).value, airy_ai(z0).value,
                      airy_ai(z0 + h).value)
        second = (vp - 2.0 * v0 + vm) / (h * h)
        return abs(second - z0 * v0)

    @pytest.mark.parametrize("z0", [-6.3, -1.0, 0.7, 3.1])
    def test_second_order_convergence(self, z0):
        h = 1.0e-2
        r1 = self._residual(z0, h)
        r2 = self._residual(z0, h / 2.0)
        assert r1 < 5e-3
        # central differences converge at O(h^2): halving h quarters r
        assert r2 == pytest.approx(r1 / 4.0, rel=0.15)
