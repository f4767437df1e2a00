import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multistable.stable import (c_alpha, cms_from_uniforms, cms_sample,
                                sas_abs_moment, sin2_integral,
                                sin2_phase_integral)

import oracles


ETA_GRID = np.linspace(0.05, 1.95, 20)


class TestCAlpha:
    def test_matches_oscillatory_oracle(self):
        for eta in ETA_GRID:
            ref = oracles.c_eta_reference(float(eta))
            assert abs(c_alpha(float(eta)) - ref) <= 1e-8 * ref

    def test_regular_through_one(self):
        # the closed form has no removable singularity at eta = 1
        assert abs(c_alpha(1.0) - 2.0 / math.pi) < 1e-15
        assert abs(c_alpha(1.0 + 1e-9) - c_alpha(1.0 - 1e-9)) < 1e-8

    def test_domain(self):
        for bad in (0.0, 2.0, -0.3, 2.4):
            with pytest.raises(ValueError):
                c_alpha(bad)


class TestSin2Integral:
    def test_value_at_one(self):
        assert abs(sin2_integral(1.0) - math.pi / 2.0) <= 1e-8

    def test_closed_form_identity_on_grid(self):
        # c_alpha(eta) * eta * integral = 2^(eta-1) ties the quadrature to
        # the gamma closed form over the whole admissible range
        for eta in ETA_GRID:
            lhs = c_alpha(float(eta)) * eta * sin2_integral(float(eta))
            assert abs(lhs / 2.0 ** (eta - 1.0) - 1.0) < 1e-12

    def test_loose_budget_degrades(self):
        v = sin2_integral(1.0, half_periods=8)
        assert abs(v - math.pi / 2.0) > 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            sin2_integral(0.0)
        with pytest.raises(ValueError):
            sin2_integral(2.0)


class TestAbsMoment:
    def test_cauchy_half_moment(self):
        assert abs(sas_abs_moment(1.0, 1.0, 0.5) - math.sqrt(2.0)) < 1e-12

    def test_first_moment_at_alpha_15(self):
        want = math.gamma(1.0 / 3.0) / (math.pi / 2.0)
        assert abs(sas_abs_moment(1.5, 1.0, 1.0) - want) < 1e-12

    def test_scale_homogeneity(self):
        base = sas_abs_moment(1.3, 1.0, 0.7)
        assert abs(sas_abs_moment(1.3, 2.5, 0.7)
                   - 2.5 ** 0.7 * base) < 1e-12 * base

    def test_closed_form_matches_quadrature(self):
        # sigma^eta Gamma(1-eta/alpha) C_eta against the same moment built
        # from the quadrature reference for the sin^2 integral
        for alpha, sigma, eta in ((1.0, 1.0, 0.5), (1.5, 2.0, 0.9),
                                  (1.8, 0.7, 1.7), (0.6, 1.3, 0.05)):
            via_quad = (sigma ** eta * 2.0 ** (eta - 1.0)
                        * math.gamma(1.0 - eta / alpha)
                        / (eta * sin2_integral(eta)))
            got = sas_abs_moment(alpha, sigma, eta)
            assert abs(got / via_quad - 1.0) < 1e-12

    def test_moment_order_at_least_alpha_rejected(self):
        with pytest.raises(ValueError):
            sas_abs_moment(1.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            sas_abs_moment(0.8, 1.0, 1.2)

    def test_against_direct_sampler(self):
        # two independent routes: gamma-function formula vs Monte Carlo
        # through the uniform/exponential transform
        rng = np.random.default_rng(2024)
        for alpha, eta in ((1.0, 0.5), (1.5, 0.9), (1.8, 1.2)):
            x = np.abs(cms_sample(alpha, 1.0, rng, 200000)) ** eta
            se = np.std(x) / math.sqrt(x.shape[0])
            want = sas_abs_moment(alpha, 1.0, eta)
            assert abs(np.mean(x) - want) < 4.0 * se


class TestCms:
    def test_mirror_antisymmetry_is_exact(self):
        rng = np.random.default_rng(5)
        u = rng.random(1000)
        w = rng.standard_exponential(1000)
        for alpha in (0.8, 1.0, 1.7):
            a = cms_from_uniforms(alpha, 1.0, u, w)
            b = cms_from_uniforms(alpha, 1.0, 1.0 - u, w)
            assert np.array_equal(a, -b)

    def test_cauchy_case_is_exact_in_distribution(self):
        rng = np.random.default_rng(77)
        x = cms_sample(1.0, 1.0, rng, 20000)
        d = oracles.ks_distance_to_cdf(x, oracles.cauchy_cdf)
        assert d < 1.6276 / math.sqrt(x.shape[0])

    def test_scale_parameter(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a = cms_sample(1.4, 1.0, rng1, 100)
        b = cms_sample(1.4, 3.0, rng2, 100)
        assert np.allclose(3.0 * a, b, rtol=1e-14)

    def test_scalar_draw(self):
        v = cms_sample(1.5, 1.0, np.random.default_rng(1))
        assert isinstance(v, float)


class TestPhaseIntegral:
    CASES = [(0.3, 0.55, 0.7, 0.8), (1.2, 0.6, 0.4, 0.9),
             (2.0, 0.52, 0.1, 1.2), (0.9, 0.7, 0.0, 0.6)]

    @pytest.mark.parametrize("q1,s1,q2,s2", CASES)
    def test_against_segment_sum_oracle(self, q1, s1, q2, s2):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = oracles.phase_integral_reference(q1, s1, q2, s2)
        got = sin2_phase_integral(q1, s1, q2, s2)
        assert abs(got - ref) < 1e-7 * max(1.0, ref)

    # s1 != s2: the phase dips to -0.006, to -5.9 and to -124 before it
    # rises; then points where two nearly equal terms cancel, each of which
    # a binomial series head with adaptive pieces got wrong (its value or
    # relative error in brackets): ROADMAP's cancellation point (2.70e7),
    # the increment CF at eps 2^-10, t 0.3 on the levy-moments model at v
    # 0.5 and v 4 (-4.5e-4, -2.2e-3), then +3.7e6, a negative value
    # (-26,677) and, at alpha near 0.42, another (-38.6)
    @pytest.mark.parametrize("q1,s1,q2,s2", [
        (0.3, 0.55, 0.7, 0.8), (2.0, 0.52, 0.1, 1.2), (3.0, 0.6, 1.0, 0.7),
        (6885.2, 0.56012, 6892.5, 0.56030),
        (4.862819321536006, 0.5601246306779336,
         4.867961680698906, 0.5603048375397174),
        (38.90255457228805, 0.5601246306779336,
         38.94369344559125, 0.5603048375397174),
        (30.20465699441183, 0.6211185190593237,
         30.198349687986557, 0.6211324404433292),
        (4492.443681663064, 0.5331102849592732,
         4481.405454109577, 0.5327781946005101),
        (217.6444536042072, 2.396723873958536,
         217.67337330414261, 2.3983479022815266),
        # the oracle's root brackets span 70,000 and 55 decades here: a
        # minimum at z_c 8e-70001, and a dip of depth 8e316 at z_c 8e69
        (1e-3, 4.5, 1e4, 4.5001), (1e4, 4.5, 1e-3, 4.6)])
    def test_against_mpmath(self, q1, s1, q2, s2):
        pytest.importorskip("mpmath")
        ref = oracles.phase_integral_mpmath(q1, s1, q2, s2)
        got = sin2_phase_integral(q1, s1, q2, s2)
        assert abs(got / ref - 1.0) <= 1e-12

    def test_two_ended_euler_sum(self):
        # the phase dips through 13,296 quarter periods, so the descending
        # branch is two Euler sums plus its bottom 2^10 pieces; the value
        # is oracles.phase_integral_mpmath(3000, 0.6, 300, 1.1), pinned
        # because that call takes 140-180 s on a 2-vCPU VM
        got = sin2_phase_integral(3000.0, 0.6, 300.0, 1.1)
        assert abs(got / 3447085.892719533 - 1.0) <= 1e-12

    # oracles.phase_integral_mpmath(1e-3, 1/1.7, 2e-3, 1/1.72): a dip of
    # depth 3.3e20 at z_c 1.9e43, whose bottom holds 2e-49 of the value, so
    # the descending branch is one Euler sum from z_1
    DEEP_DIP = 4.3107404051805986764e-5

    def test_deep_dip(self):
        started = time.perf_counter()
        got = sin2_phase_integral(1e-3, 1 / 1.7, 2e-3, 1 / 1.72)
        assert time.perf_counter() - started < 1.0
        assert abs(got / self.DEEP_DIP - 1.0) <= 1e-12

    def test_oracle_reaches_deep_dip(self):
        pytest.importorskip("mpmath")
        ref = oracles.phase_integral_mpmath(1e-3, 1 / 1.7, 2e-3, 1 / 1.72)
        assert abs(ref / self.DEEP_DIP - 1.0) <= 1e-15

    @staticmethod
    def _dip(q1, s1, q2, s2):
        """(D, blur) for the phase q2 z^s2 - q1 z^s1: the depth D of its dip
        at z_c, and how far rounding each q by 4 ulp can move the integral
        there.  That rounding shifts the bottom's phase 2D by
        2D b/(b - a) 4 ulp, and moves its stationary-phase share
        sqrt(pi/(abD))/z_c of the integral by as much, up to all of it."""
        if s1 == s2:
            return 0.0, 0.0
        (a, A), (b, B) = sorted(((s1, q1), (s2, q2)))
        yc = math.log(A * a / (B * b)) / (b - a)
        log_d = math.log(A * (b - a) / b) + a * yc
        log_share = 0.5 * (math.log(math.pi / (a * b)) - log_d) - yc
        log_shift = math.log(2.0 * b / (b - a) * 8.9e-16) + log_d
        return (math.exp(min(log_d, 700.0)),
                math.exp(min(log_share + min(log_shift, 0.0), 700.0)))

    @settings(max_examples=60, deadline=None)
    @given(ds=st.floats(1e-4, 4.0), spread=st.floats(-5.0, math.log10(0.5)),
           z=st.floats(-3.0, 3.0), lq1=st.floats(-3.0, 4.0),
           lq2=st.floats(-3.0, 4.0),
           close=st.one_of(st.none(), st.floats(0.1, 3.0),
                           st.floats(-3.0, -0.1)),
           lam=st.floats(-1.0, 1.0))
    def test_nonnegative_and_scales(self, ds, spread, z, lq1, lq2, close,
                                    lam):
        # the scan's distribution: s1 above 1/2, s2 - s1 from 1e-5 to 0.5
        # times a normal score, q log-uniform on [1e-3, 1e4], and q2 either
        # free or q1 (1 + 1e-3 close).  The value is finite and >= 0, or
        # the dip is deeper than 1e15 and its bottom holds a share of the
        # value that cannot be dropped.
        s1, s2 = 0.5 + ds, 0.5 + ds + 10.0 ** spread * z
        assume(s2 > 0.5)
        q1 = 10.0 ** lq1
        q2 = 10.0 ** lq2 if close is None else q1 * (1.0 + 1e-3 * close)
        lam = 10.0 ** lam
        depth, blur = self._dip(q1, s1, q2, s2)
        try:
            got = sin2_phase_integral(q1, s1, q2, s2)
        except ArithmeticError:
            assert depth > 1e15
            return
        assert math.isfinite(got) and got >= 0.0
        # I(lam^s1 q1, s1, lam^s2 q2, s2) = lam I(q1, s1, q2, s2), up to
        # the rounding of q lam^s: amplified by (q1 + q2) / |q2 - q1|, at
        # most 2e4 here, and blurred at the bottom of a deep dip
        scaled = sin2_phase_integral(lam ** s1 * q1, s1, lam ** s2 * q2, s2)
        assert abs(scaled - lam * got) <= lam * (1e-10 * got + 2.0 * blur)

    def test_symmetric_in_argument_order(self):
        a = sin2_phase_integral(0.3, 0.55, 0.7, 0.8)
        b = sin2_phase_integral(0.7, 0.8, 0.3, 0.55)
        assert a == b

    def test_identical_terms_cancel(self):
        assert sin2_phase_integral(0.5, 0.66, 0.5, 0.66) == 0.0

    def test_single_term_matches_moment_identity(self):
        # with one term the phase integral must agree with the x-space
        # formula alpha q^alpha int u^(-alpha-1) sin^2 u du
        for q, s in ((0.9, 0.7), (0.4, 0.55), (1.7, 1.1)):
            alpha = 1.0 / s
            via_phase = sin2_phase_integral(0.0, 0.6, q, s)
            via_moment = alpha * q ** alpha * sin2_integral(alpha)
            assert abs(via_phase / via_moment - 1.0) < 1e-9


def test_half_periods_below_eight_rejected():
    for call in (lambda: sin2_phase_integral(0.3, 0.55, 0.7, 0.8, 7),
                 lambda: sin2_integral(1.0, half_periods=3)):
        with pytest.raises(ValueError):
            call()
    assert sin2_integral(1.0, half_periods=8) > 0.0
