import math

import numpy as np
import pytest

from multistable.stable import (QuadratureConfig, c_alpha, cms_from_uniforms,
                                cms_sample, sas_abs_moment, sin2_integral,
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
        cfg = QuadratureConfig(abs_tol=1e-3, rel_tol=1e-2,
                               max_subdivisions=1, half_periods=8)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = sin2_integral(1.0, cfg)
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

    # s1 != s2: the phase dips to -0.006 (inside the series head), to -5.9
    # and to -124 before it rises
    @pytest.mark.parametrize("q1,s1,q2,s2", [(0.3, 0.55, 0.7, 0.8),
                                             (2.0, 0.52, 0.1, 1.2),
                                             (3.0, 0.6, 1.0, 0.7)])
    def test_against_mpmath(self, q1, s1, q2, s2):
        pytest.importorskip("mpmath")
        ref = oracles.phase_integral_mpmath(q1, s1, q2, s2)
        got = sin2_phase_integral(q1, s1, q2, s2)
        assert abs(got / ref - 1.0) <= 1e-12

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


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(half_periods=3)
