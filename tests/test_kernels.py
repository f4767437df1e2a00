import contextlib
import math
import warnings

import numpy as np
import pytest

from multistable import kernels
from multistable.expr import FuncSpec
from multistable.kernels import (_band_guide, _band_table,
                                 _bands_from_uniform, _far_bands,
                                 _graded_pair, _lmmm_sample, _power_diff,
                                 _psi1_tail, kink_power_integral,
                                 levy_kernel, lmmm_kernel, make_process,
                                 pair_integral, sigma_lmmm)

import oracles
from pins import pin

_PI2_6 = 6.0 / math.pi ** 2


def _fs(src):
    return FuncSpec.parse(src)


def _levy_spec(alpha="1.5", domain=(0.0, 1.0), c=0.5, d=1.9):
    return make_process("levy", _fs(alpha), _fs("1"), None, domain, c, d)


def _lfsm_kernel(alpha, H, b_plus, b_minus):
    return lmmm_kernel(_fs(repr(alpha)), _fs(repr(H)), (b_plus, b_minus))[0]


def _lmmm_spec(alpha="1.7", H="0.75", domain=(0.0, 1.0), c=1.2, d=1.9):
    return make_process("lmmm", _fs(alpha), _fs("1"), _fs(H), domain, c, d)


class TestBandSampling:
    def test_band_frequencies(self):
        rng = np.random.default_rng(42)
        x, w = _lmmm_sample(rng, 200000)
        j = np.floor(np.abs(x)) + 1.0
        n = j.shape[0]
        for band in range(1, 11):
            p = _PI2_6 / band ** 2
            got = np.mean(j == band)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(got - p) < 3.5 * se, f"band {band}"

    def test_weights_are_reciprocal_band_mass(self):
        rng = np.random.default_rng(7)
        x, w = _lmmm_sample(rng, 5000)
        j = np.floor(np.abs(x)) + 1.0
        assert np.allclose(w, math.pi ** 2 / 3.0 * j * j, rtol=0, atol=0)

    def test_position_fills_both_half_bands(self):
        rng = np.random.default_rng(3)
        x, _ = _lmmm_sample(rng, 50000)
        in_band_1 = np.abs(x) < 1.0
        neg = x[in_band_1] < 0.0
        assert 0.47 < np.mean(neg) < 0.53
        assert np.all(x != 0.0) or True  # x = 0 has probability zero
        assert np.min(np.abs(x)) >= 0.0

    def test_table_and_asymptotic_branch_agree_at_seam(self):
        table = _band_table()
        n = table.shape[0]
        # CDF(n) + remaining tail mass must reconstruct 1 to near machine
        tail = _PI2_6 * _psi1_tail(float(n + 1))
        assert abs(table[-1] + tail - 1.0) < 1e-12

    def test_inversion_is_minimal_and_consistent(self):
        # F(j-1) <= u < F(j) for the returned band index j wherever the
        # CDF increment is resolvable in double precision
        table = _band_table()

        def cdf(j):
            if j <= 0:
                return 0.0
            if j <= table.shape[0]:
                return table[j - 1]
            return 1.0 - _PI2_6 * _psi1_tail(float(j + 1))

        for u in (0.0, 0.2, 0.6075, 0.9, 1.0 - 1e-7):
            j = int(_bands_from_uniform(np.array([u]))[0])
            assert cdf(j - 1) <= u < cdf(j)

    def test_overflow_bands_match_exact_trigamma_inversion(self):
        # beyond the table, j from 65,537 to about 1e9 against a bisection
        # on the exact survival (6/pi^2) psi_1(j+1), psi_1 from mpmath
        mpmath = pytest.importorskip("mpmath")
        table = _band_table()
        u = np.concatenate([[np.nextafter(table[-1], 1.0)],
                            1.0 - _PI2_6 / np.geomspace(7e4, 1e9, 16)])
        assert np.all(u > table[-1])
        got = _bands_from_uniform(u)
        assert got[0] == table.shape[0] + 1 and got[-1] > 0.99e9
        with mpmath.workdps(30):
            for ui, j in zip(u, got):
                target = mpmath.mpf(1.0 - ui)  # the float the sampler uses
                lo, hi = table.shape[0], 2 ** 40
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if 6 / mpmath.pi ** 2 * mpmath.psi(1, mid + 1) <= target:
                        hi = mid
                    else:
                        lo = mid
                assert j == hi

    def test_deep_tail_band_is_huge_but_finite(self):
        # past the table the CDF increments underflow double spacing, so
        # minimality is checked against the analytic tail 1-F(j) ~ 6/(pi^2 j)
        u = 1.0 - 1e-12
        j = int(_bands_from_uniform(np.array([u]))[0])
        assert abs(j / (_PI2_6 / (1.0 - u)) - 1.0) < 1e-3
        assert float(j) < 2.0 ** 53


class TestGuideTableIsExact:
    """The guide-table lookup against the plain binary search of the whole
    table.  Bands past the table go on to the trigamma bisection (pinned
    against mpmath above); the plain search marks each of them N + 1."""

    def _assert_matches_plain_search(self, u):
        u = np.asarray(u, dtype=float)
        assert np.all((0.0 <= u) & (u < 1.0))
        got = _bands_from_uniform(u)
        assert got.dtype == np.float64
        table = _band_table()
        plain = np.searchsorted(table, u, side="right") + 1
        assert np.array_equal(np.minimum(got, table.shape[0] + 1), plain)

    def test_seeded_uniforms(self):
        self._assert_matches_plain_search(
            np.random.default_rng(20120101).random(10 ** 6))

    def test_every_table_entry_and_its_neighbours(self):
        table = _band_table()
        self._assert_matches_plain_search(np.concatenate(
            [np.nextafter(table, 0.0), table, np.nextafter(table, 1.0)]))

    def test_every_cell_edge_and_its_neighbours(self):
        edges = np.arange(1 << 12) / (1 << 12)
        self._assert_matches_plain_search(np.concatenate(
            [edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
             [np.nextafter(1.0, 0.0)]]))

    def test_uniforms_past_the_table(self):
        table = _band_table()
        u = np.linspace(np.nextafter(table[-1], 1.0), 1.0 - 2.0 ** -40, 200)
        self._assert_matches_plain_search(u)
        assert np.all(_bands_from_uniform(u) > table.shape[0])

    def test_bands_past_the_table_among_table_draws(self):
        # F(N) and the floats above it lie in the last guide cell, which
        # straddles: each keeps the band it has on its own
        table = _band_table()
        past = np.array([table[-1], np.nextafter(table[-1], 1.0),
                         1.0 - 2.0 ** -53])
        assert _band_guide()[-1] == 0.0
        alone = np.array([_bands_from_uniform(past[i:i + 1])[0]
                          for i in range(past.size)])
        assert alone[0] == alone[1] == table.shape[0] + 1
        assert table.shape[0] < alone[2] < 2.0 ** 53
        u = np.random.default_rng(7).random(10 ** 4)
        u[[10, 5000, 9999]] = past
        got = _bands_from_uniform(u)
        assert np.array_equal(got[[10, 5000, 9999]], alone)
        self._assert_matches_plain_search(u)


def _power_diff_masked(t, k, x, weights=None):
    """_power_diff with boolean masks for the far field: the reference
    whose every per-element operation the index form must repeat."""
    ax = np.abs(x)
    far = ax > 8.0 * (1.0 + abs(t))
    if weights is None:
        out = np.abs(t - x) ** k - ax ** k
    else:
        bp, bm = weights
        out = (np.where(x < t, bp, bm) * np.abs(t - x) ** k
               - np.where(x < 0.0, bp, bm) * ax ** k)
    if np.any(far):
        xf = ax[far]
        out[far] = xf ** k * np.expm1(k * np.log1p(-t * np.sign(x[far]) / xf))
        if weights is not None:
            out[far] *= np.where(x[far] > 0.0, bm, bp)
    return out


@pytest.mark.parametrize("weights", [None, (1.0, 0.3)])
@pytest.mark.parametrize("t,k", [(0.0, 0.2), (0.3, 0.11), (1.0, 0.45),
                                 (0.7, -0.3), (-0.4, 0.6)])
def test_power_diff_is_bit_identical_to_masked_form(t, k, weights):
    x, _ = _lmmm_sample(np.random.default_rng(31), 49994)
    x = np.concatenate([x, [0.0, t, -t, 8.0 * (1.0 + abs(t)), 1e15, -1e15]])
    assert np.count_nonzero(np.abs(x) > 8.0 * (1.0 + abs(t))) > 1000
    # the pair integrals pass 2-D node arrays; at k < 0 the kinks x = 0
    # and x = t are poles, where both forms divide by zero
    with (pytest.warns(RuntimeWarning, match="divide by zero") if k < 0.0
          else contextlib.nullcontext()):
        for xs in (x, x.reshape(-1, 10)):
            got = _power_diff(t, k, xs, weights)
            want = _power_diff_masked(t, k, xs, weights)
            assert got.shape == xs.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("weights", [None, (1.0, 0.3)])
@pytest.mark.parametrize("t,k", [(0.0, 0.2), (0.3, 0.11), (0.7, -0.3),
                                 (0.5, 0.0), (-0.4, 0.6)])
def test_power_diff_one_point_is_bit_identical_to_array(t, k, weights):
    # band 1's quad passes one Python float at a time, which takes a float
    # branch up to the far-field edge and returns a float; value and sign
    # of zero must be the array's.  A 0-d array takes the array form
    edge = 8.0 * (1.0 + abs(t))
    xs = [float(x) for x0 in (0.0, t, edge, -edge) for x in
          (x0, np.nextafter(x0, -np.inf), np.nextafter(x0, np.inf))]
    xs += [-0.0, 0.37, -2.5, 1e3, -1e15]
    # at k < 0 the kinks x = 0 and x = t are poles, in both forms
    with (pytest.warns(RuntimeWarning, match="divide by zero") if k < 0.0
          else contextlib.nullcontext()):
        for x in xs:
            want = _power_diff(t, k, np.array([x]), weights)[0]
            got = _power_diff(t, k, x, weights)
            assert np.float64(got).tobytes() == want.tobytes(), x
            if abs(x) <= edge:
                assert type(got) is float, x
            got = _power_diff(t, k, np.asarray(x), weights)
            assert got.shape == () and got.tobytes() == want.tobytes(), x


def _power_diff_where(t, k, x, weights):
    """_power_diff's near and far forms with each side weight chosen by
    np.where on scalar arms: the form the weight lookup must repeat."""
    bp, bm = weights
    tx, ax = t - x, np.abs(x)
    out = np.where(tx > 0.0, bp, bm) * np.abs(tx) ** k - np.where(
        x < 0.0, bp, bm) * ax ** k
    far = (ax > 8.0 * (1.0 + abs(t))).nonzero()[0]
    xf = x[far]
    out[far] = (ax[far] ** k * np.expm1(k * np.log1p(-t / xf))
                * np.where(xf > 0.0, bm, bp))
    return out


@pytest.mark.parametrize("weights", [(1.0, 0.3), (0.3, 1.0)])
@pytest.mark.parametrize("t,k", [(0.0, 0.2), (0.7, 0.45), (-0.4, 0.6),
                                 (0.5, 0.0)])
def test_side_weights_are_bit_identical_to_where_form(t, k, weights):
    # the kinks, the far-field edge from both sides and both zeros, among
    # lmmm points
    edge = 8.0 * (1.0 + abs(t))
    x, _ = _lmmm_sample(np.random.default_rng(5), 2000)
    x = np.concatenate([x, [x1 for x0 in (t, -t, edge, -edge) for x1 in
                            (x0, np.nextafter(x0, -np.inf),
                             np.nextafter(x0, np.inf))], [0.0, -0.0]])
    got = _power_diff(t, k, x, weights)
    assert got.tobytes() == _power_diff_where(t, k, x, weights).tobytes()


@pytest.mark.parametrize("weights", [None, (1.0, 0.3)])
@pytest.mark.parametrize("k", [-1.0 / 3.0, 0.0, 0.2])
def test_power_diff_from_shared_log_is_exact_at_the_kinks(k, weights):
    # the series passes log|x|, and the powers become exp(k log): at the
    # kinks x = 0 and x = t the vanishing power must be 0, 1 or inf as
    # with ** (exp(0 log 0) alone would be NaN), with no warning from log 0
    t = 0.7
    x = np.array([0.0, t, -t, 0.37, -2.5, 30.0, -1e15])
    with np.errstate(divide="ignore"):
        log_ax = np.log(np.abs(x))
        want = _power_diff(t, k, x, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _power_diff(t, k, x, weights, log_ax=log_ax)
    assert not np.isnan(got).any()
    pole = np.isinf(want)
    assert pole[:2].all() == (k < 0.0) and not pole[2:].any()
    assert np.array_equal(got[pole], want[pole])
    # elsewhere within rounding of the two powers
    xs = x[~pole]
    scale = np.abs(t - xs) ** k + np.abs(xs) ** k
    assert np.all(np.abs(got[~pole] - want[~pole]) <= 1e-15 * scale)


class TestLevyKernel:
    def test_indicator_closed_at_both_ends(self):
        kernel, _ = levy_kernel()
        f = kernel.evaluate(0.5, 0.5, np.array([0.0, 0.25, 0.5, 0.500001, -0.1]))
        assert f.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_zero_time_keeps_only_origin(self):
        kernel, _ = levy_kernel()
        f = kernel.evaluate(0.0, 0.0, np.array([0.0, 1e-12]))
        assert f.tolist() == [1.0, 0.0]


class TestLmmmKernel:
    def test_matches_plain_formula_in_core(self):
        kernel, _ = lmmm_kernel(_fs("1.7"), _fs("0.75"))
        t, u = 0.4, 0.6
        k = 0.75 - 1.0 / 1.7
        x = np.linspace(-5.0, 5.0, 301)
        want = np.abs(t - x) ** k - np.abs(x) ** k
        got = kernel.evaluate(t, u, x)
        # the x = 0 node is a pole of |x|^k with k < 0... here k > 0 so fine
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_far_path_matches_extended_precision(self):
        # just past the switch the naive difference still holds ~15 digits
        # in 80-bit floats, enough to certify the expm1 route
        t, k = 0.7, 0.25
        for x0 in (15.0, -15.0, 30.0, -30.0, 1e4, -1e4):
            x = np.array([x0])
            got = _power_diff(t, k, x)[0]
            xl = np.longdouble(x0)
            ref = float(np.abs(np.longdouble(t) - xl) ** np.longdouble(k)
                        - np.abs(xl) ** np.longdouble(k))
            assert abs(got - ref) < 1e-13 * abs(ref)

    def test_far_field_beats_naive_cancellation(self):
        # at x ~ 1e15 the naive difference returns garbage or exact zero;
        # the series route must match the leading asymptotic -k*t*x^(k-1)
        t, k = 0.5, 0.13
        x = np.array([1e15])
        got = _power_diff(t, k, x)[0]
        lead = -k * t * x[0] ** (k - 1.0)
        assert abs(got / lead - 1.0) < 1e-10

    def test_no_nan_over_random_inputs(self):
        kernel, _ = lmmm_kernel(_fs("1.7+0.2*sin(2*pi*t)"), _fs("0.7+0.1*t"))
        rng = np.random.default_rng(11)
        x, _ = _lmmm_sample(rng, 100000)
        for t, u in ((0.0, 0.0), (0.3, 0.3), (1.0, 1.0)):
            vals = kernel.evaluate(t, u, x)
            assert np.all(np.isfinite(vals))

    def test_vanishes_at_time_zero(self):
        kernel, _ = lmmm_kernel(_fs("1.7"), _fs("0.75"))
        x = np.array([-3.2, -0.4, 0.7, 12.0])
        assert np.allclose(kernel.evaluate(0.0, 0.5, x), 0.0, atol=0)


class TestLfsmKernel:
    def test_reduces_to_two_sided_form(self):
        sym = _lfsm_kernel(1.7, 0.75, 1.0, 1.0)
        ref, _ = lmmm_kernel(_fs("1.7"), _fs("0.75"))
        x = np.linspace(-20.0, 20.0, 1001)
        a = sym.evaluate(0.6, 0.6, x)
        b = ref.evaluate(0.6, 0.6, x)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_one_sided_limits(self):
        ker = _lfsm_kernel(1.7, 0.75, 1.0, 0.0)
        k = 0.75 - 1.0 / 1.7
        t = 0.5
        x = np.array([-2.0, 0.2, 0.9])
        want = np.maximum(t - x, 0.0) ** k - np.maximum(-x, 0.0) ** k
        assert np.allclose(ker.evaluate(t, t, x), want, rtol=1e-12)

    def test_negative_exponent_stays_finite(self):
        # kappa = 0.5 - 1/1.5 < 0: a zero base would give 0^kappa = inf
        x = np.array([-30.0, -2.0, -0.4, 0.1, 0.25, 0.7, 3.0, 40.0])
        sym = _lfsm_kernel(1.5, 0.5, 1.0, 1.0).evaluate(0.3, 0.3, x)
        ref, _ = lmmm_kernel(_fs("1.5"), _fs("0.5"))
        assert np.all(np.isfinite(sym))
        assert np.array_equal(sym, ref.evaluate(0.3, 0.3, x))
        one = _lfsm_kernel(1.5, 0.5, 1.0, 0.0).evaluate(0.3, 0.3, x)
        k = 0.5 - 1.0 / 1.5
        left = x < 0.3
        want = np.where(left, np.abs(0.3 - x) ** k, 0.0) - np.where(
            x < 0.0, np.abs(x) ** k, 0.0)
        assert np.all(np.isfinite(one))
        assert np.allclose(one, want, rtol=1e-12, atol=0.0)


class TestKinkIntegral:
    def test_zero_exponent_gives_zero(self):
        assert kink_power_integral(1.5, 0.0) == 0.0

    def test_divergent_tail_rejected(self):
        # (kappa - 1) * a + 1 >= 0 means the tail is not integrable
        with pytest.raises(ValueError):
            kink_power_integral(1.0, 0.1)

    def test_frozen_values(self):
        # 30-digit mpmath quadrature of the same integral to infinity
        assert abs(sigma_lmmm(1.7, 0.7) - 0.3954197145) < 1e-8
        assert abs(sigma_lmmm(1.8, 0.75) - 0.6444043834) < 1e-8

    @pytest.mark.parametrize("alpha,H", [(1.7, 0.7), (1.8, 0.75)])
    def test_against_importance_sampler(self, alpha, H):
        mc = oracles.kink_integral_mc(alpha, H, n=400000, seed=3)
        assert abs(sigma_lmmm(alpha, H) / mc - 1.0) < 0.005

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sigma_lmmm(2.0, 0.5)
        with pytest.raises(ValueError):
            sigma_lmmm(1.5, 1.0)

    @pytest.mark.parametrize("a,H,weights,want", [
        (1.1, 0.1, (1.0, 1.0), 32.8033019073918),
        (1.2, 0.5, (1.0, 1.0), 2.797304207991819),
        (1.2, 0.5, (1.0, 0.3), 2.362332634192698),
        (0.3, 0.5, (1.0, 1.0), 42.4383152379881)])
    def test_negative_kappa_against_mpmath(self, a, H, weights, want):
        # kappa = H - 1/a < 0: |f|^a is singular at both kinks
        ref = oracles.kink_integral_mpmath(a, H - 1.0 / a, weights)
        assert abs(ref / want - 1.0) < 1e-14
        got = kink_power_integral(a, H - 1.0 / a, weights)
        assert abs(got / ref - 1.0) < 1e-9

    @pytest.mark.parametrize("a,H", [(0.3, 0.5), (1.1, 0.1), (1.2, 0.5)])
    def test_no_warning_where_kappa_a_nears_minus_one(self, a, H):
        # the adaptive quadrature this rule replaced warned at the first two
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kink_power_integral(a, H - 1.0 / a) > 0.0

    @pytest.mark.parametrize("a,kappa", [(1.7, 0.75 - 1.0 / 1.7),
                                         (2.0, 0.5 - 1.0 / 1.5), (1.5, 0.0)])
    def test_unit_side_weights_are_bit_identical(self, a, kappa):
        assert (kink_power_integral(a, kappa, (1.0, 1.0))
                == kink_power_integral(a, kappa))

    def test_equal_side_weights_scale_by_power(self):
        a, kappa, c = 1.7, 0.75 - 1.0 / 1.7, 2.5
        got = kink_power_integral(a, kappa, (c, c))
        assert abs(got / (c ** a * kink_power_integral(a, kappa)) - 1.0) < 1e-9

    @pytest.mark.parametrize("a,H", [(1.7, 0.75), (1.2, 0.5)])
    def test_negative_side_weights(self, a, H):
        # |f| is the same when both side weights flip sign, and the same
        # again when only the other one is negative
        kappa = H - 1.0 / a
        want = kink_power_integral(a, kappa, (1.0, 0.3))
        got = kink_power_integral(a, kappa, (-1.0, -0.3))
        assert abs(got / want - 1.0) < 1e-13
        assert (kink_power_integral(a, kappa, (1.0, -0.3))
                == kink_power_integral(a, kappa, (-1.0, 0.3)))

    def test_one_sided_weights_against_direct_quadrature(self):
        # with b_minus = 0, f(1,x) = (1-x)^kappa on (0,1), 0 beyond x = 1,
        # and (1+y)^kappa - y^kappa at x = -y < 0, integrated out to
        # infinity without the far-field expansion
        from scipy.integrate import quad
        a, kappa = 1.7, 0.75 - 1.0 / 1.7

        def g(y):
            return (y ** kappa * math.expm1(kappa * math.log1p(1.0 / y))) ** a

        want = 1.0 / (kappa * a + 1.0) + sum(
            quad(g, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
            for lo, hi in ((0.0, 1.0), (1.0, np.inf)))
        for weights in ((1.0, 0.0), (0.0, 1.0)):  # mirror images
            got = kink_power_integral(a, kappa, weights)
            assert abs(got / want - 1.0) < 1e-9


class TestPairIntegral:
    def test_levy_is_min_of_times(self):
        spec = _levy_spec()
        assert pair_integral(spec, 0.3, 0.8, 1.3) == 0.3
        assert pair_integral(spec, 0.9, 0.2, 1.1) == 0.2

    def test_symmetry(self):
        spec = _lmmm_spec()
        a = pair_integral(spec, 0.3, 0.7, 1.25)
        b = pair_integral(spec, 0.7, 0.3, 1.25)
        assert abs(a - b) < 1e-10 * abs(a)

    def test_against_direct_monte_carlo(self):
        spec = _lmmm_spec(alpha="1.7", H="0.75")
        tA, tB = 0.4, 0.9
        s_sum = 1.0 / 1.7 + 1.0 / 1.7
        rng = np.random.default_rng(8)
        x, w = _lmmm_sample(rng, 400000)
        fa = spec.kernel.evaluate(tA, tA, x)
        fb = spec.kernel.evaluate(tB, tB, x)
        samples = w ** s_sum * fa * fb
        got = pair_integral(spec, tA, tB, s_sum)
        se = np.std(samples) / math.sqrt(samples.shape[0])
        assert abs(np.mean(samples) - got) < 4.0 * se

    def test_diagonal_entry_is_positive(self):
        spec = _lmmm_spec()
        v = pair_integral(spec, 0.5, 0.5, 2.0 / 1.7)
        assert v > 0.0

    @pytest.mark.parametrize("tag,alpha,H,weights", [
        ("lmmm", 1.7, 0.75, (1.0, 1.0)), ("lmmm", 1.6, 0.5, (1.0, 1.0)),
        ("lmmm", 1.2, 0.5, (1.0, 1.0)),
        ("lfsm-control", 1.7, 0.75, (1.0, 0.3))])
    @pytest.mark.parametrize("tA,tB,hi", [
        (0.5, 0.5, 1.0), (0.3, 0.8, 1.0), (0.5, 0.5 + 2.0 ** -17, 1.0),
        (0.05, 0.95, 1.0), (0.9, 1.0, 1.0), (1.0, 1.0, 1.0),
        (1.5, 1.5, 3.0), (1.0, 2.0, 3.0), (2.5, 2.5, 3.0)])
    def test_against_closed_form(self, tag, alpha, H, weights, tA, tB, hi):
        # at s_sum = 1 the band weights drop out, and a constant kappa makes
        # R_AB the covariance of a process with stationary increments and
        # int f_t^2 = C t^(1+2 kappa); kinks at or next to a band edge
        spec = make_process(tag, _fs(repr(alpha)), _fs("1"), _fs(repr(H)),
                            (0.0, hi), 1.2, 1.9, *weights)
        k = H - 1.0 / alpha
        c = oracles.moving_average_l2(1.0, k, k, *weights)
        want = 0.5 * c * (tA ** (1.0 + 2.0 * k) + tB ** (1.0 + 2.0 * k)
                          - abs(tA - tB) ** (1.0 + 2.0 * k))
        assert abs(pair_integral(spec, tA, tB, 1.0) / want - 1.0) < 1e-9

    @pytest.mark.parametrize("weights,tA,tB", [
        ((1.0, 1.0), 0.5, 0.5 + 2.0 ** -10), ((1.0, 0.3), 0.3, 0.9),
        ((0.2, 1.0), 1.0, 1.0)])
    def test_far_field_against_explicit_bands(self, weights, tA, tB):
        # bands 4097..2^18 by GL-8, then the same far field from 2^18 on;
        # the leading zeta term alone is off by 3e-7 to 1.3e-6 of R here
        s_sum, k, j0, j1 = 2.0 / 1.7, 0.75 - 1.0 / 1.7, 4096, 2 ** 18
        gx, gw = np.polynomial.legendre.leggauss(8)
        want = _far_bands(j1, tA, tB, k, k, s_sum, weights)
        for start in range(j0 + 1, j1 + 1, 2 ** 15):
            js = np.arange(start, min(start + 2 ** 15, j1 + 1), dtype=float)
            for lo in (js - 1.0, -js):
                x = lo[:, None] + 0.5 * (1.0 + gx)
                f = (_power_diff(tA, k, x, weights)
                     * _power_diff(tB, k, x, weights))
                want += np.sum((math.pi ** 2 / 3.0 * js ** 2) ** (s_sum - 1.0)
                               * (f @ (0.5 * gw)))
        spec = make_process("lfsm-control", _fs("1.7"), _fs("1"),
                            _fs("0.75"), (0.0, 1.0), 1.2, 1.9, *weights)
        r = pair_integral(spec, tA, tB, s_sum)
        got = _far_bands(j0, tA, tB, k, k, s_sum, weights)
        assert abs(got - want) < 1e-9 * r

    @pytest.mark.parametrize("tA,tB,want", [
        (0.3, 0.3, pin("0x1.14cd33de61e8fp-4", "0x1.14cd33de61e90p-4")),
        (0.3, 0.3 + 2.0 ** -4, pin("0x1.330015a147c00p-4",
                                   "0x1.330015a147bdfp-4")),
        (0.5, 0.5 + 2.0 ** -17, "0x1.0fe17ce167ab0p-3")])
    def test_benchmark_pairs_are_pinned(self, tA, tB, want):
        # pairs of the lmmm benchmark model at its moments and holder times,
        # bit for bit in each NumPy dispatch class (the last is the same in
        # both): band 1's quad evaluates the kernel one float at a time
        spec = make_process("lmmm", _fs("1.7+0.2*sin(2*pi*t)"), _fs("1"),
                            _fs("0.7+0.1*t"), (0.0, 1.0), 1.45, 1.95)
        s_sum = 1.0 / spec.alpha(tA) + 1.0 / spec.alpha(tB)
        assert float(pair_integral(spec, tA, tB, s_sum)).hex() == want

    @pytest.mark.parametrize("tag,alpha,H,weights,tA", [
        ("lmmm", "1.7", "0.75", (1.0, 1.0), 256.0),
        ("lmmm", "1.2", "0.5", (1.0, 1.0), 256.0),
        ("lfsm-control", "1.7", "0.75", (1.0, 0.3), 256.0),
        ("lmmm", "1.7+0.2*sin(2*pi*t)", "0.7", (1.0, 1.0), 1.0)])
    def test_far_field_holds_up_to_t_256(self, monkeypatch, tag, alpha, H,
                                         weights, tA):
        # the far field past band 4096 is first order in t/|x|; at |t| 256
        # it is within 9.5e-5 of the same code with 2^18 bands, and beyond
        # 256 pair_integral refuses it
        dom = (0.0, 300.0)
        spec = make_process(tag, _fs(alpha), _fs("1"), _fs(H), dom, 1.15,
                            1.95, *weights)
        s_sum = 1.0 / spec.alpha(tA) + 1.0 / spec.alpha(256.0)
        got = pair_integral(spec, tA, 256.0, s_sum)
        monkeypatch.setattr(kernels, "_J0", 2 ** 18)
        want = pair_integral(spec, tA, 256.0, s_sum)
        assert abs(got / want - 1.0) < 2e-4
        with pytest.raises(ValueError, match="256"):
            pair_integral(spec, tA, 300.0, s_sum)

    @pytest.mark.parametrize("tA,tB,kA,kB,weights", [
        (0.5, 0.5 + 2.0 ** -17, -1.0 / 3.0, -1.0 / 3.0, (1.0, 1.0)),
        (0.3, 0.8, -1.0 / 3.0, -1.0 / 3.0, (1.0, 1.0)),
        (0.2, 0.9, -0.3, 0.2, (1.0, 0.3))])
    def test_band_one_at_negative_kappa_against_mpmath(self, tA, tB, kA, kB,
                                                       weights):
        # the kinks are singular here, and quad returned inf at the first
        want = oracles.band_one_mpmath(tA, tB, kA, kB, weights)
        got = _graded_pair((-1.0, 0.0, 1.0), tA, tB, kA, kB, weights)
        assert abs(got / want - 1.0) < 1e-12

    def test_band_one_at_negative_kappa_vanishes_at_the_origin(self):
        # f(0, x) = 0, so the kernel at 0 adds no power at its kink there
        assert _graded_pair((-1.0, 0.0, 1.0), 0.0, 0.5, -1.0 / 3.0,
                            -1.0 / 3.0, None) == 0.0

    def test_divergent_kink_rejected(self):
        # kappa = 0.1 - 1/1.1 = -0.81: |t-x|^(2 kappa) is not integrable
        spec = _lmmm_spec(alpha="1.1", H="0.1", c=1.05, d=1.15)
        with pytest.raises(ValueError, match="kinks"):
            pair_integral(spec, 0.3, 0.3, 2.0 / 1.1)
        with pytest.raises(ValueError, match="kinks"):
            pair_integral(spec, 0.3, 0.7, 2.0 / 1.1)


class TestMakeProcess:
    def test_alpha_leaving_bounds_rejected(self):
        with pytest.raises(ValueError, match="alpha range"):
            _levy_spec(alpha="1.5+0.6*sin(2*pi*t)", c=1.0, d=1.9)

    def test_alpha_range_inside_bounds_accepted(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        values = spec.check_grid.alpha
        assert 1.2 <= min(values) <= max(values) <= 1.8 + 1e-12

    def test_alpha_range_is_checked_on_the_grid(self):
        with pytest.raises(ValueError, match=r"alpha range \[0, 2\]"):
            _levy_spec(alpha="2*t", c=0.5, d=1.5)

    def test_bad_stability_bounds_rejected(self):
        with pytest.raises(ValueError, match="stability bounds"):
            _levy_spec(c=0.0, d=1.5)
        with pytest.raises(ValueError, match="stability bounds"):
            _levy_spec(c=1.5, d=1.2)

    def test_lmmm_requires_H(self):
        with pytest.raises(ValueError, match="H"):
            make_process("lmmm", _fs("1.7"), _fs("1"), None, (0.0, 1.0),
                         1.2, 1.9)

    def test_levy_takes_no_H(self):
        # the indicator kernel never reads H, which a manifest would echo
        with pytest.raises(ValueError, match="'H'"):
            make_process("levy", _fs("1.5"), _fs("1"), _fs("0.7"),
                         (0.0, 1.0), 1.2, 1.9)

    def test_H_leaving_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="H range"):
            _lmmm_spec(H="0.9+0.2*t")

    def test_negative_kappa_warns_but_builds(self):
        # H < 1/alpha: pathwise regularity statement is out of scope there
        spec = _lmmm_spec(alpha="1.2", H="0.5", c=1.0, d=1.9)
        assert spec.warnings and "H - 1/alpha" in spec.warnings[0]

    def test_lfsm_control_is_the_weighted_lmmm_kernel(self):
        spec = make_process("lfsm-control", _fs("1.2"), _fs("1"), _fs("0.5"),
                            (0.0, 1.0), 1.0, 1.9, b_plus=1.0, b_minus=0.3)
        assert spec.kernel.side_weights == (1.0, 0.3)
        assert spec.warnings and "H - 1/alpha" in spec.warnings[0]

    def test_lfsm_control_needs_a_nonzero_side_weight(self):
        with pytest.raises(ValueError, match="b_plus and b_minus"):
            make_process("lfsm-control", _fs("1.7"), _fs("1"), _fs("0.75"),
                         (0.0, 1.0), 1.2, 1.9, b_plus=0.0, b_minus=0.0)

    @pytest.mark.parametrize("process", ["lmmm", "lfsm-control"])
    @pytest.mark.parametrize("H", ["0", "1", "0.5+0.5*t"])
    def test_H_must_lie_in_open_unit_interval(self, process, H):
        with pytest.raises(ValueError, match="H range"):
            make_process(process, _fs("1.7"), _fs("1"), _fs(H), (0.0, 1.0),
                         1.2, 1.9)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown process"):
            make_process("brownian", _fs("1.5"), _fs("1"), None,
                         (0.0, 1.0), 1.0, 1.9)

    def test_h_exponent_dispatch(self):
        levy = _levy_spec(alpha="1.6")
        assert abs(levy.at([0.3]).h[0] - 1.0 / 1.6) < 1e-15
        lmmm = _lmmm_spec(H="0.75")
        assert lmmm.at([0.3]).h[0] == 0.75

    def test_kappa_requires_kernel_exponent(self):
        levy = _levy_spec()
        with pytest.raises(ValueError, match="kappa"):
            levy.kappa(0.5)

    @pytest.mark.parametrize("alpha,H,name", [("1.5+0.3*t", "0.7", "'alpha'"),
                                              ("1.5", "0.7+0.2*t", "'H'")])
    def test_lfsm_control_needs_constant_alpha_and_H(self, alpha, H, name):
        with pytest.raises(ValueError, match=f"{name} must be constant"):
            make_process("lfsm-control", _fs(alpha), _fs("1"), _fs(H),
                         (0.0, 1.0), 1.2, 1.9)

    @pytest.mark.parametrize("domain", [(0.0, 3.0), (-0.5, 0.5)])
    def test_levy_domain_inside_unit_interval(self, domain):
        with pytest.raises(ValueError, match="domain"):
            _levy_spec(domain=domain)

    @pytest.mark.parametrize("process,H", [("levy", None), ("lmmm", "0.7")])
    @pytest.mark.parametrize("name", ["b_plus", "b_minus"])
    def test_side_weights_only_for_lfsm_control(self, process, H, name):
        with pytest.raises(ValueError, match=name):
            make_process(process, _fs("1.7"), _fs("1"), H and _fs(H),
                         (0.0, 1.0), 1.2, 1.9, **{name: 0.3})

    @pytest.mark.parametrize("key,src,H", [
        ("alpha", "1.5+0.6*sin(256*pi*t)", "0.7"),
        ("H", "1.5", "0.7+0.9*sin(256*pi*t)")])
    def test_ranges_are_checked_at_the_run_times(self, key, src, H):
        # sin(256*pi*t) is 0 on the 257-point domain grid, not at t = 0.3
        grid_only = make_process("lmmm", _fs(src), _fs("1"), _fs(H),
                                 (0.0, 1.0), 1.4, 1.6)
        assert grid_only.tag == "lmmm"
        at = (0.3,)
        with pytest.raises(ValueError, match=f"{key} range"):
            make_process("lmmm", _fs(src), _fs("1"), _fs(H), (0.0, 1.0),
                         1.4, 1.6, times=at)

    def test_alpha_is_checked_on_the_whole_process_domain(self):
        # alpha(1) = 2.7: the check grid spans the domain given here, not
        # one a model function was parsed with
        with pytest.raises(ValueError, match=r"alpha range \[1.7, 2.7\]"):
            _levy_spec(alpha="1.7+t", c=1.5, d=1.95)

    def test_alpha_is_checked_on_the_process_domain_only(self):
        # 1.9 on [0, 1]; beyond t = 1 it would leave [c, d]
        spec = _levy_spec(alpha="1.9-0.7*max(t-1,0)", c=1.5, d=1.95)
        assert set(spec.check_grid.alpha) == {1.9}

    @pytest.mark.parametrize("tag,weights", [
        ("lmmm", (1.0, 1.0)), ("lfsm-control", (1.0, 1.0)),
        ("lfsm-control", (0.3, 0.3))])
    def test_kernel_that_is_zero_everywhere_rejected(self, tag, weights):
        # H = 1/alpha with equal side weights: |t-x|^0 - |x|^0 = 0
        with pytest.raises(ValueError, match="'H' is 1/alpha"):
            make_process(tag, _fs("1.5"), _fs("1"), _fs("2/3"), (0.0, 1.0),
                         1.2, 1.9, *weights)

    def test_zero_kappa_at_some_times_or_unequal_weights_builds(self):
        # H = 1/alpha at t = 0.3 alone; and Levy motion as lfsm-control
        _lmmm_spec(alpha="1.5", H="2/3+0.1*(t-0.3)")
        make_process("lfsm-control", _fs("1.5"), _fs("1"), _fs("2/3"),
                     (0.0, 1.0), 1.2, 1.9, b_minus=0.3)

    def test_bad_domain(self):
        with pytest.raises(ValueError, match="empty domain"):
            _levy_spec(domain=(1.0, 0.0))

    def test_grid_values_name_the_failing_point(self):
        with pytest.raises(ValueError, match=r"'alpha' .* at t=0\.0"):
            _levy_spec(alpha="1/t")

    def test_grid_values_end_with_the_run_times(self):
        spec = make_process("levy", _fs("1.5"), _fs("2*t"), None,
                            (0.0, 1.0), 1.2, 1.9, times=[0.3, 0.7])
        t, b = spec.check_grid.t, spec.check_grid.b
        assert t.shape == b.shape == (259,)
        assert list(t[256:]) == [1.0, 0.3, 0.7]
        assert b[256] == 2.0 and list(b[257:]) == [0.6, 1.4]

    def test_grid_values_name_the_failing_run_time(self):
        with pytest.raises(ValueError, match=r"'b' .* at t=0\.3"):
            make_process("levy", _fs("1.5"), _fs("1/(t-0.3)"), None,
                         (0.0, 1.0), 1.2, 1.9, times=[0.3])
