import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from multistable import estimate
from multistable.estimate import (MomentEstimate, condition_probe,
                                  diagonal_samples, ecf_compare,
                                  estimate_increment_moments, fit_scaling,
                                  holder_pathwise, ks_two_sample,
                                  levy_increment_cf, theoretical_scaling)
from multistable.engine import (_substream, build_environment,
                               eval_diagonal_path, tail_covariance, tail_draw,
                               tail_sqrt)
from multistable.expr import FuncSpec
from multistable.kernels import (kink_power_integral, lmmm_kernel,
                                 make_process, sigma_lmmm)
from multistable.stable import c_alpha, sas_abs_moment

import oracles
from pins import pin


def _fs(src, domain=(0.0, 1.0)):
    return FuncSpec.parse(src, domain)


def _levy_spec(alpha="1.5", b="1", c=0.5, d=1.9):
    return make_process("levy", _fs(alpha), _fs(b), None, (0.0, 1.0), c, d)


def _lmmm_spec(alpha="1.7", H="0.75", b="1"):
    return make_process("lmmm", _fs(alpha), _fs(b), _fs(H), (0.0, 1.0),
                        1.2, 1.95)


class TestDiagonalSamples:
    def test_worker_count_does_not_change_values(self):
        spec = _levy_spec()
        a = diagonal_samples(spec, [0.2, 0.7], 300, 200, seed=5, workers=1)
        b = diagonal_samples(spec, [0.2, 0.7], 300, 200, seed=5, workers=4)
        assert np.array_equal(a, b)

    def test_index_offset_selects_same_environments(self):
        spec = _levy_spec()
        full = diagonal_samples(spec, [0.5], 10, 100, seed=7)
        shifted = diagonal_samples(spec, [0.5], 1, 100, seed=7,
                                   index_offset=5)
        assert np.array_equal(shifted[0], full[5])

    def test_offset_crossing_chunk_boundary(self):
        spec = _levy_spec()
        full = diagonal_samples(spec, [0.5], 200, 50, seed=7)
        part = diagonal_samples(spec, [0.5], 80, 50, seed=7,
                                index_offset=100)
        assert np.array_equal(part, full[100:180])

    def test_tail_mode_validated(self):
        with pytest.raises(ValueError, match="tail"):
            diagonal_samples(_levy_spec(), [0.5], 2, 50, seed=1,
                             tail="bogus")

    @pytest.mark.parametrize("process", ["levy", "lmmm", "lfsm-control"])
    def test_rows_are_the_engine_evaluator(self, process):
        # one path from environment to value: each row is the evaluator
        # applied to the environment of its index plus the tail draw of its
        # tail substream, bit for bit, on both sides of a chunk boundary
        H = None if process == "levy" else _fs("0.8")
        # lfsm-control alone takes side weights, and a constant alpha
        alpha, weights = "1.6+0.2*t", {}
        if process == "lfsm-control":
            alpha, weights = "1.7", {"b_plus": 1.0, "b_minus": 0.5}
        spec = make_process(process, _fs(alpha), _fs("1"), H,
                            (0.0, 1.0), 1.3, 1.9, **weights)
        grid = [0.15, 0.5, 0.85]
        chol = tail_sqrt(tail_covariance(spec, grid, 300))
        want = [eval_diagonal_path(build_environment(spec, 300, 4, 70 + i),
                                   spec, grid)
                + tail_draw(chol, _substream(4, 70 + i, "tail"))
                for i in range(140)]
        assert 140 > estimate._CHUNK  # two chunks: 70..197 and 198..209
        for workers in (1, 2):
            vals = diagonal_samples(spec, grid, 140, 300, seed=4,
                                    workers=workers, index_offset=70)
            assert np.array_equal(vals, want)

    # (seed, index_offset, m_paths, workers, the index the error names);
    # the last range's first chunk would be valid
    @pytest.mark.parametrize("seed,offset,m_paths,workers,index",
                             [(0, 2 ** 32 - 1, 2, 1, 2 ** 32),
                              (2 ** 32, 0, 2, 1, 0),
                              (0, 2 ** 32 - 200, 300, 2, 2 ** 32 + 99)])
    def test_key_words_checked_before_any_draw(self, monkeypatch, seed,
                                               offset, m_paths, workers,
                                               index):
        def no_draws(*a, **k):
            raise AssertionError("an environment was drawn")

        monkeypatch.setattr(estimate, "_environments", no_draws)
        with pytest.raises(ValueError, match=rf"seed {seed} and index {index} "
                                             r"must lie in \[0, 2\^32\)"):
            diagonal_samples(_levy_spec(), [0.5], m_paths, 50, seed=seed,
                             tail="none", workers=workers,
                             index_offset=offset)

    def test_tail_none_differs_from_gauss(self):
        spec = _levy_spec()
        a = diagonal_samples(spec, [0.5], 20, 50, seed=3, tail="none")
        b = diagonal_samples(spec, [0.5], 20, 50, seed=3, tail="gauss")
        assert not np.array_equal(a, b)


class TestScalingFit:
    def _synthetic(self, slope, intercept):
        eps = tuple(2.0 ** -k for k in range(4, 11))
        est = tuple(math.exp(intercept) * e ** slope for e in eps)
        return MomentEstimate(t=0.3, eta=0.5, eps=eps, estimates=est,
                              stderrs=tuple(0.01 * v for v in est),
                              m_paths=100, n_terms=100, seed=0,
                              spec=_levy_spec())

    def test_recovers_exact_power_law(self):
        fit = fit_scaling(self._synthetic(0.37, -1.2))
        assert abs(fit.slope - 0.37) < 1e-12
        assert abs(fit.intercept + 1.2) < 1e-12

    def test_zero_estimate_is_reported_with_eps(self):
        me = self._synthetic(0.4, 0.0)
        broken = MomentEstimate(t=me.t, eta=me.eta, eps=me.eps,
                                estimates=(0.0,) + me.estimates[1:],
                                stderrs=me.stderrs, m_paths=me.m_paths,
                                n_terms=me.n_terms, seed=me.seed,
                                spec=me.spec)
        with pytest.raises(ValueError, match="0.0625"):
            fit_scaling(broken)

    @pytest.mark.parametrize("eps", [(0.1,), (0.1, 0.1)])
    def test_single_level_rejected(self, eps):
        me = self._synthetic(0.4, 0.0)
        one = MomentEstimate(t=me.t, eta=me.eta, eps=eps,
                             estimates=me.estimates[:len(eps)],
                             stderrs=me.stderrs[:len(eps)],
                             m_paths=me.m_paths, n_terms=me.n_terms,
                             seed=me.seed, spec=me.spec)
        with pytest.raises(ValueError, match="two or more distinct eps"):
            fit_scaling(one)

    def test_residuals_vanish_on_exact_input(self):
        fit = fit_scaling(self._synthetic(0.5, 0.3))
        assert max(abs(r) for r in fit.residuals) < 1e-12


class TestTheoreticalScaling:
    def test_levy_slope_is_eta_over_alpha(self):
        spec = _levy_spec(alpha="1.6")
        slope, intercept = theoretical_scaling(spec, 0.4, 0.5)
        assert abs(slope - 0.5 / 1.6) < 1e-15
        assert abs(intercept - math.log(sas_abs_moment(1.6, 1.0, 0.5))) < 1e-15

    def test_lmmm_slope_is_eta_H(self):
        spec = _lmmm_spec(alpha="1.7", H="0.75")
        slope, intercept = theoretical_scaling(spec, 0.5, 0.8)
        assert abs(slope - 0.8 * 0.75) < 1e-15
        sigma = sigma_lmmm(1.7, 0.75)
        assert abs(intercept - math.log(sas_abs_moment(1.7, sigma, 0.8))) < 1e-12

    def test_side_weights_enter_the_scale(self):
        spec = make_process("lfsm-control", _fs("1.7"), _fs("1"), _fs("0.75"),
                            (0.0, 1.0), 1.2, 1.95, b_plus=1.0, b_minus=0.0)
        _, intercept = theoretical_scaling(spec, 0.3, 0.5)
        sigma = sigma_lmmm(1.7, 0.75, (1.0, 0.0))
        assert intercept == math.log(sas_abs_moment(1.7, sigma, 0.5))
        assert abs(sigma / sigma_lmmm(1.7, 0.75) - 1.0) > 0.1

    def test_field_scale_enters_intercept(self):
        plain = theoretical_scaling(_levy_spec(b="1"), 0.4, 0.5)
        scaled = theoretical_scaling(_levy_spec(b="3"), 0.4, 0.5)
        assert abs(scaled[1] - plain[1] - 0.5 * math.log(3.0)) < 1e-12
        assert scaled[0] == plain[0]


class TestIncrementMoments:
    def test_eta_above_lower_bound_rejected(self):
        spec = _levy_spec(alpha="1.5", c=0.5)
        with pytest.raises(ValueError, match="eta"):
            estimate_increment_moments(spec, 0.3, 0.6, [0.01], 10, 50, seed=1)

    def test_constant_alpha_matches_closed_form(self):
        # with constant alpha the normalized increment is exactly the
        # tangent stable law, so the moment formula holds at finite eps
        spec = _levy_spec(alpha="1.5", c=0.4, d=1.9)
        eta, t, eps = 0.3, 0.3, 1.0 / 64.0
        me = estimate_increment_moments(spec, t, eta, [eps], 4000, 4000,
                                        seed=12)
        want = sas_abs_moment(1.5, 1.0, eta) * eps ** (eta / 1.5)
        assert abs(me.estimates[0] - want) < 4.0 * me.stderrs[0]


def _every_path_is(monkeypatch, signal):
    """Replace the simulation: each of the m_paths rows is signal(grid)."""
    def samples(spec, grid, m_paths, *args, **kwargs):
        return np.tile(signal(np.asarray(grid, dtype=float)), (m_paths, 1))
    monkeypatch.setattr(estimate, "diagonal_samples", samples)


class TestHolderPathwise:
    def test_injected_signal_recovers_exponent(self, monkeypatch):
        spec = _levy_spec()
        r = [2.0 ** -k for k in range(4, 12)]
        _every_path_is(monkeypatch, lambda g: np.abs(g - 0.5) ** 0.7)
        est = holder_pathwise(spec, 0.5, r, 10, 10, seed=1)
        assert abs(est.estimate - 0.7) < 1e-6
        assert est.ci_lo <= est.estimate <= est.ci_hi
        assert est.drop_count == 0

    def test_zero_level_is_dropped_and_counted(self, monkeypatch):
        spec = _levy_spec()
        r = [2.0 ** -k for k in range(4, 10)]

        def signal(g):
            y = np.abs(g - 0.5) ** 0.6
            y[np.isclose(g, 0.5 + r[2])] = y[0]  # increment exactly zero
            return y

        _every_path_is(monkeypatch, signal)
        est = holder_pathwise(spec, 0.5, r, 7, 10, seed=1)
        assert est.drop_count == 7
        assert abs(est.estimate - 0.6) < 0.02

    def test_all_paths_degenerate_raises(self, monkeypatch):
        spec = _levy_spec()
        _every_path_is(monkeypatch, np.ones_like)
        with pytest.raises(ValueError, match="increments"):
            holder_pathwise(spec, 0.5, [0.01, 0.02], 5, 10, seed=1)

    def test_slope_outside_range_raises_before_bootstrap(self, monkeypatch):
        spec = _levy_spec()
        _every_path_is(monkeypatch, lambda g: np.abs(g - 0.5) ** 1.8)

        def no_draws(*a, **k):
            raise AssertionError("the bootstrap ran")

        monkeypatch.setattr(estimate, "_substream", no_draws)
        monkeypatch.setattr(estimate, "_holder_theory", no_draws)
        with pytest.raises(ValueError, match=r"outside \(0, 1.5\]"):
            holder_pathwise(spec, 0.5, [2.0 ** -k for k in range(4, 9)], 5,
                            10, seed=1)

    def test_bootstrap_memory_is_bounded(self):
        # the resample indices (int32) are the only 2000 x n array: the
        # medians run over row blocks of at most 2^16 slopes
        spec = _levy_spec()
        r = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
        tracemalloc.start()
        try:
            est = holder_pathwise(spec, 0.5, r, 4096, 50, seed=0,
                                  tail="none")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = est.m_paths - est.dropped_paths
        assert n == 3268
        assert peak <= 2000 * n * 4 + 8 * 2 ** 20
        # the 2000 x 3268 index draw rejects three times; the int64 draw
        # with one median over the whole array gave the same interval
        assert (est.estimate, est.ci_lo, est.ci_hi) == (
            pin(0.2425442698420007, 0.24254426984200084), 0.2003652620207774,
            0.28641725179830957)

    def test_levy_theory_targets(self):
        hi = _levy_spec(alpha="1.5")
        est = holder_pathwise(hi, 0.5, [2.0 ** -k for k in range(4, 10)],
                              4, 200, seed=2)
        assert est.theory == pytest.approx(1.0 / 1.5)
        low = _levy_spec(alpha="0.8", c=0.3, d=0.95)
        est2 = holder_pathwise(low, 0.5, [2.0 ** -k for k in range(4, 10)],
                               4, 200, seed=2, alpha_regularity=0.4)
        assert est2.theory == pytest.approx(0.4)

    def test_lmmm_theory_is_upper_bound(self):
        spec = _lmmm_spec(H="0.75")
        est = holder_pathwise(spec, 0.5, [2.0 ** -k for k in range(4, 9)],
                              3, 150, seed=3)
        assert est.theory == pytest.approx(0.75)
        assert "upper" in est.theory_note

    def test_lmmm_no_theory_when_kappa_is_negative(self):
        spec = make_process("lmmm", _fs("1.2"), _fs("1"), _fs("0.5"),
                            (0.0, 1.0), 1.1, 1.3)
        est = holder_pathwise(spec, 0.5, [2.0 ** -k for k in range(4, 9)],
                              3, 150, seed=3)
        assert est.theory is None
        assert "1/alpha" in est.theory_note


R_ORACLE = [2.0 ** -k for k in range(4, 10)]
# the increments a crafted path is given at its unusable levels
_UNUSABLE = (0.0, np.nan, np.inf, -np.inf)


def _crafted_increments(m_paths, usable, seed):
    """(m_paths, len(R_ORACLE)) increments ~ r^0.5 with noise; row i has
    usable[i] usable levels, the others one of _UNUSABLE in turn."""
    rng = np.random.default_rng(seed)
    n = len(R_ORACLE)
    inc = (np.asarray(R_ORACLE) ** 0.5 * rng.lognormal(0.0, 0.1, (m_paths, n))
           * rng.choice([-1.0, 1.0], (m_paths, n)))
    bad = 0
    for i, u in enumerate(usable):
        cols = rng.permutation(n)[u:]
        inc[i, cols] = [_UNUSABLE[(bad + j) % 4] for j in range(len(cols))]
        bad += len(cols)
    return inc


class TestHolderSlopesOracle:
    """The masked least-squares pass against the per-path loop of
    oracles.holder_slopes_loop, on crafted increments."""

    def _run(self, monkeypatch, inc):
        # Y(t) = 0 on every path, so the increments are exactly inc
        vals = np.column_stack([np.zeros(inc.shape[0]), inc])

        def samples(spec, grid, m_paths, *args, **kwargs):
            assert len(grid) == vals.shape[1] and m_paths == vals.shape[0]
            return vals

        monkeypatch.setattr(estimate, "diagonal_samples", samples)
        return holder_pathwise(_levy_spec(), 0.5, R_ORACLE, inc.shape[0], 10,
                               seed=1)

    @pytest.mark.parametrize("m_paths", [1, 509])
    def test_matches_per_path_loop(self, monkeypatch, m_paths):
        n = len(R_ORACLE)
        # 0, 1, 2 and all levels usable, then every count in between
        usable = ([n] if m_paths == 1 else
                  [0, 1, 2, n] + [i % (n + 1) for i in range(m_paths - 4)])
        inc = _crafted_increments(m_paths, usable, seed=m_paths)
        dy = np.abs(inc)
        slopes, dropped = oracles.holder_slopes_loop(dy, np.log(R_ORACLE))
        est = self._run(monkeypatch, inc)
        assert est.drop_count == sum(n - u for u in usable)
        assert est.dropped_paths == dropped == sum(u < 2 for u in usable)
        assert abs(est.estimate - float(np.median(slopes))) <= 1e-12

    def test_two_usable_levels_on_one_path(self, monkeypatch):
        inc = _crafted_increments(1, [2], seed=3)
        slopes, _ = oracles.holder_slopes_loop(np.abs(inc), np.log(R_ORACLE))
        est = self._run(monkeypatch, inc)
        assert (est.drop_count, est.dropped_paths) == (len(R_ORACLE) - 2, 0)
        assert abs(est.estimate - slopes[0]) <= 1e-12

    def test_every_path_dropped_raises(self, monkeypatch):
        inc = _crafted_increments(509, [i % 2 for i in range(509)], seed=4)
        assert oracles.holder_slopes_loop(np.abs(inc),
                                          np.log(R_ORACLE))[0].size == 0
        with pytest.raises(ValueError, match="every path lost all "
                           "increments; widen r_levels"):
            self._run(monkeypatch, inc)


class TestIncrementCf:
    def test_unit_at_origin_and_even(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        assert levy_increment_cf(spec, 0.3, 2.0 ** -6, 0.0) == 1.0
        a = levy_increment_cf(spec, 0.3, 2.0 ** -6, 1.7)
        b = levy_increment_cf(spec, 0.3, 2.0 ** -6, -1.7)
        assert a == b

    def test_constant_alpha_reduces_to_stable_cf(self):
        # both-exponent phase integral cancels when alpha is flat, leaving
        # exp(-|v|^alpha) exactly; quadrature should agree to its budget
        spec = _levy_spec(alpha="1.5")
        for v in (0.3, 1.0, 2.5, 4.0):
            got = levy_increment_cf(spec, 0.3, 2.0 ** -6, v)
            assert abs(got - math.exp(-v ** 1.5)) < 1e-9

    def test_monotone_decreasing_for_varying_alpha(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        vs = np.linspace(0.0, 5.0, 21)
        phi = [levy_increment_cf(spec, 0.3, 2.0 ** -6, float(v)) for v in vs]
        assert all(a >= b for a, b in zip(phi, phi[1:]))
        assert phi[0] == 1.0 and phi[-1] < 0.2

    @pytest.mark.parametrize("v", [0.5, 4.0])
    def test_small_eps_matches_mpmath(self, v):
        # at eps 2^-10 the exponents 1/alpha(t) and 1/alpha(t + eps) differ
        # by 1.8e-4, so the two terms of the phase nearly cancel
        pytest.importorskip("mpmath")
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        t, r = 0.3, 2.0 ** -10
        s1, s2 = 1.0 / spec.alpha(t), 1.0 / spec.alpha(t + r)
        q1 = v * c_alpha(1.0 / s1) ** s1 / (2.0 * r ** s1)
        q2 = v * c_alpha(1.0 / s2) ** s2 / (2.0 * r ** s1)
        want = math.exp(-2.0 * (
            t * oracles.phase_integral_mpmath(q1, s1, q2, s2)
            + r * oracles.phase_integral_mpmath(0.0, s2, q2, s2)))
        got = levy_increment_cf(spec, t, r, v)
        assert abs(got / want - 1.0) <= 1e-12

    def test_small_eps_far_in_v(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        assert 0.0 <= levy_increment_cf(spec, 0.3, 2.0 ** -10, 700.0) <= 1.0

    def test_requires_indicator_kernel(self):
        with pytest.raises(ValueError, match="indicator"):
            levy_increment_cf(_lmmm_spec(), 0.3, 0.01, 1.0)

    def test_empirical_cf_tracks_numeric(self):
        spec = _levy_spec(alpha="1.5", c=0.4)
        rep = ecf_compare(spec, 0.3, 2.0 ** -6, [0.0, 0.8, 1.6, 2.4],
                          2000, 2000, seed=4)
        assert rep.sup_gap < 0.05
        assert rep.empirical[0] == 1.0 and rep.numeric[0] == 1.0


class TestConditionProbes:
    def test_levy_values_are_exact(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)", c=1.1, d=1.9)
        rng = np.random.default_rng(9)
        for _ in range(5):
            t = float(rng.uniform(0.05, 0.9))
            r = float(2.0 ** -rng.integers(4, 12))
            assert condition_probe(spec, "C9", t, [r]).values[0] == 1.0
            assert condition_probe(spec, "Cu14", t, [r]).values[0] == 1.0
            assert condition_probe(spec, "Cu15", t, [r]).values[0] == 0.0
            assert condition_probe(spec, "C11", t, [r]).values[0] == t + r
            assert condition_probe(spec, "C12", t, [r]).values[0] == t + r
            assert condition_probe(spec, "C13", t, [r]).values[0] == t

    def test_lmmm_c9_is_kink_integral(self):
        spec = _lmmm_spec(alpha="1.7", H="0.75")
        v = condition_probe(spec, "C9", 0.4, [2.0 ** -8]).values[0]
        want = kink_power_integral(1.7, 0.75 - 1.0 / 1.7)
        assert abs(v / want - 1.0) < 1e-10

    def test_lfsm_c9_reads_the_side_weights(self):
        spec = make_process("lfsm-control", _fs("1.7"), _fs("1"), _fs("0.75"),
                            (0.0, 1.0), 1.2, 1.95, b_plus=1.0, b_minus=0.3)
        v = condition_probe(spec, "C9", 0.4, [2.0 ** -8]).values[0]
        assert v == kink_power_integral(1.7, 0.75 - 1.0 / 1.7, (1.0, 0.3))

    def test_lmmm_c11_against_direct_quadrature(self):
        from scipy.integrate import quad
        spec = _lmmm_spec(alpha="1.7", H="0.75")
        t, r = 0.4, 2.0 ** -5
        got = condition_probe(spec, "C11", t, [r]).values[0]
        k = spec.kappa(t)

        def g(x):
            return (abs(t + r - x) ** k - abs(x) ** k) ** 2

        core, _ = quad(g, -60.0, 60.0, points=[0.0, t + r], limit=400)
        beta = 1.0 - 2.0 * k
        tail = 2.0 * (k * (t + r)) ** 2 * 60.0 ** -beta / beta
        # the reference tail keeps only the leading power, so allow its
        # O(t/x_max) correction in the comparison
        assert abs(got / (core + tail) - 1.0) < 1e-5

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.3), (0.2, 1.0)])
    @pytest.mark.parametrize("r", [2.0 ** -3, 2.0 ** -6])
    def test_moving_average_against_closed_form(self, weights, r):
        # every probe of the moving-average family is an L^2 integral of
        # the kernel, so the Fourier closed form pins all but C9.  The
        # probes read only the kernel, so this one takes side weights and a
        # varying H together, which make_process refuses for any process
        spec = _lmmm_spec(alpha="1.7", H="0.7+0.1*t")
        spec = dataclasses.replace(spec, kernel=lmmm_kernel(
            spec.alpha, spec.H, weights)[0])
        t = 0.4
        k_t, k_tr = spec.kappa(t), spec.kappa(t + r)
        l2 = lambda v, k1, k2: oracles.moving_average_l2(v, k1, k2, *weights)
        want = {"C11": l2(t + r, k_t, k_t),
                "C12": l2(t + r, k_tr, k_tr),
                "C13": l2(t, k_t, k_t),
                "Cu14": l2(1.0, k_t, k_t),
                "Cu15": (l2(t + r, k_tr, k_tr) - 2.0 * l2(t + r, k_tr, k_t)
                         + l2(t + r, k_t, k_t)) / r ** 2}
        for cond, value in want.items():
            got = condition_probe(spec, cond, t, [r]).values[0]
            assert abs(got / value - 1.0) < 1e-9, cond

    def test_lmmm_cu15_vanishes_for_constant_parameters(self):
        # u enters the kernel only through kappa(u); constant alpha and H
        # freeze it, so the u-derivative condition integral is zero
        spec = _lmmm_spec(alpha="1.7", H="0.75")
        v = condition_probe(spec, "Cu15", 0.4, [2.0 ** -6]).values[0]
        assert abs(v) < 1e-10

    def test_lmmm_cu15_positive_for_varying_H(self):
        spec = _lmmm_spec(alpha="1.7", H="0.7+0.1*t")
        v = condition_probe(spec, "Cu15", 0.4, [2.0 ** -6]).values[0]
        assert v > 0.0

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError, match="C99"):
            condition_probe(_levy_spec(), "C99", 0.3, [0.01])


class TestKsTwoSample:
    def test_identical_samples_give_zero(self):
        x = np.linspace(0.0, 1.0, 100)
        r = ks_two_sample(x, x)
        assert r.statistic == 0.0

    def test_disjoint_samples_give_one(self):
        r = ks_two_sample(np.arange(10.0), np.arange(10.0) + 100.0)
        assert r.statistic == 1.0

    def test_null_acceptance_rate(self):
        rng = np.random.default_rng(15)
        accepted = 0
        for _ in range(50):
            a = rng.standard_normal(800)
            b = rng.standard_normal(800)
            r = ks_two_sample(a, b)
            accepted += r.statistic < r.crit_05
        assert accepted >= 44

    def test_critical_value_formula(self):
        r = ks_two_sample(np.zeros(400), np.ones(100))
        want = 1.3581 * math.sqrt((400 + 100) / (400 * 100))
        assert abs(r.crit_05 - want) < 1e-12
