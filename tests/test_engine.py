import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multistable import cli, engine
from multistable.engine import (_STREAMS, PoissonEnvironment,
                                _diagonal_values, _grid_scales, _substream,
                                arrival_tail_sum, build_environment,
                                eval_diagonal_path, tail_covariance,
                                tail_draw, tail_sqrt, truncation_diagnostic)
from multistable.expr import FuncSpec
from multistable.kernels import make_process, pair_integral
from multistable.stable import c_alpha

import oracles
from pins import pin


def _fs(src, domain=(0.0, 1.0)):
    return FuncSpec.parse(src, domain)


def _levy_spec(alpha="1.5", b="1"):
    return make_process("levy", _fs(alpha), _fs(b), None, (0.0, 1.0),
                        0.5, 1.9)


def _lmmm_spec(alpha="1.7+0.2*sin(2*pi*t)", H="0.7+0.1*t"):
    return make_process("lmmm", _fs(alpha), _fs("1"), _fs(H), (0.0, 1.0),
                        1.2, 1.95)


class TestEnvironment:
    def test_rebuild_is_identical(self):
        spec = _lmmm_spec()
        a = build_environment(spec, 500, seed=3, index=7)
        b = build_environment(spec, 500, seed=3, index=7)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.weights, b.weights)

    def test_distinct_indices_decouple(self):
        spec = _levy_spec()
        a = build_environment(spec, 100, seed=3, index=0)
        b = build_environment(spec, 100, seed=3, index=1)
        assert not np.array_equal(a.arrivals, b.arrivals)
        assert not np.array_equal(a.points, b.points)

    def test_longer_run_extends_shorter_exactly(self):
        # the truncation diagnostic depends on this prefix property
        spec = _lmmm_spec()
        short = build_environment(spec, 300, seed=11, index=2)
        long = build_environment(spec, 600, seed=11, index=2)
        assert np.array_equal(long.arrivals[:300], short.arrivals)
        assert np.array_equal(long.points[:300], short.points)
        assert np.array_equal(long.signs[:300], short.signs)
        assert np.array_equal(long.weights[:300], short.weights)

    def test_arrivals_ascending_with_unit_first_mean(self):
        spec = _levy_spec()
        firsts = []
        for idx in range(4000):
            env = build_environment(spec, 2, seed=5, index=idx)
            assert env.arrivals[0] < env.arrivals[1]
            firsts.append(env.arrivals[0])
        m = np.mean(firsts)
        assert abs(m - 1.0) < 3.5 / math.sqrt(len(firsts))

    def test_signs_are_pm_one(self):
        spec = _levy_spec()
        env = build_environment(spec, 1000, seed=9)
        assert set(np.unique(env.signs)) == {-1.0, 1.0}
        assert abs(np.mean(env.signs)) < 0.11

    def test_n_terms_validated(self):
        with pytest.raises(ValueError):
            build_environment(_levy_spec(), 0, seed=1)


# sha256 of the float64 bytes of one environment and its path at (seed 7,
# index 5), 20,000 terms, on the grid 0, 1/8, ..., 1; recorded with the
# plain binary-search band sampler.  Index 5 draws two lmmm bands past the
# 65,536-entry table.  A change that moves any drawn number or path value
# fails here; arrivals and signs do not depend on the process.
_GOLDEN_SHARED = {
    "arrivals": ("aa604031643ef629c5251fe7edc0ef77"
                 "871d87fcb7ee7aec64acc3d05939737d"),
    "signs": ("44c37a99dba38d15a53e56fe1a9c92c5"
              "a314e6c4bceff53ba268435cc3d32959"),
}
_GOLDEN = {
    "levy": {
        "points": ("ce86aaa5f024bdd95ae500cde18ec7af"
                   "dc68178cb1b538f5a68a8f4352f5080f"),
        "weights": ("c4d6b891e36e9ffc6f27915a86785de5"
                    "03d347aa165ec12b4ec410b5f74928cf"),
        "path": pin("6c5df99b2844ef015b9576849feec8ad"
                    "cbc08338282a7fd50e616d77375790f6",
                    "7549d84cfdaf1218a7e0e8a8d455370d"
                    "aa5eb22ce378d9b278125e671878f2c9"),
    },
    "lmmm": {
        "points": ("7bfc3b53a20a2343ee3382d09f5d14e4"
                   "a42bc32749b469925f8ce6412d7c13de"),
        "weights": ("eee75554834dacbf1c473f8375b48fd8"
                    "8be78a9c396ee19c8ae4ae30022ead80"),
        "path": pin("8b13b9cb1a477b3d9de4133a8a59845d"
                    "de0624ac38d4226e36eaff249d9eef52",
                    "98c627f41b34a26fae6cca3fd55ecfad"
                    "8db9be71145e25b368f2a305b367a808"),
    },
    "lfsm-control": {
        "points": ("7bfc3b53a20a2343ee3382d09f5d14e4"
                   "a42bc32749b469925f8ce6412d7c13de"),
        "weights": ("eee75554834dacbf1c473f8375b48fd8"
                    "8be78a9c396ee19c8ae4ae30022ead80"),
        "path": pin("94f6dad0d7f4986fc22cb9f8f885fa1d"
                    "cd1b35d26d86343989d5f35a3cffab51",
                    "95199af28333994a5d70f8673742426d"
                    "7dffe24a89b813d2b09d782ee4d3a930"),
    },
}


def _golden_spec(tag):
    if tag == "levy":
        return make_process("levy", _fs("1.5+0.3*sin(2*pi*t)"), _fs("1"),
                            None, (0.0, 1.0), 1.1, 1.9)
    if tag == "lmmm":
        return make_process("lmmm", _fs("1.7+0.2*sin(2*pi*t)"), _fs("1"),
                            _fs("0.7+0.1*t"), (0.0, 1.0), 1.45, 1.95)
    return make_process("lfsm-control", _fs("1.5"), _fs("1"), _fs("0.5"),
                        (0.0, 1.0), 1.2, 1.8, b_plus=1.0, b_minus=0.3)


@pytest.mark.parametrize("tag", sorted(_GOLDEN))
def test_environment_and_path_bytes_are_pinned(tag):
    spec = _golden_spec(tag)
    env = build_environment(spec, 20000, seed=7, index=5)
    path = eval_diagonal_path(env, spec, np.linspace(0.0, 1.0, 9))
    arrays = {"arrivals": env.arrivals, "signs": env.signs,
              "points": env.points, "weights": env.weights, "path": path}
    got = {k: hashlib.sha256(np.ascontiguousarray(v, dtype="<f8").tobytes())
           .hexdigest() for k, v in arrays.items()}
    assert got == {**_GOLDEN_SHARED, **_GOLDEN[tag]}


@pytest.mark.parametrize("model", [
    ("lmmm", "1.7+0.2*sin(2*pi*t)", "0.7+0.1*t", 1.0),
    ("lmmm", "1.2", "0.5", 1.0),  # kappa -1/3
    ("lfsm-control", "1.7", "0.75", 0.3),
    ("lfsm-control", "1.5", "0.5", 0.3),  # kappa -1/6
], ids=["lmmm", "lmmm-negative-kappa", "lfsm-control",
        "lfsm-control-negative-kappa"])
def test_shared_log_agrees_with_power_form(model):
    # the series hands each environment's log|x| to the kernel, which then
    # takes its powers as exp(kappa log); without it they are **
    tag, alpha, H, b_minus = model
    spec = make_process(tag, _fs(alpha), _fs("1"), _fs(H), (0.0, 1.0), 1.1,
                        1.9, b_minus=b_minus)
    evaluate = spec.kernel.evaluate
    power = dataclasses.replace(spec, kernel=dataclasses.replace(
        spec.kernel, evaluate=lambda t, u, x, log_ax: evaluate(t, u, x)))
    grid = np.linspace(0.0, 1.0, 9)
    prefs, ss = _grid_scales(spec, grid)
    envs = [build_environment(spec, 4000, seed=3, index=i) for i in range(16)]
    # the far points, |x| > 8 (1 + t), take the expm1 form
    assert sum(np.count_nonzero(np.abs(e.points) > 16.0) for e in envs) > 2000
    got = np.array([_diagonal_values(e, spec, grid, prefs, ss) for e in envs])
    want = np.array([_diagonal_values(e, power, grid, prefs, ss)
                     for e in envs])
    assert got.tobytes() != want.tobytes()
    # measured: 9.8e-15 of each time's largest value, at kappa -1/3
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=0))


class TestFieldEvaluation:
    def test_sign_flip_negates_field_exactly(self):
        spec = _lmmm_spec()
        env = build_environment(spec, 400, seed=21)
        flipped = PoissonEnvironment(arrivals=env.arrivals, points=env.points,
                                     signs=-env.signs, weights=env.weights)
        grid = [0.2, 0.4, 0.8]
        assert np.array_equal(eval_diagonal_path(flipped, spec, grid),
                              -eval_diagonal_path(env, spec, grid))

    def test_levy_path_is_piecewise_constant_between_points(self):
        # under constant alpha the indicator kernel makes Y a pure jump
        # path: values only change when t crosses one of the points
        spec = _levy_spec(alpha="1.5")
        env = build_environment(spec, 200, seed=13)
        pts = np.sort(env.points)
        mid = 0.5 * (pts[50] + pts[51])
        eps = 0.25 * (pts[51] - pts[50])
        path = eval_diagonal_path(env, spec, [mid - eps, mid, mid + eps])
        assert path[0] == path[1] == path[2]

    def test_levy_jump_at_marked_point(self):
        spec = _levy_spec(alpha="1.5")
        env = build_environment(spec, 200, seed=13)
        pts = np.sort(env.points)
        x = pts[100]
        path = eval_diagonal_path(env, spec, [math.nextafter(x, 0.0), x])
        assert path[0] != path[1]

    def test_diagonal_matches_pointwise_field(self):
        # the series written out term by term, in power form rather than
        # the evaluator's exp-log form
        spec = _lmmm_spec()
        env = build_environment(spec, 300, seed=17)
        grid = [0.1, 0.45, 0.9]
        path = eval_diagonal_path(env, spec, grid)
        for t, v in zip(grid, path):
            a = spec.alpha(t)
            s = 1.0 / a
            f = spec.kernel.evaluate(t, t, env.points)
            want = spec.b(t) * c_alpha(a) ** s * float(np.sum(
                env.signs * env.arrivals ** (-s) * env.weights ** s * f))
            assert abs(v - want) < 1e-12 * max(1.0, abs(v))

    def test_alpha_outside_range_raises(self):
        spec = _levy_spec()
        env = build_environment(spec, 10, seed=1)
        # alpha is valid on its declared domain but escapes (0,2) beyond it;
        # evaluation off the domain must still be caught
        wild = make_process("levy", _fs("1.5+10*t", (0.0, 0.04)),
                            _fs("1", (0.0, 0.04)), None, (0.0, 0.04),
                            0.5, 1.95)
        with pytest.raises(ValueError, match="outside"):
            eval_diagonal_path(env, wild, [0.02, 0.9])


class TestTailCovariance:
    def test_levy_entries_are_analytic(self):
        spec = _levy_spec(alpha="1.5", b="2")
        n = 1000
        cov = tail_covariance(spec, [0.3, 0.7], n)
        s = 1.0 / 1.5
        pref = 2.0 * c_alpha(1.5) ** s
        z = arrival_tail_sum(2.0 * s, n)
        want01 = pref * pref * z * 0.3
        assert abs(cov[0, 1] - want01) < 1e-14 * want01
        assert abs(cov[0, 0] - pref * pref * z * 0.3) < 1e-14 * want01
        assert abs(cov[1, 1] - pref * pref * z * 0.7) < 1e-14 * want01
        assert np.array_equal(cov, cov.T)

    def test_degenerate_point_stays_exactly_zero(self):
        # Y(0) = 0 for the levy family; the tail draw must not blur that
        spec = _levy_spec()
        cov = tail_covariance(spec, [0.0, 0.5], 500)
        assert cov[0, 0] == 0.0 and cov[0, 1] == 0.0
        chol = tail_sqrt(cov)
        draw = tail_draw(chol, _substream(4, 9, "tail"))
        assert draw[0] == 0.0 and draw[1] != 0.0

    def test_sqrt_reproduces_covariance(self):
        spec = _lmmm_spec()
        cov = tail_covariance(spec, [0.2, 0.5, 0.8], 800)
        chol = tail_sqrt(cov)
        assert np.allclose(chol @ chol.T, cov, rtol=1e-10, atol=1e-18)

    def test_sqrt_of_grid_from_the_origin_is_cholesky(self):
        # Y(0) = 0 gives a zero row, which stays exactly zero in L; the other
        # rows agree with LAPACK's Cholesky to within rounding
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)")
        cov = tail_covariance(spec, np.linspace(0.0, 1.0, 257), 200)
        assert not np.any(cov[0]) and np.all(cov[1:, 1:] > 0.0)
        chol = tail_sqrt(cov)
        assert not np.any(chol[0]) and not np.any(chol[:, 0])
        assert not np.any(np.triu(chol, 1))
        assert np.abs(chol @ chol.T - cov).max() < 1.6e-15 * cov.max()
        lapack = np.linalg.cholesky(cov[1:, 1:])  # 8.7e-14 apart
        assert np.abs(chol[1:, 1:] - lapack).max() < 2e-13 * lapack.max()

    def test_sqrt_of_positive_variances_is_plain_cholesky(self):
        cov = tail_covariance(_lmmm_spec(), [0.2, 0.5, 0.8], 800)
        chol = tail_sqrt(cov)
        assert np.abs(chol @ chol.T - cov).max() < 1.6e-15 * cov.max()
        lapack = np.linalg.cholesky(cov)  # 1.4e-16 apart
        assert np.abs(chol - lapack).max() < 1e-15 * lapack.max()

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 0.5], [0.2, 0.5, 0.5, 0.9]])
    def test_sqrt_of_duplicate_times_has_a_zero_column(self, grid):
        # a repeated time repeats a row of L, and its own pivot, zero up to
        # rounding, leaves its column zero: L stays lower-triangular
        cov = tail_covariance(_levy_spec(), grid, 200)
        chol = tail_sqrt(cov)
        dup = grid.index(0.5) + 1
        assert not np.any(chol[:, dup])
        assert np.array_equal(chol[dup], chol[dup - 1])
        assert not np.any(np.triu(chol, 1))
        assert np.abs(chol @ chol.T - cov).max() < 1e-15 * cov.max()

    def test_sqrt_at_the_levy_cap_holds_one_matrix(self):
        # L and one row product of at most G^2 / 4 entries; the covariance
        # itself is built before the trace starts.  Read 1.27 G^2 8 B
        n = cli._MAX_TAIL_TIMES["levy"]
        cov = tail_covariance(_levy_spec(alpha="1.5+0.3*sin(2*pi*t)"),
                              np.linspace(0.0, 1.0, n), 200)
        tracemalloc.start()
        try:
            chol = tail_sqrt(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8
        assert not np.any(chol[0]) and not np.any(np.triu(chol, 1))
        assert np.abs(chol @ chol.T - cov).max() <= 1.6e-15 * cov.max()

    def test_sqrt_handles_semidefinite_input(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        chol = tail_sqrt(cov)
        assert np.allclose(chol @ chol.T, cov, atol=1e-12)

    def test_draw_is_deterministic_and_scales(self):
        cov = np.diag([4.0, 9.0])
        chol = tail_sqrt(cov)
        a = tail_draw(chol, _substream(2, 3, "tail"))
        b = tail_draw(chol, _substream(2, 3, "tail"))
        assert np.array_equal(a, b)
        c = tail_draw(tail_sqrt(np.diag([16.0, 36.0])),
                      _substream(2, 3, "tail"))
        assert np.allclose(c, 2.0 * a)

    def test_gaussian_moments_of_draws(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = tail_sqrt(cov)
        draws = np.array([tail_draw(chol, _substream(6, i, "tail"))
                          for i in range(4000)])
        emp = np.cov(draws.T)
        assert np.allclose(emp, cov, atol=0.15)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_names_its_times(self, monkeypatch, bad):
        # a non-finite pair integral must not reach the matrix square root,
        # which would leave a NaN in L, or zero a NaN pivot's column, without
        # naming the times
        monkeypatch.setattr(engine, "pair_integral",
                            lambda spec, tA, tB, s, **kw: bad)
        with pytest.raises(ArithmeticError,
                           match=rf"times 0\.25 and 0\.25 is {bad!r}"):
            tail_covariance(_lmmm_spec(), [0.25, 0.75], 500)

    def test_non_finite_pair_names_both_times(self, monkeypatch):
        # only the pair (0.25, 0.75) is non-finite: the second entry of the
        # second row, which is named only if the row's offset is kept
        exact = engine.pair_integral
        monkeypatch.setattr(
            engine, "pair_integral", lambda spec, tA, tB, s, **kw:
            math.inf if (tA, tB) == (0.25, 0.75)
            else exact(spec, tA, tB, s, **kw))
        with pytest.raises(ArithmeticError,
                           match=r"times 0\.25 and 0\.75 is inf"):
            tail_covariance(_lmmm_spec(), [0.1, 0.25, 0.75], 500)

    @pytest.mark.parametrize("grid,bad", [([0.25, 0.75], "0.25 is inf"),
                                          ([0.0, 0.5], "0.0 is nan")])
    def test_non_finite_levy_entry_names_its_times(self, grid, bad):
        # b^2 overflows: inf, and inf * min(0, 0) is nan
        with pytest.raises(ArithmeticError, match=rf"and {bad}"):
            tail_covariance(_levy_spec(b="1e200"), grid, 500)

    def test_levy_matches_the_pair_loop_bitwise(self):
        from scipy.special import poch

        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)")
        grid = np.linspace(0.0, 1.0, 65)
        prefs, ss = engine._grid_scales(spec, grid)
        want = oracles.tail_covariance_loop(
            [float(t) for t in grid], prefs, ss, lambda tA, tB, s: min(tA, tB),
            lambda c: float(poch(2000, 1.0 - c)) / (c - 1.0))
        assert np.array_equal(tail_covariance(spec, grid, 2000), want)

    def test_levy_covariance_of_1024_times_in_one_array(self):
        from scipy.special import poch

        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)")
        G = 1024
        grid = np.linspace(0.0, 1.0, G)
        tail_covariance(spec, grid[:2], 2000)  # the first call imports poch
        tracemalloc.start()
        try:
            cov = tail_covariance(spec, grid, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MiB matrix, one row at a time of temporaries and the final
        # finiteness mask; whole-matrix temporaries took three times that
        assert peak <= G * G * 8 + 4 * 2 ** 20
        prefs, ss = engine._grid_scales(spec, grid)
        want = oracles.tail_covariance_loop(
            [float(t) for t in grid], prefs, ss, lambda tA, tB, s: min(tA, tB),
            lambda c: float(poch(2000, 1.0 - c)) / (c - 1.0))
        assert np.array_equal(cov, want)

    @pytest.mark.parametrize("tag,alpha,H,weights,grid", [
        # the lmmm-holder workload's grid: t 0.5 and t + 2^-6..2^-17
        ("lmmm", "1.7+0.2*sin(2*pi*t)", "0.7+0.1*t", (1.0, 1.0),
         [0.5, *(0.5 + 2.0 ** -k for k in range(6, 18))]),
        # kinks at and next to band 2, which some pairs grade
        ("lmmm", "1.7+0.2*sin(2*pi*t)", "0.7+0.1*t", (1.0, 1.0),
         [0.7, 0.76, 0.8, 0.95, 1.0]),
        ("lfsm-control", "1.7", "0.75", (1.0, 0.3), [0.2, 0.5, 0.9, 1.0])])
    def test_lmmm_matches_the_pair_loop_bitwise(self, tag, alpha, H, weights,
                                                grid):
        # shared kernel rows give each entry the bits of a pair alone
        spec = make_process(tag, _fs(alpha), _fs("1"), _fs(H), (0.0, 1.0),
                            1.2, 1.95, *weights)
        prefs, ss = engine._grid_scales(spec, grid)
        want = oracles.tail_covariance_loop(
            grid, prefs, ss, lambda tA, tB, s: pair_integral(spec, tA, tB, s),
            lambda c: arrival_tail_sum(c, 4000))
        assert np.array_equal(tail_covariance(spec, grid, 4000), want)

    def test_levy_covariance_of_1024_times_is_fast(self):
        spec = _levy_spec(alpha="1.5+0.3*sin(2*pi*t)")
        grid = np.linspace(0.0, 1.0, 1024)
        started = time.perf_counter()
        cov = tail_covariance(spec, grid, 200)
        assert time.perf_counter() - started < 1.0
        assert cov.shape == (1024, 1024) and np.all(np.isfinite(cov))


class TestArrivalTailSum:
    @pytest.mark.parametrize("c,n", [(1.05, 3), (4.0 / 3.0, 30),
                                     (1.7, 1000), (3.9, 50), (2.5, 2 ** 20)])
    def test_partial_sums_plus_telescoped_remainder(self, c, n):
        # sum_{i>N} Gamma(i-c)/Gamma(i): the terms N+1..N+K summed one by
        # one in mpmath, then the closed form from N+K on
        mp = pytest.importorskip("mpmath")
        k = 500
        with mp.workdps(40):
            c_mp = mp.mpf(c)
            head = mp.fsum(mp.gamma(i - c_mp) / mp.gamma(i)
                           for i in range(n + 1, n + k + 1))
            rest = mp.gamma(n + k + 1 - c_mp) / ((c_mp - 1) * mp.gamma(n + k))
            want = float(head + rest)
        assert abs(arrival_tail_sum(c, n) / want - 1.0) <= 1e-12

    def test_monte_carlo_moment(self):
        # E[Gamma_{N+1}^(-c)] = S(N) - S(N+1) against Gamma(N+1, 1) draws
        rng = np.random.default_rng(8)
        c, n = 1.6, 5
        x = rng.gamma(n + 1, size=400000) ** -c
        want = arrival_tail_sum(c, n) - arrival_tail_sum(c, n + 1)
        assert abs(np.mean(x) - want) < 4.0 * np.std(x) / math.sqrt(x.size)

    @pytest.mark.parametrize("c,n", [(2.0, 1), (3.5, 2), (1.0, 10),
                                     (0.8, 10)])
    def test_infinite_moment_raises(self, c, n):
        with pytest.raises(ValueError, match="infinite"):
            arrival_tail_sum(c, n)


class TestTruncationDiagnostic:
    @pytest.mark.parametrize("process,t", [("levy", 0.75), ("lmmm", 0.4)])
    def test_exact_rms_matches_observed_differences(self, process, t):
        # sum over pilots of (diff / rms)^2 is near chi^2 with `pilot`
        # degrees of freedom; its 0.1% and 99.9% quantiles at 200
        spec = (_levy_spec(alpha="1.5+0.3*sin(2*pi*t)") if process == "levy"
                else _lmmm_spec())
        pilot = 200
        rep = truncation_diagnostic(spec, [t], 500, seed=31, pilot=pilot)
        assert rep.differences.shape == (pilot, 1)
        stat = float(np.sum((rep.differences / rep.rms) ** 2))
        assert 143.8 < stat < 267.5

    def test_rms_decreases_with_more_terms(self):
        spec = _levy_spec()
        grid = np.linspace(0.05, 1.0, 10)
        r1 = truncation_diagnostic(spec, grid, 500, seed=31)
        r2 = truncation_diagnostic(spec, grid, 4000, seed=31)
        assert np.all(r2.rms < r1.rms)
        # R(t, t) = t for levy, so rms^2 / t is one number at constant alpha
        ratio = r1.rms ** 2 / grid
        assert np.allclose(ratio, ratio[0], rtol=1e-12)


def _key(seed, index, purpose):
    # the entropy words of the generator's key, trailing zeros stripped:
    # NumPy pads a short key with zero words, so a key and the same key with
    # trailing zeros name one generator
    key = list(_substream(seed, index, purpose).bit_generator.seed_seq.entropy)
    while key and key[-1] == 0:
        key.pop()
    return tuple(key)


_WORD = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestStreamKeys:
    def test_padding_makes_trailing_zeros_collide(self):
        a = np.random.default_rng(np.random.SeedSequence((5, 12345)))
        b = np.random.default_rng(np.random.SeedSequence((5, 12345, 0)))
        assert np.array_equal(a.random(4), b.random(4))

    def test_environment_keys_are_seed_index_stream(self):
        keys = [_substream(7, 3, p).bit_generator.seed_seq.entropy
                for p in ("arrivals", "points", "signs", "tail")]
        assert keys == [(7, 3, 0), (7, 3, 1), (7, 3, 2), (7, 3, 3)]

    @pytest.mark.parametrize("seed,index", [(2 ** 32, 0), (0, 2 ** 32),
                                            (-1, 0), (2 ** 32 * 7 + 3, 2)])
    def test_key_words_beyond_32_bits_rejected(self, seed, index):
        # (2^32*7 + 3, 2, arrivals) would be the key of (3, 7, signs)
        with pytest.raises(ValueError, match="2\\^32"):
            _substream(seed, index, "arrivals")

    @given(seed_a=_WORD, index_a=_WORD, seed_b=_WORD, index_b=_WORD,
           purposes=st.permutations(sorted(_STREAMS)))
    def test_purposes_never_share_a_key(self, seed_a, index_a, seed_b,
                                        index_b, purposes):
        a, b = purposes[:2]
        assert _key(seed_a, index_a, a) != _key(seed_b, index_b, b)

    def test_state_table_is_numpys_seeding(self):
        # the vectorised table against SeedSequence + PCG64 on 1,280 keys:
        # random runs of 8 indices, and runs at the words 0 and 2^32 - 1
        rng = np.random.default_rng(23)
        top = 2 ** 32 - 1
        runs = [(0, 0), (top, 0), (0, top - 7), (top, top - 7),
                *zip(rng.integers(0, 2 ** 32, 36).tolist(),
                     rng.integers(0, 2 ** 32 - 8, 36).tolist())]
        seated = np.random.Generator(np.random.PCG64())
        for seed, lo in runs:
            table = engine._seed_words(seed, lo, lo + 8)
            assert table.shape == (8, 4, 4)
            for index, words in enumerate(table, start=lo):
                for purpose, u in zip(engine._ENVIRONMENT_STREAMS, words):
                    ref = _substream(seed, index, purpose).bit_generator
                    assert np.array_equal(
                        u, ref.seed_seq.generate_state(4, np.uint64))
                    state = engine._pcg64_state(*u.tolist())
                    assert state == ref.state
                    seated.bit_generator.state = state
                    assert np.array_equal(seated.bit_generator.random_raw(8),
                                          ref.random_raw(8))

    def test_state_table_checks_every_index(self):
        with pytest.raises(ValueError, match="index 4294967296 must lie"):
            engine._seed_words(3, 2 ** 32 - 2, 2 ** 32 + 1)
