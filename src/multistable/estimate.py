"""Statistical layer: increment moments, scaling fits, pathwise Holder
slopes, increment characteristic functions, and the localisability
condition probes.

Monte Carlo estimators draw one fresh environment per path, built and
evaluated one at a time by the engine.  Because each environment is keyed by
(seed, index) alone, results are reproducible and independent of the worker
count: chunks of the index range can be evaluated on any number of threads
and reassembled by index before a single deterministic reduction.

Truncated series lose the summed tail beyond the largest arrival; by default
the estimators complete each value with a Gaussian draw matching the exact
tail covariance across the evaluation grid (tail="gauss").  Pass tail="none"
to work with the bare truncated sums, e.g. when inspecting the series
itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import (_check_key_words, _diagonal_values, _environments,
                     _substream, tail_covariance, tail_draw, tail_sqrt)
from .kernels import (ModelValues, ProcessSpec, kappa_difference_integral,
                      kink_power_integral, sigma_lmmm)
from .stable import (HALF_PERIODS, c_alpha, sas_abs_moment,
                     sin2_phase_integral)

__all__ = [
    "MomentEstimate",
    "ScalingFit",
    "HolderEstimate",
    "ECFReport",
    "KSResult",
    "diagonal_samples",
    "estimate_increment_moments",
    "theoretical_scaling",
    "fit_scaling",
    "holder_pathwise",
    "levy_increment_cf",
    "ecf_compare",
    "condition_probe",
    "ks_two_sample",
]

# environments per pool task: chunks only set how work is scheduled, never
# the values, since every environment is built and evaluated on its own
_CHUNK = 128

_BOOT_RESAMPLES = 2000


def _chunk_values(spec: ProcessSpec, at: ModelValues,
                  chol: Optional[np.ndarray], n_terms: int, seed: int,
                  lo: int, hi: int) -> np.ndarray:
    """Y(t) for environments lo..hi-1 at the times of at, shape (hi-lo, G)."""
    out = np.empty((hi - lo, at.t.shape[0]))
    envs = _environments(spec, n_terms, seed, lo, hi)
    for k, (env, tail_rng) in enumerate(envs):
        out[k] = _diagonal_values(env, spec, at)
        if chol is not None:
            out[k] += tail_draw(chol, tail_rng)
    return out


def diagonal_samples(spec: ProcessSpec, grid: Sequence[float], m_paths: int,
                     n_terms: int, seed: int, *, tail: str = "gauss",
                     workers: int = 1, index_offset: int = 0) -> np.ndarray:
    """Matrix of path values Y(t), shape (m_paths, len(grid)); row i comes
    from environment index index_offset + i."""
    if tail not in ("gauss", "none"):
        raise ValueError(f"unknown tail mode {tail!r}")
    _check_key_words(seed, index_offset, index_offset + m_paths)
    at = spec.at(grid)
    at.pref  # made here, not on the worker threads
    chol = (tail_sqrt(tail_covariance(spec, grid, n_terms))
            if tail == "gauss" else None)
    out = np.empty((m_paths, at.t.shape[0]))
    bounds = [(lo, min(lo + _CHUNK, index_offset + m_paths))
              for lo in range(index_offset, index_offset + m_paths, _CHUNK)]

    def run(b):
        lo, hi = b
        out[lo - index_offset:hi - index_offset] = _chunk_values(
            spec, at, chol, n_terms, seed, lo, hi)

    if workers <= 1:
        for b in bounds:
            run(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, bounds))
    return out


# ---------------------------------------------------------------------------
# incremental moments and the scaling fit


@dataclass(frozen=True)
class MomentEstimate:
    t: float
    eta: float
    eps: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    m_paths: int
    n_terms: int
    seed: int
    spec: ProcessSpec


def estimate_increment_moments(spec: ProcessSpec, t: float, eta: float,
                               eps_list: Sequence[float], m_paths: int,
                               n_terms: int, seed: int, *,
                               tail: str = "gauss",
                               workers: int = 1) -> MomentEstimate:
    """Empirical E|Y(t+eps) - Y(t)|^eta per eps, each path a fresh
    environment.  Requires eta below the lower stability bound c so the
    moment exists over the whole domain."""
    if not 0.0 < eta < spec.c:
        raise ValueError(
            f"eta must lie in (0, c) = (0, {spec.c!r}), got {eta!r}")
    ests, ses = [], []
    for k, eps in enumerate(eps_list):
        vals = diagonal_samples(spec, [t, t + eps], m_paths, n_terms, seed,
                                tail=tail, workers=workers,
                                index_offset=k * m_paths)
        a = np.abs(vals[:, 1] - vals[:, 0]) ** eta
        ests.append(float(np.mean(a)))
        ses.append(float(np.std(a, ddof=1) / math.sqrt(m_paths)))
    return MomentEstimate(t=t, eta=eta, eps=tuple(float(e) for e in eps_list),
                          estimates=tuple(ests), stderrs=tuple(ses),
                          m_paths=m_paths, n_terms=n_terms, seed=seed,
                          spec=spec)


def theoretical_scaling(spec: ProcessSpec, t: float,
                        eta: float) -> tuple[float, float]:
    """Limit law of the moment curve: log m(eps) ~ slope*log(eps)+intercept
    with slope = eta*h(t) and intercept the log eta-moment of the tangent
    stable law (scale 1 for the indicator kernel, the kink integral root for
    the moving-average family), shifted by the local field scale b(t)."""
    at = spec.at([t])
    a, b, h = float(at.alpha[0]), float(at.b[0]), float(at.h[0])
    sigma = (1.0 if spec.tag == "levy"
             else sigma_lmmm(a, float(at.H[0]), spec.kernel.side_weights))
    return eta * h, (math.log(sas_abs_moment(a, sigma, eta))
                     + eta * math.log(abs(b)))


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    theory_slope: float
    theory_intercept: float
    residuals: tuple[float, ...]


def fit_scaling(me: MomentEstimate) -> ScalingFit:
    """Weighted least squares of log m-hat on log eps, weights from the
    delta-method errors se/m-hat."""
    if len(set(me.eps)) < 2:
        raise ValueError(f"a scaling fit needs two or more distinct eps "
                         f"levels, got {list(me.eps)!r}")
    est = np.asarray(me.estimates)
    if np.any(est <= 0.0):
        bad = [e for e, v in zip(me.eps, me.estimates) if v <= 0.0]
        raise ValueError(f"non-positive moment estimate at eps={bad!r}; "
                         "increase m_paths or drop these levels")
    x = np.log(np.asarray(me.eps))
    y = np.log(est)
    se_log = np.asarray(me.stderrs) / est
    w = 1.0 / se_log ** 2
    xbar = np.sum(w * x) / np.sum(w)
    ybar = np.sum(w * y) / np.sum(w)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    slope_se = float(math.sqrt(1.0 / sxx))
    intercept_se = float(math.sqrt(1.0 / np.sum(w) + xbar ** 2 / sxx))
    th_slope, th_intercept = theoretical_scaling(me.spec, me.t, me.eta)
    resid = tuple(float(r) for r in (y - slope * x - intercept))
    return ScalingFit(slope=slope, slope_se=slope_se, intercept=intercept,
                      intercept_se=intercept_se, theory_slope=th_slope,
                      theory_intercept=th_intercept, residuals=resid)


# ---------------------------------------------------------------------------
# pathwise Holder slope


@dataclass(frozen=True)
class HolderEstimate:
    t: float
    estimate: float
    ci_lo: float
    ci_hi: float
    theory: Optional[float]
    theory_note: str
    drop_count: int      # dropped (path, level) increments
    dropped_paths: int   # paths left with < 2 usable levels
    m_paths: int
    n_terms: int
    seed: int
    r_levels: tuple[float, ...]


def holder_pathwise(spec: ProcessSpec, t: float, r_levels: Sequence[float],
                    m_paths: int, n_terms: int, seed: int, *,
                    tail: str = "gauss", workers: int = 1,
                    alpha_regularity: Optional[float] = None
                    ) -> HolderEstimate:
    """Median over paths of the per-path regression slope of
    log |Y(t+r) - Y(t)| on log r, with a bootstrap percentile interval.

    Zero or non-finite increments are dropped per (path, level) and counted.
    alpha_regularity declares the Holder exponent of the alpha function
    itself, which caps the theoretical target when alpha(t) < 1.
    """
    grid = np.concatenate(([t], t + np.asarray(r_levels, dtype=float)))
    vals = diagonal_samples(spec, grid, m_paths, n_terms, seed, tail=tail,
                            workers=workers)
    logr = np.log(np.asarray(r_levels, dtype=float))
    dy = np.abs(vals[:, 1:] - vals[:, [0]])
    ok = np.isfinite(dy) & (dy > 0.0)
    drop_count = int(dy.size - np.count_nonzero(ok))
    # one least-squares pass over the paths with two or more usable levels,
    # masked entries 0: row sums, not BLAS dot products, make the slopes
    k = np.count_nonzero(ok, axis=1)
    keep = k >= 2
    dropped_paths = int(m_paths - np.count_nonzero(keep))
    if dropped_paths == m_paths:
        raise ValueError("every path lost all increments; widen r_levels")
    ok, k = ok[keep], k[keep, None]
    x = np.where(ok, logr, 0.0)
    y = np.log(np.where(ok, dy[keep], 1.0))
    xc = np.where(ok, x - np.sum(x, axis=1, keepdims=True) / k, 0.0)
    yc = y - np.sum(y, axis=1, keepdims=True) / k
    slopes = np.sum(xc * yc, axis=1) / np.sum(xc * xc, axis=1)
    est = float(np.median(slopes))
    if not 0.0 < est <= 1.5:
        raise ValueError(f"pathwise slope {est!r} outside (0, 1.5]; "
                         "the window is not in the scaling regime")
    # one draw (blocked draws would discard different halves of 64-bit
    # words); int32 gives the same indices as int64 below 2^32.  The
    # medians run over blocks of at most 2^16 gathered slopes.
    n = slopes.shape[0]
    idx = _substream(seed, 0, "bootstrap").integers(
        0, n, size=(_BOOT_RESAMPLES, n), dtype=np.int32)
    rows = max(1, 2 ** 16 // n)
    boot = np.concatenate([
        np.median(slopes[idx[i:i + rows]], axis=1, overwrite_input=True)
        for i in range(0, _BOOT_RESAMPLES, rows)])
    ci_lo, ci_hi = (float(q) for q in np.percentile(boot, [2.5, 97.5]))
    theory, note = _holder_theory(spec, t, alpha_regularity)
    return HolderEstimate(t=t, estimate=est, ci_lo=ci_lo, ci_hi=ci_hi,
                          theory=theory, theory_note=note,
                          drop_count=drop_count, dropped_paths=dropped_paths,
                          m_paths=m_paths, n_terms=n_terms, seed=seed,
                          r_levels=tuple(float(r) for r in r_levels))


def _holder_theory(spec: ProcessSpec, t: float,
                   alpha_regularity: Optional[float]):
    at = spec.at([t])
    a = float(at.alpha[0])
    if spec.tag != "levy":
        kappa = float(at.kappa[0])
        if kappa < 0.0:
            return None, "H(t) - 1/alpha(t) < 0: no Holder bound is asserted"
        if kappa == 0.0 and spec.tag == "lmmm":  # lfsm-control: Levy motion
            return None, "H(t) = 1/alpha(t): every path is 0 at t"
        return float(at.H[0]), "upper bound H(t)"
    if a < 1.0:
        if alpha_regularity is None:
            return None, "alpha(t) < 1: declare alpha_regularity for a target"
        return min(1.0 / a, alpha_regularity), "min(1/alpha, alpha regularity)"
    if alpha_regularity is not None and alpha_regularity < 1.0:
        return None, "alpha(t) >= 1 with rough alpha: no established target"
    return 1.0 / a, "1/alpha(t) for smooth alpha"


# ---------------------------------------------------------------------------
# increment characteristic function (indicator kernel)


def levy_increment_cf(spec: ProcessSpec, t: float, r: float, v: float,
                      half_periods: int = HALF_PERIODS) -> float:
    """Characteristic function of (Y(t+r) - Y(t)) / r^h(t) for the indicator
    kernel, via the two phase integrals: points below t carry both stability
    exponents, points in (t, t+r] only the right one.  half_periods is
    sin2_phase_integral's Euler-sum length."""
    if spec.tag != "levy":
        raise ValueError(f"increment cf requires the indicator kernel, "
                         f"got {spec.tag!r}")
    if v == 0.0:
        return 1.0
    at = spec.at([t, t + r])
    (a1, a2), (s1, s2) = at.alpha.tolist(), at.s.tolist()
    scale = 2.0 * r ** s1
    q1, q2 = (abs(v) * abs(b) * c_alpha(a) ** s / scale for a, b, s
              in zip((a1, a2), at.b.tolist(), (s1, s2)))
    i_both = sin2_phase_integral(q1, s1, q2, s2, half_periods)
    # a2 q2^a2 int u^(-a2-1) sin^2 u du, in closed form
    i_single = q2 ** a2 * 2.0 ** (a2 - 1.0) / c_alpha(a2)
    return math.exp(-2.0 * (t * i_both + r * i_single))


@dataclass(frozen=True)
class ECFReport:
    t: float
    r: float
    v_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    numeric: tuple[float, ...]
    sd: tuple[float, ...]  # sample sd of cos(v d) at each v
    sup_gap: float


def ecf_compare(spec: ProcessSpec, t: float, r: float,
                v_grid: Sequence[float], m_paths: int, n_terms: int,
                seed: int, *, tail: str = "gauss", workers: int = 1,
                half_periods: int = HALF_PERIODS) -> ECFReport:
    """Empirical cos-transform of normalized increments against the numeric
    characteristic function on a v grid."""
    vals = diagonal_samples(spec, [t, t + r], m_paths, n_terms, seed,
                            tail=tail, workers=workers)
    d = (vals[:, 1] - vals[:, 0]) / r ** float(spec.at([t]).h[0])
    emp, num, sd = [], [], []
    for v in v_grid:
        cos_vd = np.cos(v * d)
        emp.append(float(np.mean(cos_vd)))
        sd.append(float(np.std(cos_vd, ddof=1)))
        num.append(levy_increment_cf(spec, t, r, float(v), half_periods))
    gap = float(np.max(np.abs(np.asarray(emp) - np.asarray(num))))
    return ECFReport(t=t, r=r, v_grid=tuple(map(float, v_grid)),
                     empirical=tuple(emp), numeric=tuple(num), sd=tuple(sd),
                     sup_gap=gap)


# ---------------------------------------------------------------------------
# localisability condition probes


_CONDITIONS = ("C9", "C11", "C12", "C13", "Cu14", "Cu15")


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    t: float
    r_list: tuple[float, ...]
    values: tuple[float, ...]


def condition_probe(spec: ProcessSpec, condition: str, t: float,
                    r_list: Sequence[float]) -> ConditionReport:
    """Numerical values of the localisability integrals, one per r.

    C9   r^(-h a) int |f(t+r,t,x) - f(t,t,x)|^a m(dx)      (a = alpha(t))
    C11  int f(t+r,t,x)^2 m(dx)
    C12  int f(t+r,t+r,x)^2 m(dx)
    C13  int f(v,v,x)^2 m(dx) at v = t
    Cu14 r^(-(1+2(h-1/a))) int (f(t+r,t,x) - f(t,t,x))^2 m(dx)
    Cu15 r^(-2) int (f(t+r,t+r,x) - f(t+r,t,x))^2 m(dx)

    For the indicator kernel these are interval lengths and evaluate in
    closed form; the moving-average family reduces to kink power integrals
    by scaling, and Cu15 to the kernel at t+r under kappa(t+r) and kappa(t).
    """
    cond = condition.strip()
    if cond not in _CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; "
                         f"expected one of {_CONDITIONS}")
    rs = [float(r) for r in r_list]
    at = spec.at([t] + [t + r for r in rs])
    vals = [_one_condition(spec, cond, t, r, at, j)
            for j, r in enumerate(rs, 1)]
    return ConditionReport(condition=cond, t=t, r_list=tuple(rs),
                           values=tuple(vals))


def _one_condition(spec: ProcessSpec, cond: str, t: float, r: float,
                   at: ModelValues, j: int) -> float:
    """One probe value; at holds t, then t + r at index j."""
    if spec.tag == "levy":
        # f(.,u,x) = 1_[0,.](x) does not depend on u; differences in t
        # integrate to the interval length r, and with h = 1/alpha both
        # normalising exponents are identically 1, so C9 and Cu14 reduce to
        # r^-1 * r = 1 by algebra, not by floating-point cancellation
        if cond in ("C9", "Cu14"):
            return 1.0
        if cond == "C11" or cond == "C12":
            return t + r
        if cond == "C13":
            return t
        return 0.0  # Cu15: integrand identically zero
    a, k_t, k_tr = float(at.alpha[0]), float(at.kappa[0]), float(at.kappa[j])
    if cond == "Cu15":  # f(v,u,x) depends on u only through kappa(u)
        return kappa_difference_integral(
            t + r, k_tr, k_t, spec.kernel.side_weights) / (r * r)
    # x -> v x: v^(1+2 kappa) times a kink integral, v = 1 where normalised
    v, k, p = {"C9": (1.0, k_t, a), "C11": (t + r, k_t, 2.0),
               "C12": (t + r, k_tr, 2.0), "C13": (t, k_t, 2.0),
               "Cu14": (1.0, k_t, 2.0)}[cond]
    return (v ** (1.0 + 2.0 * k)
            * kink_power_integral(p, k, spec.kernel.side_weights))


# ---------------------------------------------------------------------------
# two-sample comparison


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int
    m: int
    crit_05: float
    crit_01: float


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KSResult:
    """Kolmogorov-Smirnov distance with the large-sample 5% and 1% critical
    values c(q) sqrt((n+m)/(nm))."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    both = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, both, side="right") / n
    cdf_b = np.searchsorted(b, both, side="right") / m
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    scale = math.sqrt((n + m) / (n * m))
    return KSResult(statistic=d, n=n, m=m, crit_05=1.3581 * scale,
                    crit_01=1.6276 * scale)
