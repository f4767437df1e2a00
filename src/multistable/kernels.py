"""Kernels f(t,u,x) and measure spaces for the implemented processes.

Two constructions share one code path: the finite-measure case (uniform on
[0,1], weight w == 1) and the sigma-finite case (band measure on R with
density 1/w), because a measure's sampler returns each point V_i with its
weight and the series always multiplies each point by w(V_i)^(1/alpha(t)).

Path values and the pair integrals use only the diagonal u = t of f(t,u,x);
the localisability probes also vary u.

Also houses the kernel-specific integrals: the lmmm scale integral
sigma_lmmm, its generalization kink_power_integral, and the measure-weighted
pair integrals at two path times that drive truncation-tail covariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from .expr import FuncSpec, validate_range

__all__ = [
    "MeasureSpec",
    "Kernel",
    "ProcessSpec",
    "levy_kernel",
    "lmmm_kernel",
    "sigma_lmmm",
    "kink_power_integral",
    "pair_integral",
]

_PI2_3 = math.pi ** 2 / 3.0
_6_PI2 = 6.0 / math.pi ** 2

# cumulative band law F(j) = (6/pi^2) sum_{i<=j} i^-2; the table covers all
# but ~9.3e-6 of the mass, the trigamma-asymptotic bisection handles the rest
_BAND_TABLE_N = 1 << 16
_band_cum: Optional[np.ndarray] = None


def _band_table() -> np.ndarray:
    global _band_cum
    if _band_cum is None:
        js = np.arange(1, _BAND_TABLE_N + 1, dtype=float)
        _band_cum = np.cumsum(_6_PI2 / (js * js))
    return _band_cum


def _psi1_tail(x: float) -> float:
    """Trigamma psi_1(x) by Euler-Maclaurin; relative error ~x^-6, used only
    beyond the table where that is far below float resolution.  (scipy's
    polygamma drifts by ~1e-5 relative for x ~ 1e11.)"""
    ix = 1.0 / x
    return ix * (1.0 + ix * (0.5 + ix * (1.0 / 6.0 - ix * ix / 30.0)))


def _bands_from_uniform(u: np.ndarray) -> np.ndarray:
    table = _band_table()
    j = np.searchsorted(table, u, side="right") + 1
    overflow = j > _BAND_TABLE_N
    if np.any(overflow):
        j = j.astype(np.int64)
        for idx in np.nonzero(overflow)[0]:
            # smallest j with survival (6/pi^2) psi_1(j+1) <= 1-u
            target = 1.0 - u[idx]
            lo = _BAND_TABLE_N
            hi = max(int(2.0 * _6_PI2 / target), lo + 2)
            while _6_PI2 * _psi1_tail(hi + 1.0) > target:
                hi *= 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _6_PI2 * _psi1_tail(mid + 1.0) <= target:
                    hi = mid
                else:
                    lo = mid
            j[idx] = hi
    return j


@dataclass(frozen=True)
class MeasureSpec:
    """Sampler of m-hat: n points V_i with their weights w(V_i)."""

    sample: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Kernel:
    """Kernel f(t,u,x), vectorized over x."""

    evaluate: Callable[[float, float, np.ndarray], np.ndarray]
    # exponent kappa(u) = H(u) - 1/alpha(u) for the lmmm family, None for levy
    kappa: Optional[Callable[[float], float]] = None
    # side weights (b_plus, b_minus) of the lmmm family; None means (1, 1)
    side_weights: Optional[tuple[float, float]] = None


def _levy_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.random(n)
    return x, np.ones(n)


def levy_kernel() -> tuple[Kernel, MeasureSpec]:
    """Indicator kernel 1_[0,t](x), Lebesgue probability measure on [0,1]."""

    def evaluate(t: float, u: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return ((x >= 0.0) & (x <= t)).astype(float)

    return Kernel(evaluate=evaluate), MeasureSpec(sample=_levy_sample)


def _lmmm_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random((n, 2))
    j = _bands_from_uniform(u[:, 0]).astype(float)
    pos = u[:, 1]
    x = np.where(pos < 0.5, -j + 2.0 * pos, (j - 1.0) + (2.0 * pos - 1.0))
    return x, _PI2_3 * j * j


def _power_diff(t: float, k: float, x: np.ndarray,
                weights: Optional[tuple[float, float]] = None) -> np.ndarray:
    """|t-x|^k - |x|^k, switching to |x|^k * expm1(k*log1p(+-t/|x|)) far from
    the kinks where the direct difference cancels catastrophically.  Side
    weights (b_plus, b_minus) scale each power by b_plus left of its kink
    and by b_minus right of it."""
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
        # |t-x| - |x| is exactly -t*sign(x) once |x| > |t|, and both powers
        # lie on the same side of their kinks
        out[far] = xf ** k * np.expm1(k * np.log1p(-t * np.sign(x[far]) / xf))
        if weights is not None:
            out[far] *= np.where(x[far] > 0.0, bm, bp)
    return out


def lmmm_kernel(alpha: FuncSpec, H: FuncSpec,
                side_weights: Optional[tuple[float, float]] = None
                ) -> tuple[Kernel, MeasureSpec]:
    """Moving-average kernel |t-x|^kappa(u) - |x|^kappa(u), band measure on R,
    each power weighted b_plus left of its kink and b_minus right of it."""

    def kappa(u: float) -> float:
        return H(u) - 1.0 / alpha(u)

    def evaluate(t: float, u: float, x: np.ndarray) -> np.ndarray:
        return _power_diff(t, kappa(u), np.asarray(x, dtype=float),
                           side_weights)

    return (Kernel(evaluate=evaluate, kappa=kappa, side_weights=side_weights),
            MeasureSpec(sample=_lmmm_sample))


@dataclass(frozen=True)
class ProcessSpec:
    """Process definition: kernel + measure + model functions + domain."""

    tag: str  # levy | lmmm | lfsm-control
    kernel: Kernel
    measure: MeasureSpec
    alpha: FuncSpec
    b: FuncSpec
    H: Optional[FuncSpec]
    domain: tuple[float, float]
    c: float
    d: float
    warnings: tuple[str, ...] = field(default=())

    def h(self, t: float) -> float:
        """Localisability exponent: 1/alpha(t) for levy, H(t) otherwise."""
        if self.tag == "levy":
            return 1.0 / self.alpha(t)
        return self.H(t)

    def kappa(self, u: float) -> float:
        if self.kernel.kappa is None:
            raise ValueError(f"process {self.tag!r} has no kappa exponent")
        return self.kernel.kappa(u)


def make_process(tag: str, alpha: FuncSpec, b: FuncSpec,
                 H: Optional[FuncSpec], domain: tuple[float, float],
                 c: float, d: float,
                 b_plus: float = 1.0, b_minus: float = 1.0) -> ProcessSpec:
    """Validated ProcessSpec factory; collects policy warnings."""
    if not (0.0 < c <= d < 2.0):
        raise ValueError(f"stability bounds must satisfy 0 < c <= d < 2, "
                         f"got c={c!r} d={d!r}")
    report = validate_range(alpha, c, d)
    if not report.ok:
        raise ValueError(
            f"alpha range [{report.vmin:.6g}, {report.vmax:.6g}] leaves "
            f"[{c:.6g}, {d:.6g}]")
    warnings: list[str] = []
    if tag == "levy":
        kernel, measure = levy_kernel()
        H = None
    elif tag in ("lmmm", "lfsm-control"):
        if H is None:
            raise ValueError(f"{tag} requires an H function")
        hmin, hmax = min(H.grid_values), max(H.grid_values)
        if not 0.0 < hmin <= hmax < 1.0:
            raise ValueError(f"H range [{hmin:.6g}, {hmax:.6g}] leaves (0,1)")
        weights = (b_plus, b_minus) if tag == "lfsm-control" else None
        if weights == (0.0, 0.0):
            raise ValueError("side weights b_plus and b_minus are both 0")
        kernel, measure = lmmm_kernel(alpha, H, weights)
        kmin = min(h - 1.0 / a
                   for a, h in zip(alpha.grid_values, H.grid_values))
        if kmin < 0.0:
            warnings.append(
                f"H - 1/alpha dips to {kmin:.4g} < 0: the Holder upper bound "
                "is not asserted in this regime")
    else:
        raise ValueError(f"unknown process tag {tag!r}")
    return ProcessSpec(tag=tag, kernel=kernel, measure=measure, alpha=alpha,
                       b=b, H=H, domain=domain, c=c, d=d,
                       warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# kernel integrals


def kink_power_integral(a: float, kappa: float,
                        side_weights: Optional[tuple[float, float]] = None
                        ) -> float:
    """int_R |f(1,x)|^a dx for the kernel f(1,x) = |1-x|^kappa - |x|^kappa,
    each power weighted b_plus left of its kink and b_minus right of it.

    Adaptive quadrature split at the kinks {0, 1}, plus the analytic
    power-law tail beyond |x| = 50.  Requires (kappa-1)*a < -1.
    """
    x_max = 50.0
    bp, bm = side_weights or (1.0, 1.0)
    if kappa == 0.0:
        # f(1,x) = b_plus - b_minus on (0, 1) and 0 elsewhere
        return abs(bp - bm) ** a
    beta = -((kappa - 1.0) * a + 1.0)
    if beta <= 0.0:
        raise ValueError(f"tail diverges: (kappa-1)*a+1 = {-beta!r} >= 0")

    def g(x: float) -> float:
        return abs((bp if x < 1.0 else bm) * abs(1.0 - x) ** kappa
                   - (bp if x < 0.0 else bm) * abs(x) ** kappa) ** a

    total = 0.0
    for lo, hi in ((-x_max, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, x_max)):
        val, _ = quad(g, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=400)
        total += val
    # far field: |f(1,x)| ~ b |kappa| |x|^(kappa-1), b = b_plus left of 0
    total += ((abs(bp) ** a + abs(bm) ** a) * abs(kappa) ** a
              * x_max ** (-beta) / beta)
    return total


def sigma_lmmm(alpha_t: float, H_t: float,
               side_weights: Optional[tuple[float, float]] = None) -> float:
    """Scale of the tangent stable law: the alpha-th root of the kink
    integral at kappa = H - 1/alpha, with the kernel's side weights."""
    if not 0.0 < alpha_t < 2.0:
        raise ValueError(f"alpha must lie in (0,2), got {alpha_t!r}")
    if not 0.0 < H_t < 1.0:
        raise ValueError(f"H must lie in (0,1), got {H_t!r}")
    return kink_power_integral(alpha_t, H_t - 1.0 / alpha_t,
                               side_weights) ** (1.0 / alpha_t)


_GLX8, _GLW8 = np.polynomial.legendre.leggauss(8)


def _band_pair_integral(fA: Callable[[np.ndarray], np.ndarray],
                        fB: Callable[[np.ndarray], np.ndarray],
                        interior_kinks: list[float],
                        far_coef: float, far_exp: float,
                        sbar: float) -> float:
    """sum_j (pi^2 j^2 / 3)^(sbar-1) int_{band j} fA fB dx.

    Band 1 is integrated adaptively with explicit kink points (fixed-node
    rules leave errors that survive the A-B cancellation in covariance
    differences); bands 2..j0 use vectorized GL-8; beyond j0 the integrand is
    far_coef * |x|^far_exp per band pair, summed by Hurwitz zeta.
    """
    j0 = 4096
    pts = sorted({k for k in interior_kinks if -1.0 < k < 1.0})
    v1, _ = quad(lambda x: float(fA(np.array([x]))[0] * fB(np.array([x]))[0]),
                 -1.0, 1.0, points=pts or None, epsabs=1e-13, epsrel=1e-12,
                 limit=600)
    total = _PI2_3 ** (sbar - 1.0) * v1
    js = np.arange(2, j0 + 1, dtype=float)
    wgt = (_PI2_3 * js ** 2) ** (sbar - 1.0)
    for sign in (1.0, -1.0):
        lo = np.where(sign > 0, js - 1.0, -js)
        xs = lo[:, None] + 0.5 * (1.0 + _GLX8[None, :])
        ws = 0.5 * _GLW8[None, :]
        total += np.sum(wgt * np.sum(ws * fA(xs) * fB(xs), axis=1))
    p = 2.0 * (sbar - 1.0) + far_exp
    if p >= -1.0:
        raise ValueError(f"band tail diverges: exponent {p!r} >= -1")
    total += far_coef * _PI2_3 ** (sbar - 1.0) * zeta(-p, j0 + 1.0)
    return total


def pair_integral(spec: ProcessSpec, tA: float, tB: float,
                  sbar: float) -> float:
    """R_AB = E_mhat[ w(V)^sbar f(tA,tA,V) f(tB,tB,V) ] at two path times.

    Since w is the reciprocal density of mhat, this equals the Lebesgue
    integral of w^(sbar-1) fA fB.  The zeta-weighted sum of these drives the
    covariance of the series tail beyond the truncation index.
    """
    if spec.tag == "levy":
        return min(tA, tB)
    kA, kB = spec.kappa(tA), spec.kappa(tB)
    fA = lambda x: spec.kernel.evaluate(tA, tA, x)
    fB = lambda x: spec.kernel.evaluate(tB, tB, x)
    # far field: f ~ -b_minus*kappa*t*x^(kappa-1) as x -> +inf and
    # f ~ b_plus*kappa*t*|x|^(kappa-1) as x -> -inf
    bp, bm = spec.kernel.side_weights or (1.0, 1.0)
    far_coef = (bp * bp + bm * bm) * kA * kB * tA * tB
    far_exp = kA + kB - 2.0
    return _band_pair_integral(fA, fB, [0.0, tA, tB], far_coef, far_exp, sbar)
