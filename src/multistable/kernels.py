"""Kernels f(t,u,x) and measure spaces for the implemented processes.

Two constructions share one code path: the finite-measure case (uniform on
[0,1], weight w == 1) and the sigma-finite case (band measure on R with
density 1/w), because a measure's sampler returns each point V_i with its
weight and the series always multiplies each point by w(V_i)^(1/alpha(t)).

Path values and the pair integrals use only the diagonal u = t of f(t,u,x);
the localisability probes also vary u.

Also houses the kernel-specific integrals: the lmmm scale integral
sigma_lmmm, its generalization kink_power_integral, the Cu15 distance
kappa_difference_integral, and the measure-weighted pair integrals at two
path times that drive truncation-tail covariances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from .expr import FuncSpec

__all__ = [
    "MeasureSpec",
    "Kernel",
    "ProcessSpec",
    "levy_kernel",
    "lmmm_kernel",
    "sigma_lmmm",
    "kink_power_integral",
    "kappa_difference_integral",
    "pair_integral",
]

_PI2_3 = math.pi ** 2 / 3.0
_6_PI2 = 6.0 / math.pi ** 2

# cumulative band law F(j) = (6/pi^2) sum_{i<=j} i^-2; the table covers all
# but ~9.3e-6 of the mass, the trigamma-asymptotic bisection handles the rest
_BAND_TABLE_N = 1 << 16
_GUIDE_N = 1 << 12  # cells [k, k+1) / 2^12 of the guide table


@functools.cache
def _band_table() -> np.ndarray:
    js = np.arange(1, _BAND_TABLE_N + 1, dtype=float)
    return np.cumsum(_6_PI2 / (js * js))


@functools.cache
def _band_guide() -> np.ndarray:
    """Band of each guide cell, or 0 where the bands at its edges differ
    (the indexed search of Chen & Asau 1974)."""
    edges = np.searchsorted(_band_table(), np.arange(_GUIDE_N + 1) / _GUIDE_N,
                            side="right") + 1.0
    return np.where(edges[:-1] == edges[1:], edges[:-1], 0.0)


def _psi1_tail(x: float) -> float:
    """Trigamma psi_1(x) by Euler-Maclaurin; relative error ~x^-6, used only
    beyond the table where that is far below float resolution.  (scipy's
    polygamma drifts by ~1e-5 relative for x ~ 1e11.)"""
    ix = 1.0 / x
    return ix * (1.0 + ix * (0.5 + ix * (1.0 / 6.0 - ix * ix / 30.0)))


def _bands_from_uniform(u: np.ndarray) -> np.ndarray:
    """Band j of each uniform u in [0, 1), as floats: the smallest j with
    u < F(j).  j is nondecreasing in u and u * 2^12 is exact, so equal
    bands at a cell's edges fix it; the other ~2.4% search the table."""
    j = _band_guide()[(u * _GUIDE_N).astype(np.intp)]
    straddle = np.flatnonzero(j == 0.0)
    j[straddle] = np.searchsorted(_band_table(), u[straddle],
                                  side="right") + 1.0
    for idx in np.flatnonzero(j > _BAND_TABLE_N):
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
    j = _bands_from_uniform(u[:, 0])
    pos = u[:, 1]
    pos2 = 2.0 * pos
    x = np.where(pos < 0.5, -j + pos2, (j - 1.0) + (pos2 - 1.0))
    return x, _PI2_3 * j * j


def _power_diff(t: float, k: float, x: np.ndarray,
                weights: Optional[tuple[float, float]] = None) -> np.ndarray:
    """|t-x|^k - |x|^k, switching to |x|^k * expm1(k*log1p(+-t/|x|)) far from
    the kinks where the direct difference cancels catastrophically.  Side
    weights (b_plus, b_minus) scale each power by b_plus left of its kink
    and by b_minus right of it."""
    shape, x = np.shape(x), np.ravel(x)
    ax = np.abs(x)
    far = np.flatnonzero(ax > 8.0 * (1.0 + abs(t)))
    if weights is None:
        out = np.abs(t - x) ** k - ax ** k
    else:
        bp, bm = weights
        out = (np.where(x < t, bp, bm) * np.abs(t - x) ** k
               - np.where(x < 0.0, bp, bm) * ax ** k)
    if far.size:
        xf, sf = ax[far], np.sign(x[far])
        # |t-x| - |x| is exactly -t*sign(x) once |x| > |t|, and both powers
        # lie on the same side of their kinks
        vf = xf ** k * np.expm1(k * np.log1p(-t * sf / xf))
        if weights is not None:
            vf *= np.where(sf > 0.0, bm, bp)
        out[far] = vf
    return out.reshape(shape)


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
    """ProcessSpec of a model.  It owns the model rules, each a ValueError,
    and checks alpha and H at every value of their grid_values (the domain
    grid, then the FuncSpec's times): 0 < c <= d < 2 and alpha in [c, d];
    H in (0, 1) for lmmm and lfsm-control; a levy domain inside [0, 1];
    for lfsm-control a constant alpha and H (linear fractional stable
    motion) and side weights not both 0; side weights of 1 elsewhere.
    Where H - 1/alpha dips below 0 the spec carries a warning."""
    if not (0.0 < c <= d < 2.0):
        raise ValueError(f"stability bounds must satisfy 0 < c <= d < 2, "
                         f"got c={c!r} d={d!r}")
    if tag not in ("levy", "lmmm", "lfsm-control"):
        raise ValueError(f"unknown process tag {tag!r}")
    weights = (b_plus, b_minus)
    if tag == "lfsm-control" and weights == (0.0, 0.0):
        raise ValueError("side weights b_plus and b_minus are both 0")
    for name, w in zip(("b_plus", "b_minus"), weights):
        if tag != "lfsm-control" and w != 1.0:
            raise ValueError(f"side weight {name} = {w!r}, but only "
                             f"lfsm-control has side weights, not {tag}")
    lo, hi = domain
    if tag == "levy" and not 0.0 <= lo < hi <= 1.0:
        # the levy measure lives on [0, 1]: beyond it the path is frozen
        raise ValueError(f"domain [{lo!r}, {hi!r}] must lie inside [0, 1] "
                         "for levy")
    a = alpha.grid_values
    if not c <= a.min() <= a.max() <= d:
        raise ValueError(f"alpha range [{a.min():.6g}, {a.max():.6g}] "
                         f"leaves [{c:.6g}, {d:.6g}]")
    if tag == "levy":
        kernel, measure = levy_kernel()
        return ProcessSpec(tag, kernel, measure, alpha, b, None, domain, c, d)
    if H is None:
        raise ValueError(f"{tag} requires an H function")
    h = H.grid_values
    if not 0.0 < h.min() <= h.max() < 1.0:
        raise ValueError(f"H range [{h.min():.6g}, {h.max():.6g}] leaves "
                         "(0,1)")
    for name, v in (("alpha", a), ("H", h)) if tag == "lfsm-control" else ():
        if v.min() != v.max():
            raise ValueError(f"{name!r} must be constant for lfsm-control, "
                             f"got values in [{float(v.min())!r}, "
                             f"{float(v.max())!r}]")
    kernel, measure = lmmm_kernel(
        alpha, H, weights if tag == "lfsm-control" else None)
    kmin = float(np.min(h - 1.0 / a))
    warnings = () if kmin >= 0.0 else (
        f"H - 1/alpha dips to {kmin:.4g} < 0: the Holder upper bound is not "
        "asserted in this regime",)
    return ProcessSpec(tag=tag, kernel=kernel, measure=measure, alpha=alpha,
                       b=b, H=H, domain=domain, c=c, d=d, warnings=warnings)


# ---------------------------------------------------------------------------
# kernel integrals


def _kink_quad(g: Callable[[np.ndarray], np.ndarray], v: float) -> float:
    """int_R g(x) dx for g built from _power_diff at time v, split at the
    kinks 0 and v.  quad maps the infinite pieces onto finite ones, and the
    expm1 branch of _power_diff keeps g accurate far out, so there is no
    cut-off and no far-field expansion."""
    return sum(quad(lambda x: float(g(np.array([x]))[0]), lo, hi,
                    epsabs=0.0, epsrel=1e-11, limit=400)[0]
               for lo, hi in ((-np.inf, 0.0), (0.0, 0.5 * v), (0.5 * v, v),
                              (v, np.inf)))


def kink_power_integral(a: float, kappa: float,
                        side_weights: Optional[tuple[float, float]] = None
                        ) -> float:
    """int_R |f(1,x)|^a dx for the kernel f(1,x) = |1-x|^kappa - |x|^kappa,
    each power weighted b_plus left of its kink and b_minus right of it.
    Requires (kappa-1)*a < -1, so that the power-law tails converge.
    """
    bp, bm = side_weights or (1.0, 1.0)
    if kappa == 0.0:
        # f(1,x) = b_plus - b_minus on (0, 1) and 0 elsewhere
        return abs(bp - bm) ** a
    beta = -((kappa - 1.0) * a + 1.0)
    if beta <= 0.0:
        raise ValueError(f"tail diverges: (kappa-1)*a+1 = {-beta!r} >= 0")
    return _kink_quad(
        lambda x: np.abs(_power_diff(1.0, kappa, x, side_weights)) ** a, 1.0)


def kappa_difference_integral(v: float, k1: float, k2: float,
                              side_weights=None) -> float:
    """int_R (f_k1(v,x) - f_k2(v,x))^2 dx: the kernel at time v under two
    exponents kappa(u), with the side weights of kink_power_integral."""
    return _kink_quad(
        lambda x: (_power_diff(v, k1, x, side_weights)
                   - _power_diff(v, k2, x, side_weights)) ** 2, v)


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


def pair_integral(spec: ProcessSpec, tA: float, tB: float,
                  s_sum: float) -> float:
    """R_AB = E_mhat[ w(V)^s_sum f(tA,tA,V) f(tB,tB,V) ] at two path times,
    s_sum = 1/alpha(tA) + 1/alpha(tB), as each series term carries its own
    w^(1/alpha): the Lebesgue integral of w^(s_sum-1) fA fB, band by band.

    Band 1 is adaptive with the kinks as break points (fixed-node rules
    leave errors that survive the A-B cancellation in covariance
    differences), bands 2..4096 GL-8, and the far field beyond them a
    Hurwitz zeta sum.
    """
    if spec.tag == "levy":
        return min(tA, tB)
    kA, kB = spec.kappa(tA), spec.kappa(tB)
    if kA + kB <= -1.0:  # |x|^(kA+kB) is not integrable at x = 0
        raise ValueError(f"pair integral diverges at the kinks: kappa sum "
                         f"{kA + kB!r} <= -1")
    j0 = 4096
    fA = lambda x: spec.kernel.evaluate(tA, tA, x)
    fB = lambda x: spec.kernel.evaluate(tB, tB, x)
    pts = sorted({k for k in (0.0, tA, tB) if -1.0 < k < 1.0})
    v1 = quad(lambda x: float(fA(np.array([x]))[0] * fB(np.array([x]))[0]),
              -1.0, 1.0, points=pts, epsabs=1e-13, epsrel=1e-12, limit=600)[0]
    total = _PI2_3 ** (s_sum - 1.0) * v1
    js = np.arange(2, j0 + 1, dtype=float)
    wgt = (_PI2_3 * js ** 2) ** (s_sum - 1.0)
    for sign in (1.0, -1.0):
        lo = np.where(sign > 0, js - 1.0, -js)
        xs = lo[:, None] + 0.5 * (1.0 + _GLX8[None, :])
        ws = 0.5 * _GLW8[None, :]
        total += np.sum(wgt * np.sum(ws * fA(xs) * fB(xs), axis=1))
    # far field: f ~ -b_minus*kappa*t*x^(kappa-1) as x -> +inf and
    # f ~ b_plus*kappa*t*|x|^(kappa-1) as x -> -inf
    bp, bm = spec.kernel.side_weights or (1.0, 1.0)
    p = 2.0 * (s_sum - 1.0) + (kA + kB - 2.0)
    if p >= -1.0:
        raise ValueError(f"band tail diverges: exponent {float(p)!r} >= -1 "
                         "(finite only while 1/alpha + H < 3/2)")
    return total + ((bp * bp + bm * bm) * kA * kB * tA * tB
                    * _PI2_3 ** (s_sum - 1.0) * zeta(-p, j0 + 1.0))
