"""Kernels f(t,u,x) and measure spaces for the implemented processes.

Two constructions share one code path: the finite-measure case (uniform on
[0,1], weight w == 1) and the sigma-finite case (band measure on R with
density 1/w), because a measure's sampler returns each point V_i with its
weight and the series always multiplies each point by w(V_i)^(1/alpha(t)).

ProcessSpec.at(times) reads the model functions into one record,
ModelValues, with the model rules checked; only the lmmm kernel's kappa(u)
calls them otherwise.  Times of make_process's check grid are looked up.

Path values and the pair integrals use only the diagonal u = t of f(t,u,x);
the localisability probes also vary u.  Kernel.evaluate takes an optional
fourth argument, log|x| of the points: the series passes it once per
environment, and the lmmm kernel then takes each power as exp(kappa log)
rather than by ** (_power_diff).

The kernel integrals (sigma_lmmm, kink_power_integral,
kappa_difference_integral and the pair integrals of the tail covariance)
run on one graded Gauss-Legendre rule, but band 1 of pair_integral.  SciPy
is imported inside the two functions that call it, quad in pair_integral
and zeta in _far_bands, so only a run that reaches an lmmm pair integral
loads it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import EvalError, FuncSpec

__all__ = [
    "MeasureSpec",
    "Kernel",
    "ProcessSpec",
    "ModelValues",
    "levy_kernel",
    "lmmm_kernel",
    "sigma_lmmm",
    "kink_power_integral",
    "kappa_difference_integral",
    "pair_integral",
    "band_sums",
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
    # only the last cell reaches past the table, and it straddles
    for idx in straddle[j[straddle] > _BAND_TABLE_N]:
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
    """Kernel f(t,u,x), vectorized over x: evaluate(t, u, x, log_ax=None),
    where log_ax, if given, is log|x|."""

    evaluate: Callable[..., np.ndarray]
    # exponent kappa(u) = H(u) - 1/alpha(u) for the lmmm family, None for levy
    kappa: Optional[Callable[[float], float]] = None
    # side weights (b_plus, b_minus) of the lmmm family; None means (1, 1)
    side_weights: Optional[tuple[float, float]] = None


def _levy_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.random(n)
    return x, np.ones(n)


def levy_kernel() -> tuple[Kernel, MeasureSpec]:
    """Indicator kernel 1_[0,t](x), Lebesgue probability measure on [0,1]."""

    def evaluate(t: float, u: float, x: np.ndarray,
                 log_ax: Optional[np.ndarray] = None) -> np.ndarray:
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
                weights: Optional[tuple[float, float]] = None,
                anchor: Optional[np.ndarray] = None,
                log_ax: Optional[np.ndarray] = None) -> np.ndarray:
    """|t-x|^k - |x|^k, switching to |x|^k * expm1(k*log1p(-t/x)) far from
    the kinks where the direct difference cancels catastrophically, with
    the |x|^k already taken.  Side weights (b_plus, b_minus) scale each
    power by b_plus left of its kink and by b_minus right of it.  With an
    anchor, x is the offset from it.

    With log_ax = log|x|, which the series takes once per environment, the
    powers are exp(k log|t-x|) and exp(k log_ax), one log per call.  0^k is
    0, 1 or inf as with **, but k = 0 takes ** (exp(0 log 0) is NaN).  The
    pair integrals pass no log_ax and keep ** until band 1's quad goes
    (ROADMAP 7a): a log would slow its one-point float branch.

    x is an array, or a Python float with no anchor: a float within the
    far-field edge (band 1's quad nodes) takes a float branch and returns a
    Python float, with the bytes of the array form; a 0-d array takes the
    array form."""
    # the array form's operations and numpy's powers, until band 1's quad
    # goes (ROADMAP 7a)
    if type(x) is float and abs(x) <= 8.0 * (1.0 + abs(t)):
        tx = t - x
        pa, pb = (np.array((abs(tx), abs(x))) ** k).tolist()
        if weights is not None:
            bp, bm = weights
            pa *= bp if tx > 0.0 else bm
            pb *= bp if x < 0.0 else bm
        return pa - pb
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.ravel()
    tx, x = (t - x, x) if anchor is None else ((t - anchor) - x, anchor + x)
    ax = np.abs(x)
    far = (ax > 8.0 * (1.0 + abs(t))).nonzero()[0]
    if k == 0.0:
        log_ax = None
    if log_ax is None:
        pa, pb = np.abs(tx) ** k, ax ** k
    else:
        pa = np.abs(tx)
        with np.errstate(divide="ignore"):  # log 0 = -inf at the kink x = t
            np.log(pa, out=pa)
        pa *= k
        np.exp(pa, out=pa)
        pb = np.multiply(log_ax.ravel(), k)
        np.exp(pb, out=pb)
    if weights is None:
        out = np.subtract(pa, pb, out=pa)
    else:
        # b_plus where a mask holds, else b_minus
        side = np.array(weights[::-1]).take
        out = (side((tx > 0.0).view(np.uint8)) * pa
               - side((x < 0.0).view(np.uint8)) * pb)
    if far.size:
        xf = x[far]
        # |t-x| - |x| is exactly -t*sign(x) once |x| > |t|, and both powers
        # lie on the same side of their kinks
        vf = pb[far] * np.expm1(k * np.log1p(-t / xf))
        if weights is not None:
            vf *= side((xf < 0.0).view(np.uint8))
        out[far] = vf
    return out.reshape(shape)


def lmmm_kernel(alpha: FuncSpec, H: FuncSpec,
                side_weights: Optional[tuple[float, float]] = None
                ) -> tuple[Kernel, MeasureSpec]:
    """Moving-average kernel |t-x|^kappa(u) - |x|^kappa(u), band measure on R,
    each power weighted b_plus left of its kink and b_minus right of it."""

    def kappa(u: float) -> float:
        return H(u) - 1.0 / alpha(u)

    def evaluate(t: float, u: float, x: np.ndarray,
                 log_ax: Optional[np.ndarray] = None) -> np.ndarray:
        return _power_diff(t, kappa(u), x, side_weights, log_ax=log_ax)

    return (Kernel(evaluate=evaluate, kappa=kappa, side_weights=side_weights),
            MeasureSpec(sample=_lmmm_sample))


class ModelValues(namedtuple("ModelValues", "t alpha b H kappa s h")):
    """The model functions at the times t, an entry per time, and what the
    series takes from them: s = 1/alpha, kappa = H - 1/alpha (None for levy,
    as H is), the localisability exponent h (s for levy, else H) and pref."""

    @functools.cached_property
    def pref(self) -> np.ndarray:
        """b C_alpha^s, made on first use (a check grid needs none), a time
        at a time: NumPy's array ** can differ in the last bit."""
        from .stable import c_alpha  # stable imports this module
        return np.array([b * c_alpha(a) ** s for a, b, s
                         in zip(self.alpha.tolist(), self.b.tolist(), self.s)])


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
    # the values on make_process's check grid
    check_grid: Optional[ModelValues] = field(default=None, compare=False,
                                              repr=False)

    def at(self, times) -> ModelValues:
        """ModelValues at times, checking there the model rules of each time,
        each a ValueError naming the time: t in the domain, the compiled
        functions evaluate, alpha in [c, d], H in (0, 1).  It looks up, not
        evaluates, a time of the check grid."""
        t = np.array(times, dtype=float).reshape(-1)
        lo, hi = self.domain
        outside = ~((lo <= t) & (t <= hi))
        if outside.any():
            raise ValueError(f"time {float(t[outside][0])!r} lies outside "
                             f"the domain [{lo!r}, {hi!r}]")
        grid, new = self.check_grid, np.ones(t.size, dtype=bool)
        if grid is not None:
            order = np.argsort(grid.t)
            i = order[np.searchsorted(grid.t, t, sorter=order) % order.size]
            # bit for bit: a model function may tell -0.0 from 0.0
            new = grid.t[i].view(np.int64) != t.view(np.int64)
        js, values = np.flatnonzero(new), {}
        for name in ("alpha", "b", "H"):
            func = getattr(self, name)
            if func is not None:
                values[name] = v = (np.empty(t.size) if grid is None
                                    else getattr(grid, name)[i])
                for j, x in zip(js.tolist(), t[js].tolist()):
                    try:
                        v[j] = func.compiled(x)
                    except EvalError as exc:
                        raise EvalError(f"{name!r} cannot be evaluated at "
                                        f"t={x!r}: {exc}") from exc
        a, h = values["alpha"], values.get("H")
        for name, v, ok, bounds in (
                ("alpha", a, (self.c <= a) & (a <= self.d),
                 f"[{self.c:.6g}, {self.d:.6g}]"),
                ("H", h, h is None or (0.0 < h) & (h < 1.0), "(0,1)")):
            if not np.all(ok):
                j = int(np.argmin(ok))
                raise ValueError(f"{name} range [{v.min():.6g}, "
                                 f"{v.max():.6g}] leaves {bounds}: {name!r} "
                                 f"is {float(v[j])!r} at t={float(t[j])!r}")
        s = 1.0 / a
        return ModelValues(t, a, values["b"], h, None if h is None else h - s,
                           s, s if h is None else h)

    def kappa(self, u: float) -> float:
        if self.kernel.kappa is None:
            raise ValueError(f"process {self.tag!r} has no kappa exponent")
        return self.kernel.kappa(u)


def make_process(tag: str, alpha: FuncSpec, b: FuncSpec,
                 H: Optional[FuncSpec], domain: tuple[float, float],
                 c: float, d: float, b_plus: float = 1.0,
                 b_minus: float = 1.0, times: Sequence[float] = ()
                 ) -> ProcessSpec:
    """ProcessSpec of a model, checked on one check grid: the domain's 257
    points lo + (hi - lo) k/256 (at most hi), then the run's times.  The
    model rules, each a ValueError, are ProcessSpec.at's; 0 < c <= d < 2;
    an H but for levy; a levy domain inside [0, 1]; for lfsm-control (linear
    fractional stable motion) a constant alpha and H and side weights not
    both 0, and side weights of 1 elsewhere; and not H - 1/alpha = 0
    everywhere with equal side weights, where the process vanishes.  Where
    H - 1/alpha dips below 0 the spec carries a warning."""
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
    if tag == "levy" and H is not None:
        raise ValueError("'H' is given, but levy has no H: its indicator "
                         "kernel's exponent is 1/alpha")
    if tag != "levy" and H is None:
        raise ValueError(f"{tag} requires an H function")
    lo, hi = domain = (float(domain[0]), float(domain[1]))
    if not lo < hi:
        raise ValueError(f"empty domain ({lo!r}, {hi!r})")
    if tag == "levy" and not 0.0 <= lo < hi <= 1.0:
        # the levy measure lives on [0, 1]: beyond it the path is frozen
        raise ValueError(f"domain [{lo!r}, {hi!r}] must lie inside [0, 1] "
                         "for levy")
    kernel, measure = levy_kernel() if tag == "levy" else lmmm_kernel(
        alpha, H, weights if tag == "lfsm-control" else None)
    spec = ProcessSpec(tag, kernel, measure, alpha, b, H, domain, c, d)
    # lo + (hi - lo) can round above hi
    grid = spec.at(np.append(
        np.minimum(lo + (hi - lo) * np.arange(257.0) / 256, hi), times))
    for name in ("alpha", "H") if tag == "lfsm-control" else ():
        v = getattr(grid, name)
        if v.min() != v.max():
            raise ValueError(f"{name!r} must be constant for lfsm-control, "
                             f"got values in [{float(v.min())!r}, "
                             f"{float(v.max())!r}]")
    if tag != "levy" and weights[0] == weights[1] and not grid.kappa.any():
        raise ValueError("'H' is 1/alpha at every time, so the kernel "
                         "|t-x|^0 - |x|^0 and every path are 0")
    kmin = 0.0 if grid.kappa is None else float(grid.kappa.min())
    warnings = () if kmin >= 0.0 else (
        f"H - 1/alpha dips to {kmin:.4g} < 0: the Holder upper bound is not "
        "asserted in this regime",)
    return dataclasses.replace(spec, warnings=warnings, check_grid=grid)


# ---------------------------------------------------------------------------
# kernel integrals


# every kernel integral but band 1 of pair_integral: GL-24 on cells graded
# tenfold toward the kinks (Davis & Rabinowitz, Methods of Numerical
# Integration, 1984) down to 10^-_DEPTH; whole-line rules end at _FAR
_GLX, _GLW = np.polynomial.legendre.leggauss(24)
_DEPTH, _FAR = 80, 1e24


def _graded_rule(points, powers, far: float = 0.0):
    """(anchor, offset, weight) of the graded rule on [points[0] - far,
    points[-1] + far], cut at the midpoints between the points: each node
    keeps its exact offset from its own point.  The innermost cell [0, d]
    is one node at d of weight d / (power + 1), exact for the leading term
    |x - point|^power there."""
    half, rule = np.diff(points) / 2.0, []
    for pt, power, left, right in zip(points, powers, np.append(far, half),
                                      np.append(half, far)):
        for h in filter(None, (-left, right)):  # no cells in a zero gap
            # edges h, h/10, ..., 10^-_DEPTH: h * 10^-n alone could underflow
            lg = math.log10(abs(h))
            n = max(math.ceil(lg) + _DEPTH, 0)
            e = np.copysign(10.0 ** (lg - np.arange(n + 1.0)), h)
            e[0] = h
            mid, hw = (e[:-1] + e[1:]) / 2.0, np.abs(e[:-1] - e[1:]) / 2.0
            rule.append((np.full(_GLX.size * n + 1, pt),
                         np.append(mid[:, None] + hw[:, None] * _GLX, e[-1]),
                         np.append(hw[:, None] * _GLW,
                                   abs(e[-1]) / (power + 1.0))))
    return tuple(map(np.concatenate, zip(*rule)))


def kink_power_integral(a: float, kappa: float,
                        side_weights: Optional[tuple[float, float]] = None
                        ) -> float:
    """int_R |f(1,x)|^a dx for the kernel f(1,x) = |1-x|^kappa - |x|^kappa,
    each power weighted b_plus left of its kink and b_minus right of it.
    Requires (kappa-1)*a < -1, so that the power-law tails converge.  The
    graded rule breaks at the kinks and at the zero of f between them;
    beyond _FAR, |f|^a = (b |kappa|)^a |x|^((kappa-1) a) (1 + O(1/x)).
    """
    bp, bm = side_weights or (1.0, 1.0)
    if kappa == 0.0:
        # f(1,x) = b_plus - b_minus on (0, 1) and 0 elsewhere
        return abs(bp - bm) ** a
    beta = -((kappa - 1.0) * a + 1.0)
    if beta <= 0.0:
        raise ValueError(f"tail diverges: (kappa-1)*a+1 = {-beta!r} >= 0")
    # f(1,x) changes sign where b_plus (1-x)^kappa = b_minus x^kappa
    zero = [1.0 / (1.0 + (bm / bp) ** (1.0 / kappa))] if bp * bm > 0 else []
    anchor, offset, weight = _graded_rule(
        [0.0, *zero, 1.0], [kappa * a] * (2 + len(zero)), _FAR)
    f = _power_diff(1.0, kappa, offset, side_weights, anchor)
    return (float(np.sum(weight * np.abs(f) ** a))
            + (abs(bp) ** a + abs(bm) ** a) * abs(kappa) ** a
            * _FAR ** -beta / beta)


def kappa_difference_integral(v: float, k1: float, k2: float,
                              side_weights=None) -> float:
    """int_R (f_k1(v,x) - f_k2(v,x))^2 dx: the kernel at time v under two
    exponents kappa(u), with the side weights of kink_power_integral, on the
    graded rule broken at the kinks.  The square falls off as x^(2k-2), so
    the rule runs out to _FAR^(1/(1-2k)) (at most 1e300), beyond which about
    1/_FAR of the integral lies."""
    points = sorted({0.0, v})
    anchor, offset, weight = _graded_rule(
        points, [2.0 * min(k1, k2)] * len(points),
        _FAR ** min(1.0 / (1.0 - 2.0 * max(k1, k2)), 12.5))
    d = (_power_diff(v, k1, offset, side_weights, anchor)
         - _power_diff(v, k2, offset, side_weights, anchor))
    return float(np.sum(weight * d * d))


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
_NEAR = 0.25  # a band this close to a kink takes the graded rule, not GL-8
_J0 = 4096  # pair_integral's last band before the far field
# the far field is first order in t/|x|: against 2^17-2^21 bands its
# relative error in R_AB reads 1e-4 at |t| 256 and 1.3e-2 at 2,048
_MAX_PAIR_T = _J0 / 16


def _far_bands(j0, tA, tB, kA, kB, s_sum, side_weights) -> float:
    """Bands past j0 of pair_integral.  As x -> +-inf, fA fB = b^2 K |x|^q
    (1 -+ c/|x|), b = b_minus, b_plus, so band j holds b^2 K (j^q - (q/2
    +- c) j^(q-1)), which sums to Hurwitz zetas."""
    from scipy.special import zeta

    bp, bm = side_weights or (1.0, 1.0)
    q = kA + kB - 2.0
    p = 2.0 * (s_sum - 1.0) + q
    if p >= -1.0:
        raise ValueError(f"band tail diverges: exponent {float(p)!r} >= -1 "
                         "(finite only while 1/alpha + H < 3/2)")
    z0, z1 = zeta(-p, j0 + 1.0), zeta(1.0 - p, j0 + 1.0)
    c = ((kA - 1.0) * tA + (kB - 1.0) * tB) / 2.0  # K = kA kB tA tB
    return kA * kB * tA * tB * _PI2_3 ** (s_sum - 1.0) * (
        (bp * bp + bm * bm) * (z0 - q / 2.0 * z1)
        + (bp * bp - bm * bm) * c * z1)


def _near(lo: np.ndarray, tA: float, tB: float) -> np.ndarray:
    """Mask of the bands [lo, lo + 1) that hold a kink or lie within _NEAR
    of one: pair_integral grades these and leaves them out of its GL-8 sum."""
    mid = lo + 0.5
    return np.minimum(abs(mid - tA), abs(mid - tB)) < 0.5 + _NEAR


def band_sums(spec: ProcessSpec, ts, pairs) -> np.ndarray:
    """GL-8 sums of pair_integral over the bands 2.._J0 clear of both kinks,
    right side then left, for each (i, j, s_sum) in pairs of the times ts:
    its gl8 argument, one row per pair.  A time's rows, its kernel at every
    GL-8 node of a side (a row per node, a column per band), are evaluated
    once and shared by each pair that holds the time; the rows of one side
    are alive at a time.  Each pair then takes the same products and sums,
    on arrays of the same shape, as a pair alone, with no BLAS call."""
    ks = [spec.kappa(t) for t in ts]
    ws = spec.kernel.side_weights
    js = np.arange(2, _J0 + 1, dtype=float)
    sums = np.empty((len(pairs), 2))
    for side, lo in enumerate((js - 1.0, -js)):
        xs = lo + 0.5 * (1.0 + _GLX8[:, None])
        rows = [_power_diff(t, k, xs, ws) for t, k in zip(ts, ks)]
        for p, (i, j, s_sum) in enumerate(pairs):
            keep = ~_near(lo, ts[i], ts[j])
            wgt = (_PI2_3 * js[keep] ** 2) ** (s_sum - 1.0)
            # each band's GL-8 sum, node by node in order
            gl8 = sum(a * b * w for a, b, w in zip(rows[i], rows[j],
                                                   0.5 * _GLW8))
            sums[p, side] = np.sum(wgt * gl8[keep])
    return sums


def _graded_pair(edges, tA, tB, kA, kB, side_weights) -> float:
    """int fA fB dx over [edges[0], edges[-1]] on the graded rule broken at
    the edges and at the kinks between them: band 1 of pair_integral with
    the edges -1, 0, 1, and each band near a kink with its two ends.  The
    leading power at a point sums, over the two kernels, the exponent at its
    kink and the negative part of the exponent at 0; the kernel at t = 0
    vanishes and adds nothing."""
    pts = sorted({*edges, *(t for t in (tA, tB)
                            if edges[0] <= t <= edges[-1])})
    powers = [sum(k * (x == t) + min(k, 0.0) * (x == 0.0)
                  for t, k in ((tA, kA), (tB, kB)) if t != 0.0) for x in pts]
    anchor, offset, weight = _graded_rule(pts, powers)
    return float(np.sum(weight * _power_diff(tA, kA, offset, side_weights,
                                             anchor)
                        * _power_diff(tB, kB, offset, side_weights, anchor)))


def pair_integral(spec: ProcessSpec, tA: float, tB: float, s_sum: float,
                  gl8: Optional[np.ndarray] = None) -> float:
    """R_AB = E_mhat[ w(V)^s_sum f(tA,tA,V) f(tB,tB,V) ] at two path times,
    s_sum = 1/alpha(tA) + 1/alpha(tB), as each series term carries its own
    w^(1/alpha): the Lebesgue integral of w^(s_sum-1) fA fB, band by band.

    Band 1 is an adaptive quad with the kinks as break points, the last in the
    package: the lmmm-holder benchmark is chosen for its cost, so it waits for
    a re-targeted benchmark.  Its integrand calls Kernel.evaluate at both times
    per node, as the traced ranking expects.  Where an exponent is negative,
    the kinks are singular and quad does not converge, so band 1 takes the
    graded rule, which is to take every pair when quad goes.  Bands 2.._J0 are
    GL-8, or the graded rule where a kink lies in a band or within _NEAR of it;
    then the far field, which holds to about 1e-4 up to |t| = _MAX_PAIR_T
    (256), and a time beyond raises ValueError.  gl8 holds the GL-8 sums of
    each side (band_sums), which tail_covariance computes for all its pairs at
    once; by default the pair computes its own.
    """
    if spec.tag == "levy":
        return min(tA, tB)
    if max(abs(tA), abs(tB)) > _MAX_PAIR_T:
        raise ValueError(f"pair integral at times {tA!r} and {tB!r}: its "
                         "far-field expansion holds only up to |t| = "
                         f"{_MAX_PAIR_T:g}")
    from scipy.integrate import quad

    kA, kB = spec.kappa(tA), spec.kappa(tB)
    if kA + kB <= -1.0:  # |x|^(kA+kB) is not integrable at x = 0
        raise ValueError(f"pair integral diverges at the kinks: kappa sum "
                         f"{kA + kB!r} <= -1")
    ws = spec.kernel.side_weights
    if min(kA, kB) < 0.0:
        v1 = _graded_pair((-1.0, 0.0, 1.0), tA, tB, kA, kB, ws)
    else:
        fA = lambda x: spec.kernel.evaluate(tA, tA, x)
        fB = lambda x: spec.kernel.evaluate(tB, tB, x)
        pts = sorted({k for k in (0.0, tA, tB) if -1.0 < k < 1.0})

        def band1(x: float) -> float:
            return fA(x) * fB(x)

        v1 = quad(band1, -1.0, 1.0, points=pts, epsabs=1e-13, epsrel=1e-12,
                  limit=600)[0]
    if gl8 is None:
        gl8 = band_sums(spec, [tA, tB], [(0, 1, s_sum)])[0]
    total = _PI2_3 ** (s_sum - 1.0) * v1
    js = np.arange(2, _J0 + 1, dtype=float)
    wgt = (_PI2_3 * js ** 2) ** (s_sum - 1.0)
    for lo, gl in zip((js - 1.0, -js), gl8):  # left ends of each side's bands
        total += gl
        for b in np.flatnonzero(_near(lo, tA, tB)):
            total += wgt[b] * _graded_pair((lo[b], lo[b] + 1.0), tA, tB, kA,
                                           kB, ws)
    return total + _far_bands(_J0, tA, tB, kA, kB, s_sum, ws)
