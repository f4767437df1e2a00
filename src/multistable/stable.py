"""Stable-law special functions and an independent stable sampler.

The normalizing constant ``C_eta`` enters every LePage series; with a Gamma
factor it gives the exact fractional absolute moment of a symmetric
alpha-stable law in closed form.  The Chambers-Mallows-Stuck transform
provides stable variates that never touch the series code, so the two can
oracle each other.  One oscillatory integral, the phase-difference sin^2
integral, powers the numeric characteristic function of process increments;
it runs on fixed rules (the kernels' graded rule toward z = 0, Gauss-Legendre
between the zeros of cos 2 psi, Euler sums beyond them), and the sin^2 tail
integral is its single-exponent case.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _graded_rule

__all__ = [
    "c_alpha",
    "sin2_integral",
    "sas_abs_moment",
    "cms_from_uniforms",
    "cms_sample",
    "sin2_phase_integral",
]

# half periods of the phase in each Euler sum of the phase integral
HALF_PERIODS = 48


def c_alpha(eta: float) -> float:
    """Normalizing constant 1 / int_0^inf x^(-eta) sin(x) dx for eta in (0,2).

    Closed form 2 Gamma(eta) sin(pi eta / 2) / pi, regular on the whole open
    interval (equals 2/pi at eta=1).
    """
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0,2), got {eta!r}")
    return 2.0 * math.gamma(eta) * math.sin(math.pi * eta / 2.0) / math.pi


def _euler_sum(terms: list[float]) -> float:
    """Euler-accelerated sum of an alternating-ish series."""
    partial = np.cumsum(terms)
    for _ in range(min(14, len(partial) - 1)):
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[-1])


def sin2_integral(eta: float, half_periods: int = HALF_PERIODS) -> float:
    """int_0^inf u^(-eta-1) sin^2(u) du for eta in (0,2), whose closed form
    is 2^(eta-1) / (eta C_eta): the single-exponent phase integral, since
    u = z^(1/eta) turns it into sin2_phase_integral(0, 1/eta, 1, 1/eta) / eta.
    """
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0,2), got {eta!r}")
    return sin2_phase_integral(0.0, 1.0 / eta, 1.0, 1.0 / eta,
                               half_periods) / eta


def sas_abs_moment(alpha: float, sigma: float, eta: float) -> float:
    """Exact E|X|^eta = sigma^eta Gamma(1 - eta/alpha) C_eta for X symmetric
    alpha-stable with scale sigma.

    Requires 0 < eta < alpha (the moment is infinite at eta >= alpha).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0,2), got {alpha!r}")
    if not 0.0 < eta < alpha:
        raise ValueError(f"eta must lie in (0,alpha), got eta={eta!r}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return sigma ** eta * math.gamma(1.0 - eta / alpha) * c_alpha(eta)


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck sampler


def cms_from_uniforms(alpha: float, sigma: float, u, w):
    """CMS transform of uniforms u in (0,1) and unit exponentials w.

    Exposed separately so the mirror-symmetry property (u -> 1-u negates the
    output) is directly testable.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0,2), got {alpha!r}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    theta = np.pi * (np.asarray(u, dtype=float) - 0.5)
    if alpha == 1.0:
        return sigma * np.tan(theta)
    w = np.asarray(w, dtype=float)
    x = (np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
    return sigma * x


def cms_sample(alpha: float, sigma: float, rng: np.random.Generator, size=None):
    """Draw symmetric alpha-stable variates with scale sigma."""
    n = 1 if size is None else size
    out = cms_from_uniforms(alpha, sigma, rng.random(n), rng.standard_exponential(n))
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# phase-difference sin^2 integral
#
# I(q1,s1,q2,s2) = int_0^inf sin^2(q2 z^s2 - q1 z^s1) z^-2 dz with q >= 0 and
# s > 1/2, as psi = B z^b - A z^a with b >= a, in y = ln z: there psi =
# e^(a y) ((B - A) + B expm1((b - a) y)) keeps its digits where the terms
# nearly cancel.  With A > 0 the phase dips to -D at y_c, then rises to
# +inf.  Up to y_1, the first zero of cos 2 psi, the integrand is bounded
# in u = z^(2a-1) and goes on the graded rule.  Beyond, sin^2 = (1 -
# cos 2 psi)/2, and the cos part sums GL-16 pieces between the zeros of
# cos 2 psi: Euler sums of half_periods pieces on the descending branch
# from y_1 and on the rising branch from y_c.  A dip of more than _BOTTOM
# pieces takes two Euler sums, from y_1 and from _BOTTOM zeros above its
# bottom, whose difference is the sum of the pieces between them (Boole
# summation), and its bottom pieces one by one; the bottom is dropped where
# its stationary-phase share sqrt(pi/(abD))/z_c is below 1e-17 of I.

_GLX16, _GLW16 = np.polynomial.legendre.leggauss(16)
_BOTTOM = 1 << 10
# ln t and weight of the graded rule on [0, 1], through log1p next to 1
_ANCHOR, _OFFSET, _HEAD_W = _graded_rule([0.0, 1.0], [0.0, 0.0])
_HEAD_LNT = np.where(_ANCHOR > 0.0, np.log1p(-np.abs(_OFFSET)),
                     np.log(np.abs(_OFFSET)))


def sin2_phase_integral(q1: float, s1: float, q2: float, s2: float,
                        half_periods: int = HALF_PERIODS) -> float:
    """int_0^inf sin^2(q2 z^s2 - q1 z^s1) z^-2 dz for q1, q2 >= 0 and s1,
    s2 > 1/2; each Euler sum runs over half_periods (at least 8) half
    periods of the phase.  Raises ArithmeticError where a dip deeper than
    1e15, whose zeros floats cannot tell apart, holds a share of the value
    that cannot be dropped."""
    if min(s1, s2) <= 0.5:
        raise ValueError("phase exponents must exceed 1/2")
    if q1 < 0.0 or q2 < 0.0:
        raise ValueError("phase amplitudes must be non-negative")
    if half_periods < 8:
        raise ValueError(f"half_periods must be at least 8, got "
                         f"{half_periods!r}")
    if s1 == s2:
        q1, q2 = 0.0, abs(q2 - q1)
    # sin^2 is even in the phase, so a single term is B z^b with A = 0
    terms = sorted((s, q) for q, s in ((q1, s1), (q2, s2)) if q > 0.0)
    if not terms:
        return 0.0
    (a, A), (b, B) = terms if len(terms) == 2 else ((terms[0][0], 0.0),
                                                      terms[0])
    quarter = math.pi / 4.0

    def psi(y):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(a * y) * ((B - A) + B * np.expm1((b - a) * y))

    def zeros(levels, lo: float, stop: float, sign: float) -> np.ndarray:
        # where the phase, monotone from lo toward stop in the direction
        # sign, takes each level: walk to lo + 1, 2, 4, ... (capped at
        # stop) past the last level, then one vectorised bisection
        levels, step = np.asarray(levels, dtype=float), 1.0
        hi = min(lo + step, stop)
        while hi < stop and sign * (psi(hi) - levels[-1]) < 0.0:
            step *= 2.0
            hi = min(lo + step, stop)
        lo, hi = np.full(levels.size, lo), np.full(levels.size, hi)
        for _ in range(56):
            mid = 0.5 * (lo + hi)
            left = sign * (psi(mid) - levels) < 0.0
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        return 0.5 * (lo + hi)

    def down(ks) -> np.ndarray:
        # zeros at psi = -(2k + 1) pi/4 on the descending branch, which
        # is above -pi/4 at its start ya
        ya = math.log(quarter / A) / a - 1.0
        return zeros(-(2.0 * np.asarray(ks) + 1.0) * quarter, ya, yc, -1.0)

    def pieces(edges: np.ndarray) -> np.ndarray:
        # int cos(2 psi) e^-y dy between consecutive edges, GL-16 on each
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        y = mid[:, None] + half[:, None] * _GLX16
        return (np.cos(2.0 * psi(y)) * np.exp(-y)) @ _GLW16 * half

    def head(y1: float) -> float:
        # int_0^z1 sin^2(psi) z^-2 dz in u = z^(2a-1), where it is
        # sinc(psi/pi)^2 c^2 / (2a - 1) with c = psi / z^a, plus the mean
        # 1/(2 z1) of sin^2 beyond z1
        y = y1 + _HEAD_LNT / (2.0 * a - 1.0)
        c = (B - A) + B * np.expm1((b - a) * y)
        g = np.sinc(np.exp(a * y) * c / math.pi) ** 2 * c * c
        return (math.exp((2.0 * a - 1.0) * y1) * float(_HEAD_W @ g)
                / (2.0 * a - 1.0) + 0.5 * math.exp(-y1))

    yc, depth = -math.inf, 0.0
    if A > 0.0:
        yc = math.log(A * a / (B * b)) / (b - a)
        with np.errstate(over="ignore"):
            depth = float(A * (b - a) / b * np.exp(a * yc))
    if depth <= quarter:
        # no zero before the rising branch meets pi/4
        start = max(yc, math.log(quarter / B) / b - 1.0)
        start = float(zeros([quarter], start, math.inf, 1.0)[0])
        value, m0 = head(start), 1
    else:
        # n zeros on the descending branch, k = 0 .. n-1
        n = depth / (2.0 * quarter) - 0.5
        if n <= _BOTTOM:
            yd = down(range(math.ceil(n)))
            value = head(yd[0]) - 0.5 * pieces(np.append(yd, yc)).sum()
        else:
            top = down(range(half_periods + 1))
            value = head(top[0]) - 0.5 * _euler_sum(pieces(top))
            share = math.sqrt(math.pi / (a * b * depth)) * math.exp(-yc)
            if share < 1e-17 * value:
                return value
            if depth > 1e15:
                raise ArithmeticError(
                    f"phase dip of depth {depth:.3g} is too deep to resolve")
            bottom = max(_BOTTOM, half_periods + 1)
            yd = down(range(math.ceil(n) - bottom, math.ceil(n)))
            value -= 0.5 * (pieces(np.append(yd, yc)).sum()
                            - _euler_sum(pieces(yd[:half_periods + 1])))
        start, m0 = yc, -math.ceil(n)
    # rising branch: the piece up to its first zero, then an Euler sum
    levels = (2.0 * np.arange(m0, m0 + half_periods + 1) + 1.0) * quarter
    rise = pieces(np.append(start, zeros(levels, start, math.inf, 1.0)))
    return value - 0.5 * (rise[0] + _euler_sum(rise[1:]))
