"""Stable-law special functions and an independent stable sampler.

The normalizing constant ``C_eta`` enters every LePage series; with a Gamma
factor it gives the exact fractional absolute moment of a symmetric
alpha-stable law in closed form.  The Chambers-Mallows-Stuck transform
provides stable variates that never touch the series code, so the two can
oracle each other.  One oscillatory quadrature, the phase-difference sin^2
integral, powers the numeric characteristic function of process increments;
the sin^2 tail integral is its single-exponent case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "QuadratureConfig",
    "c_alpha",
    "sin2_integral",
    "sas_abs_moment",
    "cms_from_uniforms",
    "cms_sample",
    "sin2_phase_integral",
]

# |phase| below which sin^2 is replaced by its series (head integrals)
_PHI_SMALL = 0.0625


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the oscillatory integrals."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    half_periods: int = 48

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1 or self.half_periods < 8:
            raise ValueError("subdivision/half-period budget too small")


_DEFAULT_QUAD = QuadratureConfig()


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


def sin2_integral(eta: float, cfg: QuadratureConfig | None = None) -> float:
    """int_0^inf u^(-eta-1) sin^2(u) du for eta in (0,2), whose closed form
    is 2^(eta-1) / (eta C_eta): the single-exponent phase integral, since
    u = z^(1/eta) turns it into sin2_phase_integral(0, 1/eta, 1, 1/eta) / eta.
    """
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0,2), got {eta!r}")
    return sin2_phase_integral(0.0, 1.0 / eta, 1.0, 1.0 / eta, cfg) / eta


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
# s > 1/2.  The phase may dip negative before rising to +inf; the integral is
# split into a series head where |phase| <= _PHI_SMALL, explicit pieces around
# the dip, and an Euler-accelerated alternating sum over half-period segments
# of the rising branch.


def _series_head(A: float, sa: float, B: float, sb: float, zh: float) -> float:
    # int_0^zh sin^2(psi) z^-2 dz with psi = B z^sb - A z^sa, |psi| small;
    # sin^2 psi = psi^2 - psi^4/3 + 2 psi^6/45 - psi^8/315 + ...
    total = 0.0
    for k, coef in ((2, 1.0), (4, -1.0 / 3.0), (6, 2.0 / 45.0),
                    (8, -1.0 / 315.0)):
        acc = 0.0
        for j in range(k + 1):
            p = j * sb + (k - j) * sa
            acc += (comb(k, j) * (B ** j) * ((-A) ** (k - j))
                    * zh ** (p - 1.0) / (p - 1.0))
        total += coef * acc
    return total


def sin2_phase_integral(q1: float, s1: float, q2: float, s2: float,
                        cfg: QuadratureConfig | None = None) -> float:
    if min(s1, s2) <= 0.5:
        raise ValueError("phase exponents must exceed 1/2")
    if q1 < 0.0 or q2 < 0.0:
        raise ValueError("phase amplitudes must be non-negative")
    cfg = cfg or _DEFAULT_QUAD
    if s1 == s2:
        q1, q2 = 0.0, abs(q2 - q1)
    # the phase B z^sb - A z^sa with sb >= sa; sin^2 is even in the phase,
    # so a single term is B z^sb with A = 0
    terms = sorted((s, q) for q, s in ((q1, s1), (q2, s2)) if q > 0.0)
    if not terms:
        return 0.0
    (sa, A), (sb, B) = terms if len(terms) == 2 else ((terms[0][0], 0.0),
                                                      terms[0])

    def psi(z: float) -> float:
        return B * z ** sb - A * z ** sa

    def grow_bracket(f, lo: float) -> float:
        hi = max(2.0 * lo, 1e-6)
        while f(hi) < 0.0:
            hi *= 2.0
            if hi > 1e200:
                raise ArithmeticError("oscillatory bracket growth failed")
        return hi

    # dip geometry: with A > 0 and sb > sa the phase descends to -dip at
    # z_crit before rising
    z_crit = dip = 0.0
    if A > 0.0 and sb > sa:
        z_crit = (A * sa / (B * sb)) ** (1.0 / (sb - sa))
        dip = -psi(z_crit)

    def cos_piece(za: float, zb: float) -> float:
        val, _ = quad(lambda z: math.cos(2.0 * psi(z)) / (2.0 * z * z), za, zb,
                      epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                      limit=cfg.max_subdivisions)
        return val

    pieces: list[tuple[float, float]] = []
    if dip > _PHI_SMALL:
        lo = z_crit * 1e-12
        while psi(lo) + _PHI_SMALL < 0.0:
            lo *= 1e-3
        zh = brentq(lambda z: psi(z) + _PHI_SMALL, lo, z_crit, rtol=1e-12)
        # descending branch from zh to z_crit, cut at odd quarter-periods
        two_psi_h = 2.0 * psi(zh)
        bounds = [zh]
        k = -1
        while (k + 0.5) * math.pi > -2.0 * dip:
            target = (k + 0.5) * math.pi
            if target < two_psi_h:
                bounds.append(brentq(lambda z: 2.0 * psi(z) - target,
                                     bounds[-1], z_crit, rtol=1e-12))
            k -= 1
        bounds.append(z_crit)
        pieces = list(zip(bounds[:-1], bounds[1:]))
        rise_z0, rise_theta0 = z_crit, -2.0 * dip
    else:
        start = max(z_crit, 1e-300)
        f = lambda z: psi(z) - _PHI_SMALL
        hi = grow_bracket(f, max(start, 1e-12))
        zh = brentq(f, start, hi, rtol=1e-12)
        rise_z0, rise_theta0 = zh, 2.0 * psi(zh)

    k0 = math.floor(rise_theta0 / math.pi - 0.5) + 1
    zs = [rise_z0]
    for k in range(k0, k0 + cfg.half_periods + 1):
        target = (k + 0.5) * math.pi
        f = lambda z: 2.0 * psi(z) - target
        hi = grow_bracket(f, zs[-1])
        zs.append(brentq(f, zs[-1], hi, rtol=1e-12))

    direct = sum(cos_piece(za, zb) for za, zb in pieces)
    direct += cos_piece(zs[0], zs[1])
    tail_terms = [cos_piece(zs[i], zs[i + 1]) for i in range(1, cfg.half_periods)]
    return (_series_head(A, sa, B, sb, zh) + 0.5 / zh
            - (direct + _euler_sum(tail_terms)))
