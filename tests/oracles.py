"""Independent numerical references for the derived constants.

Deliberately free of imports from the package under test, so a wrong
production formula cannot vouch for itself.  Each oracle follows a different
route than the code it checks: direct oscillatory quadrature instead of
gamma-function closed forms, plain segment sums instead of the dip-aware
integrator, stratified Monte Carlo and Fourier closed forms instead of
kink-split quadrature.
"""

import math

import numpy as np
from scipy.integrate import quad


def _euler_tail(terms):
    """Limit of a (slowly converging) alternating series by repeated
    pairwise averaging of its partial sums."""
    s = np.cumsum(terms)
    for _ in range(min(24, len(s) - 1)):
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[-1])


def sine_power_integral(eta: float, n_half: int = 80) -> float:
    """int_0^inf u^(-eta) sin(u) du for 0 < eta < 2 by half-period
    alternating segments with Euler acceleration."""
    head, _ = quad(lambda u: u ** -eta * math.sin(u), 0.0, math.pi,
                   limit=200)
    terms = []
    for k in range(1, n_half + 1):
        v, _ = quad(lambda u: u ** -eta * math.sin(u), k * math.pi,
                    (k + 1) * math.pi, limit=50)
        terms.append(v)
    return head + _euler_tail(terms)


def c_eta_reference(eta: float) -> float:
    """Tail-constant of the symmetric eta-stable law as the reciprocal of
    the sine power integral."""
    return 1.0 / sine_power_integral(eta)


def phase_integral_reference(q1: float, s1: float, q2: float, s2: float,
                             z_max: float = 60000.0) -> float:
    """int_0^inf sin^2(q2 z^s2 - q1 z^s1) z^-2 dz by plain adaptive segments
    plus the mean-value tail sin^2 ~ 1/2."""
    f = lambda z: math.sin(q2 * z ** s2 - q1 * z ** s1) ** 2 / z ** 2
    total, _ = quad(f, 0.0, 1.0, limit=2000, epsabs=1e-12)
    lo = 1.0
    while lo < z_max:
        hi = min(2.0 * lo, z_max)
        v, _ = quad(f, lo, hi, limit=1000, epsabs=1e-14)
        total += v
        lo = hi
    return total + 0.5 / z_max


def kink_integral_mc(alpha: float, H: float, n: int = 400000,
                     seed: int = 0, x_core: float = 50.0) -> float:
    """(int | |1-x|^k - |x|^k |^alpha dx)^(1/alpha), k = H - 1/alpha, by
    stratified Monte Carlo: a jittered grid over the core plus importance
    sampling x = x_core * U^(-1/beta) on both tails."""
    k = H - 1.0 / alpha
    beta = -((k - 1.0) * alpha + 1.0)
    g = lambda x: np.abs(np.abs(1.0 - x) ** k - np.abs(x) ** k) ** alpha
    rng = np.random.default_rng(seed)
    n_core = 4 * n // 5
    lo, hi = -x_core, x_core + 1.0
    u = (np.arange(n_core) + rng.random(n_core)) / n_core
    core = (hi - lo) * float(np.mean(g(lo + (hi - lo) * u)))
    n_tail = (n - n_core) // 2
    total = core
    for side in (-1.0, 1.0):
        u = rng.random(n_tail)
        x = x_core * u ** (-1.0 / beta)
        # density of x is beta x_core^beta x^-(beta+1)
        w = g(side * x) * x ** (beta + 1.0) / (beta * x_core ** beta)
        total += float(np.mean(w))
    return total ** (1.0 / alpha)


def moving_average_l2(t: float, k1: float, k2: float, b_plus: float = 1.0,
                      b_minus: float = 1.0) -> float:
    """int f_k1(t,x) f_k2(t,x) dx over the real line, where
    f_k(t,x) = b(t-x)|t-x|^k - b(-x)|x|^k with b = b_plus on positive and
    b_minus on negative arguments, in closed form.

    Parseval on the Fourier transforms of the one-sided powers, which are
    Gamma-function factors (Samorodnitsky & Taqqu 1994, section 7.4),
    instead of quadrature.  Requires |k1|, |k2| < 1/2.
    """
    s = k1 + k2
    sides = ((b_plus ** 2 + b_minus ** 2) * math.cos(math.pi * (k1 - k2) / 2)
             - 2.0 * b_plus * b_minus * math.cos(math.pi * s / 2))
    return (math.gamma(k1 + 1.0) * math.gamma(k2 + 1.0) * t ** (1.0 + s)
            * sides / (math.gamma(2.0 + s) * math.cos(math.pi * s / 2)))


def cauchy_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 + np.arctan(np.asarray(x, dtype=float)) / math.pi


def ks_distance_to_cdf(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov distance against an analytic CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.shape[0]
    c = cdf(s)
    up = np.max(np.arange(1, n + 1) / n - c)
    dn = np.max(c - np.arange(0, n) / n)
    return float(max(up, dn))
