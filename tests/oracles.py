"""Independent numerical references for the derived constants.

Deliberately free of imports from the package under test, so a wrong
production formula cannot vouch for itself.  Each oracle follows a different
route than the code it checks: direct oscillatory quadrature instead of
gamma-function closed forms, plain segment sums instead of the dip-aware
integrator, stratified Monte Carlo and Fourier closed forms instead of
kink-split quadrature, a walk over the expression tree instead of its
compiled function, a per-path loop instead of one masked least-squares pass,
a loop over pairs instead of one array expression.
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


def phase_integral_mpmath(q1: float, s1: float, q2: float, s2: float,
                          dps: int = 30) -> float:
    """int_0^inf sin^2(q2 z^s2 - q1 z^s1) z^-2 dz in mpmath, for a phase
    that is not identically zero: tanh-sinh pieces between the points where
    the phase crosses a multiple of pi/2, then sin^2 = (1 - cos 2 psi)/2
    and mpmath's oscillatory summation over the zeros of cos(2 psi) on the
    rising branch.

    A dip of depth D at zc whose stationary-phase share sqrt(pi/(abD))/zc
    is below 1e-30 of 1/z at the start of the summation is summed on its
    descending branch instead, as if it fell forever: its bottom, and the
    rising branch beyond it, lie beyond 30 digits."""
    import mpmath as mp

    with mp.workdps(dps):
        q1, s1, q2, s2 = map(mp.mpf, (q1, s1, q2, s2))
        if s1 > s2 or q2 == 0:
            q1, s1, q2, s2 = q2, s2, q1, s1
        psi = lambda z: q2 * z ** s2 - q1 * z ** s1
        f = lambda z: mp.sin(psi(z)) ** 2 / z ** 2
        # the phase falls to its minimum at zc, then rises without bound
        zc = mp.mpf(0)
        if q1 > 0 and s2 > s1:
            zc = (q1 * s1 / (q2 * s2)) ** (1 / (s2 - s1))

        def cross(level, lo, hi):
            # psi crosses level once in [lo, hi], which may span many
            # decades: bisect in log z to a tight bracket, then findroot
            rises = psi(lo) < level
            while hi > lo * (1 + mp.mpf(10) ** -6):
                mid = mp.sqrt(lo * hi) if lo > 0 else hi / 2
                if (psi(mid) < level) == rises:
                    lo = mid
                else:
                    hi = mid
            return mp.findroot(lambda z: psi(z) - level, (lo, hi),
                               solver="anderson")

        def rising(level):
            lo, hi = zc, max(2 * zc, mp.mpf(1))
            while psi(hi) < level:
                lo, hi = hi, 2 * hi
            return cross(level, lo, hi)

        quarter = mp.pi / 2

        def falling(level):
            # the descending branch meets level within zc e^-k .. zc e^-k/2
            k = 1
            while psi(zc * mp.exp(-k)) < level:
                k *= 2
            return cross(level, zc * mp.exp(-k),
                         zc * mp.exp(-k / 2) if k > 1 else zc)

        # f ~ z^(2s - 2) at 0 with s the leading exponent; z = u^p with
        # p = 1/(2s - 1) makes the first piece bounded
        p = 1 / (2 * (s1 if q1 > 0 else s2) - 1)

        def head(cuts):
            return (mp.quad(lambda u: f(u ** p) * p * u ** (p - 1),
                            [0, cuts[1] ** (1 / p)]) + mp.quad(f, cuts[1:]))

        if zc > 0 and psi(zc) < -8 * quarter:
            share = mp.sqrt(mp.pi / (s1 * s2 * -psi(zc))) / zc
            z0 = falling(-7.5 * quarter)
            if share * z0 < mp.mpf(10) ** -30:
                cuts = [mp.mpf(0)] + [falling(-j * quarter)
                                      for j in range(1, 8)] + [z0]
                tail = mp.quadosc(
                    lambda z: mp.cos(2 * psi(z)) / z ** 2, [z0, mp.inf],
                    zeros=lambda n: falling(-(7.5 + n) * quarter))
                return float(head(cuts) + 1 / (2 * z0) - tail / 2)
        cuts = [mp.mpf(0)]
        j = 1
        while psi(zc) < -j * quarter:
            cuts.append(cross(-j * quarter, zc * mp.mpf(10) ** -40, zc))
            j += 1
        if zc > 0:
            cuts.append(zc)
        # up to z0, where cos(2 psi) vanishes: psi = (k + 1/2) pi/2 there
        cuts += [rising(j * quarter)
                 for j in range(int(mp.floor(psi(zc) / quarter)) + 1, 8)]
        z0 = rising(7.5 * quarter)
        cuts.append(z0)
        tail = mp.quadosc(lambda z: mp.cos(2 * psi(z)) / z ** 2,
                          [z0, mp.inf],
                          zeros=lambda n: rising((7.5 + n) * quarter))
        return float(head(cuts) + 1 / (2 * z0) - tail / 2)


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


def kink_integral_mpmath(a: float, kappa: float, side_weights=(1.0, 1.0),
                         dps: int = 30) -> float:
    """int_R |f(1,x)|^a dx in mpmath, f(1,x) = b(1-x)|1-x|^kappa
    - b(-x)|x|^kappa with b = b_plus on positive and b_minus on negative
    arguments, for b_plus, b_minus > 0.

    Every piece is written in the offset u from its kink, since 1 - u
    rounds to 1 near a kink; for kappa < 0 the substitution
    u = v^(1/(kappa a + 1)) makes the u^(kappa a) singularity at each kink
    bounded.  (0, 1) splits at the zero of f, where |f|^a has a kink of its
    own; the outer pieces are mirror images, weighted b^a.  The outer piece
    breaks at every decade out to 10^60, where the two leading terms of
    |f|^a = |kappa|^a u^((kappa-1) a) (1 + a (kappa-1) / (2u) + ...)
    integrate in closed form: its tail falls off as slowly as u^-0.15 at
    alpha 0.3."""
    import mpmath as mp

    with mp.workdps(dps):
        a, k = mp.mpf(a), mp.mpf(kappa)
        bp, bm = map(mp.mpf, side_weights)

        def from_kink(g, width):
            # int_0^width g(u) du, g singular at u = 0 when kappa < 0
            if k >= 0:
                return mp.quad(g, [0, width])
            p = 1 / (k * a + 1)
            return mp.quad(lambda v: g(v ** p) * p * v ** (p - 1),
                           [0, width ** (1 / p)])

        # beyond a kink: |(1+u)^kappa - u^kappa|^a without cancellation
        outer = lambda u: abs(u ** k * mp.expm1(k * mp.log1p(1 / u))) ** a
        far = mp.mpf(10) ** 60
        beta = -((k - 1) * a + 1)
        rest = abs(k) ** a * (far ** -beta / beta + a * (k - 1) / 2
                              * far ** (-beta - 1) / (beta + 1))
        beyond = (from_kink(outer, 1)
                  + mp.quad(outer, [mp.mpf(10) ** i for i in range(61)])
                  + rest)
        # between the kinks f vanishes at x0: b_plus (1-x0)^k = b_minus x0^k
        x0 = 1 / (1 + (bm / bp) ** (1 / k))
        left = lambda u: abs(bp * (1 - u) ** k - bm * u ** k) ** a
        right = lambda u: abs(bp * u ** k - bm * (1 - u) ** k) ** a
        between = from_kink(left, x0) + from_kink(right, 1 - x0)
        return float((bp ** a + bm ** a) * beyond + between)


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


def eval_tree(ast, t: float, binary: dict, functions: dict) -> float:
    """Value of an expression tree at t by recursion over its nodes, left
    operand first: the reference the compiled expressions must match bit
    for bit.  Nodes are told apart by class name; the caller passes the
    operator table (symbol -> (..., function)) and the function table
    (name -> (arity, function)), so both apply the same guarded functions.
    """
    kind = type(ast).__name__
    if kind == "Num":
        return ast.value
    if kind == "Var":
        return t
    if kind == "Neg":
        return -eval_tree(ast.child, t, binary, functions)
    if kind == "BinOp":
        return binary[ast.op][-1](eval_tree(ast.left, t, binary, functions),
                                  eval_tree(ast.right, t, binary, functions))
    return functions[ast.name][1](*[eval_tree(child, t, binary, functions)
                                    for child in ast.args])


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


def holder_slopes_loop(dy: np.ndarray, logr: np.ndarray):
    """Per-path least-squares slopes of log dy on logr, one path at a time:
    (slopes of the paths with two or more usable levels, dropped paths).
    A zero or non-finite increment is unusable."""
    ok = np.isfinite(dy) & (dy > 0.0)
    slopes = []
    dropped_paths = 0
    for i in range(dy.shape[0]):
        m = ok[i]
        if np.count_nonzero(m) < 2:
            dropped_paths += 1
            continue
        x = logr[m]
        y = np.log(dy[i, m])
        xc = x - x.mean()
        slopes.append(float(np.dot(xc, y - y.mean()) / np.dot(xc, xc)))
    return np.asarray(slopes), dropped_paths


def tail_covariance_loop(ts, prefs, ss, pair, tail_sum) -> np.ndarray:
    """The Gaussian tail covariance pref_A pref_B S(s_A + s_B) R_AB entry by
    entry over the upper triangle, with R = pair(tA, tB, s_A + s_B) and S =
    tail_sum(s_A + s_B)."""
    G = len(ts)
    cov = np.empty((G, G))
    for i in range(G):
        for j in range(i, G):
            r = pair(ts[i], ts[j], ss[i] + ss[j])
            tail = tail_sum(ss[i] + ss[j])
            cov[i, j] = cov[j, i] = prefs[i] * prefs[j] * tail * r
    return cov


def band_one_mpmath(tA: float, tB: float, kA: float, kB: float,
                    side_weights=(1.0, 1.0), dps: int = 30) -> float:
    """int_-1^1 fA(x) fB(x) dx in mpmath, f(t,x) = b(t-x)|t-x|^k
    - b(-x)|x|^k with b = b_plus on positive and b_minus on negative
    arguments: band 1 of the pair integral.  The pieces between -1, 0, the
    kinks and 1 are halved, and each half is integrated by tanh-sinh in the
    offset u from its outer end, so that t - x keeps its digits next to a
    kink.  Where the integrand's leading power at that end is p < 0 (k at a
    kink, the negative exponents summed at 0), u = v^(1/(p+1)) makes the
    u^p term smooth."""
    import mpmath as mp

    with mp.workdps(dps):
        bp, bm = map(mp.mpf, side_weights)
        b = lambda y: bp if y > 0 else bm
        pair = [(mp.mpf(tA), mp.mpf(kA)), (mp.mpf(tB), mp.mpf(kB))]

        def from_end(end, power, half, sign):
            # int_0^half of fA fB at x = end + sign u, t - x = (t - end) - ..
            def g(u):
                out = mp.mpf(1)
                for t, k in pair:
                    tx, x = (t - end) - sign * u, end + sign * u
                    out *= b(tx) * abs(tx) ** k - b(-x) * abs(x) ** k
                return out
            q = 1 / (min(power, 0) + 1)
            return mp.quad(lambda v: g(v ** q) * q * v ** (q - 1),
                           [0, half ** (1 / q)])

        pts = sorted({-1.0, 0.0, 1.0, *(t for t in (tA, tB)
                                        if -1.0 <= t <= 1.0)})
        powers = [(x == 0.0) * (min(kA, 0.0) + min(kB, 0.0)) + kA * (x == tA)
                  + kB * (x == tB) for x in pts]
        total = mp.mpf(0)
        for lo, hi, p_lo, p_hi in zip(pts[:-1], pts[1:], powers[:-1],
                                      powers[1:]):
            half = (mp.mpf(hi) - mp.mpf(lo)) / 2
            total += (from_end(mp.mpf(lo), mp.mpf(p_lo), half, 1)
                      + from_end(mp.mpf(hi), mp.mpf(p_hi), half, -1))
        return float(total)
