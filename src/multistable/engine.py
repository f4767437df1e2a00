"""Series construction: Poisson environments and path evaluation.

An environment is the full set of random ingredients for one realization:
arrival times Gamma_i (unit-rate Poisson), points V_i drawn from m-hat,
Rademacher signs gamma_i, and the weights w(V_i).  Path values are the
truncated sums

    Y(t) = b(t) C_alpha(t)^(1/alpha(t))
           * sum_i gamma_i Gamma_i^(-1/alpha(t)) w(V_i)^(1/alpha(t)) f(t,t,V_i)

in ascending index order, the prefactor and 1/alpha(t) read from
spec.at(grid).  This module is the only code that turns (seed, index) into
an environment and an environment into path values; the estimators build
and evaluate one environment at a time through it.

Every random draw comes from a generator substream keyed by
(seed, index, stream), with the stream word taken from one table.  Each
environment owns four: arrivals, points, signs, and the Gaussian draw used
by the optional truncation-tail completion.  The bootstrap and reference
draws take stream words no environment uses.  Seeds and indices are single
key words, so both must lie in [0, 2^32).  Substreams make results
independent of batching: the same (seed, index) always yields the same
environment no matter how many workers produced its neighbours, and a
doubled-length environment extends the shorter one exactly (same prefix).

A substream is the PCG64 generator that numpy.random.SeedSequence seeds
from its key.  Environments are built in runs of consecutive indices: one
vectorised pass computes the SeedSequence output of the four streams of
every index in the run, and four generators are re-seated, one environment
at a time, with the PCG64 states those words seed.  A test holds both
steps to NumPy's own SeedSequence and PCG64 seeding, whose streams NEP 19
keeps stable across NumPy versions.

arrival_tail_sum, this module's one call into SciPy, imports poch itself,
so a run without a truncation tail never loads SciPy; no BLAS or LAPACK
call reaches a path value (tail_sqrt, tail_draw).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .kernels import ModelValues, ProcessSpec, band_sums, pair_integral

__all__ = [
    "PoissonEnvironment",
    "build_environment",
    "eval_diagonal_path",
    "TruncationReport",
    "truncation_diagnostic",
    "arrival_tail_sum",
    "tail_covariance",
    "tail_sqrt",
    "tail_draw",
]

# stream word of each purpose.  NumPy pads a short key with zero words, so
# (seed, index, 0) is also the key (seed, index); the non-environment
# purposes therefore end in a nonzero word that no environment stream uses,
# which keeps every pair of purposes apart for seeds and indices below 2^32.
_STREAMS = {"arrivals": 0, "points": 1, "signs": 2, "tail": 3,
            "bootstrap": 4, "reference": 5}


# the streams every environment owns, in the order _environments seats them
_ENVIRONMENT_STREAMS = ("arrivals", "points", "signs", "tail")


def _check_key_words(seed: int, lo: int, hi: int) -> None:
    """Raise unless the seed and every index in lo..hi-1 lie in [0, 2^32)."""
    for index in (lo, max(lo, hi - 1)):
        if not (0 <= seed < 2 ** 32 and 0 <= index < 2 ** 32):
            raise ValueError(f"seed {seed!r} and index {index!r} must lie in "
                             "[0, 2^32)")


def _substream(seed: int, index: int, purpose: str) -> np.random.Generator:
    _check_key_words(seed, index, index + 1)
    return np.random.default_rng(
        np.random.SeedSequence((seed, index, _STREAMS[purpose])))


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
# and the PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """SeedSequence((seed, index, stream)).generate_state(4, np.uint64) for
    the indices lo..hi-1 and the _ENVIRONMENT_STREAMS, shape (hi - lo,
    streams, 4): the words that seed PCG64 for each substream."""
    _check_key_words(seed, lo, hi)
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    # indices down the rows and streams across the columns: the pool of
    # four words takes the three key words and a zero word and mixes each
    # word into every other; generate_state then hashes the pool out to
    # eight 32-bit words, read little-endian as four 64-bit ones
    streams = [_STREAMS[p] for p in _ENVIRONMENT_STREAMS]
    with np.errstate(over="ignore"):
        pool = [hashmix(w) for w in (
            np.uint32(seed), np.arange(lo, hi, dtype=np.uint32)[:, None],
            np.array(streams, dtype=np.uint32), np.uint32(0))]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                             - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                    pool[dst] = mixed ^ (mixed >> np.uint32(16))
        hash_const = _INIT_B
        w = [hashmix(pool[k % 4], _MULT_B).astype(np.uint64)
             for k in range(8)]
    return np.stack([w[2 * j] | w[2 * j + 1] << np.uint64(32)
                     for j in range(4)], axis=-1)


def _pcg64_state(u0: int, u1: int, u2: int, u3: int) -> dict:
    """The state of PCG64 seeded with the words u0..u3 (pcg64_set_seed with
    initstate = u0 u1 and initseq = u2 u3): inc = 2 initseq + 1, then state
    0, one step, state += initstate, one more step."""
    inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
    state = (((u0 << 64 | u1) + inc) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@dataclass(frozen=True)
class PoissonEnvironment:
    arrivals: np.ndarray  # Gamma_1 < Gamma_2 < ... (ascending)
    points: np.ndarray    # V_i
    signs: np.ndarray     # gamma_i in {-1, +1}
    weights: np.ndarray   # w(V_i)


def _environments(spec: ProcessSpec, n_terms: int, seed: int, lo: int,
                  hi: int) -> Iterator[tuple[PoissonEnvironment,
                                             np.random.Generator]]:
    """Environments lo..hi-1 in index order, each with its tail substream.
    Four generators, local to this call, are re-seated for each index, so
    use each tail generator before taking the next environment."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms!r}")
    table = _seed_words(seed, lo, hi)
    rngs = [np.random.Generator(np.random.PCG64())
            for _ in _ENVIRONMENT_STREAMS]
    arrival_rng, point_rng, sign_rng, tail_rng = rngs
    for words in table:
        for rng, u in zip(rngs, words.tolist()):
            rng.bit_generator.state = _pcg64_state(*u)
        arrivals = np.cumsum(arrival_rng.standard_exponential(n_terms))
        points, weights = spec.measure.sample(point_rng, n_terms)
        signs = 1.0 - 2.0 * (sign_rng.random(n_terms) < 0.5)
        yield PoissonEnvironment(arrivals=arrivals, points=points,
                                 signs=signs, weights=weights), tail_rng


def build_environment(spec: ProcessSpec, n_terms: int, seed: int,
                      index: int = 0) -> PoissonEnvironment:
    env, _ = next(_environments(spec, n_terms, seed, index, index + 1))
    return env


def _diagonal_values(env: PoissonEnvironment, spec: ProcessSpec,
                     at: ModelValues) -> np.ndarray:
    """Y(t) of one environment at the times of at = spec.at(grid)."""
    # log(w / Gamma); the levy weights are all 1, and 0 - x is exactly -x.
    # The lmmm kernel takes its powers of |x| as exp(kappa log|x|), with
    # log|x| taken here once for the whole grid
    log_ratio = np.log(env.arrivals)
    if spec.tag == "levy":
        np.negative(log_ratio, out=log_ratio)
        log_ax = None
    else:
        np.subtract(np.log(env.weights), log_ratio, out=log_ratio)
        with np.errstate(divide="ignore"):  # log 0 = -inf at the kink x = 0
            log_ax = np.log(np.abs(env.points))
    term = np.empty_like(log_ratio)
    values = np.empty(at.t.shape[0])
    for g, (t, s, pref) in enumerate(zip(at.t.tolist(), at.s, at.pref)):
        f = spec.kernel.evaluate(t, t, env.points, log_ax)
        # the products of signs * exp(s log_ratio) * f, in that order
        np.multiply(log_ratio, s, out=term)
        np.exp(term, out=term)
        term *= env.signs
        term *= f
        values[g] = pref * np.sum(term)
    return values


def eval_diagonal_path(env: PoissonEnvironment, spec: ProcessSpec,
                       grid: Sequence[float]) -> np.ndarray:
    """Y(t) on an arbitrary grid, one shared environment."""
    return _diagonal_values(env, spec, spec.at(grid))


# ---------------------------------------------------------------------------
# truncation tail


def arrival_tail_sum(c: float | np.ndarray,
                     n_terms: int) -> float | np.ndarray:
    """S(N) = sum_{i>N} E[Gamma_i^(-c)] = Gamma(N+1-c) / ((c-1) Gamma(N)),
    exactly: Gamma_i has the Gamma(i, 1) law, so the N+1 term is
    Gamma(N+1-c) / Gamma(N+1) = S(N) - S(N+1).  Finite only while
    1 < c < N + 1; Gamma_{N+1}^(-c) has infinite mean otherwise.  c may be
    an array, and S then has its shape."""
    from scipy.special import poch

    c = np.asarray(c, dtype=float)
    bad = ~((1.0 < c) & (c < n_terms + 1.0))
    if bad.any():
        raise ValueError(f"the tail moment of order {float(c[bad][0])!r} is "
                         f"infinite at n_terms = {n_terms!r}: it needs "
                         "1 < c < N + 1")
    # a Pochhammer ratio keeps the digits that a difference of two
    # log-gammas of size N log N would lose
    return poch(n_terms, 1.0 - c) / (c - 1.0)


def tail_covariance(spec: ProcessSpec, grid: Sequence[float],
                    n_terms: int) -> np.ndarray:
    """Covariance of the discarded series tail across the path times.

    Conditionally on the Poisson points beyond the truncation index, each
    tail sum is a sign-symmetric sum of Gamma_i^(-s) w(V_i)^s f(t,t,V_i)
    with s = 1/alpha(t); summing the per-index second moments gives

        Cov(T_A, T_B) = pref_A pref_B S(N, s_A + s_B) R_AB

    with S the arrival_tail_sum and R_AB the pair integral at exponent
    s_A + s_B: min(tA, tB) for levy, else one pair_integral call per pair,
    each taking its GL-8 band sums from one kernels.band_sums call for the
    whole grid.  Row i of the upper triangle is one array expression,
    written into row and column i; a non-finite entry raises, naming its
    times.
    """
    at = spec.at(grid)
    ts, prefs, ss = at.t.tolist(), at.pref, at.s
    G = len(ts)
    if spec.tag != "levy":
        pairs = [(i, j, ss[i] + ss[j]) for i in range(G) for j in range(i, G)]
        gl8 = iter(band_sums(spec, ts, pairs))
    cov = np.empty((G, G))
    for i in range(G):
        tail = arrival_tail_sum(ss[i] + ss[i:], n_terms)
        if spec.tag == "levy":
            r = np.minimum(at.t[i], at.t[i:])
        else:
            r = np.array([pair_integral(spec, ts[i], ts[j], ss[i] + ss[j],
                                        gl8=next(gl8)) for j in range(i, G)])
        with np.errstate(over="ignore", invalid="ignore"):
            cov[i, i:] = cov[i:, i] = prefs[i] * prefs[i:] * tail * r
        bad = np.flatnonzero(~np.isfinite(cov[i, i:]))
        if bad.size:
            j = i + bad[0]
            raise ArithmeticError(f"tail covariance at times {ts[i]!r} and "
                                  f"{ts[j]!r} is {float(cov[i, j])!r}")
    return cov


def tail_sqrt(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = cov: a left-looking semidefinite
    Cholesky in NumPy, not BLAS or LAPACK.  Column j is cov[j:, j] less the
    row sums of L[j:, :j] L[j, :j], over the root of its pivot; a pivot at
    or below G 2^-52 of the largest variance leaves the column zero, as at a
    zero-variance time (a levy path's origin) or a repeated time."""
    G = cov.shape[0]
    L = np.zeros((G, G))
    tol = G * 2.0 ** -52 * np.diagonal(cov).max(initial=0.0)
    for j in range(G):
        col = cov[j:, j] - np.sum(L[j:, :j] * L[j, :j], axis=1)
        if col[0] > tol:
            L[j:, j] = col / np.sqrt(col[0])
    return L


def tail_draw(cov_chol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gaussian tail-completion sample for one environment, from its tail
    substream (_substream(seed, index, "tail")): the row sums of L z."""
    return np.sum(cov_chol * rng.standard_normal(cov_chol.shape[0]), axis=1)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class TruncationReport:
    differences: np.ndarray  # Y_2N - Y_N, shape (pilot, len(grid))
    rms: np.ndarray          # exact sqrt(E[(Y_2N - Y_N)^2]) at each time


def truncation_diagnostic(spec: ProcessSpec, grid: Sequence[float],
                          n_terms: int, seed: int,
                          pilot: int = 8) -> TruncationReport:
    """What doubling N adds to pilot paths, terms N+1..2N of the same
    environments (substreams share prefixes), and its exact RMS: these
    terms carry independent signs, so E[(Y_2N - Y_N)^2] =
    pref^2 [S(N, 2s) - S(2N, 2s)] R(t, t), with S the arrival_tail_sum and
    R the pair integral at exponent 2s."""
    at = spec.at(grid)
    diffs = np.empty((pilot, at.t.shape[0]))
    for p in range(pilot):
        env = build_environment(spec, 2 * n_terms, seed, p)
        added = PoissonEnvironment(*(x[n_terms:] for x in vars(env).values()))
        diffs[p] = _diagonal_values(added, spec, at)
    var = [pref ** 2 * (arrival_tail_sum(2.0 * s, n_terms)
                        - arrival_tail_sum(2.0 * s, 2 * n_terms))
           * pair_integral(spec, t, t, 2.0 * s)
           for t, pref, s in zip(at.t.tolist(), at.pref, at.s)]
    return TruncationReport(differences=diffs, rms=np.sqrt(var))
