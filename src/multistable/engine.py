"""Series construction: Poisson environments and path evaluation.

An environment is the full set of random ingredients for one realization:
arrival times Gamma_i (unit-rate Poisson), points V_i drawn from m-hat,
Rademacher signs gamma_i, and the weights w(V_i).  Path values are the
truncated sums

    Y(t) = b(t) C_alpha(t)^(1/alpha(t))
           * sum_i gamma_i Gamma_i^(-1/alpha(t)) w(V_i)^(1/alpha(t)) f(t,t,V_i)

in ascending index order.  This module is the only code that turns
(seed, index) into an environment and an environment into path values;
the estimators build and evaluate one environment at a time through it.

Every random draw comes from a generator substream keyed by
(seed, index, stream), with the stream word taken from one table.  Each
environment owns four: arrivals, points, signs, and the Gaussian draw used
by the optional truncation-tail completion.  The bootstrap and reference
draws take stream words no environment uses.  Seeds and indices are single
key words, so both must lie in [0, 2^32).  Substreams make results
independent of batching: the same (seed, index) always yields the same
environment no matter how many workers produced its neighbours, and a
doubled-length environment extends the shorter one exactly (same prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import zeta

from .kernels import ProcessSpec, pair_integral
from .stable import c_alpha

__all__ = [
    "PoissonEnvironment",
    "build_environment",
    "eval_diagonal_path",
    "TruncationReport",
    "truncation_diagnostic",
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


def _substream(seed: int, index: int, purpose: str) -> np.random.Generator:
    if not (0 <= seed < 2 ** 32 and 0 <= index < 2 ** 32):
        raise ValueError(f"seed {seed!r} and index {index!r} must lie in "
                         "[0, 2^32)")
    return np.random.default_rng(
        np.random.SeedSequence((seed, index, _STREAMS[purpose])))


@dataclass(frozen=True)
class PoissonEnvironment:
    arrivals: np.ndarray  # Gamma_1 < Gamma_2 < ... (ascending)
    points: np.ndarray    # V_i
    signs: np.ndarray     # gamma_i in {-1, +1}
    weights: np.ndarray   # w(V_i)


def build_environment(spec: ProcessSpec, n_terms: int, seed: int,
                      index: int = 0) -> PoissonEnvironment:
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms!r}")
    arrivals = np.cumsum(
        _substream(seed, index, "arrivals").standard_exponential(n_terms))
    points, weights = spec.measure.sample(_substream(seed, index, "points"),
                                          n_terms)
    signs = np.where(_substream(seed, index, "signs").random(n_terms) < 0.5,
                     -1.0, 1.0)
    return PoissonEnvironment(arrivals=arrivals, points=points, signs=signs,
                              weights=weights)


def _grid_scales(spec: ProcessSpec,
                 us: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Prefactors b(u) C_alpha(u)^(1/alpha(u)) and exponents 1/alpha(u)."""
    prefs = np.empty(len(us))
    ss = np.empty(len(us))
    for i, u in enumerate(us):
        a = spec.alpha(float(u))
        if not 0.0 < a < 2.0:
            raise ValueError(f"alpha({float(u)!r}) = {a!r} outside (0,2)")
        ss[i] = 1.0 / a
        prefs[i] = spec.b(float(u)) * c_alpha(a) ** ss[i]
    return prefs, ss


def _diagonal_values(env: PoissonEnvironment, spec: ProcessSpec,
                     grid: np.ndarray, prefs: np.ndarray,
                     ss: np.ndarray) -> np.ndarray:
    """Y(t) of one environment on the grid, given its _grid_scales."""
    log_ratio = np.log(env.weights) - np.log(env.arrivals)
    values = np.empty(grid.shape[0])
    for g, t in enumerate(grid):
        f = spec.kernel.evaluate(float(t), float(t), env.points)
        values[g] = prefs[g] * np.sum(env.signs * np.exp(ss[g] * log_ratio)
                                      * f)
    return values


def eval_diagonal_path(env: PoissonEnvironment, spec: ProcessSpec,
                       grid: Sequence[float]) -> np.ndarray:
    """Y(t) on an arbitrary grid, one shared environment."""
    grid = np.asarray(grid, dtype=float)
    return _diagonal_values(env, spec, grid, *_grid_scales(spec, grid))


# ---------------------------------------------------------------------------
# truncation tail


def tail_covariance(spec: ProcessSpec, grid: Sequence[float],
                    n_terms: int) -> np.ndarray:
    """Covariance of the discarded series tail across the path times.

    Conditionally on the Poisson points beyond the truncation index, each
    tail sum is a sign-symmetric sum of Gamma_i^(-s) w(V_i)^s f(t,t,V_i)
    with s = 1/alpha(t); summing the per-index second moments gives

        Cov(T_A, T_B) = pref_A pref_B zeta(s_A + s_B, N+1) R_AB

    with R_AB the pair integral at exponent s_A + s_B.  The Hurwitz zeta
    uses E[Gamma_i^(-c)] ~ i^(-c) for the high arrival indices.
    """
    ts = [float(t) for t in grid]
    G = len(ts)
    prefs, ss = _grid_scales(spec, ts)
    cov = np.empty((G, G))
    for i in range(G):
        for j in range(i, G):
            r = pair_integral(spec, ts[i], ts[j], ss[i] + ss[j])
            cov[i, j] = cov[j, i] = (prefs[i] * prefs[j]
                                     * zeta(ss[i] + ss[j], n_terms + 1.0) * r)
    return cov


def tail_sqrt(cov: np.ndarray) -> np.ndarray:
    """Matrix square root L with L L^T = cov.  Plain Cholesky when the
    covariance is positive definite; the eigenvalue square root otherwise
    (nearly-coincident grid points make these matrices rank deficient, and a
    zero row, e.g. the origin of a path, must stay exactly zero)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)[None, :]


def tail_draw(cov_chol: np.ndarray, seed: int, index: int) -> np.ndarray:
    """Gaussian tail-completion sample for one environment."""
    g = _substream(seed, index, "tail")
    return cov_chol @ g.standard_normal(cov_chol.shape[0])


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class TruncationReport:
    max_discrepancy: float  # coupled N vs 2N path difference, sup over grid
    tail_proxy: float       # zeta-based tail sd bound scaled by max |w^s f|


def truncation_diagnostic(spec: ProcessSpec, grid: Sequence[float],
                          n_terms: int, seed: int,
                          pilot: int = 8) -> TruncationReport:
    """Compare pilot paths at N terms against the same environments extended
    to 2N (substreams share prefixes, so the extension is exact)."""
    grid = np.asarray(grid, dtype=float)
    prefs, ss = _grid_scales(spec, grid)
    worst = 0.0
    max_term = 0.0
    for p in range(pilot):
        env2 = build_environment(spec, 2 * n_terms, seed, p)
        env1 = PoissonEnvironment(
            arrivals=env2.arrivals[:n_terms], points=env2.points[:n_terms],
            signs=env2.signs[:n_terms], weights=env2.weights[:n_terms])
        y1 = _diagonal_values(env1, spec, grid, prefs, ss)
        y2 = _diagonal_values(env2, spec, grid, prefs, ss)
        worst = max(worst, float(np.max(np.abs(y2 - y1))))
        for t, s in zip(grid, ss):
            f = spec.kernel.evaluate(float(t), float(t), env2.points)
            max_term = max(max_term, float(np.max(
                np.abs(env2.weights ** s * f))))
    tail_sum = float(zeta(2.0 / spec.d, n_terms + 1.0))
    return TruncationReport(max_discrepancy=worst,
                            tail_proxy=math.sqrt(tail_sum) * max_term)
