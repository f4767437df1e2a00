"""Command line front end.

Four subcommands, all driven by a JSON config file:

  path     sample paths Y(t) on a grid               -> path.csv
  moments  incremental-moment curve and scaling fit  -> moments.csv, moments_fit.csv
  holder   pathwise roughness estimate               -> holder.csv
  verify   self-checks with optional fault injection -> verify.csv

Every run writes a manifest.json echoing the effective config (CLI overrides
applied), the package version, the NumPy version and dispatch class,
wall-clock time, and derived constants.  A manifest is itself a valid
--config: re-running from it in the same dispatch class reproduces the CSV
files byte for byte.

The config keys, their types, bounds, defaults and the commands that read
them are listed in SCHEMA below and in the config table of README.md.
main checks every key the command reads, then makes the --out directory,
before any work runs.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .engine import _substream, truncation_diagnostic
from .estimate import (_BOOT_RESAMPLES, diagonal_samples, ecf_compare,
                       estimate_increment_moments, fit_scaling,
                       holder_pathwise, ks_two_sample)
from .expr import ExprError, FuncSpec
from .kernels import _MAX_PAIR_T, ProcessSpec, make_process, sigma_lmmm
from .stable import HALF_PERIODS, c_alpha, cms_sample, sin2_phase_integral

try:  # the dispatch class, which the exp, log and ** bytes depend on
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

__all__ = ["main", "cmd_path", "cmd_moments", "cmd_holder", "cmd_verify",
           "build_spec", "check_config", "SCHEMA", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or missing configuration; exit code 2."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else
                     (str(c) if isinstance(c, (int, np.integer)) else _fmt(c))
                     for c in row]
            fh.write(",".join(cells) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config schema: every key a command reads, checked before any work runs


# the most values a count may ask for (2^24 float64 values take 128 MiB):
# n_terms, n_paths x grid points, m_paths x levels, levels in one family
_MAX_VALUES = 2 ** 24

# the most times one Gaussian tail covariance may span: lmmm and lfsm-control
# take one pair integral (1-40 ms, about 20 ms on average) per pair of
# times, so 257 times take about 11 min; levy's covariance is closed form,
# but engine.tail_sqrt's NumPy Cholesky grows as G^3: 0.5 s at 1,024 times,
# 3.4 s at 2,048 and 44 s at 4,096
_MAX_TAIL_TIMES = {"levy": 2 ** 10, "lmmm": 257, "lfsm-control": 257}

# the most paths holder may bootstrap: its resample index is one
# _BOOT_RESAMPLES x m_paths int32 array, here at most 1 GiB
_MAX_BOOT_PATHS = 2 ** 30 // (4 * _BOOT_RESAMPLES)


def _ok(cond: bool, value):
    """value if cond holds; the parsers below reject with ValueError."""
    if not cond:
        raise ValueError
    return value


def _number(v) -> float:
    # exact types, so that true and false are not numbers
    return float(_ok(type(v) in (int, float) and math.isfinite(v), v))


def _parse_levels(v) -> list[float]:
    """An explicit list or the family base^start_exp .. base^stop_exp."""
    if type(v) is dict:
        _ok(set(v) <= {"start_exp", "stop_exp", "base"}, v)
        a, z = v.get("start_exp"), v.get("stop_exp")
        base = _number(v.get("base", 2))
        # the smallest level must not underflow, which also bounds the range
        _ok(type(a) is int and type(z) is int and base > 1.0
            and abs(z - a) < _MAX_VALUES and base ** min(a, z) > 0.0, v)
        step = -1 if z < a else 1
        levels = [base ** k for k in range(a, z + step, step)]
    else:
        levels = [_number(x) for x in _ok(type(v) is list, v)]
    return _ok(len(set(levels)) >= 2 and min(levels) > 0.0, levels)


def _times(v) -> list[float]:
    ts = [_number(x) for x in v] if type(v) is list else [_number(v)]
    return _ok(len(ts) > 0, ts)


def _grid(v) -> np.ndarray:
    if type(v) is dict:
        _ok(set(v) <= {"start", "stop", "n"}, v)
        n = _ok(type(v.get("n")) is int and 2 <= v["n"] <= _MAX_VALUES,
                v.get("n"))
        return np.linspace(_number(v.get("start")), _number(v.get("stop")), n)
    return np.asarray(_ok(type(v) is list and len(v) >= 2, _times(v)))


def _pair(ok):
    def parse(v):
        p = tuple(_number(x) for x in _ok(type(v) is list and len(v) == 2, v))
        return _ok(ok(*p), p)
    return parse


# (what, parse) pairs: type and bounds as messages state them, and the parser
def _int(lo):
    return (f"an integer in [{lo}, 2^24]",
            lambda v: _ok(type(v) is int and lo <= v <= _MAX_VALUES, v))


def _one_of(*options):
    return ("one of " + ", ".join(map(json.dumps, options)),
            lambda v: _ok(type(v) is str and v in options, v))


_EXPR = ("an expression in t", lambda v: _ok(type(v) is str, v))
_POSITIVE = ("a number > 0", lambda v: _ok(_number(v) > 0.0, float(v)))
_LEVELS = ("two or more distinct positive levels: a list, or {start_exp, "
           "stop_exp, base} with integer exponents less than 2^24 apart, "
           "base > 1", _parse_levels)

# a default is a checked value, or _REQUIRED
_Key = namedtuple("_Key", "name what parse default commands")
_REQUIRED = object()
_SIM = ("path", "moments", "holder")

# README.md mirrors this table.  check_config rejects any other key and adds
# the cross-key rules: the count caps, the Gaussian tail's time cap, every
# time (grid, t, t + eps, t + r) lies in the domain, and within |t| 256
# for a pair-integral Gaussian tail, and eta < c; named by key, they run
# before make_process checks the model rules there (as ProcessSpec.at does
# at any time a library call evaluates).
SCHEMA = (
    _Key("process", *_one_of("levy", "lmmm", "lfsm-control"), _REQUIRED, _SIM),
    _Key("alpha", *_EXPR, _REQUIRED, _SIM),
    _Key("b", *_EXPR, "1", _SIM),
    _Key("H", *_EXPR, None, _SIM),
    _Key("b_plus", "a number", _number, 1.0, _SIM),
    _Key("b_minus", "a number", _number, 1.0, _SIM),
    _Key("domain", "[lo, hi] with lo < hi", _pair(lambda lo, hi: lo < hi),
         (0.0, 1.0), _SIM),
    _Key("stability_bounds", "[c, d] with 0 < c <= d < 2",
         _pair(lambda c, d: 0.0 < c <= d < 2.0), _REQUIRED, _SIM),
    _Key("n_terms", *_int(1), _REQUIRED, _SIM),
    # one word of every RNG key (engine._substream)
    _Key("seed", "an integer in [0, 2^32 - 1]",
         lambda v: _ok(type(v) is int and 0 <= v < 2 ** 32, v), 0,
         _SIM + ("verify",)),
    _Key("tail", *_one_of("gauss", "none"), "none", ("path",)),
    _Key("tail", *_one_of("gauss", "none"), "gauss", ("moments", "holder")),
    _Key("grid", "{start, stop, n} with an integer n in [2, 2^24], or a "
         "list of two or more times", _grid, _REQUIRED, ("path",)),
    _Key("n_paths", *_int(1), 1, ("path",)),
    _Key("t", "a time", _number, _REQUIRED, ("moments",)),
    _Key("t", "a time or a list of times", _times, _REQUIRED, ("holder",)),
    _Key("eta", "a number in (0, c)", _POSITIVE[1], _REQUIRED, ("moments",)),
    _Key("eps", *_LEVELS, _REQUIRED, ("moments",)),
    _Key("r", *_LEVELS, _REQUIRED, ("holder",)),
    _Key("m_paths", *_int(2), _REQUIRED, ("moments", "holder")),
    _Key("alpha_regularity", "null or a number > 0",
         lambda v: None if v is None else _POSITIVE[1](v), None, ("holder",)),
    _Key("fault_loose_quad", "true or false",
         lambda v: _ok(type(v) is bool, v), False, ("verify",)),
    _Key("fault_c_alpha_scale", *_POSITIVE, 1.0, ("verify",)),
    _Key("verify_n_terms", *_int(1), 4000, ("verify",)),
    _Key("verify_m", *_int(2), 4000, ("verify",)),
    _Key("verify_cf_n_terms", *_int(1), 4000, ("verify",)),
    _Key("verify_cf_m", *_int(2), 2000, ("verify",)),
)

_MODEL_KEYS = ("process", "alpha", "b", "H", "b_plus", "b_minus", "domain",
               "stability_bounds")


def _checked(cfg: dict, keys: Sequence[_Key]) -> dict:
    out = {}
    for name, what, parse, default, _ in keys:
        if name not in cfg and default is _REQUIRED:
            raise ConfigError(f"missing config key {name!r} ({what})")
        try:
            out[name] = parse(cfg[name]) if name in cfg else default
        except (ValueError, OverflowError):
            raise ConfigError(f"config key {name!r} must be {what}, got "
                              f"{json.dumps(cfg[name])}") from None
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("kind") == "run_manifest" and isinstance(raw.get("config"),
                                                        dict):
        return raw["config"]
    return raw


def build_spec(cfg: dict, times: Sequence[float] = ()) -> ProcessSpec:
    """ProcessSpec of a config's model keys, checked on the domain grid and
    at times, the times the run evaluates; other keys are ignored."""
    v = _checked(cfg, [k for k in SCHEMA if k.name in _MODEL_KEYS])
    funcs = dict.fromkeys(("alpha", "b", "H"))
    for key in funcs:
        if v[key] is not None:
            try:
                funcs[key] = FuncSpec.parse(v[key])
            except ExprError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    try:
        return make_process(v["process"], funcs["alpha"], funcs["b"],
                            funcs["H"], v["domain"], *v["stability_bounds"],
                            b_plus=v["b_plus"], b_minus=v["b_minus"],
                            times=times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def check_config(cfg: dict, command: str) -> dict:
    """Checked values of the keys the command reads, defaults filled in, and
    the ProcessSpec under "spec" for path, moments and holder."""
    unknown = sorted(set(cfg) - {k.name for k in SCHEMA})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    run = _checked(cfg, [k for k in SCHEMA if command in k.commands])
    if command == "verify":
        return run
    count, lev = {"path": ("n_paths", "grid"), "moments": ("m_paths", "eps"),
                  "holder": ("m_paths", "r")}[command]
    if run[count] * len(run[lev]) > _MAX_VALUES:
        raise ConfigError(f"config key {count!r} times the {len(run[lev])} "
                          f"points of {lev!r} exceeds 2^24 values")
    if command == "holder" and run["m_paths"] > _MAX_BOOT_PATHS:
        raise ConfigError(f"config key 'm_paths' is {run['m_paths']}, but "
                          f"the bootstrap's {_BOOT_RESAMPLES} x m_paths int32 "
                          "resample index may take at most 1 GiB: use at "
                          f"most {_MAX_BOOT_PATHS} paths")
    # one tail covariance spans the grid (path), t and every t + r (holder)
    # or t and t + eps (moments)
    span = {"path": len(run[lev]), "holder": len(run[lev]) + 1}.get(command, 2)
    cap = _MAX_TAIL_TIMES[run["process"]]
    if run["tail"] == "gauss" and span > cap:
        raise ConfigError(f"config key {lev!r} makes the Gaussian tail span "
                          f"{span} times, more than the {cap} allowed for "
                          f"{run['process']!r}; use \"tail\": \"none\" "
                          "or fewer points")
    if command == "path":
        times = {"grid": run["grid"]}
    else:
        ts = np.atleast_1d(run["t"])  # holder takes a list of times
        times = {"t": ts, lev: np.add.outer(ts, run[lev]).ravel()}
    lo, hi = run["domain"]
    pair_tail = run["tail"] == "gauss" and run["process"] != "levy"
    for key, xs in times.items():
        outside = xs[(xs < lo) | (xs > hi)]
        if outside.size:
            raise ConfigError(f"config key {key!r} puts time "
                              f"{float(outside[0])!r} outside the domain "
                              f"[{lo!r}, {hi!r}]")
        far = xs[np.abs(xs) > _MAX_PAIR_T]
        if pair_tail and far.size:
            raise ConfigError(f"config key {key!r} puts time "
                              f"{float(far[0])!r} beyond |t| = "
                              f"{_MAX_PAIR_T:g}, where the Gaussian tail's "
                              "pair integrals lose their far-field accuracy")
    spec = run["spec"] = build_spec(
        cfg, np.unique(np.concatenate(list(times.values()))))
    g = spec.check_grid
    if (run.get("tail") == "gauss" and spec.H is not None
            and np.any((g.s + g.H >= 1.5) | (g.kappa <= -0.5))):
        raise ConfigError("config key 'tail' is \"gauss\", but the series "
                          "terms have infinite variance where 1/alpha + H "
                          "reaches 3/2 or H - 1/alpha falls to -1/2 on the "
                          "domain")
    c_max = 2.0 / float(g.alpha.min())
    if run.get("tail") == "gauss" and run["n_terms"] + 1 <= c_max:
        raise ConfigError(f"config key 'n_terms' must exceed 2/alpha - 1 = "
                          f"{c_max - 1.0!r} on the domain for the Gaussian "
                          f"tail's variance to be finite")
    if command == "moments" and not run["eta"] < spec.c:
        raise ConfigError(f"config key 'eta' must lie in (0, c) = "
                          f"(0, {spec.c!r}), got {run['eta']!r}")
    at = spec.at(times.get("t", ()))
    for i, t in enumerate(at.t.tolist()):
        if at.b[i] == 0.0:
            raise ConfigError(f"config key 'b' vanishes at t = {t!r}, whose "
                              "scaling law takes log|b(t)|")
        # lfsm-control there is refused (equal side weights) or Levy motion
        if spec.tag == "lmmm" and at.kappa[i] == 0.0:
            what = ("the scale sigma(t) of the moment scaling law"
                    if command == "moments" else "every path at t")
            raise ConfigError(f"config key 't' is {t!r}, where H(t) = "
                              f"1/alpha(t) makes {what} 0")
    return run


def _manifest(out: Path, command: str, cfg: dict, run: dict,
              started: float, derived: dict, drop_counts: dict,
              outputs: list[str]) -> None:
    doc = {
        "kind": "run_manifest",
        "command": command,
        "version": __version__,
        # CSV bytes are a function of the config, the NumPy version and
        # whether NumPy dispatches its X86_V4 (AVX-512) loops
        "numpy": {"version": np.__version__,
                  "x86_v4": bool(__cpu_features__.get("X86_V4"))},
        "wall_clock_s": time.monotonic() - started,
        "n_terms": run.get("n_terms"),
        "config": {**cfg, "seed": run["seed"]},
        "derived": derived,
        "drop_counts": drop_counts,
        "warnings": list(getattr(run.get("spec"), "warnings", [])),
        "outputs": outputs,
    }
    _write_json(out / "manifest.json", doc)


def _derived_at(spec: ProcessSpec, t: float) -> dict:
    at = spec.at([t])
    a = float(at.alpha[0])
    out = {"t": t, "alpha": a, "c_alpha": c_alpha(a),
           "prefactor": float(at.pref[0]), "h": float(at.h[0])}
    if spec.tag != "levy":
        out["sigma"] = sigma_lmmm(a, float(at.H[0]), spec.kernel.side_weights)
    return out


# ---------------------------------------------------------------------------
# svg plotting (presentation only; CSV content never depends on it)


def _svg_polylines(path: Path, series: list[tuple[np.ndarray, np.ndarray]],
                   title: str, logx: bool = False,
                   logy: bool = False) -> None:
    W, Hpx, pad = 720, 440, 50
    xs = np.concatenate([s[0] for s in series])
    ys = np.concatenate([s[1] for s in series])
    ok = np.isfinite(xs) & np.isfinite(ys)
    if logx:
        xs = np.log10(xs)
    if logy:
        ys = np.log10(np.abs(ys) + 1e-300)
    x0, x1 = float(np.min(xs[ok])), float(np.max(xs[ok]))
    y0, y1 = float(np.min(ys[ok])), float(np.max(ys[ok]))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(y):
        return Hpx - pad - (y - y0) / (y1 - y0) * (Hpx - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{Hpx}" viewBox="0 0 {W} {Hpx}">',
             f'<rect width="{W}" height="{Hpx}" fill="white"/>',
             f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" '
             f'height="{Hpx - 2 * pad}" fill="none" stroke="#444"/>',
             f'<text x="{W // 2}" y="{pad - 14}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    for i, (x, y) in enumerate(series):
        x = np.log10(x) if logx else np.asarray(x, dtype=float)
        y = np.log10(np.abs(y) + 1e-300) if logy else np.asarray(y,
                                                                 dtype=float)
        pts = " ".join(f"{sx(a):.2f},{sy(bv):.2f}" for a, bv in zip(x, y)
                       if math.isfinite(a) and math.isfinite(bv))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[i % len(colors)]}" '
                     f'stroke-width="1.2"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_path(cfg: dict, run: dict, args) -> int:
    started = time.monotonic()
    spec, grid, n_paths = run["spec"], run["grid"], run["n_paths"]
    vals = diagonal_samples(spec, grid, n_paths, run["n_terms"], run["seed"],
                            tail=run["tail"], workers=args.workers)
    out = Path(args.out)
    # rows are streamed: no list of n_paths x G rows is built
    ts = grid.tolist()
    if n_paths == 1:
        _write_csv(out / "path.csv", ("t", "y"), zip(ts, vals[0].tolist()))
    else:
        rows = ((p, t, v) for p in range(n_paths)
                for t, v in zip(ts, vals[p].tolist()))
        _write_csv(out / "path.csv", ("path_id", "t", "y"), rows)
    if args.svg:
        _svg_polylines(out / "path.svg",
                       [(grid, vals[p]) for p in range(n_paths)],
                       "sample path")
    mid = 0.5 * (spec.domain[0] + spec.domain[1])
    _manifest(out, "path", cfg, run, started, _derived_at(spec, mid), {},
              ["path.csv"])
    return 0


def cmd_moments(cfg: dict, run: dict, args) -> int:
    started = time.monotonic()
    spec, t, eps = run["spec"], run["t"], run["eps"]
    me = estimate_increment_moments(spec, t, run["eta"], eps, run["m_paths"],
                                    run["n_terms"], run["seed"],
                                    tail=run["tail"], workers=args.workers)
    fit = fit_scaling(me)
    th = [math.exp(fit.theory_intercept + fit.theory_slope * math.log(e))
          for e in eps]
    out = Path(args.out)
    _write_csv(out / "moments.csv",
               ("eps", "eta", "estimate", "stderr", "theory_estimate"),
               [(e, me.eta, m, s, tv) for e, m, s, tv in
                zip(me.eps, me.estimates, me.stderrs, th)])
    _write_csv(out / "moments_fit.csv",
               ("slope", "slope_se", "intercept", "intercept_se",
                "theory_slope", "theory_intercept"),
               [(fit.slope, fit.slope_se, fit.intercept, fit.intercept_se,
                 fit.theory_slope, fit.theory_intercept)])
    if args.svg:
        _svg_polylines(out / "moments.svg",
                       [(np.asarray(me.eps), np.asarray(me.estimates)),
                        (np.asarray(me.eps), np.asarray(th))],
                       "incremental moments (log-log)", logx=True, logy=True)
    derived = {**_derived_at(spec, t), "theory_slope": fit.theory_slope,
               "theory_intercept": fit.theory_intercept}
    _manifest(out, "moments", cfg, run, started, derived, {},
              ["moments.csv", "moments_fit.csv"])
    return 0


def cmd_holder(cfg: dict, run: dict, args) -> int:
    started = time.monotonic()
    spec, ts = run["spec"], run["t"]
    rows = []
    drops = {}
    for t in ts:
        he = holder_pathwise(spec, t, run["r"], run["m_paths"],
                             run["n_terms"], run["seed"], tail=run["tail"],
                             workers=args.workers,
                             alpha_regularity=run["alpha_regularity"])
        rows.append((t, he.estimate, he.ci_lo, he.ci_hi,
                     he.theory if he.theory is not None else float("nan"),
                     he.drop_count))
        drops[_fmt(t)] = {"increments": he.drop_count,
                          "paths": he.dropped_paths}
    out = Path(args.out)
    _write_csv(out / "holder.csv",
               ("t", "estimate", "ci_lo", "ci_hi", "theory", "drop_count"),
               rows)
    if args.svg:
        ts_a = np.asarray([r[0] for r in rows])
        _svg_polylines(out / "holder.svg",
                       [(ts_a, np.asarray([r[1] for r in rows])),
                        (ts_a, np.asarray([r[2] for r in rows])),
                        (ts_a, np.asarray([r[3] for r in rows]))],
                       "pathwise roughness")
    _manifest(out, "holder", cfg, run, started, _derived_at(spec, ts[0]),
              drops, ["holder.csv"])
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_checks(run: dict, args) -> list[tuple]:
    """(name, value, threshold, false-alarm rate, sample sizes, function
    tested) per check; a check passes while value <= threshold."""
    from scipy.special import chdtr, chdtrc, ndtri

    half = 8 if run["fault_loose_quad"] else HALF_PERIODS
    scale, seed = run["fault_c_alpha_scale"], run["seed"]

    # single-exponent phase integrals against q^eta 2^(eta-1) / C_eta
    worst = max(abs(sin2_phase_integral(0.0, 1.0 / eta, q, 1.0 / eta, half)
                    * c_alpha(eta) / (q ** eta * 2.0 ** (eta - 1.0)) - 1.0)
                for eta in np.linspace(0.05, 1.95, 20) for q in (0.3, 1, 2.5))
    checks = [("quadrature-identity", worst, 1e-12, 0.0, {"eta": 20, "q": 3},
               "stable.sin2_phase_integral")]

    # constant-parameter marginals Y(1) against a direct stable sampler:
    # SaS(1) for levy, SaS(sigma_lmmm) for lmmm; the scale fault scales b
    m, n = run["verify_m"], run["verify_n_terms"]
    for k, (name, model, a, ref_scale) in enumerate((
            ("marginal-ks", {"process": "levy"}, 1.3, 1.0),
            ("lmmm-marginal-ks", {"process": "lmmm", "H": "0.75"}, 1.7,
             sigma_lmmm(1.7, 0.75)))):
        spec = build_spec({**model, "alpha": f"{a!r}", "b": f"{scale!r}",
                           "stability_bounds": [a - 0.05, a + 0.05]})
        vals = diagonal_samples(spec, [1.0], m, n, seed, tail="gauss",
                                workers=args.workers, index_offset=k * m)
        ref = cms_sample(a, ref_scale, _substream(seed, k, "reference"), m)
        ks = ks_two_sample(vals[:, 0], ref)
        checks.append((name, ks.statistic, ks.crit_01, 0.01,
                       {"m": m, "n_terms": n}, "estimate.diagonal_samples"))

    # characteristic function of increments, numeric vs empirical: each of
    # the 8 nonzero v strays beyond z sd_v / sqrt(m) with chance 1%/8
    vspec = build_spec({"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
                        "stability_bounds": [1.1, 1.9]})
    m, n = run["verify_cf_m"], run["verify_cf_n_terms"]
    rep = ecf_compare(vspec, 0.3, 2.0 ** -6, np.linspace(0.0, 4.0, 9), m, n,
                      seed, workers=args.workers, half_periods=half)
    thr = -ndtri(0.01 / 16.0) * max(rep.sd) / math.sqrt(m)
    checks.append(("cf-gap", rep.sup_gap, thr, 0.01, {"m": m, "n_terms": n},
                   "estimate.levy_increment_cf"))

    # Y_2N - Y_N at one time over the pilots against its exact RMS: given
    # the arrivals a Rademacher sum, near Gaussian, so the sum of squares is
    # near chi^2(pilot); value = normal score of its nearer tail (two-sided)
    pilot, n = 200, run["verify_n_terms"]
    rep2 = truncation_diagnostic(vspec, [0.75], n, seed, pilot=pilot)
    chi = float(np.sum((rep2.differences / rep2.rms) ** 2))
    checks.append(("truncation-variance",
                   -ndtri(min(chdtr(pilot, chi), chdtrc(pilot, chi))),
                   -ndtri(0.005), 0.01, {"pilot": pilot, "n_terms": n},
                   "engine.arrival_tail_sum"))
    return checks


# one row of verify.csv (the first four fields) and of verify.json (all)
_Check = namedtuple("_Check", "check value threshold status false_alarm_rate "
                    "sizes tests")


def cmd_verify(cfg: dict, run: dict, args) -> int:
    started = time.monotonic()
    checks = [_Check(name, float(val), float(thr),
                     "pass" if val <= thr else "FAIL", *more)
              for name, val, thr, *more in _verify_checks(run, args)]
    out = Path(args.out)
    _write_csv(out / "verify.csv", _Check._fields[:4],
               [c[:4] for c in checks])
    _write_json(out / "verify.json", {"checks": [c._asdict() for c in checks]})
    for c in checks:
        print(f"[{c.status.upper()}] {c.check}: {c.value:.6g} "
              f"(threshold {c.threshold:.6g})")
    _manifest(out, "verify", cfg, run, started, {}, {},
              ["verify.csv", "verify.json"])
    return 0 if all(c.status == "pass" for c in checks) else 4


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multistable",
        description="multistable process simulation and scaling checks")
    parser.add_argument("command",
                        choices=("path", "moments", "holder", "verify"))
    parser.add_argument("--config", required=True,
                        help="JSON config file (or a manifest.json)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG plots")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    handlers = {"path": cmd_path, "moments": cmd_moments,
                "holder": cmd_holder, "verify": cmd_verify}
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg = {**cfg, "seed": args.seed}
        run = check_config(cfg, args.command)
        try:  # before the run, which would otherwise be lost
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r} cannot be made a "
                              f"directory: {exc.strerror}") from None
        return handlers[args.command](cfg, run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
