"""Command line front end.

Four subcommands, all driven by a JSON config file:

  path     sample paths Y(t) on a grid               -> path.csv
  moments  incremental-moment curve and scaling fit  -> moments.csv, moments_fit.csv
  holder   pathwise roughness estimate               -> holder.csv
  verify   self-checks with optional fault injection -> verify.csv

Every run writes a manifest.json echoing the effective config (CLI overrides
applied), the package version, wall-clock time, and derived constants.  A
manifest is itself a valid --config: re-running from it reproduces the CSV
files byte for byte.

The config keys, their types, bounds, defaults and the commands that read
them are listed in SCHEMA below and in the config table of README.md.
main checks every key the command reads before any work runs.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning

from . import __version__
from .engine import _substream, truncation_diagnostic
from .estimate import (condition_probe, diagonal_samples, ecf_compare,
                       estimate_increment_moments, fit_scaling,
                       holder_pathwise, ks_two_sample)
from .expr import ExprError, FuncSpec
from .kernels import ProcessSpec, make_process, sigma_lmmm
from .stable import QuadratureConfig, c_alpha, cms_sample, sin2_integral

__all__ = ["main", "cmd_path", "cmd_moments", "cmd_holder", "cmd_verify",
           "build_spec", "check_config", "SCHEMA", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or missing configuration; exit code 2."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: Sequence[str],
               rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else
                     (str(c) if isinstance(c, (int, np.integer)) else _fmt(c))
                     for c in row]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# config schema: every key a command reads, checked before any work runs


# the most values a count may ask for (2^24 float64 values take 128 MiB):
# n_terms, n_paths x grid points, m_paths x levels, levels in one family
_MAX_VALUES = 2 ** 24


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
# the cross-key rules: the count caps, every time (grid, t, t + eps, t + r)
# lies in the domain, and eta < c; build_spec adds the model rules.
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


def build_spec(cfg: dict) -> ProcessSpec:
    """ProcessSpec of a config's model keys; other keys are ignored."""
    v = _checked(cfg, [k for k in SCHEMA if k.name in _MODEL_KEYS])
    lo, hi = v["domain"]
    if v["process"] == "levy" and not 0.0 <= lo < hi <= 1.0:
        # the levy measure lives on [0, 1]: beyond it the path is frozen
        raise ConfigError(f"config key 'domain' must lie inside [0, 1] for "
                          f"levy, got [{lo!r}, {hi!r}]")
    funcs = dict.fromkeys(("alpha", "b", "H"))
    for key in funcs:
        if v[key] is not None:
            try:
                funcs[key] = FuncSpec.parse(v[key], v["domain"])
                # raises EvalError where the function cannot be evaluated
                vals = funcs[key].grid_values
            except ExprError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if (v["process"] == "lfsm-control" and key != "b"
                    and min(vals) != max(vals)):
                # the control is the linear fractional stable motion
                raise ConfigError(
                    f"config key {key!r} must be constant for lfsm-control, "
                    f"got values in [{min(vals)!r}, {max(vals)!r}]")
    try:
        return make_process(v["process"], funcs["alpha"], funcs["b"],
                            funcs["H"], v["domain"], *v["stability_bounds"],
                            b_plus=v["b_plus"], b_minus=v["b_minus"])
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
    spec = run["spec"] = build_spec(cfg)
    lo, hi = spec.domain
    if command == "path":
        times = {"grid": run["grid"]}
    else:
        lev = "eps" if command == "moments" else "r"
        ts = run["t"] if command == "holder" else [run["t"]]
        times = {"t": ts, lev: [t + e for t in ts for e in run[lev]]}
    for key, xs in times.items():
        for x in xs:
            if not lo <= x <= hi:
                raise ConfigError(f"config key {key!r} puts time {float(x)!r} "
                                  f"outside the domain [{lo!r}, {hi!r}]")
    if run.get("tail") == "gauss" and spec.H is not None and max(
            1.0 / a + h for a, h in zip(spec.alpha.grid_values,
                                        spec.H.grid_values)) >= 1.5:
        raise ConfigError("config key 'tail' is \"gauss\", but 1/alpha + H "
                          "reaches 3/2 on the domain, where the series terms "
                          "have infinite variance")
    if command == "moments" and not run["eta"] < spec.c:
        raise ConfigError(f"config key 'eta' must lie in (0, c) = "
                          f"(0, {spec.c!r}), got {run['eta']!r}")
    return run


def _manifest(out: Path, command: str, cfg: dict, run: dict,
              started: float, derived: dict, drop_counts: dict,
              outputs: list[str]) -> None:
    doc = {
        "kind": "run_manifest",
        "command": command,
        "version": __version__,
        "wall_clock_s": time.monotonic() - started,
        "n_terms": run.get("n_terms"),
        "config": {**cfg, "seed": run["seed"]},
        "derived": derived,
        "drop_counts": drop_counts,
        "warnings": list(getattr(run.get("spec"), "warnings", [])),
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _derived_at(spec: ProcessSpec, t: float) -> dict:
    a = spec.alpha(t)
    out = {"t": t, "alpha": a, "c_alpha": c_alpha(a),
           "prefactor": spec.b(t) * c_alpha(a) ** (1.0 / a),
           "h": spec.h(t)}
    if spec.tag != "levy":
        out["sigma"] = sigma_lmmm(a, spec.H(t), spec.kernel.side_weights)
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
    out.mkdir(parents=True, exist_ok=True)
    if n_paths == 1:
        rows = [(t, v) for t, v in zip(grid, vals[0])]
        _write_csv(out / "path.csv", ("t", "y"), rows)
    else:
        rows = [(p, t, v) for p in range(n_paths)
                for t, v in zip(grid, vals[p])]
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
    out.mkdir(parents=True, exist_ok=True)
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
    out.mkdir(parents=True, exist_ok=True)
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
    checks: list[tuple[str, float, float, bool]] = []
    quad = None
    if run["fault_loose_quad"]:
        quad = QuadratureConfig(abs_tol=1e-3, rel_tol=1e-2,
                                max_subdivisions=1, half_periods=8)
    scale = run["fault_c_alpha_scale"]

    # closed-form consistency of the numeric half-period integral
    worst = 0.0
    for eta in np.linspace(0.05, 1.95, 20):
        lhs = c_alpha(float(eta)) * eta * sin2_integral(float(eta), quad)
        worst = max(worst, abs(lhs / 2.0 ** (eta - 1.0) - 1.0))
    checks.append(("quadrature-identity", worst, 1e-8, worst <= 1e-8))

    # constant-parameter marginal against a direct stable sampler
    a0 = 1.3
    m = run["verify_m"]
    vcfg = {"process": "levy", "alpha": f"{a0!r}", "b": f"{scale!r}",
            "stability_bounds": [a0 - 0.05, a0 + 0.05]}
    spec = build_spec(vcfg)
    vals = diagonal_samples(spec, [1.0], m, run["verify_n_terms"],
                            run["seed"], tail="gauss",
                            workers=args.workers)[:, 0]
    ref = cms_sample(a0, 1.0, _substream(run["seed"], 0, "reference"), m)
    ks = ks_two_sample(vals, ref)
    checks.append(("marginal-ks", ks.statistic, ks.crit_01,
                   ks.statistic <= ks.crit_01))

    # characteristic function of increments, numeric vs empirical
    vspec = build_spec({"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
                        "stability_bounds": [1.1, 1.9]})
    rep = ecf_compare(vspec, 0.3, 2.0 ** -6, np.linspace(0.0, 4.0, 9),
                      run["verify_cf_m"], run["verify_cf_n_terms"],
                      run["seed"], workers=args.workers, quad=quad)
    checks.append(("cf-gap", rep.sup_gap, 0.05, rep.sup_gap <= 0.05))

    # localisability probes that collapse to exact constants
    probe_worst = 0.0
    for (tt, rr) in ((0.25, 2.0 ** -7), (0.6, 2.0 ** -9)):
        c9 = condition_probe(vspec, "C9", tt, [rr]).values[0]
        cu14 = condition_probe(vspec, "Cu14", tt, [rr]).values[0]
        cu15 = condition_probe(vspec, "Cu15", tt, [rr]).values[0]
        probe_worst = max(probe_worst, abs(c9 - 1.0), abs(cu14 - 1.0),
                          abs(cu15))
    checks.append(("probe-exactness", probe_worst, 1e-12,
                   probe_worst <= 1e-12))

    # truncation error against its zeta proxy
    rep2 = truncation_diagnostic(vspec, np.linspace(0.1, 0.9, 9),
                                 run["verify_n_terms"], run["seed"], pilot=4)
    ratio = rep2.max_discrepancy / rep2.tail_proxy
    checks.append(("truncation-proxy", ratio, 10.0, ratio <= 10.0))
    return checks


def cmd_verify(cfg: dict, run: dict, args) -> int:
    started = time.monotonic()
    with warnings.catch_warnings():
        # deliberate fault injection drives quadrature past its budget;
        # the report line is the signal, not the scipy chatter
        warnings.simplefilter("ignore", IntegrationWarning)
        checks = _verify_checks(run, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "verify.csv", ("check", "value", "threshold", "status"),
               [(name, val, thr, "pass" if ok else "FAIL")
                for name, val, thr, ok in checks])
    all_ok = True
    for name, val, thr, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {val:.6g} "
              f"(threshold {thr:.6g})")
        all_ok = all_ok and ok
    _manifest(out, "verify", cfg, run, started, {}, {}, ["verify.csv"])
    return 0 if all_ok else 4


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
        return handlers[args.command](cfg, run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
