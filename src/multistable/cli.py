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

Config keys shared by all commands:

  process            "levy" | "lmmm" | "lfsm-control"
  alpha              expression in t, e.g. "1.5+0.3*sin(2*pi*t)"
  b                  scale expression (default "1")
  H                  expression, required for lmmm / lfsm-control
  b_plus, b_minus    side weights for lfsm-control (default 1)
  domain             [lo, hi] evaluation interval (default [0, 1])
  stability_bounds   [c, d] with 0 < c <= d < 2; alpha must stay inside
  n_terms            series truncation length
  seed               base seed (overridden by --seed)
  tail               "gauss" | "none": complete truncated values with a
                     Gaussian tail surrogate (default "gauss"; paths
                     default to "none" so the series is reported as is)

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .engine import _substream, truncation_diagnostic
from .estimate import (condition_probe, diagonal_samples, ecf_compare,
                       estimate_increment_moments, fit_scaling,
                       holder_pathwise, ks_two_sample)
from .expr import ExprError, FuncSpec
from .kernels import ProcessSpec, make_process, sigma_lmmm
from .stable import QuadratureConfig, c_alpha, cms_sample, sin2_integral

__all__ = ["main", "cmd_path", "cmd_moments", "cmd_holder", "cmd_verify",
           "ConfigError"]


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
# config handling


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


def _need(cfg: dict, key: str, types, what: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r} ({what})")
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, types):
        raise ConfigError(f"config key {key!r} must be {what}, "
                          f"got {type(val).__name__}")
    return val


def _opt_number(cfg: dict, key: str, default):
    val = cfg.get(key, default)
    if val is not None and not isinstance(val, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    return val


def _parse_func(cfg: dict, key: str, domain, required: bool,
                default: str = "1") -> Optional[FuncSpec]:
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config key {key!r} (expression in t)")
        src = default
    else:
        src = cfg[key]
        if not isinstance(src, str):
            raise ConfigError(f"config key {key!r} must be an expression "
                              f"string")
    try:
        return FuncSpec.parse(src, domain)
    except ExprError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def build_spec(cfg: dict) -> ProcessSpec:
    process = _need(cfg, "process", str, "a process tag")
    domain = cfg.get("domain", [0.0, 1.0])
    if (not isinstance(domain, list) or len(domain) != 2
            or not all(isinstance(x, (int, float)) for x in domain)
            or not domain[0] < domain[1]):
        raise ConfigError("config key 'domain' must be [lo, hi] with lo < hi")
    domain = (float(domain[0]), float(domain[1]))
    bounds = _need(cfg, "stability_bounds", list, "[c, d]")
    if (len(bounds) != 2
            or not all(isinstance(x, (int, float)) for x in bounds)):
        raise ConfigError("config key 'stability_bounds' must be [c, d]")
    c, d = float(bounds[0]), float(bounds[1])
    alpha = _parse_func(cfg, "alpha", domain, required=True)
    b = _parse_func(cfg, "b", domain, required=False)
    needs_h = process in ("lmmm", "lfsm-control")
    H = _parse_func(cfg, "H", domain, required=needs_h) if ("H" in cfg
                                                            or needs_h) \
        else None
    try:
        return make_process(process, alpha, b, H, domain, c, d,
                            b_plus=float(cfg.get("b_plus", 1.0)),
                            b_minus=float(cfg.get("b_minus", 1.0)))
    except (ValueError, ExprError) as exc:
        raise ConfigError(str(exc)) from exc


def _levels(cfg_val, key: str) -> list[float]:
    """Either an explicit list of positive floats or a log-spaced family
    {"start_exp": -4, "stop_exp": -10, "base": 2}."""
    if isinstance(cfg_val, list):
        if not cfg_val or not all(isinstance(x, (int, float)) and x > 0
                                  for x in cfg_val):
            raise ConfigError(f"config key {key!r} must list positive "
                              f"numbers")
        return [float(x) for x in cfg_val]
    if isinstance(cfg_val, dict):
        for sub in ("start_exp", "stop_exp"):
            if sub not in cfg_val or not isinstance(cfg_val[sub], int):
                raise ConfigError(f"config key {key!r} needs integer "
                                  f"{sub!r}")
        base = cfg_val.get("base", 2)
        if not isinstance(base, (int, float)) or base <= 1:
            raise ConfigError(f"config key {key!r}: base must exceed 1")
        a, z = cfg_val["start_exp"], cfg_val["stop_exp"]
        step = -1 if z < a else 1
        return [float(base) ** k for k in range(a, z + step, step)]
    raise ConfigError(f"config key {key!r} must be a list or a "
                      f"start_exp/stop_exp/base object")


def _seed(cfg: dict, args) -> int:
    seed = cfg.get("seed", 0) if args.seed is None else args.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("config key 'seed' must be a non-negative integer")
    return seed


def _m_paths(cfg: dict) -> int:
    m_paths = _need(cfg, "m_paths", int, "an integer >= 2")
    if m_paths < 2:
        raise ConfigError("config key 'm_paths' must be >= 2")
    return m_paths


def _common(cfg: dict, args) -> dict:
    """Effective run parameters after CLI overrides."""
    seed = _seed(cfg, args)
    n_terms = _need(cfg, "n_terms", int, "a positive integer")
    if n_terms < 1:
        raise ConfigError("config key 'n_terms' must be >= 1")
    tail = cfg.get("tail")
    if tail is not None and tail not in ("gauss", "none"):
        raise ConfigError("config key 'tail' must be \"gauss\" or \"none\"")
    return {"seed": seed, "n_terms": n_terms, "tail": tail}


def _manifest(out: Path, command: str, cfg: dict, run: dict,
              spec: Optional[ProcessSpec], started: float, derived: dict,
              drop_counts: dict, outputs: list[str]) -> None:
    effective = dict(cfg)
    effective["seed"] = run["seed"]
    if run["tail"] is not None:
        effective["tail"] = run["tail"]
    doc = {
        "kind": "run_manifest",
        "command": command,
        "version": __version__,
        "wall_clock_s": time.monotonic() - started,
        "n_terms": run["n_terms"],
        "config": effective,
        "derived": derived,
        "drop_counts": drop_counts,
        "warnings": list(spec.warnings) if spec is not None else [],
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
        out["sigma"] = sigma_lmmm(a, spec.H(t))
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


def cmd_path(cfg: dict, args) -> int:
    started = time.monotonic()
    spec = build_spec(cfg)
    run = _common(cfg, args)
    tail = run["tail"] or "none"
    gcfg = cfg.get("grid")
    if isinstance(gcfg, dict):
        for sub in ("start", "stop", "n"):
            if sub not in gcfg:
                raise ConfigError(f"config key 'grid' needs {sub!r}")
        if gcfg["n"] < 2:
            raise ConfigError("grid n must be >= 2")
        grid = np.linspace(float(gcfg["start"]), float(gcfg["stop"]),
                           int(gcfg["n"]))
    elif isinstance(gcfg, list) and len(gcfg) >= 2:
        grid = np.asarray([float(x) for x in gcfg])
    else:
        raise ConfigError("config key 'grid' must be {start, stop, n} or a "
                          "list of at least two times")
    n_paths = cfg.get("n_paths", 1)
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ConfigError("config key 'n_paths' must be a positive integer")
    vals = diagonal_samples(spec, grid, n_paths, run["n_terms"], run["seed"],
                            tail=tail, workers=args.workers)
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
    _manifest(out, "path", cfg, run, spec, started, _derived_at(spec, mid),
              {}, ["path.csv"])
    return 0


def cmd_moments(cfg: dict, args) -> int:
    started = time.monotonic()
    spec = build_spec(cfg)
    run = _common(cfg, args)
    tail = run["tail"] or "gauss"
    t = _need(cfg, "t", (int, float), "a time in the domain")
    eta = _need(cfg, "eta", (int, float), "a moment order")
    eps = _levels(cfg.get("eps"), "eps")
    m_paths = _m_paths(cfg)
    me = estimate_increment_moments(spec, float(t), float(eta), eps, m_paths,
                                    run["n_terms"], run["seed"], tail=tail,
                                    workers=args.workers)
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
    derived = _derived_at(spec, float(t))
    derived["theory_slope"] = fit.theory_slope
    derived["theory_intercept"] = fit.theory_intercept
    _manifest(out, "moments", cfg, run, spec, started, derived, {},
              ["moments.csv", "moments_fit.csv"])
    return 0


def cmd_holder(cfg: dict, args) -> int:
    started = time.monotonic()
    spec = build_spec(cfg)
    run = _common(cfg, args)
    tail = run["tail"] or "gauss"
    t_cfg = cfg.get("t")
    if isinstance(t_cfg, (int, float)):
        ts = [float(t_cfg)]
    elif isinstance(t_cfg, list) and t_cfg and all(
            isinstance(x, (int, float)) for x in t_cfg):
        ts = [float(x) for x in t_cfg]
    else:
        raise ConfigError("config key 't' must be a time or list of times")
    r_levels = _levels(cfg.get("r"), "r")
    m_paths = _m_paths(cfg)
    reg = _opt_number(cfg, "alpha_regularity", None)
    rows = []
    drops = {}
    for t in ts:
        he = holder_pathwise(spec, t, r_levels, m_paths, run["n_terms"],
                             run["seed"], tail=tail, workers=args.workers,
                             alpha_regularity=reg)
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
    _manifest(out, "holder", cfg, run, spec, started,
              _derived_at(spec, ts[0]), drops, ["holder.csv"])
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_checks(cfg: dict, args, run: dict) -> list[tuple[str, float,
                                                             float, bool]]:
    checks: list[tuple[str, float, float, bool]] = []
    quad = None
    if cfg.get("fault_loose_quad"):
        quad = QuadratureConfig(abs_tol=1e-3, rel_tol=1e-2,
                                max_subdivisions=1, half_periods=8)
    scale = float(cfg.get("fault_c_alpha_scale", 1.0))

    # closed-form consistency of the numeric half-period integral
    worst = 0.0
    for eta in np.linspace(0.05, 1.95, 20):
        lhs = c_alpha(float(eta)) * eta * sin2_integral(float(eta), quad)
        worst = max(worst, abs(lhs / 2.0 ** (eta - 1.0) - 1.0))
    checks.append(("quadrature-identity", worst, 1e-8, worst <= 1e-8))

    # constant-parameter marginal against a direct stable sampler
    a0 = float(cfg.get("verify_alpha", 1.3))
    n_terms = int(cfg.get("verify_n_terms", 4000))
    m = int(cfg.get("verify_m", 4000))
    vcfg = {"process": "levy", "alpha": f"{a0!r}", "b": f"{scale!r}",
            "stability_bounds": [a0 - 0.05, a0 + 0.05],
            "domain": [0.0, 1.0]}
    spec = build_spec(vcfg)
    vals = diagonal_samples(spec, [1.0], m, n_terms, run["seed"],
                            tail="gauss", workers=args.workers)[:, 0]
    ref = cms_sample(a0, 1.0, _substream(run["seed"], 0, "reference"), m)
    ks = ks_two_sample(vals, ref)
    checks.append(("marginal-ks", ks.statistic, ks.crit_01,
                   ks.statistic <= ks.crit_01))

    # characteristic function of increments, numeric vs empirical
    vspec = build_spec({"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
                        "stability_bounds": [1.1, 1.9],
                        "domain": [0.0, 1.0]})
    rep = ecf_compare(vspec, 0.3, 2.0 ** -6, np.linspace(0.0, 4.0, 9),
                      int(cfg.get("verify_cf_m", 2000)),
                      int(cfg.get("verify_cf_n_terms", 4000)), run["seed"],
                      workers=args.workers, quad=quad)
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
                                 int(cfg.get("verify_n_terms", 4000)),
                                 run["seed"], pilot=4)
    ratio = rep2.max_discrepancy / rep2.tail_proxy
    checks.append(("truncation-proxy", ratio, 10.0, ratio <= 10.0))
    return checks


def cmd_verify(cfg: dict, args) -> int:
    started = time.monotonic()
    run = {"seed": _seed(cfg, args),
           "n_terms": int(cfg.get("n_terms", 4000)),
           "tail": cfg.get("tail")}
    import warnings as _warnings

    from scipy.integrate import IntegrationWarning
    with _warnings.catch_warnings():
        # deliberate fault injection drives quadrature past its budget;
        # the report line is the signal, not the scipy chatter
        _warnings.simplefilter("ignore", IntegrationWarning)
        checks = _verify_checks(cfg, args, run)
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
    _manifest(out, "verify", cfg, run, None, started, {}, {}, ["verify.csv"])
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
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
