"""Statistical acceptance battery, run at full scale.

Each test checks one end-to-end property of the simulator with its tolerance
spelled out in the assertion, and reports one [PASS]/[FAIL] line that pytest
collects into a terminal summary section.  Seeds are pinned: every quantity
below is a deterministic function of them, so a pass here is reproducible
bit-for-bit.  Budgets: the two moment-scaling fits and the worker-determinism
rerun dominate, a few minutes total on one core.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from multistable.cli import main
from multistable.engine import _substream
from multistable.estimate import (diagonal_samples, ecf_compare,
                                  estimate_increment_moments, fit_scaling,
                                  holder_pathwise, ks_two_sample,
                                  condition_probe)
from multistable.expr import FuncSpec, ParseError, eval_expr, parse_expr
from multistable.kernels import make_process, sigma_lmmm
from multistable.stable import c_alpha, cms_sample, sin2_integral

import oracles


def _fs(src):
    return FuncSpec.parse(src, (0.0, 1.0))


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs (the upper-bound check reuses the two roughness estimates)

SMOOTH_INDEX_R = [2.0 ** -k for k in range(6, 18)]
ROUGH_INDEX_R = [2.0 ** -k for k in range(8, 18)]


@functools.lru_cache(maxsize=1)
def _smooth_index_estimate():
    spec = make_process("levy", _fs("1.5+0.3*sin(2*pi*t)"), _fs("1"), None,
                        (0.0, 1.0), 1.1, 1.9)
    return holder_pathwise(spec, 0.5, SMOOTH_INDEX_R, 100, 4000, seed=1)


@functools.lru_cache(maxsize=1)
def _rough_index_estimate():
    spec = make_process("levy", _fs("0.8+0.1*abs(t-0.5)^0.5"), _fs("1"),
                        None, (0.0, 1.0), 0.75, 0.9)
    return holder_pathwise(spec, 0.5, ROUGH_INDEX_R, 100, 4000, seed=1,
                           alpha_regularity=0.5)


# ---------------------------------------------------------------------------


def test_constant_cross_check():
    started = time.monotonic()
    worst = 0.0
    for eta in np.linspace(0.05, 1.95, 20):
        ref = oracles.c_eta_reference(float(eta))
        worst = max(worst, abs(c_alpha(float(eta)) - ref) / ref)
    gap = abs(sin2_integral(1.0) - math.pi / 2.0)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and gap <= 1e-8 and elapsed < 5.0
    _report("constant cross-check", ok,
            f"max rel err {worst:.2e} (tol 1e-8), "
            f"half-moment integral gap {gap:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_stable_law_oracle():
    # constant-index field values at t=1 against direct transform sampling,
    # 2e4 terms x 2e4 environments x 2e4 reference draws per index
    started = time.monotonic()
    worst_stat, worst_alpha, crit = 0.0, None, None
    for k, a in enumerate((0.8, 1.2, 1.5, 1.8)):
        spec = make_process("levy", _fs(repr(a)), _fs("1"), None,
                            (0.0, 1.0), max(0.3, a - 0.1),
                            min(1.95, a + 0.1))
        vals = diagonal_samples(spec, [1.0], 20000, 20000, seed=2)[:, 0]
        ref = cms_sample(a, 1.0, _substream(2, k, "reference"), 20000)
        ks = ks_two_sample(vals, ref)
        crit = ks.crit_01
        if ks.statistic > worst_stat:
            worst_stat, worst_alpha = ks.statistic, a
    elapsed = time.monotonic() - started
    ok = worst_stat < crit and elapsed < 120.0
    _report("stable-law oracle", ok,
            f"worst KS {worst_stat:.4f} at alpha={worst_alpha} "
            f"(1% critical {crit:.4f}), {elapsed:.0f}s (budget 120s)")


def test_moment_scaling_jump_field():
    started = time.monotonic()
    spec = make_process("levy", _fs("1.5+0.3*sin(2*pi*t)"), _fs("1"), None,
                        (0.0, 1.0), 1.1, 1.9)
    eps = [2.0 ** -k for k in range(4, 11)]
    me = estimate_increment_moments(spec, 0.3, 0.5, eps, 5000, 20000, seed=0)
    fit = fit_scaling(me)
    ratio = math.exp(fit.intercept - fit.theory_intercept)
    elapsed = time.monotonic() - started
    slope_err = fit.slope - fit.theory_slope
    ok = (abs(slope_err) <= 0.03 and 0.85 <= ratio <= 1.15
          and elapsed < 300.0)
    _report("moment scaling (jump field)", ok,
            f"slope {fit.slope:.4f} vs {fit.theory_slope:.4f} "
            f"(err {slope_err:+.4f}, tol 0.03), prefactor ratio "
            f"{ratio:.3f} (window [0.85,1.15]), {elapsed:.0f}s (budget 300s)")


def test_moment_scaling_moving_average():
    started = time.monotonic()
    spec = make_process("lmmm", _fs("1.7+0.2*sin(2*pi*t)"), _fs("1"),
                        _fs("0.7+0.1*t"), (0.0, 1.0), 1.45, 1.95)
    # the regularity exponent H - 1/alpha must stay nonnegative here
    kmin = min(spec.kappa(u) for u in np.linspace(0.0, 1.0, 201))
    eps = [2.0 ** -k for k in range(4, 11)]
    me = estimate_increment_moments(spec, 0.3, 0.5, eps, 5000, 20000, seed=0)
    fit = fit_scaling(me)
    ratio = math.exp(fit.intercept - fit.theory_intercept)
    # scale constant sub-check: quadrature against an independent
    # importance-sampling integrator
    a03 = spec.alpha(0.3)
    mc = oracles.kink_integral_mc(a03, 0.73, n=400000, seed=3)
    sigma_rel = abs(sigma_lmmm(a03, 0.73) / mc - 1.0)
    elapsed = time.monotonic() - started
    slope_err = fit.slope - fit.theory_slope
    ok = (kmin >= 0.0 and abs(slope_err) <= 0.05 and 0.8 <= ratio <= 1.2
          and sigma_rel <= 0.005 and elapsed < 600.0)
    _report("moment scaling (moving average)", ok,
            f"slope {fit.slope:.4f} vs {fit.theory_slope:.4f} "
            f"(err {slope_err:+.4f}, tol 0.05), prefactor ratio {ratio:.3f} "
            f"(window [0.8,1.2]), scale sub-check rel {sigma_rel:.1e} "
            f"(tol 5e-3), {elapsed:.0f}s (budget 600s)")


def test_roughness_smooth_index():
    he = _smooth_index_estimate()
    target = 2.0 / 3.0
    ok = abs(he.estimate - target) <= 0.1
    _report("pathwise roughness (smooth index)", ok,
            f"median slope {he.estimate:.4f} vs {target:.4f} (tol 0.1), "
            f"CI [{he.ci_lo:.4f}, {he.ci_hi:.4f}], 100 paths")


def test_roughness_rough_index():
    he = _rough_index_estimate()
    ok = abs(he.estimate - 0.5) <= 0.1 and he.theory == 0.5
    _report("pathwise roughness (rough index)", ok,
            f"median slope {he.estimate:.4f} vs 0.5 (tol 0.1), "
            f"CI [{he.ci_lo:.4f}, {he.ci_hi:.4f}], declared index "
            f"regularity 0.5 caps the target at min(1.25, 0.5)")


def test_roughness_upper_bound():
    # upper CI edges must respect the localisability exponent everywhere,
    # including a moving-average run where it is an upper bound only
    spec = make_process("lmmm", _fs("1.7"), _fs("1"), _fs("0.75"),
                        (0.0, 1.0), 1.45, 1.95)
    ma = holder_pathwise(spec, 0.5, SMOOTH_INDEX_R, 60, 3000, seed=1)
    cases = [("smooth index", _smooth_index_estimate(), 2.0 / 3.0),
             ("rough index", _rough_index_estimate(), 0.5),
             ("moving average", ma, 0.75)]
    worst_margin, worst_name = -1e9, None
    for name, he, h in cases:
        margin = he.ci_hi - (h + 0.1)
        if margin > worst_margin:
            worst_margin, worst_name = margin, name
    ok = worst_margin <= 0.0
    _report("roughness upper bound", ok,
            f"worst CI overhang {worst_margin:+.4f} ({worst_name}); "
            "all upper CI edges within target + 0.1")


def test_increment_characteristic_function():
    started = time.monotonic()
    v = np.linspace(0.0, 5.0, 26)
    spec = make_process("levy", _fs("1.5+0.3*sin(2*pi*t)"), _fs("1"), None,
                        (0.0, 1.0), 1.1, 1.9)
    rep = ecf_compare(spec, 0.3, 2.0 ** -6, v, 10000, 4000, seed=1)
    ctrl_spec = make_process("levy", _fs("1.5"), _fs("1"), None,
                             (0.0, 1.0), 1.1, 1.9)
    ctrl = ecf_compare(ctrl_spec, 0.3, 2.0 ** -6, v, 10000, 4000, seed=1)
    closed = np.exp(-v ** 1.5)
    ctrl_gap = float(np.max(np.abs(np.asarray(ctrl.empirical) - closed)))
    elapsed = time.monotonic() - started
    ok = rep.sup_gap <= 0.02 and ctrl_gap <= 0.02
    _report("increment characteristic function", ok,
            f"varying-index sup gap {rep.sup_gap:.4f} (tol 0.02), "
            f"constant-index control vs closed form {ctrl_gap:.4f} "
            f"(tol 0.02), {elapsed:.0f}s")


def test_condition_probes_exact():
    # these reduce to interval lengths for the indicator kernel; the values
    # must come out as exact floats, not quadrature approximations
    spec = make_process("levy", _fs("1.5+0.3*sin(2*pi*t)"), _fs("1"), None,
                        (0.0, 1.0), 1.1, 1.9)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10):
        t = float(rng.uniform(0.05, 0.9))
        r = float(2.0 ** -int(rng.integers(4, 14)))
        c9 = condition_probe(spec, "C9", t, [r]).values[0]
        cu14 = condition_probe(spec, "Cu14", t, [r]).values[0]
        cu15 = condition_probe(spec, "Cu15", t, [r]).values[0]
        if not (c9 == 1.0 and cu14 == 1.0 and cu15 == 0.0):
            _report("condition probes", False,
                    f"t={t} r={r}: C9={c9!r} Cu14={cu14!r} Cu15={cu15!r}")
        checked += 1
    _report("condition probes", checked == 10,
            "C9 == 1, Cu14 == 1, Cu15 == 0 exactly at 10 random (t, r)")


def test_worker_determinism(tmp_path):
    # the jump-field moment run, repeated through the CLI with 1 and 8
    # workers; CSV bytes must match exactly
    started = time.monotonic()
    cfg = {"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
           "stability_bounds": [1.1, 1.9], "domain": [0.0, 1.0],
           "t": 0.3, "eta": 0.5, "eps": {"start_exp": -4, "stop_exp": -10},
           "m_paths": 5000, "n_terms": 20000, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc1 = main(["moments", "--config", str(cfg_path),
                "--out", str(tmp_path / "w1"), "--workers", "1"])
    rc8 = main(["moments", "--config", str(cfg_path),
                "--out", str(tmp_path / "w8"), "--workers", "8"])
    same = all(
        (tmp_path / "w1" / name).read_bytes()
        == (tmp_path / "w8" / name).read_bytes()
        for name in ("moments.csv", "moments_fit.csv"))
    elapsed = time.monotonic() - started
    ok = rc1 == 0 and rc8 == 0 and same
    _report("worker determinism", ok,
            f"1-worker and 8-worker CSV outputs byte-identical: {same}, "
            f"{elapsed:.0f}s")


def test_expression_parser_battery():
    cases = {"2+3*4": 14.0, "2*3^2": 18.0, "-2^2": -4.0, "8-3-2": 3.0,
             "16/4/2": 2.0, "2^3^2": 512.0, "(2+3)*4": 20.0,
             "min(3, max(1, 2))": 2.0, "--4": 4.0}
    ok = True
    for src, want in cases.items():
        ok = ok and eval_expr(parse_expr(src), 0.0) == want
    offsets = {"1.5+": 4, "": 0, "2*(3": 4, "1 + * 2": 4}
    for src, want in offsets.items():
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        ok = ok and exc.value.offset == want
    _report("expression parser battery", ok,
            f"{len(cases)} precedence/associativity values and "
            f"{len(offsets)} error offsets as pinned")
