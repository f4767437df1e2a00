"""Benchmark of the multistable CLI.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run of a workload is a fresh Python process (perfbench/child.py) that
imports the package from ./src and calls ``multistable.cli.main``, because
CLI users pay for imports and lazily built tables on every invocation.  The
benchmark repeats such runs for about ``--seconds`` seconds at the given
seed, checks every run's output (perfbench/workloads.py), and reports
medians over the runs.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
Their times are in seconds at a fixed reference speed: a fixed computation
(reference) is timed in this process just before and just after each run,
and the run's times are multiplied by REF_S over that reference time.  The
unscaled medians are printed and recorded next to them.
With ``--trace 1`` it alternates untraced runs with runs under the layer
tracer (perfbench/layertrace.py) and reports the per-layer metrics, plus
the tracing overhead; the work counts must repeat exactly across traced
runs, and the largest layer must be the one the workload was chosen for.

Every metric is printed by name with its unit, followed by the sha256 of
each output CSV and the machine record; the last line of standard output is
the JSON result.  The full record of the run is written to
.bench_out/<workload>/.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from workloads import ENCLOSING, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 150.0  # start no run expected to end after this
# Time metrics are reported in seconds at the speed at which reference()
# takes REF_S seconds, about a 2-vCPU Xeon VM at rest.  On
# such a shared VM the speed of identical code drifts by 10-40% over minutes,
# which would swamp the bounds of BENCHMARK.json if times were left unscaled.
REF_S = 0.15
MIN_UNTRACED = 3
MIN_TRACED = 2


def _kink(x: float) -> float:
    return abs(x - 0.3) ** 0.37 - abs(x) ** 0.37


def reference() -> float:
    """Seconds for a fixed computation that stands in for the machine's
    current speed.  It does, in about equal parts, the three kinds of work
    the package does: vectorised pow/log/exp over 16 MB, binary search into
    a 64k-entry table, and interpreted calls of a small scalar function.
    It runs in this process, never in the measured one, and no package
    code, so a change to the package cannot move it."""
    rng = np.random.default_rng(12345)
    a = rng.random(2_000_000) + 0.5
    b = np.full_like(a, 1.0)
    table = np.cumsum(rng.random(65536))
    u = rng.random(500_000) * table[-1]
    idx = np.full(u.size, -1, dtype=np.intp)
    t0 = time.perf_counter()
    for _ in range(2):
        np.power(a, 0.37, out=b)
        np.log(b, out=b)
        np.exp(b, out=b)
        b.sum()
    for i in range(0, u.size, 8192):
        idx[i:i + 8192] = np.searchsorted(table, u[i:i + 8192])
    acc = 0.0
    for k in range(300_000):
        acc += _kink(k * 1e-5)
    return time.perf_counter() - t0


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(name: str, seed: int, traced: bool, work: Path,
             timeout: float) -> dict:
    """One CLI run in a fresh process, with its output checked."""
    wl = WORKLOADS[name]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    (work / "result.json").unlink(missing_ok=True)
    (work / "config.json").write_text(json.dumps(wl.config, indent=1))
    argv = [wl.command, "--config", str(work / "config.json"), "--out",
            str(out), "--seed", str(seed), "--workers", str(wl.workers)]
    job = {"src": str(ROOT / "src"), "argv": argv, "config": wl.config,
           "trace": traced, "result": str(work / "result.json")}
    (work / "job.json").write_text(json.dumps(job))
    run = {"traced": traced, "problems": []}
    ref_before = reference()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(work / "job.json")],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        run["problems"].append(f"no result within {timeout:.0f} s")
        return run
    run["ref_s"] = 0.5 * (ref_before + reference())
    if proc.returncode != 0 or not (work / "result.json").is_file():
        run["problems"].append(f"run exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        return run
    run.update(json.loads((work / "result.json").read_text()))
    if run["rc"] != 0:
        run["problems"].append(f"CLI exited {run['rc']}: "
                               f"{proc.stderr.strip()[-400:]}")
        return run
    try:
        run["problems"] += wl.check(out, wl.config)
        run["sha256"] = {f: sha256(out / f) for f in wl.outputs}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        run["problems"].append(f"output check: {exc!r}")
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> list[dict]:
    """Repeat runs while the next one is expected to end within ``seconds``
    (but make at least the minimum number); with trace, alternate one
    untraced run with two traced ones."""
    pattern = (False, True, True) if trace else (False,)
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        untraced = sum(not r["traced"] for r in runs)
        traced = len(runs) - untraced
        enough = (untraced >= 1 and traced >= MIN_TRACED if trace
                  else untraced >= MIN_UNTRACED)
        per_run = elapsed / max(len(runs), 1)
        if runs and (enough and elapsed + per_run > seconds
                     or elapsed + per_run > HARD_LIMIT_S):
            return runs
        runs.append(run_once(name, seed, pattern[len(runs) % len(pattern)],
                             work, HARD_LIMIT_S - elapsed))


def end_to_end(name: str, ok: list[dict], scaled: bool) -> dict[str, float]:
    """Medians over the runs; with ``scaled``, each run's times are first
    converted to seconds at the reference speed, REF_S / ref_s."""
    def median(key):
        return statistics.median(
            r[key] * (REF_S / r["ref_s"] if scaled else 1.0) for r in ok)

    wall = median("wall_s")
    return {"wall_s": wall, "setup_s": median("setup_s"),
            "terms_per_s": WORKLOADS[name].terms / wall,
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok)}


def per_layer(name: str, ok: list[dict], wanted: list[str],
              problems: list[str]) -> dict[str, float]:
    """Median layer metrics over the traced runs, after the trace checks."""
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or len(traced) < MIN_TRACED:
        problems.append("too few good runs for the trace checks")
        return {}
    layers = {}
    for key, first in traced[0]["layers"].items():
        values = [r["layers"][key] for r in traced]
        if key.endswith("_s"):
            layers[key] = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append(f"count {key} differs across traced runs: "
                            f"{values}")
        else:
            layers[key] = first
    terms = layers["estimate.diagonal_samples.terms"]
    if terms != WORKLOADS[name].terms:
        problems.append(f"traced terms {terms} != {WORKLOADS[name].terms}")
    ranked = sorted((v, k) for k, v in layers.items()
                    if k.endswith(("busy_s", "self_s")) and k not in ENCLOSING)
    if ranked[-1][1] not in WORKLOADS[name].dominant:
        problems.append(f"largest layer is {ranked[-1][1]}, expected one of "
                        f"{WORKLOADS[name].dominant}")
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced))
    missing = [k for k in wanted if k not in layers]
    if missing:
        problems.append(f"tracer did not report {missing}")
    return {k: layers[k] for k in wanted if k in layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multistable" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'multistable'}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    work = ROOT / ".bench_out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runs = run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        work)
    problems = [f"run {i + 1}: {p}" for i, r in enumerate(runs)
                for p in r["problems"]]
    ok = [r for r in runs if not r["problems"]]
    hashes = {json.dumps(r["sha256"], sort_keys=True) for r in ok}
    if len(hashes) > 1:
        problems.append("output bytes differ between runs at the same seed")
    if args.trace:
        values = per_layer(args.workload, ok, list(units), problems)
    else:
        values = end_to_end(args.workload, ok, scaled=True) if ok else {}
    failed = len(runs) - len(ok)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine(),
              "attempted": len(runs), "failed": failed,
              "error_rate": failed / len(runs), "problems": problems,
              "sha256": ok[0]["sha256"] if ok else {}, "metrics": values,
              "unscaled": (end_to_end(args.workload, ok, scaled=False)
                           if ok and not args.trace else {}),
              "ref_s": statistics.median(r["ref_s"] for r in ok) if ok else 0,
              "runs": runs}
    (work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  failed {failed}  "
          f"error_rate {record['error_rate']:g}")
    for key, val in values.items():
        print(f"  {key:40s} {val:>16.6g} {units[key]}")
    for key, val in record["unscaled"].items():
        print(f"  unscaled {key:31s} {val:>16.6g} {units[key]}")
    print(f"  reference {record['ref_s']:.6g} s (REF_S {REF_S} s)")
    for fname, digest in record["sha256"].items():
        print(f"  sha256 {fname:20s} {digest}")
    print("  machine " + " ".join(f"{k}={v}"
                                  for k, v in record["machine"].items()))
    for p in problems:
        print(f"  PROBLEM {p}")
    if len(values) != len(units):
        return 1
    print(json.dumps({
        "correct": not problems, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
