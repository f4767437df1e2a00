"""The benchmark's four CLI workloads and the output checks each run must pass.

Each workload is one ``multistable`` CLI config.  The seed is not part of the
config: the benchmark passes its own ``--seed`` to the CLI, so every workload
runs at any seed.  The checks are the acceptance tolerances of the package's
test battery, applied to the CSV files the CLI writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LEVY_MODEL = {"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
              "stability_bounds": [1.1, 1.9], "domain": [0.0, 1.0]}
LMMM_MODEL = {"process": "lmmm", "alpha": "1.7+0.2*sin(2*pi*t)",
              "H": "0.7+0.1*t", "stability_bounds": [1.45, 1.95],
              "domain": [0.0, 1.0]}
EPS = {"start_exp": -4, "stop_exp": -10}


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a CLI CSV; a cell that is not a finite number
    raises ValueError."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    values = [[float(c) for c in row] for row in rows]
    for i, row in enumerate(values):
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path.name} row {i + 1} has a non-finite cell")
    return header, values


def _levels(spec: dict) -> int:
    return abs(spec["stop_exp"] - spec["start_exp"]) + 1


def check_moments(slope_tol: float, lo: float, hi: float):
    def check(out: Path, cfg: dict) -> list[str]:
        read_csv(out / "moments.csv")
        header, rows = read_csv(out / "moments_fit.csv")
        fit = dict(zip(header, rows[0]))
        err = fit["slope"] - fit["theory_slope"]
        ratio = math.exp(fit["intercept"] - fit["theory_intercept"])
        problems = []
        if abs(err) > slope_tol:
            problems.append(f"slope error {err:+.4f} beyond {slope_tol}")
        if not lo <= ratio <= hi:
            problems.append(f"prefactor ratio {ratio:.4f} outside "
                            f"[{lo}, {hi}]")
        return problems
    return check


def check_holder(out: Path, cfg: dict) -> list[str]:
    header, rows = read_csv(out / "holder.csv")
    problems = []
    for row in rows:
        r = dict(zip(header, row))
        if abs(r["estimate"] - r["theory"]) > 0.1:
            problems.append(f"holder estimate {r['estimate']:.4f} vs "
                            f"H(t) {r['theory']:.4f} beyond 0.1")
        if r["drop_count"] != 0:
            problems.append(f"{r['drop_count']:.0f} increments dropped")
    return problems


def check_path(out: Path, cfg: dict) -> list[str]:
    header, rows = read_csv(out / "path.csv")
    want = cfg["n_paths"] * cfg["grid"]["n"]
    if header != ["path_id", "t", "y"] or len(rows) != want:
        return [f"path.csv has {len(rows)} rows under {header}, "
                f"want {want} under path_id,t,y"]
    return []


@dataclass(frozen=True)
class Workload:
    command: str
    workers: int
    config: dict
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]
    terms: int            # paths x n_terms x grid points, over all calls
    dominant: tuple[str, ...]  # the per-layer metric(s) this workload is for


def _moments(model: dict, m_paths: int, n_terms: int) -> dict:
    return {**model, "t": 0.3, "eta": 0.5, "eps": EPS, "m_paths": m_paths,
            "n_terms": n_terms}


_LEVY = _moments(LEVY_MODEL, 1024, 20000)
_LMMM = _moments(LMMM_MODEL, 512, 10000)
_HOLDER = {**LMMM_MODEL, "t": 0.5, "r": {"start_exp": -6, "stop_exp": -17},
           "m_paths": 512, "n_terms": 4000, "tail": "gauss"}
_PATH = {**LMMM_MODEL, "grid": {"start": 0.0, "stop": 1.0, "n": 129},
         "n_paths": 128, "n_terms": 10000, "tail": "none"}

WORKLOADS = {
    "levy-moments": Workload(
        "moments", 2, _LEVY, ("moments.csv", "moments_fit.csv"),
        check_moments(0.03, 0.85, 1.15),
        _levels(EPS) * _LEVY["m_paths"] * _LEVY["n_terms"] * 2,
        ("estimate.diagonal_samples.self_s",)),
    "lmmm-moments": Workload(
        "moments", 1, _LMMM, ("moments.csv", "moments_fit.csv"),
        check_moments(0.05, 0.8, 1.2),
        _levels(EPS) * _LMMM["m_paths"] * _LMMM["n_terms"] * 2,
        ("kernels.sample.busy_s", "kernels.evaluate.busy_s",
         "engine.tail_covariance.busy_s")),
    "lmmm-holder": Workload(
        "holder", 1, _HOLDER, ("holder.csv",), check_holder,
        _HOLDER["m_paths"] * _HOLDER["n_terms"] * (1 + _levels(_HOLDER["r"])),
        ("engine.tail_covariance.busy_s",)),
    "lmmm-path": Workload(
        "path", 1, _PATH, ("path.csv",), check_path,
        _PATH["n_paths"] * _PATH["n_terms"] * _PATH["grid"]["n"],
        ("kernels.evaluate.busy_s",)),
}

# Spans that enclose a whole command or simulation; the dominance check
# compares only the layers below them.
ENCLOSING = ("cli.busy_s", "estimate.reduce.busy_s",
             "estimate.diagonal_samples.busy_s")
