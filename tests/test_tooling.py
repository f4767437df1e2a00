"""Checks of the benchmark harness against the current package.

The tracer in perfbench/layertrace.py wraps package functions by name; a
renamed or removed function makes a traced benchmark run stop.  Each case
runs one tiny traced CLI job through perfbench/child.py in a fresh
interpreter, as the benchmark does.  The benchmark's workload configs must
also pass the CLI's config check, or a tightened schema would turn a
benchmark run into exit 2.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from multistable.cli import check_config

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
sys.path.append(str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

LMMM = {"process": "lmmm", "alpha": "1.7+0.2*sin(2*pi*t)", "H": "0.7+0.1*t",
        "stability_bounds": [1.45, 1.95], "domain": [0.0, 1.0],
        "n_terms": 200}

CASES = {
    "path": {**LMMM, "grid": {"start": 0.0, "stop": 1.0, "n": 5},
             "n_paths": 3, "tail": "none"},
    "moments": {**LMMM, "t": 0.3, "eta": 0.5, "m_paths": 20,
                "eps": [2.0 ** -4, 2.0 ** -5]},
    "holder": {**LMMM, "t": 0.5, "r": [2.0 ** -4, 2.0 ** -5], "m_paths": 20,
               "tail": "gauss"},
}


def _traced_run(tmp_path, command, cfg):
    """Layer metrics of one traced CLI run in a fresh interpreter."""
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    job = {"src": str(ROOT / "src"), "config": cfg, "trace": True,
           "argv": [command, "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "out"), "--seed", "0"],
           "result": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(CHILD),
                           str(tmp_path / "job.json")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["rc"] == 0
    return result["layers"]


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_child_run(tmp_path, command):
    layers = _traced_run(tmp_path, command, CASES[command])
    for key in ("estimate.diagonal_samples.calls", "kernels.evaluate.calls",
                "kernels.sample.calls", "expr.calls", "cli.calls"):
        assert layers[key] > 0, key
    assert layers["cli.csv_bytes"] > 0
    if command != "path":
        assert layers["estimate.reduce.calls"] > 0
        assert layers["engine.tail_draw.calls"] > 0
        # three grid points once (holder) or two grid points at two eps
        # levels (moments): the tracer's pair count is the grid's
        assert (layers["engine.tail_covariance.pairs"]
                == layers["kernels.pair_integral.calls"] == 6)


def test_traced_holder_next_to_band_two(tmp_path):
    # grid 0.9375, 1.0, 0.96875: every pair integral grades band 2
    layers = _traced_run(tmp_path, "holder", {**CASES["holder"], "t": 0.9375})
    assert (layers["engine.tail_covariance.pairs"]
            == layers["kernels.pair_integral.calls"] == 6)


def test_traced_lfsm_control_path(tmp_path):
    # lfsm-control is the lmmm kernel with side weights: the tracer wraps it
    # through make_process like any other kernel
    cfg = {**LMMM, "process": "lfsm-control", "alpha": "1.7", "H": "0.75",
           "b_minus": 0.3, "grid": [0.25, 0.5, 0.75], "tail": "none"}
    layers = _traced_run(tmp_path, "path", cfg)
    assert layers["kernels.evaluate.calls"] > 0
    assert layers["expr.calls"] > 0


@pytest.mark.parametrize("command,cfg", [(w.command, w.config)
                                         for w in WORKLOADS.values()]
                         + sorted(CASES.items()))
def test_benchmark_configs_pass_the_config_check(command, cfg):
    check_config(cfg, command)
