"""Checks of the benchmark harness against the current package.

The tracer in perfbench/layertrace.py wraps package functions by name; a
renamed or removed function makes a traced benchmark run stop.  Each case
runs one tiny traced CLI job through perfbench/child.py in a fresh
interpreter, as the benchmark does.  The benchmark's workload configs must
also pass the CLI's config check, or a tightened schema would turn a
benchmark run into exit 2, and their model functions must keep the values
pinned below at every time the workload evaluates them.

The benchmark's setup_s is the import of the package: SciPy, most of that
cost, is imported inside the functions that call it, so that a run loads
it only when it gets there.
"""

import ast
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from multistable import cli, expr, kernels
from multistable.cli import build_spec, check_config
from multistable.kernels import pair_integral

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


def _traced_run(tmp_path, command, cfg, workers=1):
    """Layer metrics of one traced CLI run in a fresh interpreter."""
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    job = {"src": str(ROOT / "src"), "config": cfg, "trace": True,
           "argv": [command, "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "out"), "--seed", "0",
                    "--workers", str(workers)],
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


def test_traced_lmmm_path_evaluates_once_per_time_and_path(tmp_path):
    # one Kernel.evaluate per grid time and environment, over all its
    # points, and kappa taken inside it: the benchmark ranks (time, name)
    # pairs, so an evaluate with no traced call inside would tie its
    # self_s with its busy_s, and the self_s key would rank first
    cfg = CASES["path"]
    layers = _traced_run(tmp_path, "path", cfg)
    calls = cfg["n_paths"] * cfg["grid"]["n"]
    assert layers["kernels.evaluate.calls"] == calls
    assert layers["kernels.evaluate.points"] == calls * cfg["n_terms"]
    assert (layers["kernels.evaluate.self_s"]
            < layers["kernels.evaluate.busy_s"])
    # H and alpha at every call, inside Kernel.kappa, and none outside the
    # series: the grid's scales and the manifest's constants are read from
    # the config check's values
    assert layers["expr.calls"] == 2 * calls


def test_traced_levy_moments_counts_every_environment(tmp_path):
    # the levy-moments workload in small: two workers, and 130 paths, so
    # each level spans two chunks.  The traced layers see one measure
    # sample and one tail draw per environment, one simulation per level,
    # and a covariance of three pairs per level whose R = min(tA, tB)
    # never reaches the traced pair integral
    cfg = {"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
           "stability_bounds": [1.1, 1.9], "n_terms": 200, "t": 0.3,
           "eta": 0.5, "m_paths": 130, "eps": [2.0 ** -4, 2.0 ** -5]}
    layers = _traced_run(tmp_path, "moments", cfg, workers=2)
    assert (layers["engine.tail_draw.calls"]
            == layers["kernels.sample.calls"] == 130 * 2)
    assert layers["estimate.diagonal_samples.calls"] == 2
    assert layers["kernels.pair_integral.calls"] == 0
    assert layers["engine.tail_covariance.pairs"] == 6


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


# sha256 of a model function's values on the check grid (the 257-point
# domain grid, then the run's times)
GRID_VALUES_SHA256 = {
    ("levy-moments", "alpha"):
        "fb95679868a6cb30299baf35154c5c425ee0e2d92c3c78d2e83bd1acda826ff4",
    ("levy-moments", "b"):
        "ee1c41c980114f148e0d56c022682b41b43941273efd60469215ef8705850f0b",
    ("lmmm-moments", "alpha"):
        "da4e5a864f750fce6e6a1e28a8fc10d211da5469132642e5981a81b0283db1a0",
    ("lmmm-moments", "b"):
        "ee1c41c980114f148e0d56c022682b41b43941273efd60469215ef8705850f0b",
    ("lmmm-moments", "H"):
        "27c1a10f72051999d75aac21e7d1e6b5a0f135dd036f22aedb613646e83ad94d",
    ("lmmm-holder", "alpha"):
        "21b55d293729450449b1a67b3ed071c5cfaa864766694d9542614381ee3d3c28",
    ("lmmm-holder", "b"):
        "3d7b0c616d264c0b2f1dcdc6f5843d36b6213fdab1faa239d116660841ecff5e",
    ("lmmm-holder", "H"):
        "796a29751e0e7ca2e22395f6aded2b7c73a03957d15a3008011e4339ae329029",
    ("lmmm-path", "alpha"):
        "51dae7b3483a4e46ae8aa0a6ff0dc77e348a285a8d8952e5a73805ba328eae66",
    ("lmmm-path", "b"):
        "e97614fb64add6b926926d69451a6dece3feed9d6b92277c741cd4c4fc020fcf",
    ("lmmm-path", "H"):
        "0f0102ba981c22d555a3628026be1c4be4e8e844822dee88d9a4a97755e36ce0",
}


@pytest.mark.parametrize("workload,key", sorted(GRID_VALUES_SHA256))
def test_benchmark_model_values_are_pinned(workload, key):
    w = WORKLOADS[workload]
    values = getattr(check_config(w.config, w.command)["spec"].check_grid,
                     key)
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == GRID_VALUES_SHA256[workload, key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_check_evaluates_each_model_function_once_per_grid_point(
        monkeypatch, name):
    # the tracer counts FuncSpec.__call__ as expr.calls, which must count the
    # simulation alone: the config check evaluates each model function once
    # per check-grid point, through its compiled function
    calls = {}
    compile_ = expr._compile

    def counted(tree):
        fn = compile_(tree)

        def evaluate(t):
            calls[tree] = calls.get(tree, 0) + 1
            return fn(t)
        return evaluate

    def never(self, t):
        pytest.fail("FuncSpec.__call__ in the config check")

    monkeypatch.setattr(expr, "_compile", counted)
    monkeypatch.setattr(expr.FuncSpec, "__call__", never)
    def once_per_point(spec):
        n = len(spec.check_grid.t)
        return {f.ast: n for f in (spec.alpha, spec.b, spec.H) if f}

    w = WORKLOADS[name]
    # the benchmark's setup_s builds the spec without the run's times
    spec = build_spec(w.config)
    assert len(spec.check_grid.t) == 257
    assert calls == once_per_point(spec)
    calls.clear()
    spec = check_config(w.config, w.command)["spec"]
    assert calls == once_per_point(spec)


@pytest.mark.parametrize("model", ["levy", "lmmm"])
@pytest.mark.parametrize("command", sorted(CASES))
def test_model_functions_are_called_only_from_kernel_kappa(
        monkeypatch, tmp_path, command, model):
    # the tracer counts FuncSpec.__call__ as expr.calls: every model value
    # but the lmmm kernel's exponent is read from ProcessSpec.at, so levy,
    # whose kernel has none, makes no call
    callers = []
    call = expr.FuncSpec.__call__

    def recorded(self, t):
        code = sys._getframe(1).f_code
        callers.append((code.co_name, code.co_filename))
        return call(self, t)

    monkeypatch.setattr(expr.FuncSpec, "__call__", recorded)
    cfg = dict(CASES[command], n_terms=50)
    if model == "levy":
        del cfg["H"]
        cfg.update(process="levy", alpha="1.5+0.3*sin(2*pi*t)",
                   stability_bounds=[1.1, 1.9])
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")]) == 0
    if model == "levy":
        assert callers == []
    else:
        assert callers and set(callers) == {("kappa", kernels.__file__)}


# prints the scipy modules loaded after importing the package and running
# each (command, config) of argv[2] through cli.main, all in one process
_SCIPY_AFTER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import multistable, multistable.cli
for n, (command, cfg) in enumerate(json.loads(sys.argv[2])):
    with open(f"cfg{n}.json", "w") as fh:
        json.dump(cfg, fh)
    rc = multistable.cli.main([command, "--config", f"cfg{n}.json",
                               "--out", f"out{n}"])
    assert rc == 0, (command, rc)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_after(tmp_path, runs):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER, str(ROOT / "src"),
         json.dumps(runs)], cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_after(tmp_path, []) == []


def test_tail_free_paths_load_no_scipy(tmp_path):
    levy = {"process": "levy", "alpha": "1.5+0.3*sin(2*pi*t)",
            "stability_bounds": [1.1, 1.9], "n_terms": 200,
            "grid": [0.25, 0.5, 0.75], "n_paths": 2}
    assert _scipy_after(tmp_path, [("path", CASES["path"]),
                                   ("path", levy)]) == []


def test_gauss_tail_loads_scipy_when_it_starts(tmp_path):
    # the tail covariance's band-1 quad is the lazy import that still runs
    assert "scipy.integrate" in _scipy_after(
        tmp_path, [("moments", CASES["moments"])])


def test_band_one_evaluates_the_kernel_twice_per_node(monkeypatch):
    """Band 1 of pair_integral calls Kernel.evaluate once per kink time at
    every node of its quad.  The traced lmmm-moments ranking of the
    benchmark (kernels.evaluate and engine.tail_covariance ahead of
    estimate.diagonal_samples) rests on this call structure until ROADMAP
    item 5a re-targets it, so a change that evaluates band 1 another way
    (kappa hoisted out of evaluate, or another rule) must fail here first."""
    import scipy.integrate

    w = WORKLOADS["lmmm-holder"]
    spec = check_config(w.config, w.command)["spec"]
    kernel, real_quad = spec.kernel, scipy.integrate.quad
    counts = {"evaluate": 0, "integrand": 0}

    def evaluate(*args):
        counts["evaluate"] += 1
        # quad's node reaches _power_diff's float branch unwrapped
        assert type(args[2]) is float
        return kernel.evaluate(*args)

    def quad(func, *args, **kwargs):
        def integrand(x):
            counts["integrand"] += 1
            return func(x)
        return real_quad(integrand, *args, **kwargs)

    spec = dataclasses.replace(
        spec, kernel=dataclasses.replace(kernel, evaluate=evaluate))
    monkeypatch.setattr(scipy.integrate, "quad", quad)
    tA, tB = 0.5, 0.5 + 2.0 ** -6  # kappa > 0: band 1 is one quad
    pair_integral(spec, tA, tB, 1.0 / spec.alpha(tA) + 1.0 / spec.alpha(tB))
    assert counts["integrand"] > 100
    assert counts["evaluate"] == 2 * counts["integrand"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert all(n.split(".")[0] != "scipy" for n in names), (
            f"{path.name}:{node.lineno} imports scipy at module level")


# builtins that turn text into code
_DYNAMIC = {"compile", "exec", "eval"}


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.name)
def test_code_is_made_only_from_expression_trees(path):
    """compile, exec and eval are named in src/ only inside expr._compile,
    which writes a model function's code from its parsed tree."""
    tree = ast.parse(path.read_text())
    inside = set()
    if path.name == "expr.py":
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == "_compile")
        inside = {id(n) for n in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and node.attr != "compile":
            name = node.attr  # re.compile builds a pattern, not code
        else:
            continue
        assert name not in _DYNAMIC or id(node) in inside, (
            f"{path.name}:{node.lineno} calls {name}")


@pytest.mark.parametrize("source", [
    *sorted({w.config[key] for w in WORKLOADS.values()
             for key in ("alpha", "H") if key in w.config}),
    "max(exp(-t^2/2), log(2+abs(t)))-min(sqrt(t*t), pow(cos(t), 2))+e/pi",
])
def test_compiled_model_functions_hold_no_text(source):
    """A compiled model function's code holds no string constant and names
    only its argument, its locals and globals numbered in order."""
    code = expr._compile(expr.parse_expr(source)).__code__
    assert not any(isinstance(c, (str, bytes)) or hasattr(c, "co_code")
                   for c in code.co_consts)
    assert code.co_varnames == ("t", "x", "value")
    fixed = {"_float", "_isfinite", "_non_finite"}
    assert all(n in fixed or n[1:].isdigit() for n in code.co_names)
