import csv
import hashlib
import json
import math
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistable import cli, engine, expr
from multistable.cli import SCHEMA, build_spec, main
from multistable.estimate import theoretical_scaling

import pins
from pins import pin

LEVY_CFG = {
    "process": "levy",
    "alpha": "1.5+0.3*sin(2*pi*t)",
    "stability_bounds": [1.1, 1.9],
    "domain": [0.0, 1.0],
    "n_terms": 200,
    "seed": 3,
}

VERIFY_SIZES = {"verify_m": 2000, "verify_n_terms": 1500,
                "verify_cf_m": 500, "verify_cf_n_terms": 1000}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, cfg, command, *extra, out="out"):
    cfg_path = _write(tmp_path, cfg)
    return main([command, "--config", cfg_path,
                 "--out", str(tmp_path / out), *extra])


def _path_cfg(**over):
    cfg = dict(LEVY_CFG, grid={"start": 0.0, "stop": 1.0, "n": 30},
               n_paths=1)
    cfg.update(over)
    return cfg


def _moments_cfg(**over):
    cfg = dict(LEVY_CFG, t=0.3, eta=0.5, m_paths=150,
               eps=[2.0 ** -4, 2.0 ** -5, 2.0 ** -6])
    cfg.update(over)
    return cfg


class TestConfigErrors:
    def test_missing_process(self, tmp_path, capsys):
        cfg = _path_cfg()
        del cfg["process"]
        assert _run(tmp_path, cfg, "path") == 2
        assert "process" in capsys.readouterr().err

    def test_missing_stability_bounds(self, tmp_path, capsys):
        cfg = _path_cfg()
        del cfg["stability_bounds"]
        assert _run(tmp_path, cfg, "path") == 2
        assert "stability_bounds" in capsys.readouterr().err

    def test_alpha_syntax_error_reports_offset(self, tmp_path, capsys):
        assert _run(tmp_path, _path_cfg(alpha="1.5+"), "path") == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "4" in err

    def test_alpha_leaving_bounds(self, tmp_path, capsys):
        assert _run(tmp_path, _path_cfg(alpha="2.5"), "path") == 2
        assert "alpha range" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path):
        assert _run(tmp_path, _path_cfg(grid={"start": 0.0}), "path") == 2
        assert _run(tmp_path, _path_cfg(grid=[0.5]), "path") == 2

    def test_bad_tail(self, tmp_path, capsys):
        assert _run(tmp_path, _path_cfg(tail="heavy"), "path") == 2
        assert "tail" in capsys.readouterr().err

    def test_non_integer_seed(self, tmp_path):
        assert _run(tmp_path, _path_cfg(seed="three"), "path") == 2
        assert _run(tmp_path, _path_cfg(seed=-1), "path") == 2

    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["path", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["path", "--config", str(p)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["path", "--config", str(p)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/deeper"])
    def test_out_is_checked_before_the_run(self, tmp_path, capsys,
                                           monkeypatch, out):
        # a file at or above --out once failed only after the simulation
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "diagonal_samples", never)
        (tmp_path / "taken").write_text("")
        assert _run(tmp_path, _path_cfg(), "path", out=out) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err

    def test_workers_must_be_positive(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, _path_cfg())
        assert main(["path", "--config", cfg_path, "--workers", "0"]) == 2

    @pytest.mark.parametrize("command", ["moments", "holder"])
    def test_single_path_rejected(self, tmp_path, capsys, command):
        # one path has no standard error: the run must not write nan
        cfg = _moments_cfg(m_paths=1, r=[2.0 ** -4, 2.0 ** -5])
        assert _run(tmp_path, cfg, command) == 2
        assert "m_paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["m_paths", "n_terms", "seed"])
    def test_bool_rejected_where_int_expected(self, tmp_path, capsys, key):
        assert _run(tmp_path, _moments_cfg(**{key: True}), "moments") == 2
        assert key in capsys.readouterr().err

    def test_eps_levels_validation(self, tmp_path):
        assert _run(tmp_path, _moments_cfg(eps=[0.1, -0.2]), "moments") == 2
        assert _run(tmp_path, _moments_cfg(
            eps={"start_exp": 1.5, "stop_exp": 3}), "moments") == 2
        assert _run(tmp_path, _moments_cfg(eps="small"), "moments") == 2


def _holder_cfg(**over):
    cfg = dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8], t=0.5,
               r=[2.0 ** -4, 2.0 ** -5], m_paths=8)
    cfg.update(over)
    return cfg


# each must exit 2 naming its key before any output is written, not run on
# into a traceback, a "numerical failure" or nan cells
BAD_CONFIGS = [
    ("path", _path_cfg(grid={"start": 0.0, "stop": 1.0, "n": "5"}), "grid"),
    ("path", _path_cfg(n_paths=True), "n_paths"),
    ("path", _path_cfg(grid={"start": "a", "stop": 1.0, "n": 5}), "grid"),
    ("path", _path_cfg(grid=["a", 0.5]), "grid"),
    ("path", _path_cfg(grid={"start": 0.0, "stop": 1.0, "n": 5.5}), "grid"),
    ("moments", _moments_cfg(eps=[0.1]), "eps"),
    ("moments", _moments_cfg(eps=[0.1, 0.1]), "eps"),
    ("moments", _moments_cfg(eps={"start_exp": True, "stop_exp": -3}),
     "eps"),
    ("moments", _moments_cfg(t=3.0), "'t'"),
    ("holder", _holder_cfg(t=[0.5, 2.0]), "'t'"),
    ("path", _path_cfg(grid=[0.5, 7.0]), "grid"),
    ("holder", _holder_cfg(r=[0.9, 0.6]), "'r'"),
    ("holder", _holder_cfg(r=[0.01]), "'r'"),
    ("moments", _moments_cfg(eta=1.1), "eta"),
    ("moments", _moments_cfg(eta=1.5), "eta"),
    ("verify", dict(VERIFY_SIZES, verify_m="x"), "verify_m"),
    ("verify", dict(VERIFY_SIZES, verify_n_terms=0), "verify_n_terms"),
    ("path", _path_cfg(domain=[False, 1]), "domain"),
    ("holder", _holder_cfg(alpha_regularity=True), "alpha_regularity"),
    ("path", _path_cfg(process="lfsm-control", H="0.7", b_plus="x"),
     "b_plus"),
    ("path", _path_cfg(b="log(t)"), "'b'"),
    ("path", _path_cfg(alpha="1.5+0.1*log(t)"), "'alpha'"),
    # a seed or --seed beyond one 32-bit key word aliases another key
    ("path", _path_cfg(seed=2 ** 32), "seed"),
    # the levy measure lives on [0, 1]: beyond t = 1 the path froze
    ("path", _path_cfg(domain=[0, 3], grid=[0.5, 1, 1.5, 2, 3]), "domain"),
    # lfsm-control takes a constant alpha and H
    ("path", _path_cfg(process="lfsm-control", alpha="1.5+0.3*t",
                       H="0.7+0.2*t", stability_bounds=[1.2, 1.9]),
     "'alpha'"),
    ("path", _path_cfg(process="lfsm-control", alpha="1.5", H="0.7+0.2*t",
                       stability_bounds=[1.2, 1.9]), "'H'"),
    # misspelt keys are not dropped
    ("path", _path_cfg(n_path=3), "n_path"),
    ("path", _path_cfg(grid={"start": 0.0, "stop": 1.0, "n": 5,
                             "step": 0.25}), "grid"),
    ("moments", _moments_cfg(eps={"start_exp": -4, "stop_exp": -6,
                                  "bsae": 3}), "eps"),
    # H lies in the open interval (0, 1)
    ("moments", _moments_cfg(process="lmmm", alpha="1.7", H="1",
                             stability_bounds=[1.45, 1.95]), "H range"),
    ("path", _path_cfg(process="lmmm", alpha="1.7", H="0",
                       stability_bounds=[1.45, 1.95]), "H range"),
    # counts far beyond any memory stop before they allocate
    ("path", _path_cfg(n_terms=10 ** 13), "n_terms"),
    ("path", _path_cfg(n_terms=10 ** 400), "n_terms"),
    ("path", _path_cfg(n_paths=10 ** 7, grid={"start": 0.0, "stop": 1.0,
                                              "n": 10 ** 6}), "n_paths"),
    ("moments", _moments_cfg(m_paths=10 ** 7, eps={
        "start_exp": -10 ** 6, "stop_exp": -2 * 10 ** 6, "base": 1.00001}),
     "m_paths"),
    ("holder", _holder_cfg(m_paths=10 ** 13), "m_paths"),
    # the Gaussian tail needs series terms of finite variance
    ("moments", _moments_cfg(process="lmmm", alpha="1.2", H="0.75",
                             stability_bounds=[1.1, 1.3]), "tail"),
    # nesting beyond the parser's depth cap, not a RecursionError
    ("path", _path_cfg(alpha="(" * 3000 + "1.5" + ")" * 3000), "alpha"),
    ("path", _path_cfg(alpha="-" * 3000 + "1.5"), "alpha"),
    ("path", _path_cfg(alpha="1.5" + "^1" * 3000), "alpha"),
    # a non-ASCII digit, and a non-finite exponent of a negative base
    ("path", _path_cfg(alpha="1.5+\u00b2"), "'alpha'"),
    ("path", _path_cfg(alpha="1.5+0*(0-1)^1e400"), "'alpha'"),
    # the moment scaling takes log|b(t)|
    ("moments", _moments_cfg(b="t-0.3"), "'b'"),
    ("moments", _moments_cfg(b="0"), "'b'"),
    # the Gaussian tail's variance diverges at the kink where kappa <= -1/2
    ("moments", _moments_cfg(process="lmmm", alpha="1.1", H="0.1",
                             stability_bounds=[1.05, 1.15], m_paths=50),
     "tail"),
    # a model function that fails at a run's own time, off the domain grid
    ("moments", _moments_cfg(b="1/(t-0.3)"), "'b'"),
    # holder, like moments, needs b(t) != 0
    ("holder", _holder_cfg(b="0"), "'b'"),
    # the Gaussian tail factor has infinite mean unless n_terms + 1 > 2/alpha
    ("moments", _moments_cfg(alpha="0.5", stability_bounds=[0.4, 0.6],
                             n_terms=2, eta=0.3), "n_terms"),
    # alpha and H at the run's own times: sin(256*pi*t) is 0 on the domain
    # grid k/256 but not at t = 0.3, where alpha leaves [c, d] or (0, 2)
    # and H leaves (0, 1)
    ("moments", _moments_cfg(alpha="1.5+0.6*sin(256*pi*t)",
                             stability_bounds=[1.4, 1.6], m_paths=20,
                             eps=[2.0 ** -9, 2.0 ** -10]), "alpha"),
    ("moments", _moments_cfg(alpha="1.5+0.9*sin(256*pi*t)",
                             stability_bounds=[1.4, 1.9], m_paths=20,
                             eps=[2.0 ** -9, 2.0 ** -10]), "alpha"),
    ("path", _path_cfg(process="lmmm", alpha="1.7",
                       H="0.7+0.9*sin(256*pi*t)",
                       stability_bounds=[1.45, 1.95], grid=[0.3, 0.31]),
     "H"),
    ("moments", _moments_cfg(process="lmmm", alpha="1.7",
                             H="0.7+0.9*sin(256*pi*t)",
                             stability_bounds=[1.45, 1.95], tail="none",
                             m_paths=20, eps=[2.0 ** -9, 2.0 ** -10]), "H"),
    # side weights belong to lfsm-control; lmmm would drop them silently
    ("path", _path_cfg(process="lmmm", alpha="1.7", H="0.7",
                       stability_bounds=[1.45, 1.95], grid=[0.3, 0.31],
                       b_minus=0.3), "b_minus"),
    # a Gaussian tail covariance over more times than it can be built for:
    # levy's would take 2 PiB, lmmm's 2.1e9 pair integrals
    ("path", _path_cfg(tail="gauss", grid={"start": 0.0, "stop": 1.0,
                                           "n": 2 ** 24}), "'grid'"),
    ("path", _path_cfg(process="lmmm", alpha="1.7", H="0.7",
                       stability_bounds=[1.45, 1.95], tail="gauss",
                       grid={"start": 0.0, "stop": 1.0, "n": 65536}),
     "'grid'"),
    # t and 257 levels t + r are 258 times
    ("holder", _holder_cfg(process="lmmm", alpha="1.7", H="0.7",
                           stability_bounds=[1.45, 1.95],
                           r={"start_exp": -1, "stop_exp": -257}), "'r'"),
    # the levy kernel never reads H, which the manifest would echo
    ("path", _path_cfg(H="0.7"), "'H'"),
    # a pair integral's far field holds only up to |t| = 256
    ("path", _path_cfg(process="lmmm", alpha="1.7", H="0.7",
                       stability_bounds=[1.45, 1.95], domain=[0, 5000],
                       grid=[4000, 4000.5], tail="gauss"), "'grid'"),
    ("moments", _moments_cfg(process="lmmm", alpha="1.7", H="0.7",
                             stability_bounds=[1.45, 1.95], domain=[0, 5000],
                             t=300.0), "'t'"),
    ("holder", _holder_cfg(process="lfsm-control", alpha="1.7", H="0.7",
                           stability_bounds=[1.45, 1.95], domain=[0, 5000],
                           t=255.8, r=[0.25, 0.5]), "'r'"),
    # H = 1/alpha everywhere with equal side weights: the kernel
    # |t-x|^0 - |x|^0, and so every path, is 0
    ("path", _path_cfg(process="lmmm", alpha="1.5", H="2/3",
                       stability_bounds=[1.45, 1.95]), "'H'"),
    ("moments", _moments_cfg(process="lmmm", alpha="1.5", H="2/3",
                             stability_bounds=[1.45, 1.95], tail="none"),
     "'H'"),
    ("holder", _holder_cfg(process="lmmm", alpha="1.5", H="2/3",
                           stability_bounds=[1.45, 1.95], tail="none"),
     "'H'"),
    ("path", _path_cfg(process="lfsm-control", alpha="1.5", H="2/3",
                       b_plus=0.3, b_minus=0.3,
                       stability_bounds=[1.45, 1.95]), "'H'"),
    # H(t) = 1/alpha(t) at the moments time alone: sigma(t) = 0 there
    ("moments", _moments_cfg(process="lmmm", alpha="1.5",
                             H="2/3+0.1*(t-0.3)",
                             stability_bounds=[1.45, 1.95], tail="none"),
     "'t'"),
    # and at the holder time: every path is 0 there, so H(t) is no target
    ("holder", _holder_cfg(process="lmmm", alpha="1.5", H="2/3+0.1*(t-0.3)",
                           stability_bounds=[1.45, 1.95], tail="none",
                           t=0.3), "'t'"),
]


@pytest.mark.parametrize("command,cfg,key", BAD_CONFIGS)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, command, cfg, key):
    assert _run(tmp_path, cfg, command) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lfsm_control_at_h_one_over_alpha_is_levy_motion(tmp_path):
    # with unequal side weights the kernel at kappa = 0 is (b_plus -
    # b_minus) on (0, t) and 0 elsewhere: Levy motion of scale 0.7
    cfg = _moments_cfg(process="lfsm-control", alpha="1.5", H="2/3",
                       b_minus=0.3, stability_bounds=[1.45, 1.95],
                       tail="none", m_paths=20)
    assert _run(tmp_path, cfg, "moments") == 0
    text = (tmp_path / "out" / "moments_fit.csv").read_text()
    fit = dict(zip(*csv.reader(text.splitlines())))
    assert math.isfinite(float(fit["slope"]))
    assert abs(float(fit["theory_slope"]) - 0.5 * 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("process,cap", [("levy", 1024), ("lmmm", 257),
                                         ("lfsm-control", 257)])
def test_gauss_tail_time_cap(process, cap):
    model = {} if process == "levy" else dict(
        alpha="1.7", H="0.7", stability_bounds=[1.45, 1.95])
    cfg = _path_cfg(process=process, tail="gauss", **model)
    cfg["grid"] = {"start": 0.0, "stop": 1.0, "n": cap}
    assert len(cli.check_config(cfg, "path")["grid"]) == cap
    cfg["grid"]["n"] = cap + 1
    with pytest.raises(cli.ConfigError, match=f"{cap + 1} times"):
        cli.check_config(cfg, "path")
    # the bare series has no covariance to build
    cfg["tail"] = "none"
    cli.check_config(cfg, "path")


def test_gauss_tail_times_end_at_256():
    cfg = _path_cfg(process="lmmm", alpha="1.7", H="0.7", domain=[0, 300],
                    stability_bounds=[1.45, 1.95], tail="gauss",
                    grid=[0.5, 255.5, 256.0])
    cli.check_config(cfg, "path")
    cfg["grid"] = [255.5, 256.5]
    with pytest.raises(cli.ConfigError, match="'grid' puts time 256.5"):
        cli.check_config(cfg, "path")
    # the bare series has no pair integral
    cfg["tail"] = "none"
    cli.check_config(cfg, "path")


def test_holder_paths_are_capped_by_bootstrap_memory(tmp_path, capsys,
                                                    monkeypatch):
    # the bootstrap's 2000 x m_paths int32 index stays within 1 GiB; 2^20
    # paths pass the 2^24-value cap but would take 7.8 GiB
    monkeypatch.setattr(cli, "holder_pathwise", None)  # never simulated
    started = time.perf_counter()
    assert _run(tmp_path, _holder_cfg(m_paths=2 ** 20), "holder") == 2
    assert time.perf_counter() - started < 1.0
    assert "'m_paths'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.check_config(_holder_cfg(m_paths=134217), "holder")
    with pytest.raises(cli.ConfigError, match="'m_paths'"):
        cli.check_config(_holder_cfg(m_paths=134218), "holder")
    # moments draws no bootstrap
    cli.check_config(_moments_cfg(m_paths=2 ** 20, eps=[0.1, 0.2]),
                     "moments")


def test_level_family_length_is_capped(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_VALUES", 10)
    assert len(cli._parse_levels({"start_exp": -4, "stop_exp": -13})) == 10
    with pytest.raises(ValueError):
        cli._parse_levels({"start_exp": -4, "stop_exp": -14})


@pytest.mark.parametrize("cfg,calls", [
    # alpha, b and H, each once on the 257-point domain grid
    (dict(LEVY_CFG, process="lmmm", alpha="1.7+0.2*sin(2*pi*t)",
          H="0.7+0.1*t", stability_bounds=[1.45, 1.95]), 771),
    (LEVY_CFG, 514),
])
def test_build_spec_evaluates_each_function_once(monkeypatch, cfg, calls):
    count = [0]
    compile_ast = expr._compile

    def counted_compile(ast):
        compiled = compile_ast(ast)

        def counted(t):
            count[0] += 1
            return compiled(t)
        return counted

    monkeypatch.setattr(expr, "_compile", counted_compile)
    build_spec(cfg)
    assert count[0] == calls


def test_lfsm_negative_exponent_path_is_finite(tmp_path):
    # kappa = H - 1/alpha < 0, where a zero base in the kernel is inf
    cfg = _path_cfg(process="lfsm-control", alpha="1.5", H="0.5",
                    stability_bounds=[1.2, 1.8], n_paths=3)
    assert _run(tmp_path, cfg, "path") == 0
    _assert_finite_csvs(tmp_path / "out")


def _assert_finite_csvs(out):
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for col, cell in row.items():
                    if col in ("check", "status") or (
                            path.name == "holder.csv" and col == "theory"):
                        continue  # text cells; theory is nan without target
                    assert math.isfinite(float(cell)), (path.name, col, row)


SMALL = {
    "path": [_path_cfg(grid={"start": 0.0, "stop": 1.0, "n": 5}, n_terms=50,
                       n_paths=2),
             _path_cfg(process="lfsm-control", alpha="1.5", H="0.5",
                       stability_bounds=[1.2, 1.8], grid=[0.1, 0.5, 0.9],
                       n_terms=50, b_minus=0.5)],
    "moments": [_moments_cfg(n_terms=50, m_paths=8)],
    "holder": [_holder_cfg(n_terms=50)],
    "verify": [{"verify_m": 20, "verify_n_terms": 20, "verify_cf_m": 20,
                "verify_cf_n_terms": 20}],
}

BAD_VALUES = st.one_of(
    st.booleans(),
    st.text(alphabet="ab1+(.", max_size=4),
    st.integers(-5, 6),
    st.floats(-10.0, 10.0),
    st.floats(0.0, 1.0),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0),
                       st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["start", "stop", "n", "start_exp",
                                     "stop_exp", "base"]),
                    st.one_of(st.integers(-3, 6), st.floats(-3.0, 3.0),
                              st.booleans(), st.just({"n": 1})),
                    max_size=4),
    # evaluation times outside the domain [0, 1]
    st.sampled_from([-0.5, 1.5, [0.5, 7.0], [0.9, 0.6],
                     {"start": 0.0, "stop": 3.0, "n": 3}]),
)


_NAMES = sorted({k.name for k in SCHEMA})

# a key name with one character dropped, e.g. n_paths -> n_path
MISSPELT = st.sampled_from(_NAMES).flatmap(
    lambda k: st.integers(0, len(k) - 1).map(lambda i: k[:i] + k[i + 1:])
).filter(lambda k: k not in _NAMES)


@st.composite
def _one_bad_key(draw):
    command = draw(st.sampled_from(sorted(SMALL)))
    cfg = dict(draw(st.sampled_from(SMALL[command])))
    key = draw(st.sampled_from(sorted({k.name for k in SCHEMA
                                       if command in k.commands})))
    cfg[key] = draw(BAD_VALUES)
    typo = draw(st.one_of(st.none(), MISSPELT))
    if typo is not None:
        cfg[typo] = cfg[key]
    return command, cfg, typo is not None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_bad_key())
def test_one_bad_key_never_raises_or_writes_nan(case):
    command, cfg, misspelt = case
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run(Path(tmp), cfg, command)
        # verify reports a failed self-check with 4
        assert rc in ((0, 2, 3, 4) if command == "verify" else (0, 2, 3))
        if misspelt:
            assert rc == 2
        if rc == 0:
            _assert_finite_csvs(Path(tmp) / "out")


_WAVE = "{!r}+{!r}*sin(256*pi*t)"  # the second term is 0 on the grid k/256


@st.composite
def _wavy_model(draw):
    """An lmmm config whose alpha and H ripple between the domain grid
    points, with random run times: a path grid, or a moments t and eps."""
    cfg = dict(LEVY_CFG, process="lmmm", stability_bounds=[1.2, 1.9],
               tail="none",
               alpha=_WAVE.format(draw(st.floats(1.25, 1.85)),
                                  draw(st.floats(-0.6, 0.6))),
               H=_WAVE.format(draw(st.floats(0.05, 0.95)),
                              draw(st.floats(-0.6, 0.6))))
    if draw(st.booleans()):
        grid = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
        return "path", dict(cfg, grid=grid), grid
    t = draw(st.floats(0.0, 0.9))
    eps = draw(st.lists(st.floats(1e-6, 0.1), min_size=2, max_size=4,
                        unique=True))
    return ("moments", dict(cfg, t=t, eps=eps, eta=0.5, m_paths=2),
            [t] + [t + e for e in eps])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wavy_model())
def test_model_rules_hold_at_every_evaluation_time(case):
    command, cfg, times = case
    try:
        spec = cli.check_config(cfg, command)["spec"]
    except cli.ConfigError as exc:
        assert "alpha" in str(exc) or "H" in str(exc)
        return
    at = spec.at(times)
    assert np.all((spec.c <= at.alpha) & (at.alpha <= spec.d))
    assert np.all((0.0 < at.H) & (at.H < 1.0))
    theoretical_scaling(spec, times[0], 0.5)


class TestPathCommand:
    def test_csv_shape_and_format(self, tmp_path):
        assert _run(tmp_path, _path_cfg(), "path") == 0
        raw = (tmp_path / "out" / "path.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 31
        for ln in lines[1:]:
            t_s, y_s = ln.split(",")
            # shortest-roundtrip formatting: re-encoding is the identity
            assert "%.17g" % float(t_s) == t_s
            assert "%.17g" % float(y_s) == y_s

    def test_multi_path_layout(self, tmp_path):
        assert _run(tmp_path, _path_cfg(n_paths=3), "path") == 0
        lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,y"
        assert len(lines) == 1 + 3 * 30
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[0] == "2"

    def test_explicit_grid_list(self, tmp_path):
        assert _run(tmp_path, _path_cfg(grid=[0.1, 0.4, 0.9]), "path") == 0
        lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = _write(tmp_path, _path_cfg())
        main(["path", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["path", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "path.csv").read_bytes()
        b = (tmp_path / "b" / "path.csv").read_bytes()
        assert a != b
        man = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man["config"]["seed"] == 99

    def test_svg_written_without_touching_csv(self, tmp_path):
        cfg_path = _write(tmp_path, _path_cfg())
        main(["path", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["path", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--svg"])
        assert ((tmp_path / "a" / "path.csv").read_bytes()
                == (tmp_path / "b" / "path.csv").read_bytes())
        tree = ET.parse(tmp_path / "b" / "path.svg")
        assert tree.getroot().tag.endswith("svg")


    def test_writer_memory_does_not_grow_with_paths(self, tmp_path,
                                                    monkeypatch):
        # path.csv is streamed: 64 times the paths, the same traced peak
        vals = np.random.default_rng(0).standard_normal((512, 64))
        monkeypatch.setattr(cli, "diagonal_samples",
                            lambda spec, grid, n, *a, **k: vals[:n])
        grid = {"start": 0.0, "stop": 1.0, "n": 64}
        peaks = {}
        for n in (8, 8, 512):  # the first run loads what runs load once
            tracemalloc.start()
            try:
                assert _run(tmp_path, _path_cfg(n_paths=n, grid=grid),
                            "path", out=f"out{n}") == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[512] < peaks[8] + 2 ** 20


# sha256 of outputs that the bootstrap's int32 draw and blocked medians,
# the streamed path.csv writer and the shared kernel rows of the tail
# covariance (at t 0.8, next to band 2) must not move, in each NumPy
# dispatch class (pins.py)
PINNED_OUTPUTS = [
    ("holder", dict(LEVY_CFG, process="lmmm", alpha="1.7+0.2*sin(2*pi*t)",
                    H="0.7+0.1*t", stability_bounds=[1.45, 1.95], t=0.5,
                    r=[2.0 ** -6, 2.0 ** -7, 2.0 ** -8], m_paths=509,
                    tail="gauss", seed=0), "holder.csv",
     pin("877c4ebe18f19d905010e86ba1286192d0f65d9977260ada0bfc5f627e9f749b",
         "70903f3054a0ed7c9ac450231ed312ff68bf344af925866e6a629dcf74f89c80")),
    ("holder", dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8],
                    t=0.5, r={"start_exp": -4, "stop_exp": -9}, m_paths=300,
                    n_terms=300), "holder.csv",
     pin("d17aab3c39c191e8d7c1033ce18d57735e4d90b4bf6b2c6e6b0984485593812a",
         "00745a84f6d91f6107b28784aba2b407b7dd126ab2790395836de435e35b5eca")),
    ("path", _path_cfg(), "path.csv",
     pin("e37ec5db09dc9bcb657ef1f75e52ca30fe60a7ff717b24cc305eeac9e88062a8",
         "ebbe34b452858cb5dd9951fea034a7cac7fb893727aa518239e25fec7df23c91")),
    ("path", _path_cfg(n_paths=3), "path.csv",
     pin("5987579401c3c81c3ff131377aac14cb637a83a2e9bc03964981a39f546b764e",
         "5bfbd760bf486ce6fde9b95eca543444b8fc2be0fbc510c04aac97c8b7d156ed")),
    ("holder", dict(LEVY_CFG, process="lmmm", alpha="1.7+0.2*sin(2*pi*t)",
                    H="0.7+0.1*t", stability_bounds=[1.45, 1.95], t=0.8,
                    r=[2.0 ** -6, 2.0 ** -7, 2.0 ** -8], m_paths=64,
                    tail="gauss", seed=0), "holder.csv",
     pin("747d516272ce8edd7edaa174390395fc05224128c426801a71832f7ee0a09afd",
         "8e3c10d52efc4ad18ba6a985c50cf3315dd0db47051bd09bea96f4c606652490")),
]


@pytest.mark.parametrize("command,cfg,name,digest", PINNED_OUTPUTS)
def test_output_bytes_pinned(tmp_path, command, cfg, name, digest):
    assert _run(tmp_path, cfg, command) == 0
    raw = (tmp_path / "out" / name).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest


def test_manifest_names_the_dispatch_class(tmp_path):
    # the bytes depend on the NumPy version and dispatch class (pins.py);
    # the manifest records both and still reruns to the same CSV
    cfg = _path_cfg(process="lmmm", alpha="1.7+0.2*sin(2*pi*t)",
                    H="0.7+0.1*t", stability_bounds=[1.45, 1.95], n_paths=2)
    assert _run(tmp_path, cfg, "path", out="a") == 0
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["numpy"] == {"version": np.__version__, "x86_v4": pins.X86_V4}
    assert main(["path", "--config", str(tmp_path / "a" / "manifest.json"),
                 "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "path.csv").read_bytes()
            == (tmp_path / "b" / "path.csv").read_bytes())


class TestMomentsCommand:
    def test_outputs_and_manifest(self, tmp_path):
        assert _run(tmp_path, _moments_cfg(), "moments") == 0
        out = tmp_path / "out"
        lines = (out / "moments.csv").read_text().splitlines()
        assert lines[0] == "eps,eta,estimate,stderr,theory_estimate"
        assert len(lines) == 4
        fit = (out / "moments_fit.csv").read_text().splitlines()
        assert fit[0] == ("slope,slope_se,intercept,intercept_se,"
                          "theory_slope,theory_intercept")
        man = json.loads((out / "manifest.json").read_text())
        assert man["kind"] == "run_manifest"
        assert man["command"] == "moments"
        assert man["outputs"] == ["moments.csv", "moments_fit.csv"]
        target = 0.5 / (1.5 + 0.3 * math.sin(2.0 * math.pi * 0.3))
        assert abs(man["derived"]["theory_slope"] - target) < 1e-12

    def test_manifest_reruns_identically(self, tmp_path):
        cfg_path = _write(tmp_path, _moments_cfg())
        main(["moments", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["moments", "--config", str(tmp_path / "a" / "manifest.json"),
              "--out", str(tmp_path / "b")])
        for name in ("moments.csv", "moments_fit.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_worker_count_invariance(self, tmp_path):
        cfg_path = _write(tmp_path, _moments_cfg(m_paths=150))
        main(["moments", "--config", cfg_path, "--out", str(tmp_path / "a"),
              "--workers", "1"])
        main(["moments", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--workers", "4"])
        assert ((tmp_path / "a" / "moments.csv").read_bytes()
                == (tmp_path / "b" / "moments.csv").read_bytes())

    def test_log_spaced_eps_family(self, tmp_path):
        cfg = _moments_cfg(eps={"start_exp": -4, "stop_exp": -6})
        assert _run(tmp_path, cfg, "moments") == 0
        lines = (tmp_path / "out" / "moments.csv").read_text().splitlines()
        eps = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert eps == [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import multistable.cli as cli_mod

        def boom(*a, **k):
            raise ValueError("synthetic numerical failure")

        monkeypatch.setattr(cli_mod, "estimate_increment_moments", boom)
        assert _run(tmp_path, _moments_cfg(), "moments") == 3


class TestHolderCommand:
    def test_csv_and_drop_counts(self, tmp_path):
        cfg = dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8],
                   t=0.5, r={"start_exp": -4, "stop_exp": -9},
                   m_paths=12, n_terms=300)
        assert _run(tmp_path, cfg, "holder") == 0
        out = tmp_path / "out"
        lines = (out / "holder.csv").read_text().splitlines()
        assert lines[0] == "t,estimate,ci_lo,ci_hi,theory,drop_count"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert abs(float(cells[4]) - 1.0 / 1.5) < 1e-12
        man = json.loads((out / "manifest.json").read_text())
        assert "0.5" in man["drop_counts"]

    def test_theory_nan_when_no_target(self, tmp_path):
        # declaring rough alpha regularity removes the established target
        cfg = dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8],
                   t=0.5, r={"start_exp": -4, "stop_exp": -9},
                   m_paths=10, n_terms=300, alpha_regularity=0.5)
        assert _run(tmp_path, cfg, "holder") == 0
        lines = (tmp_path / "out" / "holder.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "nan"

    def test_theory_nan_when_kappa_is_negative(self, tmp_path):
        # H - 1/alpha < 0: the manifest warns and no target is asserted
        cfg = dict(LEVY_CFG, process="lmmm", alpha="1.2", H="0.5",
                   stability_bounds=[1.1, 1.3], t=0.5,
                   r={"start_exp": -4, "stop_exp": -9}, m_paths=10,
                   n_terms=300)
        assert _run(tmp_path, cfg, "holder") == 0
        lines = (tmp_path / "out" / "holder.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "nan"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert any("not asserted" in w for w in manifest["warnings"])

    def test_gauss_tail_at_near_coincident_kinks(self, tmp_path):
        # kappa = -1/3, and t 0.5 and t + 2^-17 are both grid times: band 1
        # of their pair integral grades toward both singular kinks
        cfg = dict(LEVY_CFG, process="lmmm", alpha="1.2", H="0.5",
                   stability_bounds=[1.15, 1.25], t=0.5,
                   r=[2.0 ** -16, 2.0 ** -17], m_paths=16, tail="gauss")
        assert _run(tmp_path, cfg, "holder") == 0

    def test_multiple_times(self, tmp_path):
        cfg = dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8],
                   t=[0.3, 0.6], r={"start_exp": -4, "stop_exp": -9},
                   m_paths=10, n_terms=300)
        assert _run(tmp_path, cfg, "holder") == 0
        lines = (tmp_path / "out" / "holder.csv").read_text().splitlines()
        assert len(lines) == 3


class TestVerifyCommand:
    @pytest.mark.filterwarnings("error")
    def test_clean_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, dict(VERIFY_SIZES), "verify") == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,value,threshold,status"
        assert len(lines) == 6
        assert all(ln.endswith(",pass") for ln in lines[1:])
        console = capsys.readouterr().out
        assert console.count("[PASS]") == 5

    @pytest.mark.filterwarnings("error")
    def test_loose_quadrature_fault_is_caught(self, tmp_path, capsys):
        cfg = dict(VERIFY_SIZES, fault_loose_quad=True)
        assert _run(tmp_path, cfg, "verify") == 4
        console = capsys.readouterr().out
        assert "[FAIL] quadrature-identity" in console

    def test_manifest_reruns_identically(self, tmp_path):
        cfg_path = _write(tmp_path, dict(VERIFY_SIZES))
        main(["verify", "--config", cfg_path, "--out", str(tmp_path / "a"),
              "--seed", "5"])
        main(["verify", "--config", str(tmp_path / "a" / "manifest.json"),
              "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "verify.csv").read_bytes()
                == (tmp_path / "b" / "verify.csv").read_bytes())
        man = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert man["config"]["seed"] == 5

    def test_scale_fault_is_caught_by_marginal_ks(self, tmp_path, capsys):
        cfg = dict(VERIFY_SIZES, fault_c_alpha_scale=1.5)
        assert _run(tmp_path, cfg, "verify") == 4
        console = capsys.readouterr().out
        assert "[FAIL] marginal-ks" in console
        assert "[FAIL] lmmm-marginal-ks" in console
        assert "[PASS] quadrature-identity" in console

    def test_json_report_names_rate_and_function(self, tmp_path):
        assert _run(tmp_path, dict(VERIFY_SIZES), "verify") == 0
        out = tmp_path / "out"
        rows = [ln.split(",") for ln in
                (out / "verify.csv").read_text().splitlines()[1:]]
        doc = json.loads((out / "verify.json").read_text())
        assert [c["check"] for c in doc["checks"]] == [r[0] for r in rows]
        for c, row in zip(doc["checks"], rows):
            assert (c["value"], c["threshold"]) == (float(row[1]),
                                                    float(row[2]))
            assert c["status"] == row[3]
            assert 0.0 <= c["false_alarm_rate"] <= 0.01
            assert c["sizes"] and c["tests"].count(".") == 1
        assert doc["checks"][0]["value"] <= 1e-13

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_wrong_tail_factor_is_caught(self, tmp_path, capsys, monkeypatch,
                                         factor):
        exact = engine.arrival_tail_sum
        monkeypatch.setattr(engine, "arrival_tail_sum",
                            lambda c, n: factor * exact(c, n))
        assert _run(tmp_path, dict(VERIFY_SIZES), "verify") == 4
        assert "[FAIL] truncation-variance" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_path_cfg(grid=[0.2, 0.8], n_terms=50)))
    res = subprocess.run(
        [sys.executable, "-m", "multistable", "path",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert (tmp_path / "out" / "path.csv").exists()


def test_readme_table_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    keys = {line.split("`")[1] for line in readme.read_text().splitlines()
            if line.startswith("| `")}
    assert keys == {k.name for k in SCHEMA}
