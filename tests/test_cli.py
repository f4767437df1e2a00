import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from multistable.cli import main

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

    def test_multiple_times(self, tmp_path):
        cfg = dict(LEVY_CFG, alpha="1.5", stability_bounds=[1.2, 1.8],
                   t=[0.3, 0.6], r={"start_exp": -4, "stop_exp": -9},
                   m_paths=10, n_terms=300)
        assert _run(tmp_path, cfg, "holder") == 0
        lines = (tmp_path / "out" / "holder.csv").read_text().splitlines()
        assert len(lines) == 3


class TestVerifyCommand:
    def test_clean_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, dict(VERIFY_SIZES), "verify") == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,value,threshold,status"
        assert len(lines) == 6
        assert all(ln.endswith(",pass") for ln in lines[1:])
        console = capsys.readouterr().out
        assert console.count("[PASS]") == 5

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
        assert "[PASS] quadrature-identity" in console


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_path_cfg(grid=[0.2, 0.8], n_terms=50)))
    res = subprocess.run(
        [sys.executable, "-m", "multistable", "path",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert (tmp_path / "out" / "path.csv").exists()
