"""Scenario registry, config validation, CLI behavior, and determinism."""

import json
import os
import subprocess
import sys

import pytest

from bohmsim.scenarios import (ConfigError, SCENARIOS, list_scenarios,
                               run_scenario, validate_config)

EXPECTED = {"oscillator-oracle", "equivariance", "collapse", "flux", "povm",
            "classical-limit", "spin"}


def test_registry_contents():
    names = [n for n, _ in list_scenarios()]
    assert set(names) == EXPECTED
    assert len(names) == len(set(names))
    for name, desc in list_scenarios():
        assert desc


def test_minimal_configs_round_trip():
    for name in EXPECTED:
        assert validate_config({"scenario": name}) == []


def test_validate_unknown_scenario():
    errs = validate_config({"scenario": "quantum-leap"})
    assert errs and "unknown scenario" in errs[0]


def test_validate_unknown_key_path():
    errs = validate_config({"scenario": "povm", "n_state": 5})
    assert any("n_state" in e and "unknown key" in e for e in errs)


def test_validate_unknown_generator():
    cfg = {"scenario": "equivariance",
           "cases": [{"initial": {"generator": "wigner-cat"}}]}
    errs = validate_config(cfg)
    assert any("unknown generator 'wigner-cat'" in e for e in errs)


def test_validate_type_errors():
    errs = validate_config({"scenario": "povm", "n_states": "many"})
    assert any("expected a number" in e for e in errs)
    errs = validate_config({"scenario": "povm", "seed": 1.5})
    assert any("seed" in e for e in errs)


def test_run_scenario_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_scenario({"scenario": "povm", "bogus": 1})


def test_run_scenario_writes_report(tmp_path):
    code, report = run_scenario({"scenario": "povm"}, out_dir=str(tmp_path))
    assert code == 0 and report["passed"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["scenario"] == "povm"
    assert on_disk["kernel_backend"] == report["kernel_backend"]


def test_failing_scenario_exits_nonzero():
    # reversed sweep order breaks the monotone-decrease assertion
    cfg = {"scenario": "classical-limit", "hbars": [0.1, 1.0],
           "t_final": 1.0, "dt": 1e-3, "points": 512, "dt_ode": 1e-2,
           "stride": 10}
    code, report = run_scenario(cfg)
    assert code == 1 and not report["passed"]


def test_povm_without_states_fails():
    code, report = run_scenario({"scenario": "povm", "n_states": -1})
    assert code == 1 and not report["passed"]


@pytest.mark.parametrize("hbars", [[], [0.3]])
def test_classical_limit_without_a_pair_fails(hbars):
    cfg = {"scenario": "classical-limit", "hbars": hbars, "t_final": 1.0,
           "dt": 1e-3, "points": 512, "dt_ode": 1e-2, "stride": 10}
    code, report = run_scenario(cfg)
    assert code == 1 and not report["checks"][0]["passed"]


def test_seed_override():
    code, rep = run_scenario({"scenario": "povm"}, seed_override=123)
    assert rep["parameters"]["seed"] == 123 and code == 0


def _flux_small():
    return {
        "scenario": "flux", "n": 300,
        "cases": [{
            "name": "traversal",
            "grid": {"lower": -12.0, "upper": 20.0, "count": 1024},
            "initial": {"generator": "gaussian", "center": -3.0,
                        "width": 1.0, "momentum": 4.0},
            "surface": 0.0, "t_final": 2.0, "dt": 1e-3, "stride": 5,
            "dt_ode": 5e-3, "asserts": []}],
    }


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    paths = []
    for j, threads in enumerate((1, 4, 1)):
        out = tmp_path / f"run{j}"
        code, _ = run_scenario(_flux_small(), out_dir=str(out), threads=threads)
        assert code == 0
        paths.append(out / "report.json")
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


# --- command line ------------------------------------------------------------------


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "bohmsim.cli", *args],
                          capture_output=True, text=True)


def test_cli_list():
    res = _cli("list")
    assert res.returncode == 0
    for name in EXPECTED:
        assert name in res.stdout


def test_cli_validate(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario": "spin"}))
    assert _cli("validate", str(good)).returncode == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "spin", "what": 1}))
    res = _cli("validate", str(bad))
    assert res.returncode == 2
    assert "unknown key" in res.stderr


def test_cli_syntax_error_reports_line(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"scenario": "spin",\n  "dt": }')
    res = _cli("run", str(broken))
    assert res.returncode == 2
    assert "line 2" in res.stderr


def test_cli_run_povm(tmp_path):
    cfg = tmp_path / "povm.json"
    cfg.write_text(json.dumps({"scenario": "povm"}))
    res = _cli("run", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0
    assert "[PASS]" in res.stdout
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_unknown_generator_exit_code(tmp_path):
    cfg = tmp_path / "bad_gen.json"
    cfg.write_text(json.dumps(
        {"scenario": "equivariance",
         "cases": [{"initial": {"generator": "nonexistent"}}]}))
    res = _cli("run", str(cfg))
    assert res.returncode == 2
    assert "unknown generator" in res.stderr
