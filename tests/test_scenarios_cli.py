"""Scenario registry, config validation, CLI behavior, and determinism."""

import json
import os
import subprocess
import sys

import pytest

import bohmsim
from bohmsim import scenarios
from bohmsim.cli import main
from bohmsim.guidance import EmptyFlowError
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


@pytest.mark.parametrize("value", [2.5, 2.0])
def test_validate_rejects_non_integer_count(value):
    cfg = {"scenario": "povm", "n_states": value}
    assert validate_config(cfg) == ["n_states: expected an integer"]
    with pytest.raises(ConfigError):
        run_scenario(cfg)


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


def test_cli_run_where_no_member_completes_fails(tmp_path, capsys):
    """Every member leaves the periodic grid: one failing check, exit 1, and
    no check passes on the empty ensemble."""
    cfg = {"scenario": "equivariance", "n": 200,
           "cases": [{"grid": {"count": 256}, "t_final": 1.0,
                      "initial": {"generator": "gaussian", "momentum": 25.0}}]}
    assert validate_config(cfg) == []
    path = tmp_path / "lost.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "[PASS]" not in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (check,) = report["checks"]
    assert not check["passed"] and not report["passed"]
    assert check["hit_node"] + check["left_grid"] == 200


def test_collapse_where_no_member_completes_fails(monkeypatch):
    def lose_everyone(weight, n_members, **kwargs):
        raise EmptyFlowError(n_members, 0, n_members)

    monkeypatch.setattr(scenarios, "collapse_experiment", lose_everyone)
    code, report = run_scenario({"scenario": "collapse", "weights": [0.5, 0.8],
                                 "n": 10})
    assert code == 1
    assert [c["passed"] for c in report["checks"]] == [False, False]


def test_spin_decoupling_check_fails_when_the_components_mix(monkeypatch):
    """The decoupling check can fail: a stepper with a 1e-6 transverse field
    in place of B = 0 mixes the components, so they stop being multiples of
    each other."""
    pauli = scenarios.PauliStepper

    def mixing(grid, potential, constants, dt, b_field):
        if not any(b_field):
            b_field = (1e-6, 0.0, 0.0)
        return pauli(grid, potential, constants, dt, b_field)

    monkeypatch.setattr(scenarios, "PauliStepper", mixing)
    code, report = run_scenario({"scenario": "spin", "points": 128})
    checks = {c["name"]: c for c in report["checks"]}
    check = checks["zero-field spinor evolution matches scalar evolution"]
    assert code == 1 and not check["passed"]
    assert check["value"] > 1e-9


def test_oracle_trajectory_check_names_its_final_time():
    _, report = run_scenario({"scenario": "oscillator-oracle", "points": 64,
                              "t_final": 1.0})
    names = [c["name"] for c in report["checks"]]
    assert "trajectories match closed form to t=1" in names
    assert not any("to t=2" in name for name in names)


def test_cli_collapse_losing_half_its_members_fails(tmp_path, capsys):
    """Half of these members leave the grid and the pointer packets meet
    again after classification: the lost-fraction and the leakage-series
    checks fail, and so does the run."""
    cfg = {"scenario": "collapse", "weights": [0.5], "n": 20,
           "coupling": 30.0, "t_meas": 3.0, "dt": 5e-3, "dt_ode": 5e-2}
    assert validate_config(cfg) == []
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "scenario collapse: FAILED" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = {c["name"].split(": ", 1)[1]: c for c in report["checks"]}
    lost = checks["lost fraction (node hits and grid exits) <= 0.01"]
    assert not lost["passed"] and lost["value"] == 0.5
    held = checks["pointer cells stay disjoint from classification to t_meas"]
    assert not held["passed"] and held["value"] > 1e-3


def test_cli_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"scenario": "povm", "out_dir": str(taken)}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir: ")
    assert taken.read_text() == ""


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


def test_scenarios_import_leaves_scipy_stats_out():
    """scipy.stats takes about a second to import, and only the two-sample
    KS test of equivariance needs it, so it is imported there."""
    src = os.path.dirname(os.path.dirname(bohmsim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run(
        [sys.executable, "-c", "import sys, bohmsim.scenarios; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports this
    checkout's bohmsim."""
    src = os.path.dirname(os.path.dirname(bohmsim.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_package_import_leaves_scipy_linalg_out():
    """Importing scipy.linalg takes about 0.2 s and 25 MB, and nothing in
    bohmsim needs the package: the Crank-Nicolson factorization loads only
    its LAPACK extension file."""
    assert _fresh_python(
        "import sys, bohmsim, bohmsim.scenarios, bohmsim.cli; "
        "print('scipy.linalg' in sys.modules)") == "False"


def test_spin_run_leaves_scipy_linalg_out():
    assert _fresh_python(
        "import sys; from bohmsim.scenarios import run_scenario; "
        "code, _ = run_scenario({'scenario': 'spin'}); "
        "print(code, 'scipy.linalg' in sys.modules)") == "0 False"


_CN_EVOLUTION = (
    "from bohmsim import Grid, PhysicalConstants, ScalarWaveFunction, "
    "CRANK_NICOLSON, evolve, norm\n"
    "from bohmsim.potentials import Harmonic\n"
    "import hashlib, sys, numpy as np\n"
    "g = Grid.regular(-10.0, 10.0, 513, boundary='boxed')\n"
    "psi = ScalarWaveFunction.from_callable(\n"
    "    g, lambda x: np.exp(-x * x / 4 + 1.5j * x), normalize=True)\n"
    "rec = evolve(psi, Harmonic((1.0,)), PhysicalConstants.natural(1),\n"
    "             0.1, 1e-3, CRANK_NICOLSON, snapshot_stride=50)\n"
    "digest = hashlib.sha256(b''.join(\n"
    "    s.amplitudes.tobytes() for s in rec.snapshots)).hexdigest()\n")


def test_crank_nicolson_runs_in_a_fresh_process():
    """The first factorization binds LAPACK from its extension file, so
    scipy.linalg stays unimported, and the evolution keeps the norm."""
    out = _fresh_python(
        _CN_EVOLUTION
        + "print('scipy.linalg' in sys.modules, len(rec.snapshots), "
        "max(abs(norm(s) - 1.0) for s in rec.snapshots))")
    loaded, count, drift = out.split()
    assert (loaded, count) == ("False", "3") and float(drift) < 1e-10


def test_lapack_binding_keeps_scipy_importable_in_either_order():
    """A Crank-Nicolson evolution before scipy.stats and scipy.linalg are
    imported leaves them a normal package, with the LAPACK module as its
    attribute; one after takes that module. Both give the same bits."""
    after = _fresh_python(
        _CN_EVOLUTION
        + "import scipy.stats, scipy.linalg\n"
        "p = scipy.stats.ks_2samp([0.1, 0.5, 0.9], [0.2, 0.4, 0.8]).pvalue\n"
        "print(digest, 0 < p <= 1, scipy.linalg._flapack is "
        "sys.modules['scipy.linalg._flapack'])")
    before = _fresh_python("import scipy.linalg\n" + _CN_EVOLUTION
                           + "print(digest)")
    digest, ks_ran, same_module = after.split()
    assert (ks_ran, same_module) == ("True", "True")
    assert digest == before


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


def test_cli_non_integer_count_exit_code(tmp_path):
    cfg = tmp_path / "float_count.json"
    cfg.write_text(json.dumps({"scenario": "povm", "n_states": 2.5}))
    res = _cli("run", str(cfg))
    assert res.returncode == 2
    assert "n_states: expected an integer" in res.stderr


def test_cli_unknown_generator_exit_code(tmp_path):
    cfg = tmp_path / "bad_gen.json"
    cfg.write_text(json.dumps(
        {"scenario": "equivariance",
         "cases": [{"initial": {"generator": "nonexistent"}}]}))
    res = _cli("run", str(cfg))
    assert res.returncode == 2
    assert "unknown generator" in res.stderr


def test_package_exports_resolve():
    assert all(hasattr(bohmsim, name) for name in bohmsim.__all__)
