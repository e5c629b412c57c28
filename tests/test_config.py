"""Scenario parameter tables: one parse behind validate and run.

A config that validates runs to exit 0 or 1; every other config is a
config error (exit 2) that names the path of the fault.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bohmsim import cli, flux, scenarios
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.scenarios import (SCENARIOS, ConfigError, make_initial,
                               parse_config, run_scenario, validate_config)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _case(scenario, **case):
    return {"scenario": scenario, "cases": [case]}


# Configs of the right JSON types that the run would reject, one row per
# rule: each is a config error that names its path.
PROBES = [
    (_case("equivariance", potential={"kind": "harmonic"}),
     "cases[0].potential.omegas: missing"),
    (_case("equivariance", potential={"kind": "coupled-oscillator"}),
     "cases[0].potential.kappa: missing"),
    (_case("equivariance", potential={"kind": "coupled-oscillator",
                                      "kappa": 1.0}),
     "cases[0]: coupled oscillator requires a 2-d grid"),
    (_case("equivariance", initial={"generator": "product-gaussian-2d"}),
     "cases[0].initial.generator: unknown generator 'product-gaussian-2d'"),
    (_case("equivariance", dt=0), "cases[0]: dt must be positive"),
    (_case("equivariance", stride=3),
     "cases[0]: snapshot_stride must divide the step count"),
    (_case("equivariance", dt_ode=1e-3),
     "cases[0]: snapshot spacing exceeds dt_ode"),
    ({"scenario": "equivariance", "bins": 0}, "bins: must be >= 1"),
    (_case("equivariance", grid={"lower": 12.0, "upper": -12.0}),
     "cases[0].grid: axis spacing must be positive"),
    ({"scenario": "flux", "n": 0}, "n: must be >= 2"),
    (_case("flux", surface=1e9), "cases[0]: surface location outside the grid"),
    (_case("flux", asserts=[["bogus", 1, 1]]),
     "cases[0].asserts[0][0]: expected a match of expected_total|"),
    ({"scenario": "collapse", "weights": [1.5]}, "weights[0]: must be <= 1"),
    ({"scenario": "oscillator-oracle", "points": 7},
     "points: axis needs at least 8 points"),
    ({"scenario": "oscillator-oracle", "t_final": 0.5}, "t_final: must be >= 1"),
    ({"scenario": "spin", "rabi_steps": 0}, "rabi_steps: must be >= 1"),
    ({"scenario": "spin", "b_transverse": 0}, "b_transverse: must be > 0"),
    ({"scenario": []}, "scenario: unknown scenario []"),
    ({"scenario": "spin", "dt": math.nan}, "dt: expected a finite number"),
    (_case("flux", grid={"count": 0}),
     "cases[0].grid: axis needs at least 8 points"),
    (_case("equivariance", stride=0),
     "cases[0]: snapshot_stride must be positive"),
    (_case("flux", dt_ode=0), "cases[0]: dt_ode must be positive"),
    ({"scenario": "collapse", "dt": 0}, "config: dt must be positive"),
    ({"scenario": "classical-limit", "hbars": [0.3, 0.0]},
     "hbars[1]: hbar and masses must be positive"),
    ({"scenario": "classical-limit", "displacement": 9.0},
     "config: start 9.7"),
    (_case("flux", name="a/b"), "cases[0].name: expected a match"),
    (_case("flux", initial={"generator": "two-packet", "centers": [1.0]}),
     "cases[0]: two-packet needs one momentum and one weight per center"),
    (_case("flux", initial={"generator": "gaussian", "center": 1e6}),
     "cases[0]: cannot normalize a zero field"),
    ({"scenario": "povm", "seed": -1}, "seed: must be >= 0"),
    ({"scenario": "povm", "out_dir": 5}, "out_dir: expected a string"),
]


@pytest.mark.parametrize("config,message", PROBES,
                         ids=[m.split(":")[0] + f"-{i}"
                              for i, (_, m) in enumerate(PROBES)])
def test_probe_is_a_config_error(config, message, tmp_path, capsys):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("config", [
    {"scenario": "flux", "cases": []},
    {"scenario": "equivariance", "cases": []},
    {"scenario": "collapse", "weights": []},
], ids=["flux", "equivariance", "collapse"])
def test_run_without_checks_fails(config):
    assert validate_config(config) == []
    code, report = run_scenario(config)
    assert code == 1 and report["checks"] == [] and not report["passed"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_defaults_written_out_validate(name):
    defaults = SCENARIOS[name].defaults
    config = json.loads(json.dumps({"scenario": name, **defaults}))
    assert validate_config(config) == []
    assert parse_config({"scenario": name}) == (name, defaults)


def test_generator_keys_come_from_its_own_table():
    _, params = parse_config(_case("equivariance",
                                   initial={"generator": "coherent"}))
    assert params["cases"][0]["initial"] == {
        "generator": "coherent", "displacement": 1.0, "omega": 1.0}
    # a case that leaves a key out still takes it from the first default case
    assert params["cases"][0]["grid"] == (
        SCENARIOS["equivariance"].defaults["cases"][0]["grid"])


def test_make_initial_fills_generator_defaults():
    grid = Grid.regular(-8.0, 8.0, 64)
    c1 = PhysicalConstants.natural(1)
    short = make_initial(grid, c1, {"generator": "gaussian", "center": 1.0})
    full = make_initial(grid, c1, {"generator": "gaussian", "center": 1.0,
                                   "width": 1.0, "momentum": 0.0})
    assert np.array_equal(short.amplitudes, full.amplitudes)
    with pytest.raises(ConfigError, match="initial.width: must be > 0"):
        make_initial(grid, c1, {"generator": "gaussian", "width": 0.0})


def test_equivariance_with_harmonic_first_case():
    case = {"name": "harmonic", "potential": {"kind": "harmonic",
                                              "omegas": [1.0]},
            "grid": {"count": 256}, "t_final": 0.5}
    code, report = run_scenario({"scenario": "equivariance", "bins": 16,
                                 "cases": [case]})
    assert report["parameters"]["cases"][0]["potential"] == case["potential"]
    assert code == 0, report["checks"]


def test_flux_derives_each_surface_current_once(monkeypatch):
    calls = []
    real = flux.probability_current

    def counting(psi, constants):
        calls.append(1)
        return real(psi, constants)

    monkeypatch.setattr(flux, "probability_current", counting)
    code, _ = run_scenario(SMALL_FLUX)
    case = SMALL_FLUX["cases"][0]
    snapshots = round(case["t_final"] / (case["dt"] * case["stride"])) + 1
    assert code in (0, 1) and len(calls) == snapshots


# --- benchmark workloads ---------------------------------------------------------


def _scenario_workloads():
    """(name, config) of every scenario workload in full and tiny form, from
    the benchmark's own module, loaded without changing it."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = []
    for name, w in sorted(module.WORKLOADS.items()):
        if isinstance(w, module.ScenarioWorkload):
            out.append((f"{name}-full", w.config))
            out.append((f"{name}-tiny", {**w.config, **w.tiny}))
    return out


WORKLOAD_CONFIGS = _scenario_workloads()


def test_scenario_workloads_found():
    assert len(WORKLOAD_CONFIGS) == 6


@pytest.mark.parametrize("config", [c for _, c in WORKLOAD_CONFIGS],
                         ids=[n for n, _ in WORKLOAD_CONFIGS])
def test_benchmark_workload_validates(config):
    assert validate_config(config) == []


# --- memory and work budgets ---------------------------------------------------------
#
# Each config here would store more snapshots, paths and ensemble arrays than
# the memory budget allows, or make more grid-point updates than the work
# budget allows, so none of them is ever run.

OVER_BUDGET = [
    ({"scenario": "oscillator-oracle", "points": 1024, "stride": 1},
     "config: points, t_final, dt and stride would store 33.6 GB"),
    (_case("equivariance", grid={"count": 1 << 16}, t_final=2.0, stride=1),
     "config: n and cases[0] would store 2.10 GB"),
    ({"scenario": "collapse", "dt": 1e-5},
     "config: n, t_meas and dt would store 7.88 GB"),
    ({"scenario": "flux", "n": 10**6}, "config: n and cases[0] would store"),
    ({"scenario": "flux", "n": 10**400}, "config: n and cases[0] would store"),
    ({"scenario": "classical-limit", "points": 1 << 16, "stride": 1},
     "config: points, t_final, dt and stride would store 12.6 GB"),
]

OVER_WORK = [
    ({"scenario": "spin", "rabi_steps": 10**12},
     "config: points, decoupled_steps and rabi_steps would make 2.56e+14 "
     "grid-point updates"),
    ({"scenario": "oscillator-oracle", "dt": 1e-6, "stride": 10000},
     "config: points, t_final and dt would make 1.31e+11"),
    ({"scenario": "collapse", "weights": [0.5] * 50},
     "config: weights, t_meas and dt would make 2.46e+9"),
    ({"scenario": "flux", "cases": [{"dt": 1e-6, "stride": 5000}]},
     "config: grid.count, t_final and dt of the cases would make 6.14e+9"),
    (_case("equivariance", name="fine", dt=2e-7, stride=10000),
     "config: grid.count, t_final and dt of the cases would make 5.12e+9"),
    ({"scenario": "classical-limit", "hbars": [1.0] * 100},
     "config: hbars, points, t_final and dt would make 2.46e+9"),
]


@pytest.mark.parametrize("config,message", OVER_BUDGET,
                         ids=[c["scenario"] for c, _ in OVER_BUDGET])
def test_over_memory_budget_is_a_config_error(config, message):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors


@pytest.mark.parametrize("config,message", OVER_WORK,
                         ids=[c["scenario"] for c, _ in OVER_WORK])
def test_over_work_budget_is_a_config_error(config, message):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors


@pytest.mark.parametrize("config,message", [
    ({"scenario": "equivariance", "n": 10**9},
     "n and cases[0] would store 616 GB"),
    ({"scenario": "collapse", "n": 10**9},
     "n, t_meas and dt would store 2.54e+3 GB"),
    ({"scenario": "spin", "rabi_steps": 10**12},
     "points, decoupled_steps and rabi_steps would make"),
], ids=["equivariance", "collapse", "spin"])
def test_cli_over_budget_exits_2(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: {message}"), err
    assert "Traceback" not in err


def test_defaults_and_workloads_stay_well_inside_the_memory_budget(
        monkeypatch):
    """Within a quarter of the memory budget and of the work budget."""
    monkeypatch.setattr(scenarios, "_MEMORY_BUDGET",
                        scenarios._MEMORY_BUDGET // 4)
    monkeypatch.setattr(scenarios, "_WORK_BUDGET",
                        scenarios._WORK_BUDGET // 4)
    for name in SCENARIOS:
        assert validate_config({"scenario": name}) == [], name
    for name, config in WORKLOAD_CONFIGS:
        assert validate_config(config) == [], name


# --- property tests ---------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    """Every key and index path into a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replace(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_validate_never_raises_on_any_value(value):
    errors = validate_config(value)
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(SCENARIOS)), st.data())
def test_validate_never_raises_on_perturbed_defaults(name, data):
    config = json.loads(json.dumps({"scenario": name,
                                    **SCENARIOS[name].defaults}))
    path = data.draw(st.sampled_from(list(_paths(config))))
    if path == ("scenario",):
        return
    errors = validate_config(_replace(config, path, data.draw(JSON)))
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)


SMALL_FLUX = {
    "scenario": "flux", "n": 50, "seed": 3,
    "cases": [{
        "name": "traversal",
        "grid": {"lower": -12.0, "upper": 20.0, "count": 256},
        "initial": {"generator": "gaussian", "center": -3.0, "width": 1.0,
                    "momentum": 4.0},
        "surface": 0.0, "t_final": 0.5, "dt": 1e-3, "stride": 5,
        "dt_ode": 5e-3, "asserts": [["empirical_total", 0.5, 1.0]]}],
}


def _nearby(value):
    """Replacements for one entry of a small config. Numbers are scaled by
    at most 2, so an accepted replacement still runs in well under a
    second."""
    junk = [None, True, "x", [], {}, math.nan, math.inf, -math.inf]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return junk + [0, 1.5, {"generator": "two-packet"},
                       {"generator": "plane-wave"}]
    return junk + [0, -value, 2 * value, value / 2, value + 0.5]


@pytest.mark.parametrize("base", [{"scenario": "povm", "n_states": 10},
                                  SMALL_FLUX], ids=["povm", "flux"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_accepted_perturbation_runs(base, data):
    path = data.draw(st.sampled_from([p for p in _paths(base)
                                      if p != ("scenario",)]))
    node = base
    for key in path:
        node = node[key]
    config = _replace(base, path, data.draw(st.sampled_from(_nearby(node))))
    if validate_config(config):
        with pytest.raises(ConfigError):
            run_scenario(config)
    else:
        code, _ = run_scenario(config)
        assert code in (0, 1)
