"""Scenario parameter tables: one parse behind validate and run.

A config that validates runs to exit 0 or 1; every other config is a
config error (exit 2) that names the path of the fault.
"""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bohmsim import cli, fields, flux, scenarios
from bohmsim.fields import ScalarWaveFunction
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import Flow, flow_footprint, integrate_flow
from bohmsim.potentials import Free
from bohmsim.propagate import CRANK_NICOLSON, SPLIT_FOURIER, Evolution, evolve
from bohmsim.scenarios import (SCENARIOS, ConfigError, make_initial,
                               parse_config, run_scenario, validate_config)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _case(scenario, **case):
    return {"scenario": scenario, "cases": [case]}


# Configs of the right JSON types that the run would reject, one row per
# rule: each is a config error that names its path. Each row names itself,
# so a row inserted anywhere renames no other.
PROBES = [
    ("equivariance-harmonic-no-omegas",
     _case("equivariance", potential={"kind": "harmonic"}),
     "cases[0].potential.omegas: missing"),
    ("equivariance-coupled-oscillator-no-kappa",
     _case("equivariance", potential={"kind": "coupled-oscillator"}),
     "cases[0].potential.kappa: missing"),
    ("equivariance-coupled-oscillator-on-1d-grid",
     _case("equivariance", potential={"kind": "coupled-oscillator",
                                      "kappa": 1.0}),
     "cases[0]: coupled oscillator requires a 2-d grid"),
    ("equivariance-unknown-generator",
     _case("equivariance", initial={"generator": "product-gaussian-2d"}),
     "cases[0].initial.generator: unknown generator 'product-gaussian-2d'"),
    ("equivariance-dt-zero",
     _case("equivariance", dt=0), "cases[0]: dt must be positive"),
    ("equivariance-stride-not-dividing-steps",
     _case("equivariance", stride=3),
     "cases[0]: snapshot_stride must divide the step count"),
    ("equivariance-dt-ode-below-snapshot-spacing",
     _case("equivariance", dt_ode=1e-3),
     "cases[0]: snapshot spacing exceeds dt_ode"),
    ("equivariance-bins-zero",
     {"scenario": "equivariance", "bins": 0}, "bins: must be >= 1"),
    ("equivariance-grid-upper-below-lower",
     _case("equivariance", grid={"lower": 12.0, "upper": -12.0}),
     "cases[0].grid: axis spacing must be positive"),
    ("flux-n-zero",
     {"scenario": "flux", "n": 0}, "n: must be >= 2"),
    ("flux-surface-off-grid",
     _case("flux", surface=1e9), "cases[0]: surface location outside the grid"),
    ("flux-unknown-assert",
     _case("flux", asserts=[["bogus", 1, 1]]),
     "cases[0].asserts[0][0]: expected a match of expected_total|"),
    ("collapse-weight-above-one",
     {"scenario": "collapse", "weights": [1.5]}, "weights[0]: must be <= 1"),
    ("oscillator-oracle-points-seven",
     {"scenario": "oscillator-oracle", "points": 7},
     "points: axis needs at least 8 points"),
    ("oscillator-oracle-t-final-below-one",
     {"scenario": "oscillator-oracle", "t_final": 0.5}, "t_final: must be >= 1"),
    ("spin-rabi-steps-zero",
     {"scenario": "spin", "rabi_steps": 0}, "rabi_steps: must be >= 1"),
    ("spin-b-transverse-zero",
     {"scenario": "spin", "b_transverse": 0}, "b_transverse: must be > 0"),
    ("scenario-not-a-string",
     {"scenario": []}, "scenario: unknown scenario []"),
    ("spin-dt-nan",
     {"scenario": "spin", "dt": math.nan}, "dt: expected a finite number"),
    ("flux-grid-count-zero",
     _case("flux", grid={"count": 0}),
     "cases[0].grid: axis needs at least 8 points"),
    ("equivariance-stride-zero",
     _case("equivariance", stride=0),
     "cases[0]: snapshot_stride must be positive"),
    ("flux-dt-ode-zero",
     _case("flux", dt_ode=0), "cases[0]: dt_ode must be positive"),
    ("collapse-dt-zero",
     {"scenario": "collapse", "dt": 0}, "config: dt must be positive"),
    ("classical-limit-hbar-zero",
     {"scenario": "classical-limit", "hbars": [0.3, 0.0]},
     "hbars[1]: hbar and masses must be positive"),
    ("classical-limit-displacement-off-grid",
     {"scenario": "classical-limit", "displacement": 9.0},
     "config: start 9.7"),
    ("flux-case-name-with-slash",
     _case("flux", name="a/b"), "cases[0].name: expected a match"),
    ("flux-two-packet-one-center",
     _case("flux", initial={"generator": "two-packet", "centers": [1.0]}),
     "cases[0]: two-packet needs one momentum and one weight per center"),
    ("flux-gaussian-center-far-off-grid",
     _case("flux", initial={"generator": "gaussian", "center": 1e6}),
     "cases[0]: cannot normalize a zero field"),
    ("povm-seed-negative",
     {"scenario": "povm", "seed": -1}, "seed: must be >= 0"),
    ("povm-out-dir-not-a-string",
     {"scenario": "povm", "out_dir": 5}, "out_dir: expected a string"),
    # every start would leave the grid at step 0, and t = 1 is no snapshot
    ("oscillator-oracle-no-snapshot-at-t-1",
     {"scenario": "oscillator-oracle", "points": 32, "t_final": 1e306,
      "dt": 1e306, "stride": 1, "dt_ode": 1e306},
     "config: the field check needs a snapshot at t = 1"),
    # the closed-form initial state is normalized only on a grid fine
    # enough to resolve it
    ("oscillator-oracle-points-eight-not-normalized",
     {"scenario": "oscillator-oracle", "points": 8},
     "config: initial state must be normalized"),
    ("spin-dt-overflows-kinetic-phase",
     {"scenario": "spin", "dt": 1e306},
     "config: the kinetic phase of a 1e+306 step contains NaN or Inf"),
    ("classical-limit-dt-overflows-kinetic-phase",
     {"scenario": "classical-limit", "t_final": 1e306, "dt": 1e306,
      "stride": 1, "dt_ode": 1e306},
     "config: the kinetic phase of a 1e+306 step contains NaN or Inf"),
    ("collapse-coupling-overflows-potential-phase",
     {"scenario": "collapse", "coupling": 1e308},
     "config: the potential phase of a 0.001 step contains NaN or Inf"),
    ("flux-dt-overflows-kinetic-phase",
     _case("flux", t_final=1e306, dt=1e306, stride=1, dt_ode=1e306),
     "cases[0]: the kinetic phase of a 1e+306 step contains NaN or Inf"),
    # a packet whose density underflows to 0 on every grid point, and a
    # momentum whose phase overflows: neither lets numpy warn first
    ("flux-two-packet-center-off-grid",
     _case("flux", grid={"lower": -16.0, "upper": 26.0, "count": 2048},
           initial={"generator": "two-packet", "centers": [-55, 17.5]}),
     "cases[0]: two-packet: the packet at -55 has no weight on the grid"),
    ("gaussian-momentum-overflow",
     _case("flux", initial={"generator": "gaussian", "momentum": 1e308}),
     "cases[0]: wave function contains NaN or Inf"),
    # weights whose norm, and a wave number whose phase, leave the float
    # range
    ("two-packet-weights-overflow",
     _case("flux", initial={"generator": "two-packet",
                            "weights": [1e308, 1e308]}),
     "cases[0]: two-packet: the weights overflow the norm of the field"),
    ("plane-wave-k-overflow",
     _case("flux", initial={"generator": "plane-wave", "k": 1e308}),
     "cases[0]: plane-wave: k = 1e+308 overflows the phase k x"),
    # q^2 of a harmonic potential leaves the float range on this grid
    ("harmonic-potential-overflow",
     _case("equivariance", potential={"kind": "harmonic", "omegas": [1.0]},
           grid={"lower": -10.0, "upper": 1.9e154, "count": 1024}),
     "cases[0]: the potential phase of a"),
]


@pytest.mark.parametrize("config,message", [row[1:] for row in PROBES],
                         ids=[row[0] for row in PROBES])
def test_probe_is_a_config_error(config, message, tmp_path, capsys):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


def test_probe_names_are_unique():
    names = [name for name, _, _ in PROBES]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("config", [
    {"scenario": "flux", "cases": []},
    {"scenario": "equivariance", "cases": []},
    {"scenario": "collapse", "weights": []},
], ids=["flux", "equivariance", "collapse"])
def test_run_without_checks_fails(config):
    assert validate_config(config) == []
    code, report = run_scenario(config)
    assert code == 1 and report["checks"] == [] and not report["passed"]


def test_oracle_fails_when_a_start_stops_early(monkeypatch):
    """A start deep in the tail is at a node of the density and stops at
    step 0. Its one-point path matches the closed form at t = 0, so the
    other checks pass, and the completion check fails the run."""
    monkeypatch.setattr(scenarios, "_ORACLE_STARTS",
                        scenarios._ORACLE_STARTS[:2] + [(7.0, 7.0)])
    code, report = run_scenario({
        "scenario": "oscillator-oracle", "points": 64, "t_final": 1.0,
        "dt": 1e-2, "stride": 1, "dt_ode": 1e-2})
    checks = {c["name"]: c for c in report["checks"]}
    done = checks.pop("all oracle trajectories completed")
    assert code == 1 and (done["value"], done["passed"]) == (2, False)
    assert all(c["passed"] for c in checks.values())


def test_spin_in_a_field_of_1e200_runs():
    """|B| is taken without squaring B, so the rotation stays finite."""
    code, report = run_scenario({"scenario": "spin", "b_transverse": 1e200,
                                 "decoupled_steps": 1, "rabi_steps": 100})
    assert code == 0, report["checks"]


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


@pytest.mark.parametrize("dt_ode", [16385.100000000002, 16385.1],
                         ids=["dt_ode-spacing", "dt_ode-t_final"])
def test_instants_within_the_time_tolerance_run(dt_ode, tmp_path):
    """163851 steps of 0.1 end at 16385.100000000002, a relative 2e-16 past
    t_final 16385.1, and dt_ode 16385.1 is not below the snapshot spacing.
    Both configs validate and run to a verdict."""
    config = {"scenario": "flux", "n": 4, "cases": [{
        "grid": {"lower": -12.0, "upper": 20.0, "count": 64},
        "t_final": 16385.1, "dt": 0.1, "stride": 163851, "dt_ode": dt_ode}]}
    assert validate_config(config) == []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) in (0, 1)


def test_flux_derives_each_surface_current_once(monkeypatch, tmp_path):
    """One surface current and one snapshot gradient per snapshot, also
    when the run writes the current's CSV file, which reads the values of
    the flux integral: the surface reads the gradients of the flow."""
    calls = []
    current, derive = flux.SurfaceCurrent.__call__, fields._spectral_derivative

    def counting_current(self, i, psi):
        calls.append("current")
        return current(self, i, psi)

    def counting_derivative(*args):
        calls.append("derivative")
        return derive(*args)

    monkeypatch.setattr(flux.SurfaceCurrent, "__call__", counting_current)
    monkeypatch.setattr(fields, "_spectral_derivative", counting_derivative)
    case = SMALL_FLUX["cases"][0]
    snapshots = round(case["t_final"] / (case["dt"] * case["stride"])) + 1
    for out_dir in (None, tmp_path):
        calls.clear()
        code, _ = run_scenario(SMALL_FLUX, out_dir=out_dir and str(out_dir))
        assert code in (0, 1)
        assert calls.count("current") == calls.count("derivative") == snapshots
    rows = (tmp_path / "flux_traversal_current.csv").read_text().split()
    assert len(rows) == 1 + snapshots


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
# Each config here would hold more grid fields, paths and ensemble arrays
# than the memory budget allows, or make more grid-point updates than the
# work budget allows, so none of them is ever run. A run streams its
# evolution, so only paths and members, not the snapshot count, take a
# scenario over the memory budget.

OVER_BUDGET = [
    # 10^7 RK4 steps of 20 stored paths
    ({"scenario": "oscillator-oracle", "points": 8, "dt": 2e-7, "stride": 1,
      "dt_ode": 2e-7},
     "config: points, t_final, dt and stride would store 3.20 GB"),
    ({"scenario": "equivariance", "n": 5 * 10**6},
     "config: n, bins and cases[0] would store 2.06 GB"),
    ({"scenario": "collapse", "n": 3 * 10**6},
     "config: n, t_meas and dt would store 2.23 GB"),
    ({"scenario": "flux", "n": 10**7}, "config: n and cases[0] would store"),
    ({"scenario": "flux", "n": 10**400}, "config: n and cases[0] would store"),
    # 6 x 10^8 RK4 steps of one stored path
    ({"scenario": "classical-limit", "points": 64, "dt": 1e-8, "stride": 1,
      "dt_ode": 1e-8},
     "config: points, t_final, dt and stride would store 4.80 GB"),
]

OVER_WORK = [
    ("spin", {"scenario": "spin", "rabi_steps": 10**12},
     "config: points, decoupled_steps and rabi_steps would make 3.79e+15 "
     "grid-point updates"),
    ("oscillator-oracle",
     {"scenario": "oscillator-oracle", "dt": 1e-6, "stride": 10000},
     "config: points, t_final, dt and dt_ode would make 1.31e+11"),
    ("collapse", {"scenario": "collapse", "weights": [0.5] * 50},
     "config: weights, n, t_meas, dt and dt_ode would make 2.96e+9"),
    ("flux", {"scenario": "flux", "cases": [{"dt": 1e-6, "stride": 5000}]},
     "config: n and the cases' grid.count, t_final, dt and dt_ode would "
     "make 6.28e+9"),
    ("equivariance",
     _case("equivariance", name="fine", dt=2e-7, stride=10000),
     "config: n and the cases' grid.count, t_final, dt and dt_ode would "
     "make 5.23e+9"),
    ("classical-limit", {"scenario": "classical-limit", "hbars": [1.0] * 100},
     "config: hbars, points, t_final, dt and dt_ode would make 4.86e+9"),
    # 1.6e9 grid-point updates on 8 points, but 2 x 10^8 RK4 steps, which
    # at about 0.34 ms each would run for some 19 hours
    ("flux-rk4-steps",
     {"scenario": "flux", "n": 2, "cases": [{
         "grid": {"lower": -12.0, "upper": 20.0, "count": 8},
         "t_final": 3.0, "dt": 1.5e-8, "stride": 1, "dt_ode": 1.5e-8}]},
     "config: n and the cases' grid.count, t_final, dt and dt_ode would "
     "make 4.01e+12"),
]


@pytest.mark.parametrize("config,message", OVER_BUDGET,
                         ids=[c["scenario"] for c, _ in OVER_BUDGET])
def test_over_memory_budget_is_a_config_error(config, message):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors


@pytest.mark.parametrize("config,message", [row[1:] for row in OVER_WORK],
                         ids=[row[0] for row in OVER_WORK])
def test_over_work_budget_is_a_config_error(config, message):
    errors = validate_config(config)
    assert any(e.startswith(message) for e in errors), errors


@pytest.mark.parametrize("config,message", [
    ({"scenario": "equivariance", "n": 10**9},
     "n, bins and cases[0] would store 412 GB"),
    ({"scenario": "collapse", "n": 10**9},
     "n, t_meas and dt would store 740 GB"),
    ({"scenario": "spin", "rabi_steps": 10**12},
     "points, decoupled_steps and rabi_steps would make"),
    # 1.8e9 updates, under the budget, if a step cost one update per grid
    # point; its Pauli steps would run for about a quarter of an hour
    ({"scenario": "spin", "rabi_steps": 7 * 10**6},
     "points, decoupled_steps and rabi_steps would make 2.65e+10"),
], ids=["equivariance", "collapse", "spin", "spin-rabi-steps"])
def test_cli_over_budget_exits_2(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: {message}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("config,message", [
    ({"scenario": "povm", "n_states": 10**12},
     "config: n_states would make 1.00e+16 grid-point updates"),
    ({"scenario": "equivariance", "bins": 10**12},
     "config: n, bins and cases[0] would store 1.92e+5 GB"),
], ids=["povm-n_states", "equivariance-bins"])
def test_unbounded_counts_are_config_errors(config, message, tmp_path,
                                            capsys):
    assert any(e.startswith(message) for e in validate_config(config))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err


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


@pytest.mark.parametrize("dimension,boundary,count,members", [
    (1, "periodic", 256, 2000), (1, "boxed", 4097, 100),
    (2, "periodic", 32, 2000), (2, "boxed", 65, 20)], ids=str)
def test_memory_model_bounds_a_traced_flow(dimension, boundary, count,
                                           members):
    """The flow's share of the memory model, ``flow_footprint``, its
    sampler's grid fields plus the bytes per member, bounds the traced peak
    growth of one flow and is at most twice it: on flows whose members
    dominate, and on boxed grids, whose difference stencil leaves the most
    derivative transients, where the grid does."""
    g = Grid.regular(-8.0, 8.0, count, boundary=boundary,
                     dimension=dimension)
    constants = PhysicalConstants.natural(dimension)
    psi = ScalarWaveFunction.from_callable(
        g, lambda *x: np.exp(-sum(c * c for c in x) / 2 + 1j * x[0]),
        normalize=True)
    method = SPLIT_FOURIER if boundary == "periodic" else CRANK_NICOLSON
    rec = evolve(psi, Free(), constants, 0.1, 0.01, method,
                 snapshot_stride=2)
    starts = np.random.default_rng(1).uniform(-2.0, 2.0,
                                              (members, dimension))
    integrate_flow(starts[:4], rec, constants)  # one-time setup
    tracemalloc.start()
    try:
        integrate_flow(starts, rec, constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model = flow_footprint(dimension, count**dimension, members)
    assert peak <= model <= 2 * peak


@pytest.mark.parametrize("dimension,count,ratio", [
    (1, 4096, 1), (1, 4096, 5), (2, 64, 1), (2, 64, 5)], ids=str)
def test_memory_model_bounds_a_traced_streamed_pass(dimension, count, ratio):
    """The memory model of a streamed run, its held fields (_STREAM_FIELDS)
    on the grid plus the flow's ``flow_footprint``, bounds the traced peak
    of one streamed split-Fourier pass from the evolution's set-up on, and
    is at most twice it, with dt_ode one and five snapshot spacings. The
    1-d pass carries the flux scenario's surface current and crossing
    counts."""
    g = Grid.regular(-8.0, 8.0, count, dimension=dimension)
    constants = PhysicalConstants.natural(dimension)
    psi = ScalarWaveFunction.from_callable(
        g, lambda *x: np.exp(-sum(c * c for c in x) / 2 + 1j * x[0]),
        normalize=True)
    members = 200
    starts = np.random.default_rng(1).uniform(-2.0, 2.0,
                                              (members, dimension))

    def streamed_pass():
        evolution = Evolution(psi, Free(), constants, 0.1, 0.01,
                              SPLIT_FOURIER)
        counter = (flux.CrossingCounter(members, 0.5) if dimension == 1
                   else None)
        flow = Flow(starts, evolution, constants, dt_ode=0.01 * ratio,
                    on_step=counter)
        observers = [flow]
        if dimension == 1:
            observers.append(flux.SurfaceCurrent(evolution, 0.5, flow))
        evolution.run(*observers)
        return flow.result()

    streamed_pass()  # one-time setup
    tracemalloc.start()
    try:
        streamed_pass()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    model = (16 * scenarios._STREAM_FIELDS * count**dimension
             + flow_footprint(dimension, count**dimension, members))
    assert peak <= model <= 2 * peak


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


class _ReadKeys(dict):
    """A parameter dict that records every key read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# a config of each scenario that runs in about a second
SMALL = {
    "oscillator-oracle": {"points": 32, "t_final": 1.0, "dt": 1e-2,
                          "stride": 1, "dt_ode": 1e-2},
    "equivariance": {"n": 50, "bins": 8, "cases": [{
        "name": "small", "grid": {"lower": -12.0, "upper": 12.0,
                                  "count": 128}, "t_final": 0.1}]},
    "collapse": {"weights": [0.5], "n": 50, "t_meas": 0.1, "dt": 1e-2,
                 "dt_ode": 0.1},
    "flux": SMALL_FLUX,
    "povm": {"n_states": 2},
    "classical-limit": {"hbars": [1.0, 0.3], "points": 256, "t_final": 0.1},
    "spin": {"points": 64, "decoupled_steps": 2, "rabi_steps": 10},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_runner_reads_every_parameter(name):
    """A parameter the runner never reads would be echoed into the report
    without acting on the run. A seed override reaches only the scenarios
    that have a seed."""
    _, params = parse_config({**SMALL[name], "scenario": name})
    recorded = _ReadKeys(params)
    SCENARIOS[name].runner(recorded)
    assert recorded.read == set(params)
    _, overridden = parse_config({**SMALL[name], "scenario": name},
                                 seed_override=5)
    assert overridden == ({**params, "seed": 5} if "seed" in params
                          else params)


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


# Small configs of every scenario, most of them legal: the tables' smallest
# grids and spans of a few steps, so that each runs in well under a second.
_SPAN, _DT = st.sampled_from([0.2, 0.4]), st.sampled_from([0.05, 0.1])
_STRIDE, _DT_ODE = st.sampled_from([1, 2]), st.sampled_from([0.1, 0.2])
_COUNT = st.sampled_from([8, 16, 64])
_INITIAL = st.sampled_from([{"generator": g} for g in (
    "gaussian", "coherent", "plane-wave", "two-packet")])
_GRID_1D = st.fixed_dictionaries({"lower": st.just(-12.0),
                                  "upper": st.just(12.0), "count": _COUNT})
_CASE = {"grid": _GRID_1D, "initial": _INITIAL, "t_final": _SPAN, "dt": _DT,
         "stride": _STRIDE, "dt_ode": _DT_ODE}
_SEED = st.integers(0, 100)


def _small(name, **keys):
    return st.fixed_dictionaries({"scenario": st.just(name), **keys})


SMALL_CONFIGS = st.one_of(
    _small("oscillator-oracle", points=st.sampled_from([8, 32]),
           t_final=st.just(1.0), dt=st.sampled_from([0.1, 0.25]),
           stride=_STRIDE, dt_ode=st.sampled_from([0.25, 0.5])),
    _small("equivariance", n=st.integers(1, 20), bins=st.integers(1, 8),
           seed=_SEED, cases=st.lists(st.fixed_dictionaries({
               **_CASE, "potential": st.sampled_from([
                   {"kind": "free"}, {"kind": "harmonic", "omegas": [1.0]}])}),
               max_size=2)),
    _small("collapse", weights=st.lists(st.floats(0.0, 1.0), max_size=2),
           n=st.integers(1, 20), seed=_SEED,
           coupling=st.sampled_from([0.0, 40.0]),
           t_meas=st.sampled_from([0.1, 0.2]), dt=st.just(0.01),
           dt_ode=st.sampled_from([0.1, 0.2])),
    _small("flux", n=st.integers(2, 20), seed=_SEED,
           cases=st.lists(st.fixed_dictionaries({
               **_CASE, "surface": st.sampled_from([0.0, 1.0])}),
               max_size=2)),
    _small("povm", seed=_SEED, n_states=st.integers(-1, 3)),
    _small("classical-limit",
           hbars=st.lists(st.sampled_from([1.0, 0.3, 0.1]), max_size=3),
           omega=st.sampled_from([0.5, 1.0]),
           displacement=st.sampled_from([0.0, 1.0]), points=_COUNT,
           t_final=_SPAN, dt=_DT, stride=_STRIDE, dt_ode=_DT_ODE),
    _small("spin", points=_COUNT, dt=st.sampled_from([1e-3, 0.1]),
           decoupled_steps=st.integers(1, 3),
           b_transverse=st.sampled_from([0.5, 1.0]),
           rabi_steps=st.integers(1, 10)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SMALL_CONFIGS)
# the closed-form oracle state is not normalized on these grids
@example({"scenario": "oscillator-oracle", "points": 8})
@example({"scenario": "oscillator-oracle", "points": 16})
def test_validated_config_runs(config):
    """A config that validates runs to a verdict, exit 0 or 1, and never
    raises."""
    if not validate_config(config):
        code, _ = run_scenario(config)
        assert code in (0, 1)
