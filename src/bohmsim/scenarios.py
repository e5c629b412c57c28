"""Named, reproducible experiments tying the modules together. Each scenario
takes a JSON-able parameter dict, writes a JSON report plus plot-ready CSVs,
and returns the report; a scenario passes when every check in it passes."""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analytic, povm as povm_mod
from .equilibrium import collapse_experiment, equivariance_check, sample_density
from .fields import ScalarWaveFunction, SpinorWaveFunction, norm
from .flux import (CrossingSurface, _current_at_surface, expected_crossings,
                   per_member_counts)
from .grids import Grid, PhysicalConstants
from .guidance import integrate_flow, integrate_trajectory, step_spinor_pauli
from .kernels import BACKEND
from .potentials import CoupledOscillator, Free, Harmonic, from_description
from .propagate import SPLIT_FOURIER, evolve


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# --- initial-state generators ----------------------------------------------------

GENERATORS = ("gaussian", "coherent", "plane-wave", "two-packet",
              "product-gaussian-2d")


def make_initial(grid, constants, spec):
    """Build a normalized initial state from a named generator spec."""
    kind = spec["generator"]
    if kind == "gaussian":
        c = spec.get("center", 0.0)
        w = spec.get("width", 1.0)
        k = spec.get("momentum", 0.0)
        fn = lambda x: np.exp(-((x - c) ** 2) / (4.0 * w * w) + 1j * k * x)
    elif kind == "coherent":
        d = spec.get("displacement", 1.0)
        omega = spec.get("omega", 1.0)
        alpha = constants.masses[0] * omega / (2.0 * constants.hbar)
        fn = lambda x: np.exp(-alpha * (x - d) ** 2)
    elif kind == "plane-wave":
        ax = grid.axes[0]
        k = 2.0 * np.pi * round(spec.get("k", 1.0) * ax.length / (2.0 * np.pi)) / ax.length
        fn = lambda x: np.exp(1j * k * x)
    elif kind == "two-packet":
        cs = spec.get("centers", [-5.0, 5.0])
        w = spec.get("width", 1.0)
        ks = spec.get("momenta", [1.0, -1.0])
        wts = spec.get("weights", [0.5, 0.5])
        def fn(x):
            out = np.zeros_like(x, dtype=np.complex128)
            for c, k, p in zip(cs, ks, wts):
                packet = np.exp(-((x - c) ** 2) / (4.0 * w * w) + 1j * k * x)
                pnorm = np.sqrt(np.sum(
                    grid.quadrature_weights() * np.abs(packet) ** 2))
                out += math.sqrt(p) * packet / pnorm
            return out
    elif kind == "product-gaussian-2d":
        fn = lambda x, y: np.exp(-0.5 * (x * x + y * y))
    else:
        raise ConfigError([f"initial.generator: unknown generator {kind!r}"])
    return ScalarWaveFunction.from_callable(grid, fn, normalize=True)


def _check(name, value, passed, threshold=None, **extra):
    entry = {"name": name, "value": value, "passed": bool(passed)}
    if threshold is not None:
        entry["threshold"] = threshold
    entry.update(extra)
    return entry


def _write_csv(out_dir, name, header, rows):
    if out_dir is None:
        return
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- scenario: oscillator-oracle --------------------------------------------------


def run_oscillator_oracle(params, out_dir=None):
    grid = Grid.regular(-8.0, 8.0, params["points"], dimension=2)
    constants = PhysicalConstants.natural(dimension=2)
    psi0 = ScalarWaveFunction.from_callable(
        grid, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    record = evolve(psi0, CoupledOscillator(analytic.COUPLING), constants,
                    params["t_final"], params["dt"], SPLIT_FOURIER,
                    snapshot_stride=params["stride"])
    # field comparison at t = 1
    i1 = int(round(1.0 / record.dt))
    xg, yg = grid.meshgrid()
    exact = analytic.coupled_oscillator_wavefunction(xg, yg, record.times[i1])
    psi_err = float(np.max(np.abs(record.snapshots[i1].amplitudes - exact)))
    drift = abs(norm(record.snapshots[-1]) - 1.0)

    radii = (0.3, 0.7, 1.1, 1.5)
    angles = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False) + 0.37
    starts = [(r * math.cos(a) + 0.1, r * math.sin(a) - 0.05)
              for r in radii for a in angles]
    flow = integrate_flow(starts, record, constants, dt_ode=params["dt_ode"],
                          store_path=True)
    traj_err = 0.0
    first_rows = []
    for idx, q0 in enumerate(starts):
        traj = flow.trajectory(idx)
        xe, ye = analytic.coupled_oscillator_trajectory(q0[0], q0[1],
                                                        traj.times)
        err = float(np.max(np.abs(traj.points[:, 0] - xe))
                    + np.max(np.abs(traj.points[:, 1] - ye)))
        traj_err = max(traj_err, err)
        if idx == 0:
            first_rows = list(zip(traj.times, traj.points[:, 0],
                                  traj.points[:, 1], xe, ye))
    _write_csv(out_dir, "oscillator_trajectory.csv",
               "t,x_num,y_num,x_exact,y_exact", first_rows)
    checks = [
        _check("field matches closed form at t=1 (max norm)", psi_err, psi_err < 1e-3,
               threshold=1e-3),
        _check("trajectories match closed form to t=2", traj_err,
               traj_err < 1e-3, threshold=1e-3, n_starts=len(starts)),
        _check("norm drift at t_final", drift, drift < 1e-9, threshold=1e-9),
    ]
    return {"checks": checks, "passed": all(c["passed"] for c in checks),
            "n_trajectories": len(starts)}


# --- scenario: equivariance --------------------------------------------------------


def _equivariance_case(case, n, bins, seed):
    grid = Grid.regular(case["grid"]["lower"], case["grid"]["upper"],
                        case["grid"]["count"], dimension=1)
    constants = PhysicalConstants.natural(dimension=1)
    potential = from_description(case["potential"])
    psi0 = make_initial(grid, constants, case["initial"])
    record = evolve(psi0, potential, constants, case["t_final"], case["dt"],
                    SPLIT_FOURIER, snapshot_stride=case["stride"])
    out = equivariance_check(psi0, record, constants, n, seed, bins=bins,
                             dt_ode=case["dt_ode"])
    out["name"] = case["name"]
    return out, record


def run_equivariance(params, out_dir=None):
    checks = []
    results = []
    for j, case in enumerate(params["cases"]):
        out, record = _equivariance_case(case, params["n"], params["bins"],
                                         params["seed"] + 101 * j)
        results.append(out)
        checks.append(_check(f"{case['name']}: L1(empirical, |psi_t|^2) < 0.05",
                             out["l1"], out["l1"] < 0.05, threshold=0.05))
        checks.append(_check(
            f"{case['name']}: two-sample KS vs fresh equilibrium draw (1% level)",
            out["ks_two_sample_pvalue"], out["ks_two_sample_pvalue"] > 0.01,
            threshold=0.01))
        frac = out["hit_node"] / params["n"]
        checks.append(_check(f"{case['name']}: node-hit fraction < 1e-3",
                             frac, frac < 1e-3, threshold=1e-3))
        if out_dir is not None:
            psi_t = record.snapshots[-1]
            from .equilibrium import _bin_masses
            edges, expected = _bin_masses(psi_t, params["bins"])
            _write_csv(out_dir, f"equivariance_{case['name']}_bins.csv",
                       "bin_left,bin_right,expected_mass",
                       list(zip(edges[0][:-1], edges[0][1:], expected)))
    return {"cases": results, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# --- scenario: collapse -------------------------------------------------------------


def run_collapse(params, out_dir=None):
    runs = []
    checks = []
    for j, p1 in enumerate(params["weights"]):
        rep = collapse_experiment(math.sqrt(p1), math.sqrt(1.0 - p1),
                                  n_members=params["n"],
                                  seed=params["seed"] + 13 * j,
                                  coupling=params["coupling"],
                                  t_meas=params["t_meas"], dt=params["dt"],
                                  dt_ode=params["dt_ode"])
        runs.append(rep)
        for c in rep["checks"]:
            checks.append({**c, "name": f"p={p1}: {c['name']}"})
    return {"experiments": runs, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# --- scenario: flux -----------------------------------------------------------------


def _flux_case(case, n, seed):
    grid = Grid.regular(case["grid"]["lower"], case["grid"]["upper"],
                        case["grid"]["count"], dimension=1)
    constants = PhysicalConstants.natural(dimension=1)
    psi0 = make_initial(grid, constants, case["initial"])
    record = evolve(psi0, Free(), constants, case["t_final"], case["dt"],
                    SPLIT_FOURIER, snapshot_stride=case["stride"])
    surface = CrossingSurface(case["surface"], 0.0, case["t_final"])
    exp_total, exp_signed = expected_crossings(record, constants, surface)
    ens = sample_density(psi0, n, seed)
    flow = integrate_flow(ens.members, record, constants,
                          dt_ode=case["dt_ode"], store_path=True)
    counts = per_member_counts(flow, surface)
    emp_total, emp_signed = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / math.sqrt(counts.shape[0])
    result = {
        "name": case["name"],
        "expected_total": exp_total,
        "expected_signed": exp_signed,
        "empirical_total": float(emp_total),
        "empirical_signed": float(emp_signed),
        "se_total": float(se[0]),
        "se_signed": float(se[1]),
        "n_members": int(counts.shape[0]),
        "hit_node": int(np.sum(flow.statuses == 1)),
        "left_grid": int(np.sum(flow.statuses == 2)),
    }
    trace = _current_at_surface(record, constants, surface)
    return result, trace


def run_flux(params, out_dir=None):
    checks = []
    results = []
    for j, case in enumerate(params["cases"]):
        res, trace = _flux_case(case, params["n"], params["seed"] + 29 * j)
        results.append(res)
        for kind in ("total", "signed"):
            gap = abs(res[f"empirical_{kind}"] - res[f"expected_{kind}"])
            tol = 4.0 * max(res[f"se_{kind}"], 1.25e-4)
            checks.append(_check(
                f"{case['name']}: {kind} crossings match flux integral (4 SE)",
                gap, gap <= tol, threshold=tol))
        for name, target, tol in case.get("asserts", []):
            val = res[name]
            checks.append(_check(f"{case['name']}: {name} == {target} +- {tol}",
                                 val, abs(val - target) <= tol, threshold=tol))
        _write_csv(out_dir, f"flux_{case['name']}_current.csv",
                   "t,normal_current", list(zip(*trace)))
    return {"cases": results, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# --- scenario: povm ------------------------------------------------------------------


def run_povm(params, out_dir=None):
    rng = np.random.default_rng(params["seed"])
    checks = []
    zoo = povm_mod.model_zoo()
    stats_worst = 0.0
    for name, model in zoo.items():
        measure = povm_mod.povm_from_experiment(model)
        worst = 0.0
        for _ in range(params["n_states"]):
            psi = rng.normal(size=model.n) + 1j * rng.normal(size=model.n)
            psi /= np.linalg.norm(psi)
            mu = povm_mod.outcome_distribution(model, psi)
            for lab, op in measure.entries:
                lhs = mu[lab]
                rhs = float(np.real(np.vdot(psi, op @ psi)))
                worst = max(worst, abs(lhs - rhs))
        stats_worst = max(stats_worst, worst)
        # a worst gap over no states is no evidence
        checks.append(_check(f"{name}: |mu - <psi,O psi>| < 1e-10", worst,
                             params["n_states"] > 0 and worst < 1e-10,
                             threshold=1e-10))
        # reproducibility <-> projection valued
        agree = min(
            povm_mod.repeat_agreement_probability(
                model, _random_state(rng, model.n))
            for _ in range(20))
        pv = povm_mod.is_projection_valued(measure)
        checks.append(_check(f"{name}: repeat-reproducible iff PV",
                             {"min_agreement": agree, "pv": pv},
                             (agree > 1.0 - 1e-9) == pv))
    cf = povm_mod.povm_from_experiment(zoo["controlled-flip"])
    a = povm_mod.operator_from_pv(cf, {"0": 1.0, "1": -1.0})
    a_err = float(np.max(np.abs(a - np.diag([1.0, -1.0]))))
    checks.append(_check("controlled-flip operator is diag(+1,-1)", a_err,
                         a_err < 1e-10, threshold=1e-10))
    coin = povm_mod.povm_from_experiment(zoo["coin-flip"])
    checks.append(_check("coin-flip POVM is not projection valued",
                         povm_mod.is_projection_valued(coin),
                         not povm_mod.is_projection_valued(coin)))
    if out_dir is not None:
        with open(os.path.join(out_dir, "povm_controlled_flip.json"), "w") as fh:
            json.dump(povm_mod.povm_to_json(cf), fh, indent=2, sort_keys=True)
    return {"models": sorted(zoo), "worst_statistics_gap": stats_worst,
            "checks": checks, "passed": all(c["passed"] for c in checks)}


def _random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


# --- scenario: classical-limit --------------------------------------------------------


def run_classical_limit(params, out_dir=None):
    omega, displacement = params["omega"], params["displacement"]
    deviations = []
    for hbar in params["hbars"]:
        constants = PhysicalConstants(hbar=hbar, masses=(1.0,))
        grid = Grid.regular(-6.0, 6.0, params["points"], dimension=1)
        psi0 = make_initial(grid, constants,
                            {"generator": "coherent",
                             "displacement": displacement, "omega": omega})
        record = evolve(psi0, Harmonic((omega,)), constants,
                        params["t_final"], params["dt"], SPLIT_FOURIER,
                        snapshot_stride=params["stride"])
        width = math.sqrt(hbar / (2.0 * omega))  # packet position sd
        x0 = displacement + width
        traj = integrate_trajectory((x0,), record, constants,
                                    dt_ode=params["dt_ode"])
        classical = x0 * np.cos(omega * traj.times)
        dev = float(np.max(np.abs(traj.points[:, 0] - classical)))
        deviations.append({"hbar": hbar, "max_deviation": dev,
                           "start_offset": width, "status": traj.status})
    devs = [d["max_deviation"] for d in deviations]
    # fewer than two hbar values leave no pair to compare
    monotone = len(devs) >= 2 and all(a > b for a, b in zip(devs, devs[1:]))
    checks = [
        _check("trajectory deviation from the classical solution decreases "
               "monotonically with hbar", devs, monotone),
        _check("all sweep trajectories completed",
               [d["status"] for d in deviations],
               bool(deviations)
               and all(d["status"] == "Completed" for d in deviations)),
    ]
    _write_csv(out_dir, "classical_limit.csv", "hbar,max_deviation",
               [(d["hbar"], d["max_deviation"]) for d in deviations])
    return {"sweep": deviations, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# --- scenario: spin --------------------------------------------------------------------


def run_spin(params, out_dir=None):
    from .propagate import step as scalar_step

    grid = Grid.regular(-8.0, 8.0, params["points"], dimension=1)
    constants = PhysicalConstants.natural(dimension=1)
    x = grid.coordinates(0)
    packet = np.exp(-0.25 * x * x)
    wq = grid.quadrature_weights()
    packet = packet / np.sqrt(np.sum(wq * np.abs(packet) ** 2))

    # (a) zero field: components evolve as independent scalars
    spinor = SpinorWaveFunction(grid, 0.8 * packet,
                                (0.36 + 0.48j) * packet).normalize()
    up_ref = ScalarWaveFunction(grid, spinor.up)
    down_ref = ScalarWaveFunction(grid, spinor.down)
    dt = params["dt"]
    cur = spinor
    for _ in range(params["decoupled_steps"]):
        cur = step_spinor_pauli(cur, (0.0, 0.0, 0.0), Free(), constants, dt)
        up_ref = scalar_step(up_ref, Free(), constants, dt, SPLIT_FOURIER)
        down_ref = scalar_step(down_ref, Free(), constants, dt, SPLIT_FOURIER)
    decouple_err = float(max(np.max(np.abs(cur.up - up_ref.amplitudes)),
                             np.max(np.abs(cur.down - down_ref.amplitudes))))

    # (b) transverse field: population transfer vs the exact 2x2 rotation
    bx = params["b_transverse"]
    period = 2.0 * np.pi * constants.hbar / (2.0 * bx)
    n_steps = params["rabi_steps"]
    dt_rabi = period / n_steps
    cur = SpinorWaveFunction(grid, packet.astype(np.complex128),
                             np.zeros_like(packet, dtype=np.complex128))
    worst_pop = 0.0
    for j in range(n_steps):
        cur = step_spinor_pauli(cur, (bx, 0.0, 0.0), Free(), constants,
                                dt_rabi)
        t = (j + 1) * dt_rabi
        p_up = float(np.sum(wq * np.abs(cur.up) ** 2))
        exact = math.cos(bx * t / constants.hbar) ** 2
        worst_pop = max(worst_pop, abs(p_up - exact))
    end_pop = float(np.sum(wq * np.abs(cur.up) ** 2))

    # (c) real spinor guides nowhere
    from .guidance import spinor_velocity
    real_spinor = SpinorWaveFunction(grid, packet * 0.8, packet * 0.6)
    v0 = spinor_velocity(real_spinor, (0.31,), constants)[0]

    checks = [
        _check("zero-field spinor evolution matches scalar evolution",
               decouple_err, decouple_err < 1e-12, threshold=1e-12),
        _check("transverse-field population oscillation matches the exact "
               "two-level rotation over one period", worst_pop,
               worst_pop < 1e-4, threshold=1e-4),
        _check("population returns after one period", abs(end_pop - 1.0),
               abs(end_pop - 1.0) < 1e-4, threshold=1e-4),
        _check("real spinor has zero guidance velocity", abs(v0),
               abs(v0) < 1e-9, threshold=1e-9),
    ]
    return {"rabi_period": period, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


# --- registry and driver -----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: dict
    runner: object


SCENARIOS = {}


def _register(name, description, defaults, runner):
    SCENARIOS[name] = Scenario(name, description, defaults, runner)


_register(
    "oscillator-oracle",
    "2-d coupled-Gaussian evolution and trajectories vs the closed form",
    {"points": 256, "t_final": 2.0, "dt": 1e-3, "stride": 10, "dt_ode": 1e-2,
     "seed": 1},
    run_oscillator_oracle,
)

_register(
    "equivariance",
    "transported |psi0|^2 samples stay |psi_t|^2-distributed (L1 + KS)",
    {
        "n": 10000, "bins": 50, "seed": 2024,
        "cases": [
            {"name": "free-gaussian",
             "grid": {"lower": -12.0, "upper": 12.0, "count": 1024},
             "potential": {"kind": "free"},
             "initial": {"generator": "gaussian", "center": 0.0, "width": 1.0,
                         "momentum": 0.0},
             "t_final": 1.0, "dt": 1e-3, "stride": 2, "dt_ode": 2e-3},
            {"name": "harmonic-coherent",
             "grid": {"lower": -10.0, "upper": 10.0, "count": 1024},
             "potential": {"kind": "harmonic", "omegas": [1.0]},
             "initial": {"generator": "coherent", "displacement": 1.0,
                         "omega": 1.0},
             "t_final": 1.0, "dt": 1e-3, "stride": 2, "dt_ode": 2e-3},
        ],
    },
    run_equivariance,
)

_register(
    "collapse",
    "two-outcome pointer measurement: branch weights and effective states",
    {"weights": [0.5, 0.8], "n": 4000, "seed": 7, "coupling": 40.0,
     "t_meas": 1.0, "dt": 1e-3, "dt_ode": 1e-2},
    run_collapse,
)

_register(
    "flux",
    "trajectory crossing counts vs the time-integrated current",
    {
        "n": 10000, "seed": 99,
        "cases": [
            {"name": "traversal",
             "grid": {"lower": -12.0, "upper": 20.0, "count": 2048},
             "initial": {"generator": "gaussian", "center": -3.0,
                         "width": 1.0, "momentum": 4.0},
             "surface": 0.0, "t_final": 3.0, "dt": 1e-3, "stride": 5,
             "dt_ode": 5e-3,
             "asserts": [["empirical_total", 1.0, 0.02],
                         ["empirical_signed", 1.0, 0.02]]},
            {"name": "counter-streams",
             "grid": {"lower": -16.0, "upper": 26.0, "count": 2048},
             "initial": {"generator": "two-packet",
                         "centers": [-7.5, 17.5], "width": 1.0,
                         "momenta": [5.0, -5.0], "weights": [0.5, 0.5]},
             "surface": 0.0, "t_final": 5.0, "dt": 1e-3, "stride": 5,
             "dt_ode": 5e-3,
             "asserts": [["empirical_total", 1.0, 0.05],
                         ["empirical_signed", 0.0, 0.02]]},
            {"name": "downstream",
             "grid": {"lower": -10.0, "upper": 14.0, "count": 1024},
             "initial": {"generator": "gaussian", "center": 0.0,
                         "width": 1.0, "momentum": 1.0},
             "surface": 1.0, "t_final": 2.0, "dt": 1e-3, "stride": 5,
             "dt_ode": 5e-3, "asserts": []},
        ],
    },
    run_flux,
)

_register(
    "povm",
    "statistics identity, completeness/positivity, PV classification on the zoo",
    {"seed": 5, "n_states": 100},
    run_povm,
)

_register(
    "classical-limit",
    "harmonic coherent packet: trajectory vs classical motion as hbar shrinks",
    {"hbars": [1.0, 0.3, 0.1, 0.03], "omega": 1.0, "displacement": 1.0,
     "points": 2048, "t_final": 6.0, "dt": 5e-4, "stride": 10,
     "dt_ode": 5e-3, "seed": 3},
    run_classical_limit,
)

_register(
    "spin",
    "two-component checks: decoupling at B=0, transverse-field oscillation",
    {"points": 256, "dt": 1e-3, "decoupled_steps": 200,
     "b_transverse": 1.0, "rabi_steps": 4000, "seed": 4},
    run_spin,
)


def list_scenarios():
    """(name, one-line description) pairs, sorted by name."""
    return [(s.name, s.description) for _, s in sorted(SCENARIOS.items())]


def _merge(defaults, override, path, errors):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            errors.append(f"{path or 'config'}: expected an object")
            return defaults
        out = {}
        for key, dval in defaults.items():
            if key in override:
                out[key] = _merge(dval, override[key], f"{path}.{key}" if path
                                  else key, errors)
            else:
                out[key] = dval
        for key in override:
            if key not in defaults:
                errors.append(f"{path + '.' if path else ''}{key}: unknown key")
        return out
    if isinstance(defaults, list) and defaults and isinstance(defaults[0], dict):
        if not isinstance(override, list):
            errors.append(f"{path}: expected a list")
            return defaults
        return [_merge(defaults[0], item, f"{path}[{i}]", errors)
                for i, item in enumerate(override)]
    if isinstance(defaults, bool) and not isinstance(override, bool):
        errors.append(f"{path}: expected a boolean")
        return defaults
    if isinstance(defaults, (int, float)) and not isinstance(override, bool) \
            and isinstance(override, (int, float)):
        # integer defaults are counts, sizes and seeds, and range() and
        # array shapes reject a float
        if isinstance(defaults, int) and not isinstance(override, int):
            errors.append(f"{path}: expected an integer")
            return defaults
        return override
    if isinstance(defaults, (int, float)):
        errors.append(f"{path}: expected a number")
        return defaults
    if isinstance(defaults, str) and not isinstance(override, str):
        errors.append(f"{path}: expected a string")
        return defaults
    return override


def _semantic_errors(name, params):
    errors = []

    def walk(node, path):
        if isinstance(node, dict):
            gen = node.get("generator")
            if gen is not None and gen not in GENERATORS:
                errors.append(f"{path + '.' if path else ''}generator: "
                              f"unknown generator {gen!r}")
            kind = node.get("kind")
            if kind is not None and kind not in ("free", "harmonic",
                                                 "coupled-oscillator",
                                                 "soft-coulomb"):
                errors.append(f"{path + '.' if path else ''}kind: "
                              f"unknown potential {kind!r}")
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(params, "")
    return errors


def validate_config(config):
    """Structural + semantic validation; returns a list of error strings."""
    errors = []
    if not isinstance(config, dict):
        return ["config: expected a JSON object"]
    name = config.get("scenario")
    if name is None:
        return ["scenario: missing"]
    if name not in SCENARIOS:
        return [f"scenario: unknown scenario {name!r}"]
    override = {k: v for k, v in config.items()
                if k not in ("scenario", "out_dir")}
    merged = _merge(SCENARIOS[name].defaults, override, "", errors)
    errors.extend(_semantic_errors(name, merged))
    return errors


def run_scenario(config, out_dir=None, threads=1, seed_override=None):
    """Validate, execute, and persist one scenario run.

    Returns (exit_code, report): 0 pass, 1 failed assertion, 2 config error.
    ``threads`` is accepted for compatibility and has no effect: every
    scenario runs on one thread, so reports never depend on it.
    """
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    name = config["scenario"]
    override = {k: v for k, v in config.items()
                if k not in ("scenario", "out_dir")}
    params = _merge(SCENARIOS[name].defaults, override, "", [])
    if seed_override is not None:
        params["seed"] = int(seed_override)
    out_dir = out_dir or config.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    body = SCENARIOS[name].runner(params, out_dir=out_dir)
    report = {
        "scenario": name,
        "parameters": params,
        "kernel_backend": BACKEND,
        **body,
    }
    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return (0 if report["passed"] else 1), report
