"""The benchmark's workloads: what each one runs and how its outputs are checked.

Each workload has two phases. ``prepare(seed)`` is set-up: it builds and
validates the inputs from the seed. ``run(inputs)`` is the timed part: it
calls into bohmsim and returns an ``Outcome`` whose checks have already been
evaluated. Three workloads are trimmed configurations of CLI scenarios and go
through ``scenarios.run_scenario``; ``cn-boxed`` is a driver of its own,
because no scenario reaches the Crank-Nicolson propagator.

The seed reaches bohmsim only as generated input: the scenario seed (which
seeds |psi|^2 sampling) or the sampling seed of ``cn-boxed``.
"""

import math
from dataclasses import dataclass

import numpy as np

from bohmsim import scenarios
from bohmsim.equilibrium import sample_density
from bohmsim.fields import ScalarWaveFunction, norm
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import integrate_flow
from bohmsim.potentials import Harmonic
from bohmsim.propagate import CRANK_NICOLSON, evolve


@dataclass
class Outcome:
    """Checks of one workload run plus its trajectory tally.

    Each check is a dict with ``name``, ``value``, ``passed`` and, when it
    has a numeric tolerance, ``threshold``. ``statistical`` marks checks
    whose value is a Monte Carlo draw that moves with the seed; they count
    as pass/fail but stay out of ``worst_check_ratio``. ``members`` is None
    when the program's report does not say how many trajectories halted.
    """

    checks: list
    members: int = None
    halted: int = None


@dataclass(frozen=True)
class ScenarioWorkload:
    """A CLI scenario with trimmed parameters, run as the CLI runs it.

    ``warmup`` marks a workload whose first execution in a process runs
    measurably slower than the rest, so that execution is checked but not
    timed.
    """

    name: str
    config: dict
    tiny: dict
    threads: int = 1
    warmup: bool = False

    def prepare(self, seed, tiny=False):
        config = {**self.config, **(self.tiny if tiny else {})}
        errors = scenarios.validate_config(config)
        if errors:
            raise ValueError(f"{self.name}: invalid config: {errors}")
        return config, seed

    def run(self, inputs):
        config, seed = inputs
        code, report = scenarios.run_scenario(config, threads=self.threads,
                                              seed_override=seed)
        checks = [dict(c) for c in report["checks"]]
        checks.append({"name": "scenario exit code is 0", "value": code,
                       "passed": code == 0})
        return _OUTCOME[report["scenario"]](report, checks, config)


def _phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def free_gaussian_flux(case):
    """Closed-form integral of |j| over the surface from t = 0 to
    ``t_final`` for a free Gaussian packet (hbar = m = 1).

    |psi|^2 is a normal density with mean x0 + k t and standard deviation
    w sqrt(1 + (t / 2 w^2)^2). While j >= 0 on the surface, which holds for
    the packets used here, the integral is the probability that has moved
    past the surface: P(x > s, t_final) - P(x > s, 0).
    """
    init, s, t = case["initial"], case["surface"], case["t_final"]
    x0, w, k = init["center"], init["width"], init["momentum"]
    sigma_t = w * math.sqrt(1.0 + (t / (2.0 * w * w)) ** 2)
    return _phi((x0 + k * t - s) / sigma_t) - _phi((x0 - s) / w)


def _flux_outcome(report, checks, config):
    for c in checks[:-1]:
        c["statistical"] = True
    members = halted = 0
    for case, spec in zip(report["cases"], config["cases"]):
        members += case["n_members"]
        halted += case["hit_node"] + case["left_grid"]
        # The flux integral does not depend on the seed. Its error against
        # the closed form is the trapezoid error over the snapshots, about
        # 5e-6 at the snapshot spacing of 0.01 used here.
        gap = abs(case["expected_total"] - free_gaussian_flux(spec))
        checks.append({"name": f"{case['name']}: flux integral matches the "
                       "free-packet closed form within 1e-5", "value": gap,
                       "threshold": 1e-5, "passed": gap <= 1e-5})
    return Outcome(checks, members, halted)


def _oracle_outcome(report, checks, config):
    return Outcome(checks)


def _collapse_outcome(report, checks, config):
    for c in checks:
        c["statistical"] = "band" in c
    members = halted = 0
    for exp in report["experiments"]:
        members += exp["parameters"]["n_members"]
        halted += exp["counts"]["hit_node"] + exp["counts"]["left_grid"]
    return Outcome(checks, members, halted)


_OUTCOME = {"flux": _flux_outcome, "oscillator-oracle": _oracle_outcome,
            "collapse": _collapse_outcome}


@dataclass(frozen=True)
class CnBoxedWorkload:
    """Crank-Nicolson on boxed grids, then |psi|^2 members flowed through the
    1-d record.

    1-d: a harmonic coherent packet displaced by ``d`` (the set-up of
    acceptance criterion 3). Its velocity field -d sin t is uniform, so every
    member ends at x0 + d (cos t - 1). 2-d: one ADI evolution of a displaced
    product Gaussian in an isotropic harmonic well.

    The members are ``reference`` fixed starts at evenly spaced quantiles of
    |psi0|^2 plus members sampled from the seed. The largest end-point error
    of a random sample is set by its most extreme member and moves with the
    seed, so only the fixed starts give the accuracy figure.
    """

    name: str
    params: dict
    tiny: dict
    warmup: bool = False

    def prepare(self, seed, tiny=False):
        p = {**self.params, **(self.tiny if tiny else {})}
        c1 = PhysicalConstants.natural(dimension=1)
        c2 = PhysicalConstants.natural(dimension=2)
        g1 = Grid.regular(-12.0, 12.0, p["count_1d"], boundary="boxed")
        g2 = Grid.regular(-8.0, 8.0, p["count_2d"], boundary="boxed",
                          dimension=2)
        psi1 = scenarios.make_initial(g1, c1, {
            "generator": "coherent", "displacement": p["displacement"],
            "omega": 1.0})
        psi2 = ScalarWaveFunction.from_callable(
            g2, lambda x, y: np.exp(-((x - 1.0) ** 2 + (y + 0.5) ** 2) / 2.0),
            normalize=True)
        cdf = np.cumsum(np.abs(psi1.amplitudes) ** 2)
        quantiles = (np.arange(p["reference"]) + 0.5) / p["reference"]
        reference = np.interp(quantiles, cdf / cdf[-1], g1.coordinates(0))
        return {"p": p, "seed": seed, "c1": c1, "c2": c2,
                "psi1": psi1, "psi2": psi2, "reference": reference}

    def run(self, inputs):
        p, c1, c2 = inputs["p"], inputs["c1"], inputs["c2"]
        rec1 = evolve(inputs["psi1"], Harmonic((1.0,)), c1, p["t_final_1d"],
                      p["dt"], CRANK_NICOLSON, snapshot_stride=p["stride"])
        steps_2d = int(round(p["t_final_2d"] / p["dt"]))
        rec2 = evolve(inputs["psi2"], Harmonic((1.0, 1.0)), c2,
                      p["t_final_2d"], p["dt"], CRANK_NICOLSON,
                      snapshot_stride=steps_2d)
        drift = max(abs(norm(rec.snapshots[-1]) - 1.0) for rec in (rec1, rec2))

        ens = sample_density(inputs["psi1"], p["members"] - p["reference"],
                             inputs["seed"])
        starts = np.concatenate([inputs["reference"], ens.members[:, 0]])
        flow = integrate_flow(starts[:, None], rec1, c1, dt_ode=p["dt_ode"])
        done = flow.statuses == 0
        err = np.abs(flow.points[:, 0] - starts - p["displacement"] * (
            math.cos(rec1.t_final) - 1.0))
        # A member that halted has no end point to compare; it fails the
        # completion check instead, so every value stays finite.
        err[~done] = 0.0
        ref = float(np.max(err[:p["reference"]]))
        sampled = float(np.max(err[p["reference"]:]))
        halted = int(np.sum(~done))
        checks = [
            {"name": "CN norm drift (1-d and 2-d ADI) < 1e-9", "value": drift,
             "threshold": 1e-9, "passed": drift < 1e-9},
            {"name": "every member completes its flow", "value": halted,
             "passed": halted == 0},
            {"name": "reference end points match x0 + d (cos t - 1) within "
             "1e-3", "value": ref, "threshold": 1e-3, "passed": ref < 1e-3},
            {"name": "sampled end points match x0 + d (cos t - 1) within 1e-3",
             "value": sampled, "threshold": 1e-3, "passed": sampled < 1e-3,
             "statistical": True},
        ]
        return Outcome(checks, int(starts.size), halted)


# Why each workload exists, and which scenario defaults it trims, is set out
# in README.md. ``tiny`` sizes are for the benchmark's own smoke tests.
_TRAVERSAL = {"name": "traversal", "t_final": 1.5, "stride": 10,
              "dt_ode": 1e-2, "surface": 0.0,
              "initial": {"generator": "gaussian", "center": -3.0,
                          "width": 1.0, "momentum": 4.0}}
WORKLOADS = {w.name: w for w in (
    ScenarioWorkload(
        "flux-1d",
        {"scenario": "flux", "n": 4096, "cases": [_TRAVERSAL]},
        {"n": 512, "cases": [{**_TRAVERSAL, "grid": {
            "lower": -12.0, "upper": 20.0, "count": 1024}}]}),
    # dt_ode equals the snapshot spacing (dt * stride), so every trajectory
    # steps through every snapshot and recomputes its gradient.
    ScenarioWorkload(
        "oracle-2d",
        {"scenario": "oscillator-oracle", "points": 96, "t_final": 1.0,
         "dt": 2e-3, "stride": 25, "dt_ode": 5e-2},
        {"dt": 5e-3, "stride": 10}),
    ScenarioWorkload(
        "collapse-2d",
        {"scenario": "collapse", "weights": [0.5], "n": 4000, "dt": 1e-2,
         "dt_ode": 0.1},
        {"n": 600},
        # The first execution warms the memory allocator and numpy's FFT
        # caches; it runs about 20 % slower in every process.
        threads=2, warmup=True),
    CnBoxedWorkload(
        "cn-boxed",
        {"count_1d": 1025, "count_2d": 128, "displacement": 1.0, "dt": 2e-3,
         "t_final_1d": 0.2, "t_final_2d": 0.1, "stride": 5, "dt_ode": 1e-2,
         "members": 4096, "reference": 64},
        {"count_2d": 32, "t_final_1d": 0.04, "t_final_2d": 0.02,
         "members": 256}),
)}
