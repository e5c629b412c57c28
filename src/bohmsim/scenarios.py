"""Named, reproducible experiments tying the modules together. Each scenario
declares one parameter table, takes the JSON-able parameter dict parsed from
it, writes a JSON report plus plot-ready CSVs, and returns the report; a run
passes when it makes at least one check and every check passes. A scenario
that moves trajectories evolves once: its ``Evolution`` hands each snapshot
to a ``Flow`` and to the scenario's own per-snapshot reductions, and no run
keeps a snapshot record."""

import copy
import dataclasses
import functools
import json
import math
import os
import re
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import analytic, povm as povm_mod
from .equilibrium import (collapse_experiment, collapse_setup,
                          equivariance_check, sample_density)
from .fields import ScalarWaveFunction, SpinorWaveFunction, norm
from .flux import CrossingCounter, SurfaceCurrent, check_location
from .grids import Grid, PhysicalConstants
from .guidance import (COMPLETED, HIT_NODE, LEFT_GRID, EmptyFlowError, Flow,
                       flow_footprint, ode_step_count, spinor_velocity)
from .kernels import BACKEND
from .potentials import KINDS, CoupledOscillator, Free, Harmonic, from_description
from .propagate import SPLIT_FOURIER, Evolution, PauliStepper, step_count
# The names that the benchmark's per-layer trace wraps here stay importable,
# although every scenario streams its evolution through a Flow instead
from .flux import expected_crossings, per_member_counts  # noqa: F401
from .guidance import integrate_flow, integrate_trajectory  # noqa: F401
from .propagate import evolve  # noqa: F401


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# --- parameter tables ------------------------------------------------------------
#
# Each scenario declares its parameters once, as a table of specs. A spec knows
# its JSON type, legal range and default. ``parse`` returns the value it
# accepts and appends one "path: message" line per fault. A spec's rule calls
# the library code that would reject the value at run time: the rule of a
# scenario that evolves calls the set-up function that its runner calls,
# which builds the run's initial state and Evolution. So a config that
# parses also runs.

_MISSING = object()

# The largest grids: a run's grid fields stay a few hundred MB at most, and
# validation, which samples initial states on the grid, stays cheap.
_MAX_1D = 1 << 16
_MAX_2D = 1024

# Bytes of the grid fields that a streamed run holds besides its flow
# (_STREAM_FIELDS, 16 B per grid point each), of its flow on the grid and
# per member (guidance.flow_footprint), of stored paths (8 B per coordinate
# per RK4 step) and of histogram bins (_BIN_BYTES each) that a run may
# hold. No run keeps its snapshots, so their count does not enter. At their
# defaults the scenarios hold at most 19 MB, the oscillator oracle's 18
# fields of 256^2 points; a desk machine has a few GB.
_MEMORY_BUDGET = 2 * 10**9

# Bytes per equivariance histogram bin: its edges, expected and empirical
# masses, and the row of its CSV file. A run's tracemalloc peak grows by
# 159 B per bin.
_BIN_BYTES = 192

# Grid-point updates (time steps times grid points, summed over the
# evolutions of a run, plus the updates that its flows' RK4 steps cost) that
# a run may make. A split-Fourier step costs 40-80 ns per grid point on one
# desk core, so the budget is a few minutes of stepping. A free step (the
# potential vanishes on the grid) costs less: one k-space product per grid
# point, plus two transforms per snapshot interval. Counting it as a full
# update keeps the estimate conservative. At their defaults the scenarios
# make at most 4.6e8, the flux scenario's 2000 RK4 steps of 10^4 members.
_WORK_BUDGET = 2 * 10**9

# Grid-point updates that one povm state costs: its pass over the six models
# of the zoo takes about 0.5 ms of Python, ten thousand updates at 50 ns.
_POVM_STATE_UPDATES = 10**4

# Grid-point updates that one spin step costs: a fixed _PAULI_STEP_UPDATES
# plus _PAULI_POINT_UPDATES per grid point. The dearer of the two kinds of
# step is the Rabi one, the prepared Pauli step with its two half rotations
# and its population sum: about 110 us at 256 points, 0.5 ms at 4096 and
# 14.8 ms at 65536 on one desk core. A decoupled step, the Pauli step at
# B = 0, is two free steps, one per component. At 50 ns an update, 2000
# updates plus 7 per point (100 us plus 0.35 us per point) covers both.
_PAULI_STEP_UPDATES = 2000
_PAULI_POINT_UPDATES = 7

# Grid-point updates that one RK4 step of a flow costs: a fixed
# _FLOW_STEP_UPDATES plus _FLOW_MEMBER_UPDATES per member. The dearer kind
# of flow is the 2-d one: with dt_ode the snapshot spacing, a step on 8^2 or
# 32^2 points takes 0.64-1.0 ms with two members, plus 0.9-1.0 us per member
# at 10^4 members, against 0.3-0.38 ms and 0.2 us per member in 1-d, on one
# desk core. At 50 ns an update, 20000 updates plus 20 per member (1 ms plus
# 1 us per member) covers both.
_FLOW_STEP_UPDATES = 20000
_FLOW_MEMBER_UPDATES = 20


def _at(path, key):
    return f"{path}.{key}" if path else key


class _Spec:
    def __init__(self, default=_MISSING, rule=None):
        self.default = default
        self.rule = rule

    def parse(self, value, path, errors, base=_MISSING):
        """The accepted value (None after a fault). ``base`` is the value
        that ``value`` replaces: an object takes the keys it leaves out
        from it."""
        before = len(errors)
        out = self._parse(value, path, errors, base)
        if self.rule is not None and len(errors) == before:
            try:
                # A value beyond the float range evaluates to Inf, which the
                # library's finiteness checks report; its overflow warning is
                # silenced so that they report it.
                with np.errstate(over="ignore", invalid="ignore"):
                    self.rule(out)
            except ValueError as exc:
                errors.append(f"{path or 'config'}: {exc}")
        return out


class Num(_Spec):
    """A finite JSON number, an integer when ``integer``; ``low`` and
    ``high`` are inclusive bounds, ``above`` an exclusive one."""

    def __init__(self, default=_MISSING, low=None, high=None, above=None,
                 integer=False, rule=None):
        super().__init__(default, rule)
        self.low, self.high, self.above = low, high, above
        self.integer = integer

    def _parse(self, value, path, errors, base):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fault = "expected a number"
        elif self.integer and not isinstance(value, int):
            # counts, sizes and seeds: range() and array shapes reject a float
            fault = "expected an integer"
        elif isinstance(value, float) and not math.isfinite(value):
            fault = "expected a finite number"
        elif self.low is not None and value < self.low:
            fault = f"must be >= {self.low}"
        elif self.high is not None and value > self.high:
            fault = f"must be <= {self.high}"
        elif self.above is not None and value <= self.above:
            fault = f"must be > {self.above}"
        else:
            return value
        errors.append(f"{path}: {fault}")
        return None


def Int(default=_MISSING, **bounds):
    return Num(default, integer=True, **bounds)


class Str(_Spec):
    """A JSON string that fully matches ``pattern``."""

    def __init__(self, pattern):
        super().__init__()
        self.pattern = pattern

    def _parse(self, value, path, errors, base):
        if not isinstance(value, str):
            fault = "expected a string"
        elif not re.fullmatch(self.pattern, value):
            fault = f"expected a match of {self.pattern}"
        else:
            return value
        errors.append(f"{path}: {fault}")
        return None


class Many(_Spec):
    """A JSON list of ``item``. An object item takes the keys it leaves out
    from the first default item."""

    def __init__(self, item, default=_MISSING):
        super().__init__(default)
        self.item = item
        self.first = default[0] if default is not _MISSING and default \
            else _MISSING

    def _parse(self, value, path, errors, base):
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return None
        return [self.item.parse(v, f"{path}[{i}]", errors, self.first)
                for i, v in enumerate(value)]


class Fixed(_Spec):
    """A JSON list holding one value per spec in ``items``."""

    def __init__(self, *items):
        super().__init__()
        self.items = items

    def _parse(self, value, path, errors, base):
        if not isinstance(value, list) or len(value) != len(self.items):
            errors.append(f"{path}: expected a list of {len(self.items)} "
                          "entries")
            return None
        return [s.parse(v, f"{path}[{i}]", errors)
                for i, (s, v) in enumerate(zip(self.items, value))]


class Obj(_Spec):
    """A JSON object with the keys of ``fields``. A key left out takes its
    value from the base object when there is one, else its spec default."""

    def __init__(self, fields, rule=None):
        defaults = {k: s.default for k, s in fields.items()}
        super().__init__(_MISSING if _MISSING in defaults.values()
                         else defaults, rule)
        self.fields = fields

    def _parse(self, value, path, errors, base):
        if not isinstance(value, dict):
            errors.append(f"{path or 'config'}: expected an object")
            return None
        out = {}
        for key, spec in self.fields.items():
            fallback = spec.default if base is _MISSING else base[key]
            if key in value:
                out[key] = spec.parse(value[key], _at(path, key), errors,
                                      fallback)
            elif fallback is _MISSING:
                errors.append(f"{_at(path, key)}: missing")
            else:
                out[key] = copy.deepcopy(fallback)
        errors.extend(f"{_at(path, k)}: unknown key" for k in value
                      if k not in self.fields)
        return out


class Tagged(_Spec):
    """A JSON object whose ``tag`` key names one of ``variants``; that
    variant's Obj gives the other keys and their defaults. A left-out tag is
    the base object's."""

    def __init__(self, tag, variants):
        super().__init__()
        self.tag, self.variants = tag, variants

    def _parse(self, value, path, errors, base):
        if not isinstance(value, dict):
            errors.append(f"{path or 'config'}: expected an object")
            return None
        where = _at(path, self.tag)
        name = value.get(self.tag, _MISSING if base is _MISSING
                         else base[self.tag])
        if name is _MISSING:
            errors.append(f"{where}: missing")
            return None
        if not isinstance(name, str) or name not in self.variants:
            errors.append(f"{where}: unknown {self.tag} {name!r}")
            return None
        out = self.variants[name].parse(
            {k: v for k, v in value.items() if k != self.tag}, path, errors)
        return None if out is None else {self.tag: name, **out}


# A case name becomes part of a CSV file name.
_NAME = Str(r"[A-Za-z0-9_.+-]{1,64}")


def _grid_1d(spec):
    return Grid.regular(spec["lower"], spec["upper"], spec["count"])


_GRID = Obj({"lower": Num(), "upper": Num(), "count": Int(high=_MAX_1D)},
            rule=_grid_1d)


# Each potential kind's parameters are the fields of its class, which enforces
# their ranges.
_FIELD_SPECS = {float: Num(), tuple: Many(Num())}
POTENTIAL = Tagged("kind", {
    kind: Obj({f.name: _FIELD_SPECS[f.type] for f in dataclasses.fields(cls)})
    for kind, cls in KINDS.items()})


# --- initial-state generators ----------------------------------------------------


def _gaussian(grid, constants, center, width, momentum):
    return lambda x: np.exp(-((x - center) ** 2) / (4.0 * width * width)
                            + 1j * momentum * x)


def _coherent(grid, constants, displacement, omega):
    alpha = constants.masses[0] * omega / (2.0 * constants.hbar)
    return lambda x: np.exp(-alpha * (x - displacement) ** 2)


def _plane_wave(grid, constants, k):
    ax = grid.axes[0]
    # the nearest wave number the period carries; it is inf when k * length
    # overflows, and a finite one can still overflow the phase k x
    carried = 2.0 * np.pi * np.rint(k * ax.length / (2.0 * np.pi)) / ax.length
    if not math.isfinite(carried * max(abs(ax.lower), abs(ax.upper))):
        raise ValueError(f"plane-wave: k = {k:g} overflows the phase k x on "
                         "this grid")
    return lambda x: np.exp(1j * carried * x)


def _two_packet(grid, constants, centers, width, momenta, weights):
    if not len(centers) == len(momenta) == len(weights):
        raise ValueError("two-packet needs one momentum and one weight per "
                         "center")

    def l2(f):
        return np.sqrt(np.sum(grid.quadrature_weights() * np.abs(f) ** 2))

    def fn(x):
        out = np.zeros_like(x, dtype=np.complex128)
        for c, k, p in zip(centers, momenta, weights):
            packet = np.exp(-((x - c) ** 2) / (4.0 * width * width) + 1j * k * x)
            pnorm = l2(packet)
            if pnorm == 0.0:
                raise ValueError(f"two-packet: the packet at {c:g} has no "
                                 "weight on the grid")
            out += math.sqrt(p) * packet / pnorm
        # normalizing by an infinite norm would zero the field
        if not np.isfinite(l2(out)):
            raise ValueError("two-packet: the weights overflow the norm of "
                             "the field")
        return out
    return fn


# generator name -> (maker of the unnormalized field, its parameter table)
INITIAL_STATES = {
    "gaussian": (_gaussian, {"center": Num(0.0), "width": Num(1.0, above=0.0),
                             "momentum": Num(0.0)}),
    "coherent": (_coherent, {"displacement": Num(1.0),
                             "omega": Num(1.0, above=0.0)}),
    "plane-wave": (_plane_wave, {"k": Num(1.0)}),
    "two-packet": (_two_packet, {
        "centers": Many(Num(), [-5.0, 5.0]), "width": Num(1.0, above=0.0),
        "momenta": Many(Num(), [1.0, -1.0]),
        "weights": Many(Num(low=0.0), [0.5, 0.5])}),
}
INITIAL = Tagged("generator", {name: Obj(table) for name, (_, table)
                               in INITIAL_STATES.items()})


def make_initial(grid, constants, spec):
    """Build a normalized initial state from a generator spec; keys it leaves
    out take the generator's defaults in INITIAL_STATES."""
    errors = []
    params = INITIAL.parse(spec, "initial", errors)
    if errors:
        raise ConfigError(errors)
    build = INITIAL_STATES[params.pop("generator")][0]
    with np.errstate(all="ignore"):  # the field's checks report overflow
        return ScalarWaveFunction.from_callable(
            grid, build(grid, constants, **params), normalize=True)


def _flow_steps(t_final, dt, stride, dt_ode):
    """(time steps, RK4 steps) of a run; raises ValueError where its
    Evolution or Flow would reject these step sizes."""
    n_steps = step_count(t_final, dt, stride)
    return n_steps, ode_step_count(n_steps * dt, dt_ode, dt * stride)


def _check_flow(params):
    return _flow_steps(params["t_final"], params["dt"], params["stride"],
                       params["dt_ode"])


# Grid-sized complex fields that a streamed run holds besides its flow
# (guidance.flow_footprint): the snapshots that the flow's stage times
# bracket, at most six, or five and the state the evolution steps to, and
# the stepper's two phase arrays.
_STREAM_FIELDS = 8


def _check_memory(names, grid_points, members, dimension, path_values=0,
                  bins=0):
    """Raise ValueError, naming the parameters ``names`` that set the size,
    when the grid fields of a streamed run on grid_points points, the
    working arrays of ``members`` ensemble members on a grid of that
    dimension, path_values stored path coordinates and ``bins`` histogram
    bins exceed the memory budget."""
    # integers throughout: a member count may exceed the float range
    need = (16 * _STREAM_FIELDS * grid_points
            + flow_footprint(dimension, grid_points, members)
            + 8 * path_values + _BIN_BYTES * bins)
    if need > _MEMORY_BUDGET:
        raise ValueError(f"{names} would store {Decimal(need) / 10**9:.3g} "
                         "GB of snapshots, paths, ensemble arrays and bins, "
                         f"above the budget of {_MEMORY_BUDGET / 10**9:g} GB")


def _flow_updates(steps, members):
    """Grid-point updates that ``steps`` RK4 steps of a flow of ``members``
    members cost."""
    return steps * (_FLOW_STEP_UPDATES + _FLOW_MEMBER_UPDATES * members)


def _check_work(names, updates):
    """Raise ValueError, naming the parameters ``names`` that set the work,
    when a run's grid-point updates exceed the work budget."""
    if updates > _WORK_BUDGET:
        raise ValueError(f"{names} would make {Decimal(updates):.3g} "
                         "grid-point updates, above the budget of "
                         f"{Decimal(_WORK_BUDGET):.3g}")


def _check(name, value, passed, threshold=None, **extra):
    entry = {"name": name, "value": value, "passed": bool(passed)}
    if threshold is not None:
        entry["threshold"] = threshold
    entry.update(extra)
    return entry


def _empty_flow_check(exc, prefix=""):
    """The one check of a run whose members all stopped early. It fails:
    with no transported ensemble, nothing else has evidence to pass on."""
    return _check(f"{prefix}some member completes the flow", 0, False,
                  n=exc.n_input, hit_node=exc.hit_node,
                  left_grid=exc.left_grid)


def _write_csv(out_dir, name, header, rows):
    if out_dir is None:
        return
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- scenario: oscillator-oracle --------------------------------------------------


_oracle_grid = functools.partial(Grid.regular, -8.0, 8.0, dimension=2)
_ORACLE_ANGLES = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False) + 0.37
_ORACLE_STARTS = [(r * math.cos(a) + 0.1, r * math.sin(a) - 0.05)
                  for r in (0.3, 0.7, 1.1, 1.5) for a in _ORACLE_ANGLES]


def _oracle_evolution(params):
    """The Evolution of an oracle run; raises ValueError where the run
    would fail."""
    psi0 = ScalarWaveFunction.from_callable(
        _oracle_grid(params["points"]),
        lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    return Evolution(psi0, CoupledOscillator(analytic.COUPLING),
                     PhysicalConstants.natural(dimension=2),
                     params["t_final"], params["dt"], SPLIT_FOURIER,
                     snapshot_stride=params["stride"])


def _check_oracle(params):
    n_steps, steps = _check_flow(params)
    try:
        step_count(1.0, params["dt"], params["stride"])
    except ValueError:
        raise ValueError("the field check needs a snapshot at t = 1: 1 must "
                         "be a whole number of snapshot spacings dt * stride"
                         ) from None
    _check_memory("points, t_final, dt and stride", params["points"] ** 2,
                  len(_ORACLE_STARTS), 2,
                  2 * len(_ORACLE_STARTS) * (steps + 1))
    _check_work("points, t_final, dt and dt_ode",
                n_steps * params["points"] ** 2
                + _flow_updates(steps, len(_ORACLE_STARTS)))
    _oracle_evolution(params)


def run_oscillator_oracle(params, out_dir=None):
    evolution = _oracle_evolution(params)
    grid, constants = evolution.grid, evolution.constants
    # field comparison at t = 1, as the evolution passes it
    i1 = int(round(1.0 / evolution.dt))
    psi_err = None

    def probe(i, psi):
        nonlocal psi_err
        if i == i1:
            xg, yg = grid.meshgrid()
            exact = analytic.coupled_oscillator_wavefunction(
                xg, yg, evolution.times[i1])
            psi_err = float(np.max(np.abs(psi.amplitudes - exact)))

    flow = Flow(_ORACLE_STARTS, evolution, constants, dt_ode=params["dt_ode"],
                store_path=True)
    evolution.run(probe, flow)
    flow = flow.result()
    drift = abs(norm(evolution.last) - 1.0)
    traj_err = 0.0
    first_rows = []
    completed = flow.count(COMPLETED)
    for idx, q0 in enumerate(_ORACLE_STARTS):
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
        _check(f"trajectories match closed form to t={params['t_final']:g}",
               traj_err, traj_err < 1e-3, threshold=1e-3,
               n_starts=len(_ORACLE_STARTS)),
        _check("norm drift at t_final", drift, drift < 1e-9, threshold=1e-9),
        _check("all oracle trajectories completed", completed,
               completed == len(_ORACLE_STARTS),
               n_starts=len(_ORACLE_STARTS)),
    ]
    return {"checks": checks, "n_trajectories": len(_ORACLE_STARTS)}


# --- scenario: equivariance --------------------------------------------------------


def _case_evolution(case, potential):
    """The Evolution of one 1-d case under ``potential``; raises ValueError
    where the run would reject the case, its flow's dt_ode included."""
    grid = _grid_1d(case["grid"])
    constants = PhysicalConstants.natural(dimension=1)
    evolution = Evolution(make_initial(grid, constants, case["initial"]),
                          potential, constants, case["t_final"], case["dt"],
                          SPLIT_FOURIER, snapshot_stride=case["stride"])
    _check_flow(case)
    return evolution


def _equivariance_evolution(case):
    return _case_evolution(case, from_description(case["potential"]))


def _check_cases(params):
    """The memory bound of each 1-d case, whose flow moves n members and
    whose histogram has ``bins`` bins when the scenario has that
    parameter, and the work bound of all cases together."""
    updates = 0
    bins = params.get("bins", 0)
    counts = "n, bins" if "bins" in params else "n"
    for j, case in enumerate(params["cases"]):
        n_steps, steps = _check_flow(case)
        _check_memory(f"{counts} and cases[{j}]", case["grid"]["count"],
                      params["n"], 1, bins=bins)
        updates += (n_steps * case["grid"]["count"]
                    + _flow_updates(steps, params["n"]))
    _check_work("n and the cases' grid.count, t_final, dt and dt_ode",
                updates)


def _equivariance_case(case, n, bins, seed):
    out, masses = equivariance_check(_equivariance_evolution(case), n, seed,
                                     bins=bins, dt_ode=case["dt_ode"])
    out["name"] = case["name"]
    return out, masses


def run_equivariance(params, out_dir=None):
    checks = []
    results = []
    for j, case in enumerate(params["cases"]):
        try:
            out, (edges, expected) = _equivariance_case(
                case, params["n"], params["bins"], params["seed"] + 101 * j)
        except EmptyFlowError as exc:
            results.append({"name": case["name"], "n": params["n"],
                            "hit_node": exc.hit_node,
                            "left_grid": exc.left_grid})
            checks.append(_empty_flow_check(exc, f"{case['name']}: "))
            continue
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
            _write_csv(out_dir, f"equivariance_{case['name']}_bins.csv",
                       "bin_left,bin_right,expected_mass",
                       zip(edges[:-1], edges[1:], expected))
    return {"cases": results, "checks": checks}


# --- scenario: collapse -------------------------------------------------------------


def _check_collapse(params):
    # The weights, each in [0, 1], set only the initial superposition, which
    # every one of them normalizes: one set-up checks the run of each.
    _, evolution = collapse_setup(0.5, params["coupling"], params["t_meas"],
                                  params["dt"])
    n_steps, steps = _flow_steps(params["t_meas"], params["dt"],
                                 evolution.stride, params["dt_ode"])
    grid_points = math.prod(evolution.grid.shape)
    _check_memory("n, t_meas and dt", grid_points, params["n"], 2)
    _check_work("weights, n, t_meas, dt and dt_ode", len(params["weights"])
                * (n_steps * grid_points + _flow_updates(steps, params["n"])))


def run_collapse(params, out_dir=None):
    runs = []
    checks = []
    for j, p1 in enumerate(params["weights"]):
        seed = params["seed"] + 13 * j
        try:
            rep = collapse_experiment(p1, n_members=params["n"], seed=seed,
                                      coupling=params["coupling"],
                                      t_meas=params["t_meas"], dt=params["dt"],
                                      dt_ode=params["dt_ode"])
        except EmptyFlowError as exc:
            rep = {"seed": seed,
                   "counts": {"hit_node": exc.hit_node,
                              "left_grid": exc.left_grid},
                   "checks": [_empty_flow_check(exc)]}
        runs.append(rep)
        for c in rep["checks"]:
            checks.append({**c, "name": f"p={p1}: {c['name']}"})
    return {"experiments": runs, "checks": checks}


# --- scenario: flux -----------------------------------------------------------------


def _flux_evolution(case):
    """The free Evolution of one case; raises ValueError where the run would
    reject the case, its surface included, which its SurfaceCurrent checks
    again."""
    evolution = _case_evolution(case, Free())
    check_location(evolution.grid, case["surface"])
    return evolution


def _flux_case(case, n, seed, out_dir):
    evolution = _flux_evolution(case)
    ens = sample_density(evolution.initial, n, seed)
    counter = CrossingCounter(ens.size, case["surface"])
    flow = Flow(ens.members, evolution, evolution.constants,
                dt_ode=case["dt_ode"], on_step=counter)
    # the surface reads each snapshot's gradient off the flow's window
    surface = SurfaceCurrent(evolution, case["surface"], flow)
    evolution.run(flow, surface)
    exp_total, exp_signed, current = surface.result()
    flow = flow.result()
    counts = counter.counts()
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
        "hit_node": flow.count(HIT_NODE),
        "left_grid": flow.count(LEFT_GRID),
    }
    if out_dir is not None:
        _write_csv(out_dir, f"flux_{case['name']}_current.csv",
                   "t,normal_current", zip(evolution.times, current))
    return result


def run_flux(params, out_dir=None):
    checks = []
    results = []
    for j, case in enumerate(params["cases"]):
        res = _flux_case(case, params["n"], params["seed"] + 29 * j, out_dir)
        results.append(res)
        for kind in ("total", "signed"):
            gap = abs(res[f"empirical_{kind}"] - res[f"expected_{kind}"])
            tol = 4.0 * max(res[f"se_{kind}"], 1.25e-4)
            checks.append(_check(
                f"{case['name']}: {kind} crossings match flux integral (4 SE)",
                gap, gap <= tol, threshold=tol))
        for name, target, tol in case["asserts"]:
            val = res[name]
            checks.append(_check(f"{case['name']}: {name} == {target} +- {tol}",
                                 val, abs(val - target) <= tol, threshold=tol))
    return {"cases": results, "checks": checks}


# --- scenario: povm ------------------------------------------------------------------


def _random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def _check_povm(params):
    _check_work("n_states", params["n_states"] * _POVM_STATE_UPDATES)


def run_povm(params, out_dir=None):
    rng = np.random.default_rng(params["seed"])
    checks = []
    zoo = povm_mod.model_zoo()
    stats_worst = 0.0
    for name, model in zoo.items():
        measure = povm_mod.povm_from_experiment(model)
        worst = 0.0
        for _ in range(params["n_states"]):
            psi = _random_state(rng, model.n)
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
            "checks": checks}


# --- scenario: classical-limit --------------------------------------------------------


_classical_grid = functools.partial(Grid.regular, -6.0, 6.0)


def _classical_setup(params, hbar):
    """The Evolution of one hbar of the sweep, its packet's position sd and
    the start x0; raises ValueError where the run would fail."""
    constants = PhysicalConstants(hbar=hbar, masses=(1.0,))
    grid = _classical_grid(params["points"])
    psi0 = make_initial(grid, constants,
                        {"generator": "coherent",
                         "displacement": params["displacement"],
                         "omega": params["omega"]})
    width = math.sqrt(hbar / (2.0 * params["omega"]))  # packet position sd
    x0 = params["displacement"] + width
    if not grid.contains((x0,)):
        raise ValueError(f"start {x0} for hbar {hbar} lies outside the grid")
    return Evolution(psi0, Harmonic((params["omega"],)), constants,
                     params["t_final"], params["dt"], SPLIT_FOURIER,
                     snapshot_stride=params["stride"]), width, x0


def _check_classical_limit(params):
    n_steps, steps = _check_flow(params)
    _check_memory("points, t_final, dt and stride", params["points"], 1, 1,
                  steps + 1)
    _check_work("hbars, points, t_final, dt and dt_ode", len(params["hbars"])
                * (n_steps * params["points"] + _flow_updates(steps, 1)))
    for hbar in params["hbars"]:
        _classical_setup(params, hbar)


def run_classical_limit(params, out_dir=None):
    omega = params["omega"]
    deviations = []
    for hbar in params["hbars"]:
        evolution, width, x0 = _classical_setup(params, hbar)
        flow = Flow([(x0,)], evolution, evolution.constants,
                    dt_ode=params["dt_ode"], store_path=True)
        evolution.run(flow)
        traj = flow.result().trajectory(0)
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
    return {"sweep": deviations, "checks": checks}


# --- scenario: spin --------------------------------------------------------------------


_spin_grid = functools.partial(Grid.regular, -8.0, 8.0)


def _spin_setup(params):
    """Grid, constants, Rabi period and the Pauli steppers of the decoupling
    (B = 0) and Rabi (transverse B) loops; raises ValueError where the run
    would fail."""
    grid = _spin_grid(params["points"])
    constants = PhysicalConstants.natural(dimension=1)
    bx = params["b_transverse"]
    period = 2.0 * np.pi * constants.hbar / (2.0 * bx)
    decoupled = PauliStepper(grid, Free(), constants, params["dt"],
                             (0.0, 0.0, 0.0))
    rabi = PauliStepper(grid, Free(), constants, period / params["rabi_steps"],
                        (bx, 0.0, 0.0))
    return grid, constants, period, decoupled, rabi


def _check_spin(params):
    _check_work("points, decoupled_steps and rabi_steps",
                (params["decoupled_steps"] + params["rabi_steps"])
                * (_PAULI_STEP_UPDATES
                   + _PAULI_POINT_UPDATES * params["points"]))
    _spin_setup(params)


def run_spin(params, out_dir=None):
    grid, constants, period, decoupled, rabi = _spin_setup(params)
    x = grid.coordinates(0)
    packet = np.exp(-0.25 * x * x)
    wq = grid.quadrature_weights()
    packet = packet / np.sqrt(np.sum(wq * np.abs(packet) ** 2))

    # (a) zero field: the components evolve as independent scalars, so two
    # multiples of one packet stay the same multiples of each other
    up0, down0 = 0.8, 0.36 + 0.48j
    spinor = SpinorWaveFunction(grid, up0 * packet, down0 * packet).normalize()
    up, down = spinor.up, spinor.down
    for _ in range(params["decoupled_steps"]):
        up, down = decoupled.advance(up, down)
    decouple_err = float(np.max(np.abs(down - (down0 / up0) * up)))

    # (b) transverse field: population transfer vs the exact 2x2 rotation
    bx = params["b_transverse"]
    dt_rabi = period / params["rabi_steps"]
    up = packet.astype(np.complex128)
    down = np.zeros_like(up)
    worst_pop = 0.0
    for j in range(params["rabi_steps"]):
        up, down = rabi.advance(up, down)
        t = (j + 1) * dt_rabi
        p_up = float(np.sum(wq * np.abs(up) ** 2))
        exact = math.cos(bx * t / constants.hbar) ** 2
        worst_pop = max(worst_pop, abs(p_up - exact))
    end_pop = float(np.sum(wq * np.abs(up) ** 2))

    # (c) real spinor guides nowhere
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
    return {"rabi_period": period, "checks": checks}


# --- registry and driver -----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    params: Obj  # the one parameter table: types, legal ranges, defaults
    runner: object

    @property
    def defaults(self):
        return self.params.default


SCENARIOS = {}


def _register(name, description, table, runner, rule=None):
    SCENARIOS[name] = Scenario(name, description, Obj(table, rule), runner)


_register(
    "oscillator-oracle",
    "2-d coupled-Gaussian evolution and trajectories vs the closed form",
    {"points": Int(256, high=_MAX_2D, rule=_oracle_grid),
     # the field is compared with the closed form at t = 1
     "t_final": Num(2.0, low=1.0),
     "dt": Num(1e-3), "stride": Int(10), "dt_ode": Num(1e-2)},
    run_oscillator_oracle, rule=_check_oracle,
)

_register(
    "equivariance",
    "transported |psi0|^2 samples stay |psi_t|^2-distributed (L1 + KS)",
    {
        "n": Int(10000, low=1), "bins": Int(50, low=1),
        "seed": Int(2024, low=0),
        "cases": Many(Obj({
            "name": _NAME, "grid": _GRID, "potential": POTENTIAL,
            "initial": INITIAL, "t_final": Num(), "dt": Num(),
            "stride": Int(), "dt_ode": Num()}, rule=_equivariance_evolution), [
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
        ]),
    },
    run_equivariance,
    rule=_check_cases,
)

_register(
    "collapse",
    "two-outcome pointer measurement: branch weights and effective states",
    {"weights": Many(Num(low=0.0, high=1.0), [0.5, 0.8]),
     "n": Int(4000, low=1), "seed": Int(7, low=0), "coupling": Num(40.0),
     "t_meas": Num(1.0), "dt": Num(1e-3), "dt_ode": Num(1e-2)},
    run_collapse, rule=_check_collapse,
)

# the numeric entries of a flux case result, which asserts may name
_FLUX_RESULTS = Str("expected_total|expected_signed|empirical_total|"
                    "empirical_signed|se_total|se_signed|n_members|hit_node|"
                    "left_grid")

_register(
    "flux",
    "trajectory crossing counts vs the time-integrated current",
    {
        # the standard error of the counts needs two members
        "n": Int(10000, low=2), "seed": Int(99, low=0),
        "cases": Many(Obj({
            "name": _NAME, "grid": _GRID, "initial": INITIAL,
            "surface": Num(), "t_final": Num(), "dt": Num(), "stride": Int(),
            "dt_ode": Num(),
            "asserts": Many(Fixed(_FLUX_RESULTS, Num(), Num(low=0.0)))},
            rule=_flux_evolution), [
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
        ]),
    },
    run_flux, rule=_check_cases,
)

_register(
    "povm",
    "statistics identity, completeness/positivity, PV classification on the zoo",
    # n_states <= 0 is legal and fails the statistics checks
    {"seed": Int(5, low=0), "n_states": Int(100)},
    run_povm, rule=_check_povm,
)

_register(
    "classical-limit",
    "harmonic coherent packet: trajectory vs classical motion as hbar shrinks",
    # fewer than two hbar values are legal and fail the monotonicity check
    {"hbars": Many(Num(rule=lambda h: PhysicalConstants(hbar=h)),
                   [1.0, 0.3, 0.1, 0.03]),
     "omega": Num(1.0, above=0.0), "displacement": Num(1.0),
     "points": Int(2048, high=_MAX_1D, rule=_classical_grid),
     "t_final": Num(6.0), "dt": Num(5e-4), "stride": Int(10),
     "dt_ode": Num(5e-3)},
    run_classical_limit, rule=_check_classical_limit,
)

_register(
    "spin",
    "two-component checks: decoupling at B=0, transverse-field oscillation",
    {"points": Int(256, high=_MAX_1D, rule=_spin_grid),
     "dt": Num(1e-3, above=0.0), "decoupled_steps": Int(200, low=1),
     "b_transverse": Num(1.0, above=0.0), "rabi_steps": Int(4000, low=1)},
    run_spin, rule=_check_spin,
)


def list_scenarios():
    """(name, one-line description) pairs, sorted by name."""
    return [(s.name, s.description) for _, s in sorted(SCENARIOS.items())]


def parse_config(config, seed_override=None):
    """(scenario name, its full parameters) of a config, or ConfigError
    listing one "path: message" per fault. The one parse behind
    validate_config and run_scenario. A scenario without a seed ignores
    ``seed_override``."""
    if not isinstance(config, dict):
        raise ConfigError(["config: expected a JSON object"])
    name = config.get("scenario")
    if name is None:
        raise ConfigError(["scenario: missing"])
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError([f"scenario: unknown scenario {name!r}"])
    errors = []
    if not isinstance(config.get("out_dir"), (str, type(None))):
        errors.append("out_dir: expected a string")
    body = {k: v for k, v in config.items() if k not in ("scenario", "out_dir")}
    if seed_override is not None and "seed" in SCENARIOS[name].params.fields:
        body["seed"] = int(seed_override)
    params = SCENARIOS[name].params.parse(body, "", errors)
    if errors:
        raise ConfigError(errors)
    return name, params


def validate_config(config):
    """Every fault of a config as "path: message" lines; [] when it runs."""
    try:
        parse_config(config)
    except ConfigError as exc:
        return exc.errors
    return []


def run_scenario(config, out_dir=None, threads=1, seed_override=None):
    """Validate, execute, and persist one scenario run.

    Returns (exit_code, report): 0 pass, 1 failed assertion; a config error
    raises ConfigError (exit 2). A run passes when it made at least one
    check and every check passed. ``threads`` is accepted for compatibility
    and has no effect: every scenario runs on one thread, so reports never
    depend on it.
    """
    name, params = parse_config(config, seed_override)
    out_dir = out_dir or config.get("out_dir")
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"out_dir: cannot create directory "
                               f"{out_dir!r}: {exc.strerror}"]) from exc
    body = SCENARIOS[name].runner(params, out_dir=out_dir)
    checks = body["checks"]
    report = {
        "scenario": name,
        "parameters": params,
        "kernel_backend": BACKEND,
        **body,
        # no checks is no evidence
        "passed": bool(checks) and all(c["passed"] for c in checks),
    }
    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return (0 if report["passed"] else 1), report
