"""Quantum-equilibrium sampling and its consequences: equivariance of the
|psi|^2 ensemble under the guidance flow, conditional and effective wave
functions of a subsystem, and the two-outcome pointer-measurement experiment
with collapse statistics.

An ensemble is carried by a ``guidance.Flow`` in the one streamed pass of
its evolution, and every statistic here reads its ``FlowResult``: the
transported members are ``FlowResult.completed()``, the excluded ones its
HitNode and LeftGrid counts; ``guidance`` raises ``EmptyFlowError`` when no
member completes. No statistic keeps a snapshot record: each reads the
initial state, the snapshots as they pass and the evolution's last one.
The equivariance statistics are 1-d, as the ``equivariance`` scenario that
checks them: a 2-d field or record raises ValueError."""

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarWaveFunction, density, norm
from .grids import Grid, PhysicalConstants
from .guidance import HIT_NODE, LEFT_GRID, Flow, OutOfBoundsError
# integrate_flow and evolve stay importable here, where the benchmark's
# per-layer trace wraps them; the experiments below stream their evolution
from .guidance import integrate_flow  # noqa: F401
from .kernels import interp_cubic_1d
from .potentials import Sampled
from .propagate import SPLIT_FOURIER, Evolution, evolve  # noqa: F401


class ZeroSliceError(Exception):
    pass


@dataclass(frozen=True)
class Ensemble:
    """Configurations of one system at one time."""

    members: np.ndarray  # (B, d)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.members, dtype=np.float64))
        if m.shape[0] < 1:
            raise ValueError("ensemble needs at least one member")
        object.__setattr__(self, "members", m)

    @property
    def size(self):
        return self.members.shape[0]


def sample_density(psi, n, seed):
    """Draw n configurations from the discrete cell measure |psi|^2 h^d with
    uniform jitter inside each cell (inverse-CDF; deterministic per seed)."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if abs(norm(psi) - 1.0) > 1e-8:
        raise ValueError("sampling requires a normalized field")
    grid = psi.grid
    p = (density(psi) * grid.cell_volume()).ravel()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    jitter = rng.random((n, grid.dimension))
    flat = np.searchsorted(cdf, u, side="left")
    idx = np.unravel_index(flat, grid.shape)
    members = np.empty((n, grid.dimension))
    for k, ax in enumerate(grid.axes):
        x = ax.lower + ax.spacing * idx[k]
        members[:, k] = np.clip(x + (jitter[:, k] - 0.5) * ax.spacing,
                                ax.lower, ax.upper)
    return Ensemble(members)


def _check_1d(grid):
    """Raise ValueError unless grid is one-dimensional."""
    if grid.dimension != 1:
        raise ValueError("the equivariance statistics are 1-d; got a "
                         f"{grid.dimension}-d grid")


def _bin_masses(psi, bins):
    """(edges, masses) of ``bins`` equal histogram bins over the axis of a
    1-d field: the bin edges and the |psi|^2 mass per bin from the grid
    quadrature."""
    _check_1d(psi.grid)
    ax = psi.grid.axes[0]
    edges = np.linspace(ax.lower, ax.upper, bins + 1)
    which = np.clip(np.searchsorted(edges, ax.points(), side="right") - 1,
                    0, bins - 1)
    masses = np.zeros(bins)
    np.add.at(masses, which, psi.grid.quadrature_weights() * density(psi))
    return edges, masses


def equivariance_distance(ens, psi, bins):
    """(l1, ks) of a 1-d ensemble against |psi|^2: the L1 distance between
    the binned empirical density and the per-bin |psi|^2 mass, and the
    Kolmogorov-Smirnov statistic against the quadrature CDF."""
    return _distance(ens, psi, *_bin_masses(psi, bins))


def _distance(ens, psi, edges, expected):
    """equivariance_distance over the bins ``_bin_masses`` gave."""
    grid = psi.grid
    total = expected.sum()
    x = ens.members[:, 0]
    emp, _ = np.histogram(x, bins=edges)
    emp = emp / ens.size
    l1 = float(np.sum(np.abs(emp - expected)))
    # KS against the cumulative quadrature of |psi|^2
    w = grid.quadrature_weights() * density(psi)
    pts = grid.coordinates(0)
    cum = np.concatenate([[0.0], np.cumsum(w)]) / total
    xs = np.sort(x)
    f = np.interp(xs, np.concatenate([[grid.axes[0].lower],
                                      pts + 0.5 * grid.axes[0].spacing]),
                  cum)
    i = np.arange(1, xs.size + 1)
    ks = float(np.max(np.maximum(np.abs(f - i / xs.size),
                                 np.abs(f - (i - 1) / xs.size))))
    return l1, ks


def equivariance_check(record, n, seed, bins, dt_ode):
    """Transport an equilibrium sample of a 1-d evolution's initial state,
    in one run of ``record``, an ``Evolution`` or a stored record, and
    compare it at the final time both to |psi_t|^2 and, by a two-sample KS
    test, to a fresh equilibrium sample. Returns the statistics and the
    (edges, masses) of the |psi_t|^2 bins they were measured on."""
    _check_1d(record.grid)
    ens0 = sample_density(record.initial, n, seed)
    flow = Flow(ens0.members, record, record.constants, dt_ode=dt_ode)
    record.run(flow)
    flow = flow.result()
    moved = Ensemble(flow.completed())
    psi_t = record.last
    edges, masses = _bin_masses(psi_t, bins)
    l1, ks = _distance(moved, psi_t, edges, masses)
    # imported here: scipy.stats takes about a second to import, and
    # nothing else in the package needs it
    from scipy import stats
    fresh = sample_density(psi_t.normalize(), n, seed + 7919)
    stat = stats.ks_2samp(moved.members[:, 0], fresh.members[:, 0])
    return {
        "n": n,
        "seed": seed,
        "l1": l1,
        "ks_model": ks,
        "hit_node": flow.count(HIT_NODE),
        "left_grid": flow.count(LEFT_GRID),
        "ks_two_sample": float(stat.statistic),
        "ks_two_sample_pvalue": float(stat.pvalue),
    }, (edges, masses)


# --- conditional and effective wave functions -----------------------------------


def conditional_wavefunction(psi2d, y_value):
    """Normalized interpolated slice psi(x) = Psi(x, Y); scalar multiples of
    a field guide identically, so the projective normalization is harmless."""
    grid = psi2d.grid
    if grid.dimension != 2:
        raise ValueError("conditional slice requires a 2-d field")
    ax_env = grid.axes[1]
    if not ax_env.contains(y_value):
        raise OutOfBoundsError(f"Y={y_value} outside the environment axis")
    vals = interp_cubic_1d(psi2d.amplitudes, ax_env.lower, ax_env.spacing,
                           ax_env.periodic, np.array([y_value]))[:, 0]
    slice_wf = ScalarWaveFunction(Grid(axes=(grid.axes[0],)), vals)
    if norm(slice_wf) < 1e-12:
        raise ZeroSliceError(f"slice norm below 1e-12 at Y={y_value}")
    return slice_wf.normalize()


@dataclass(frozen=True)
class MacroPartition:
    """Disjoint labeled intervals of the environment coordinate, the second
    axis of the field."""

    cells: tuple  # ((lower, upper, label), ...)

    def __post_init__(self):
        cells = tuple((float(a), float(b), str(lab)) for a, b, lab in self.cells)
        object.__setattr__(self, "cells", cells)
        labels = [c[2] for c in cells]
        if len(set(labels)) != len(labels):
            raise ValueError("cell labels must be unique")
        ordered = sorted(cells)
        for (a0, b0, _), (a1, _, _) in zip(ordered, ordered[1:]):
            if a1 < b0:
                raise ValueError("cells must be disjoint")
        for a, b, _ in cells:
            if b <= a:
                raise ValueError("cells must have positive width")

    def cell_of(self, y):
        for a, b, lab in self.cells:
            if a <= y <= b:
                return (a, b, lab)
        return None


RESIDUAL_TOL = 1e-3  # the largest relative residual of a product fit


@dataclass(frozen=True)
class EffectiveDecomposition:
    """Psi = system x environment + remainder, with the environment factor
    supported in one partition cell; overlap is the remainder mass left in
    that cell (reported, not hidden)."""

    system: ScalarWaveFunction
    environment: ScalarWaveFunction
    remainder: ScalarWaveFunction
    overlap: float
    fit_residual: float
    cell_label: str


def effective_decomposition(psi2d, partition, y_value):
    """Best rank-one (product) fit of Psi restricted to the cell containing
    Y. Returns None when no product structure exists within the cell
    (relative fit residual above RESIDUAL_TOL)."""
    grid = psi2d.grid
    cell = partition.cell_of(y_value)
    if cell is None:
        raise ValueError(f"Y={y_value} lies in no partition cell")
    a, b, label = cell
    ypts = grid.coordinates(1)
    mask = (ypts >= a) & (ypts <= b)
    if not np.any(mask):
        raise ValueError("partition cell contains no grid points")
    w0 = grid.axes[0].quadrature_weights()
    w1 = grid.axes[1].quadrature_weights()
    s0 = np.sqrt(w0)
    s1 = np.sqrt(w1[mask])
    m = s0[:, None] * psi2d.amplitudes[:, mask] * s1[None, :]
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    total = float(np.sum(s**2))
    if total <= 0:
        raise ZeroSliceError("no amplitude in the selected cell")
    residual = math.sqrt(max(0.0, 1.0 - s[0] ** 2 / total))
    if residual > RESIDUAL_TOL:
        return None
    phi_cell = np.conj(vh[0]) / s1
    sys_amp = s[0] * u[:, 0] / s0
    # phase convention: environment factor real and positive at its peak
    k = int(np.argmax(np.abs(phi_cell)))
    phase = phi_cell[k] / abs(phi_cell[k])
    phi_cell = phi_cell / phase
    sys_amp = sys_amp * phase
    env = np.zeros(grid.axes[1].count, dtype=np.complex128)
    env[mask] = phi_cell
    system = ScalarWaveFunction(Grid(axes=(grid.axes[0],)), sys_amp)
    environment = ScalarWaveFunction(Grid(axes=(grid.axes[1],)), env)
    product = sys_amp[:, None] * env[None, :]
    remainder = ScalarWaveFunction(grid, psi2d.amplitudes - product)
    overlap = float(np.sum(
        (w0[:, None] * w1[None, mask]) * np.abs(remainder.amplitudes[:, mask]) ** 2))
    recon = float(np.sqrt(np.sum(grid.quadrature_weights()
                                 * np.abs(product + remainder.amplitudes
                                          - psi2d.amplitudes) ** 2)))
    if recon >= 1e-8:
        raise AssertionError("decomposition failed to reconstruct the field")
    return EffectiveDecomposition(system, environment, remainder, overlap,
                                  residual, label)


# --- the two-outcome pointer experiment ------------------------------------------


def _gaussian(x, center, width):
    return np.exp(-((x - center) ** 2) / (4.0 * width**2))


def aligned_l2_error(psi_a, psi_b):
    """L2 distance between unit-normalized fields after optimal phase
    alignment (projective comparison)."""
    w = psi_a.grid.quadrature_weights()
    a = psi_a.amplitudes / norm(psi_a)
    b = psi_b.amplitudes / norm(psi_b)
    ov = np.sum(w * np.conj(a) * b)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * abs(ov))))


COLLAPSE_SHAPE = (128, 384)  # grid points of the system and pointer axes
COLLAPSE_STRIDE = 10  # time steps per snapshot of the evolution
# pointer mass on the wrong side of y = 0 below which the cells are disjoint
LEAKAGE_THRESHOLD = 1e-6


def collapse_hamiltonian(coupling):
    """Grid, constants and pointer coupling V = g s(x) y, s = sign(x), of
    ``collapse_experiment``: the system on the first axis, the pointer on the
    second."""
    gx = Grid.regular(-6.0, 6.0, COLLAPSE_SHAPE[0], dimension=1)
    gy = Grid.regular(-6.0, 6.0, COLLAPSE_SHAPE[1], dimension=1)
    grid = Grid(axes=(gx.axes[0], gy.axes[0]))
    # heavy system: its packets barely move
    constants = PhysicalConstants(hbar=1.0, masses=(4000.0, 10.0))
    x, y = grid.coordinates(0), grid.coordinates(1)
    # a coupling too large for V overflows to inf here, and the stepper's
    # phase check turns that into the config error
    with np.errstate(over="ignore"):
        v = coupling * np.sign(x)[:, None] * y[None, :]
    return grid, constants, Sampled(v)


def collapse_experiment(weight, n_members, seed, coupling, t_meas, dt,
                        dt_ode):
    """Two-outcome von Neumann measurement on a 2-d grid; returns the report.

    The system is a superposition c1 phi1 + c2 phi2 of two well-separated
    packets, c1 = sqrt(weight) and c2 = sqrt(1 - weight), so a weight outside
    [0, 1] raises ValueError; the pointer couples through V = g s(x) y with
    s = +-1 on the two packet supports, so the branches push the pointer to
    opposite sides. Equilibrium-sampled configurations are transported by
    the guidance flow, outcomes are read off the pointer cell at t_meas, and
    the report compares outcome frequencies with c1^2, c2^2 and the realized
    branch's effective wave function with its packet. The defaults of the
    run parameters live in one place, the ``collapse`` scenario's table.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight {weight} outside [0, 1]")
    c1, c2 = math.sqrt(weight), math.sqrt(1.0 - weight)
    sep, width_x, width_y = 3.0, 0.5, 0.2
    grid, constants, potential = collapse_hamiltonian(coupling)
    gx, gy = (Grid(axes=(ax,)) for ax in grid.axes)
    x = gx.coordinates(0)
    y = gy.coordinates(0)
    phi1 = ScalarWaveFunction(gx, _gaussian(x, +sep, width_x)).normalize()
    phi2 = ScalarWaveFunction(gx, _gaussian(x, -sep, width_x)).normalize()
    w_x = gx.quadrature_weights()
    packet_overlap = abs(np.sum(w_x * np.conj(phi1.amplitudes)
                                * phi2.amplitudes))
    sys0 = c1 * phi1.amplitudes + c2 * phi2.amplitudes
    pointer0 = _gaussian(y, 0.0, width_y)
    pointer0 /= np.sqrt(np.sum(gy.quadrature_weights() * pointer0**2))
    psi0 = ScalarWaveFunction(grid, np.outer(sys0, pointer0)).normalize()
    evolution = Evolution(psi0, potential, constants, t_meas, dt,
                          SPLIT_FOURIER, snapshot_stride=COLLAPSE_STRIDE)

    # cross-branch mass: pointer amplitude on the wrong side of y=0, at
    # each snapshot as the evolution passes it
    wq = grid.quadrature_weights()
    xpos = (x > 0)[:, None]
    ypos = (y > 0)[None, :]
    times = evolution.times
    leakage_series = []

    def leakage(i, snap):
        rho = wq * density(snap)
        leak = float(np.sum(rho[xpos & ypos]) + np.sum(rho[~xpos & ~ypos]))
        leakage_series.append([float(times[i]), leak])

    ens = sample_density(psi0, n_members, seed)
    flow = Flow(ens.members, evolution, constants, dt_ode=dt_ode)
    evolution.run(leakage, flow)
    flow = flow.result()
    classification_time = next(
        (t for t, leak in leakage_series if leak < LEAKAGE_THRESHOLD), None)
    final_leakage = leakage_series[-1][1]
    # the largest leakage from classification on, over every snapshot; over
    # the whole run when it is never classified
    peak_leakage = max(leak for t, leak in leakage_series
                       if classification_time is None
                       or t >= classification_time)

    y_final = flow.completed()[:, 1]
    n_done = y_final.size
    hit_node, left_grid = flow.count(HIT_NODE), flow.count(LEFT_GRID)
    counts = {"1": int(np.sum(y_final < 0.0)), "2": int(np.sum(y_final > 0.0))}
    freqs = {k: v / n_done for k, v in counts.items()}
    expected = {"1": c1 ** 2, "2": c2 ** 2}
    bands = {}
    for k, p in expected.items():
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n_members)
        bands[k] = [p - 4.0 * sigma, p + 4.0 * sigma]

    partition = MacroPartition(cells=((-6.0, 0.0, "1"), (0.0, 6.0, "2")))
    packets = {"1": phi1, "2": phi2}
    eff_errors = {}
    for k in ("1", "2"):
        side = y_final < 0.0 if k == "1" else y_final > 0.0
        if not np.any(side):
            continue
        y_rep = float(np.median(y_final[side]))
        dec = effective_decomposition(evolution.last, partition, y_rep)
        if dec is None:
            eff_errors[k] = None
        else:
            eff_errors[k] = aligned_l2_error(dec.system, packets[k])

    checks = []
    for k, p in expected.items():
        if p == 0.0 or p == 1.0:
            ok = freqs[k] == p
        else:
            ok = bands[k][0] <= freqs[k] <= bands[k][1]
        checks.append({"name": f"frequency[{k}] in 4-sigma band",
                       "value": freqs[k], "band": bands[k], "passed": bool(ok)})
    for k, err in eff_errors.items():
        checks.append({"name": f"effective state matches packet {k}",
                       "value": err, "threshold": 1e-3,
                       "passed": err is not None and err < 1e-3})
    checks.append({"name": "pointer cells macroscopically disjoint",
                   "value": final_leakage, "threshold": LEAKAGE_THRESHOLD,
                   "passed": final_leakage < LEAKAGE_THRESHOLD})
    checks.append({"name": "pointer cells stay disjoint from classification "
                   "to t_meas", "value": peak_leakage,
                   "threshold": LEAKAGE_THRESHOLD,
                   "passed": (classification_time is not None
                              and peak_leakage < LEAKAGE_THRESHOLD)})
    lost = (hit_node + left_grid) / n_members
    checks.append({"name": "lost fraction (node hits and grid exits) <= 0.01",
                   "value": lost, "threshold": 0.01, "passed": lost <= 0.01})
    return {
        "parameters": {
            "c1": [c1, 0.0],
            "c2": [c2, 0.0],
            "n_members": n_members,
            "coupling": coupling,
            "t_meas": t_meas,
            "dt": dt,
            "dt_ode": dt_ode,
            "packet_separation": 2 * sep,
            "packet_overlap": float(packet_overlap),
            "leakage_threshold": LEAKAGE_THRESHOLD,
        },
        "seed": seed,
        "counts": {**counts, "hit_node": hit_node, "left_grid": left_grid},
        "frequencies": freqs,
        "expected": expected,
        "binomial_band": bands,
        "classification_time": classification_time,
        "final_leakage": final_leakage,
        "leakage_series": leakage_series[:: max(1, len(leakage_series) // 20)],
        "effective_state_errors": eff_errors,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
