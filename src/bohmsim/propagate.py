"""Time-dependent Schrodinger evolution by two independent unitary schemes
(Strang-split Fourier on periodic grids, Cayley/Crank-Nicolson with
alternating-direction tridiagonal solves on boxed grids, every line of a
sweep factored once and then solved in one LAPACK call per step), plus the
continuity-equation diagnostic and on-disk persistence of evolutions."""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import potentials as potentials_mod
from .fields import (ScalarWaveFunction, divergence, norm,
                     probability_current, read_wavefunction,
                     write_wavefunction)
from .grids import Grid, PhysicalConstants
from .kernels import factor_tridiagonal, thomas_solve

SPLIT_FOURIER = "split-fourier"
CRANK_NICOLSON = "crank-nicolson"

SOLVE_TOL = 1e-12  # relative residual allowed on each tridiagonal solve


def _check_method(grid, method):
    if method == SPLIT_FOURIER:
        if not all(ax.periodic for ax in grid.axes):
            raise ValueError("split-fourier requires periodic axes")
    elif method == CRANK_NICOLSON:
        if any(ax.periodic for ax in grid.axes):
            raise ValueError("crank-nicolson requires boxed axes")
    else:
        raise ValueError(f"unknown propagator method {method!r}")


class _SplitFourierStepper:
    def __init__(self, grid, potential, constants, dt):
        v = potential.evaluate(grid, constants)
        self.exp_v_half = np.exp(-0.5j * dt * v / constants.hbar)
        phase = np.zeros(grid.shape)
        for axis, ax in enumerate(grid.axes):
            k = 2.0 * np.pi * np.fft.fftfreq(ax.count, d=ax.spacing)
            shape = [1] * grid.dimension
            shape[axis] = ax.count
            phase = phase + (constants.hbar * k.reshape(shape) ** 2
                             / (2.0 * constants.masses[axis]))
        self.exp_kinetic = np.exp(-1j * dt * phase)

    def advance(self, arr):
        out = self.exp_v_half * arr
        out = np.fft.ifftn(self.exp_kinetic * np.fft.fftn(out))
        return self.exp_v_half * out


class _CayleyAxis:
    """Exactly unitary Cayley half of the Hamiltonian along one axis:
    (1 + i tau H/2hbar)^(-1) (1 - i tau H/2hbar), solved line by line.

    The left-hand matrix never changes, so it is LU-factored once here and
    every step only back-substitutes. Each solve is still checked against
    the unfactored matrix."""

    def __init__(self, grid, axis, v_share, constants, tau):
        ax = grid.axes[axis]
        self.axis = axis
        lam = tau / (2.0 * constants.hbar)
        hop = -constants.hbar**2 / (2.0 * constants.masses[axis] * ax.spacing**2)
        diag_h = -2.0 * hop + np.moveaxis(v_share, axis, -1).reshape(-1, ax.count)
        b = diag_h.shape[0]
        self.a_d = 1.0 + 1j * lam * diag_h
        self.b_d = 1.0 - 1j * lam * diag_h
        self.a_off = np.full((b, ax.count), 1j * lam * hop)
        self.b_off = -self.a_off
        self.lu = factor_tridiagonal(self.a_off, self.a_d, self.a_off)

    def apply(self, arr):
        moved = np.moveaxis(arr, self.axis, -1)
        shape = moved.shape
        lines = moved.reshape(-1, shape[-1])
        rhs = self.b_d * lines
        rhs[:, 1:] += self.b_off[:, 1:] * lines[:, :-1]
        rhs[:, :-1] += self.b_off[:, :-1] * lines[:, 1:]
        sol = thomas_solve(self.lu, rhs)
        res = self.a_d * sol
        res[:, 1:] += self.a_off[:, 1:] * sol[:, :-1]
        res[:, :-1] += self.a_off[:, :-1] * sol[:, 1:]
        scale = np.max(np.abs(rhs))
        if scale > 0 and np.max(np.abs(res - rhs)) > SOLVE_TOL * scale:
            raise RuntimeError("tridiagonal solve residual above tolerance")
        return np.moveaxis(sol.reshape(shape), -1, self.axis)


class _CrankNicolsonStepper:
    """1-d: plain Cayley step. 2-d: Strang-composed alternating directions
    C_x(dt/2) C_y(dt) C_x(dt/2), every factor exactly unitary."""

    def __init__(self, grid, potential, constants, dt):
        v = potential.evaluate(grid, constants)
        if grid.dimension == 1:
            self.factors = (_CayleyAxis(grid, 0, v, constants, dt),)
        else:
            half = 0.5 * v
            cx = _CayleyAxis(grid, 0, half, constants, 0.5 * dt)
            cy = _CayleyAxis(grid, 1, half, constants, dt)
            self.factors = (cx, cy, cx)

    def advance(self, arr):
        for f in self.factors:
            arr = f.apply(arr)
        return arr


def prepare_stepper(grid, potential, constants, dt, method):
    _check_method(grid, method)
    constants.check_dimension(grid)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method == SPLIT_FOURIER:
        return _SplitFourierStepper(grid, potential, constants, dt)
    return _CrankNicolsonStepper(grid, potential, constants, dt)


def step(psi, potential, constants, dt, method):
    """One unitary step of size dt."""
    stepper = prepare_stepper(psi.grid, potential, constants, dt, method)
    return psi.with_amplitudes(stepper.advance(psi.amplitudes))


@dataclass(frozen=True)
class EvolutionRecord:
    """Equally spaced snapshots of one evolution, kept for the guidance flow."""

    grid: Grid
    constants: PhysicalConstants
    potential: object
    method: str
    dt: float           # snapshot spacing
    step_dt: float      # integrator step
    stride: int
    times: np.ndarray
    snapshots: list = field(default_factory=list)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if len(times) != len(self.snapshots) or len(times) == 0:
            raise ValueError("one snapshot per time required")
        if len(times) > 1:
            gaps = np.diff(times)
            if np.any(np.abs(gaps - self.dt) > 1e-9 * max(1.0, abs(self.dt))):
                raise ValueError("snapshot times must be equally spaced by dt")
        for s in self.snapshots:
            if s.grid != self.grid:
                raise ValueError("snapshot grid mismatch")
            if abs(norm(s) - 1.0) > 1e-8:
                raise ValueError("snapshot not normalized within 1e-8")

    @property
    def t_initial(self):
        return float(self.times[0])

    @property
    def t_final(self):
        return float(self.times[-1])

    def spans(self, t0, t1):
        eps = 1e-9 * max(1.0, abs(self.t_final))
        return self.t_initial - eps <= t0 and t1 <= self.t_final + eps

    def bracket(self, t):
        """Indices (i, i+1) and blend weight for linear interpolation at t."""
        if len(self.times) == 1:
            return 0, 0, 0.0
        s = (t - self.t_initial) / self.dt
        i = int(np.clip(np.floor(s), 0, len(self.times) - 2))
        theta = float(np.clip(s - i, 0.0, 1.0))
        return i, i + 1, theta


def step_count(t_final, dt, snapshot_stride=1):
    """Number of dt steps from t=0 to t_final, which the snapshot stride
    must divide. Checks dt before dividing by it."""
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be positive")
    ratio = t_final / dt
    if not (math.isfinite(ratio)
            and abs(round(ratio) * dt - t_final) <= 1e-9 * max(1.0, t_final)):
        raise ValueError("t_final must be an integer number of dt steps")
    n_steps = int(round(ratio))
    if n_steps % snapshot_stride != 0:
        raise ValueError("snapshot_stride must divide the step count")
    return n_steps


def evolve(psi0, potential, constants, t_final, dt, method, snapshot_stride=1):
    """Repeated stepping from t=0, storing every stride-th snapshot
    (t=0 and t_final included)."""
    n_steps = step_count(t_final, dt, snapshot_stride)
    if abs(norm(psi0) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    if n_steps == 0:
        return EvolutionRecord(psi0.grid, constants, potential, method,
                               dt * snapshot_stride, dt, snapshot_stride,
                               np.array([0.0]), [psi0])
    stepper = prepare_stepper(psi0.grid, potential, constants, dt, method)
    arr = psi0.amplitudes
    snaps = [psi0]
    times = [0.0]
    for k in range(1, n_steps + 1):
        arr = stepper.advance(arr)
        if k % snapshot_stride == 0:
            snaps.append(ScalarWaveFunction(psi0.grid, arr))
            times.append(k * dt)
    return EvolutionRecord(psi0.grid, constants, potential, method,
                           dt * snapshot_stride, dt, snapshot_stride,
                           np.asarray(times), snaps)


def continuity_residual(record, constants):
    """max |d rho / dt + div J| over interior snapshot times, with centered
    time differences and the module's derivative stencils in space."""
    if len(record.snapshots) < 3:
        raise ValueError("continuity residual needs at least 3 snapshots")
    worst = 0.0
    rhos = [np.abs(s.amplitudes) ** 2 for s in record.snapshots]
    for j in range(1, len(record.snapshots) - 1):
        drho = (rhos[j + 1] - rhos[j - 1]) / (2.0 * record.dt)
        div = divergence(probability_current(record.snapshots[j], constants))
        worst = max(worst, float(np.max(np.abs(drho + div))))
    return worst


# --- persistence --------------------------------------------------------------


def save_record(record, directory):
    """Manifest (JSON) plus one binary wave-function file per snapshot."""
    os.makedirs(directory, exist_ok=True)
    pot_desc = record.potential.describe()
    if pot_desc["kind"] == "sampled":
        np.save(os.path.join(directory, "potential.npy"),
                record.potential.values)
    manifest = {
        "grid": record.grid.describe(),
        "constants": record.constants.describe(),
        "potential": pot_desc,
        "method": record.method,
        "dt": record.dt,
        "step_dt": record.step_dt,
        "stride": record.stride,
        "times": [float(t) for t in record.times],
        "snapshots": [f"snapshot_{i:05d}.bwf" for i in range(len(record.times))],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for name, snap in zip(manifest["snapshots"], record.snapshots):
        write_wavefunction(snap, record.constants, os.path.join(directory, name))


def load_record(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    grid = Grid.from_description(manifest["grid"])
    constants = PhysicalConstants.from_description(manifest["constants"])
    pot_desc = manifest["potential"]
    if pot_desc["kind"] == "sampled":
        potential = potentials_mod.Sampled(
            np.load(os.path.join(directory, "potential.npy")))
    else:
        potential = potentials_mod.from_description(pot_desc)
    snaps = []
    for name in manifest["snapshots"]:
        psi, _ = read_wavefunction(os.path.join(directory, name))
        snaps.append(psi)
    return EvolutionRecord(grid, constants, potential, manifest["method"],
                           manifest["dt"], manifest["step_dt"],
                           manifest["stride"],
                           np.asarray(manifest["times"]), snaps)
