"""Time-dependent Schrodinger evolution by two independent unitary schemes
(Strang-split Fourier on periodic grids, Cayley/Crank-Nicolson with
alternating-direction tridiagonal solves on boxed grids, every line of a
sweep factored once and then solved in one LAPACK call per step), plus the
continuity-equation diagnostic and on-disk persistence of evolutions.

A split-Fourier step allocates only the array it returns: the forward
transform, the kinetic phase, the inverse transform and the second
potential half-step all write into that one buffer. Each elementwise
product names its operand order, phase first, because complex
multiplication with fused multiply-adds is not bitwise commutative. An
expression such as ``phase * np.fft.fftn(x)`` leaves that order to numpy,
which evaluates it as ``fftn(x) *= phase`` once the temporary reaches its
elision size, so the bits of a step would depend on the grid size."""

import json
import math
import numbers
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
    """Strang step exp(-i V dt/2) F^-1 exp(-i T dt) F exp(-i V dt/2), with
    both phase arrays built once on the full grid.

    ``advance`` allocates one state-sized array and runs every later pass in
    place on it. Each product is written ``np.multiply(phase, out,
    out=out)``, the phase array first: the order fixes the rounding of each
    complex product, and it is the same on every grid size."""

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
        np.fft.fftn(out, out=out)
        np.multiply(self.exp_kinetic, out, out=out)
        np.fft.ifftn(out, out=out)
        np.multiply(self.exp_v_half, out, out=out)
        return out


def _tridiagonal_times(diag, off, lines):
    """Each line (row) times its tridiagonal matrix, with diagonal diag (one
    row per line) and the scalar off on both off-diagonals."""
    out = diag * lines
    out[:, 1:] += off * lines[:, :-1]
    out[:, :-1] += off * lines[:, 1:]
    return out


class _CayleyAxis:
    """Exactly unitary Cayley half of the Hamiltonian along one axis:
    (1 + i tau H/2hbar)^(-1) (1 - i tau H/2hbar), solved line by line.

    The left-hand matrix never changes, so it is LU-factored once here and
    every step only back-substitutes. Each solve is still checked against
    the unfactored matrix. The kinetic coupling is one scalar, the same for
    all neighbours: ``off`` on the left-hand side, -``off`` on the right."""

    def __init__(self, grid, axis, v_share, constants, tau):
        ax = grid.axes[axis]
        self.axis = axis
        lam = tau / (2.0 * constants.hbar)
        hop = -constants.hbar**2 / (2.0 * constants.masses[axis] * ax.spacing**2)
        diag_h = -2.0 * hop + np.moveaxis(v_share, axis, -1).reshape(-1, ax.count)
        self.a_d = 1.0 + 1j * lam * diag_h
        self.b_d = 1.0 - 1j * lam * diag_h
        self.off = 1j * lam * hop
        off = np.broadcast_to(self.off, self.a_d.shape)
        self.lu = factor_tridiagonal(off, self.a_d, off)

    def apply(self, arr):
        moved = np.moveaxis(arr, self.axis, -1)
        shape = moved.shape
        lines = moved.reshape(-1, shape[-1])
        rhs = _tridiagonal_times(self.b_d, -self.off, lines)
        sol = thomas_solve(self.lu, rhs)
        res = _tridiagonal_times(self.a_d, self.off, sol)
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
    dt: float           # snapshot spacing, step_dt * stride to 1e-9
    step_dt: float      # integrator step
    stride: int
    times: np.ndarray
    snapshots: list = field(default_factory=list)

    def __post_init__(self):
        _check_method(self.grid, self.method)
        for name in ("dt", "step_dt"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and value > 0):
                raise ValueError(f"{name}: must be positive and finite, "
                                 f"found {value!r}")
        if not isinstance(self.stride, (int, np.integer)) or self.stride < 1:
            raise ValueError(f"stride: must be a positive integer, found "
                             f"{self.stride!r}")
        if not abs(self.dt - self.step_dt * self.stride) <= 1e-9 * abs(self.dt):
            raise ValueError(f"dt: snapshot spacing {self.dt!r} is not step_dt "
                             f"{self.step_dt!r} times stride {self.stride}")
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


_MANIFEST_KEYS = ("grid", "constants", "potential", "method", "dt", "step_dt",
                  "stride", "times", "snapshots")


def _parse_field(manifest, key, parse):
    """parse(manifest[key]); a fault nested inside the field, such as a
    missing key or a value of the wrong type, raises a ValueError that
    names the field."""
    try:
        return parse(manifest[key])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest: malformed field {key!r} "
                         f"({type(exc).__name__}: {exc})") from exc


def load_record(directory):
    """Inverse of save_record. A manifest with a missing or inconsistent
    field, or a snapshot whose constants differ from the manifest's, raises
    a ValueError that names the field."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"manifest: missing field {missing[0]!r}")
    grid = _parse_field(manifest, "grid", Grid.from_description)
    constants = _parse_field(manifest, "constants",
                             PhysicalConstants.from_description)

    def potential_from(desc):
        if desc["kind"] == "sampled":
            return potentials_mod.Sampled(
                np.load(os.path.join(directory, "potential.npy")))
        return potentials_mod.from_description(desc)

    potential = _parse_field(manifest, "potential", potential_from)
    snaps = []
    for name in manifest["snapshots"]:
        psi, snap_constants = read_wavefunction(os.path.join(directory, name))
        if snap_constants != constants:
            raise ValueError(f"{name}: constants {snap_constants.describe()} "
                             f"differ from the manifest's "
                             f"{constants.describe()}")
        snaps.append(psi)
    return EvolutionRecord(grid, constants, potential, manifest["method"],
                           manifest["dt"], manifest["step_dt"],
                           manifest["stride"],
                           np.asarray(manifest["times"]), snaps)
