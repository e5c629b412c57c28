"""Time-dependent Schrodinger evolution by two independent unitary schemes
(Strang-split Fourier on periodic grids, Cayley/Crank-Nicolson with
alternating-direction tridiagonal solves on boxed grids, every line of a
sweep factored once and then solved in one LAPACK call per step), plus the
continuity-equation diagnostic and on-disk persistence of evolutions.

Both steppers advance a state by a given number of steps in one call, and
``evolve`` makes one call per snapshot interval. A record keeps one clock,
the step and the stride of steps between snapshots: its snapshot spacing is
step_dt x stride and its times follow from that.

Free evolution stays in k-space. When the potential vanishes on every grid
point, each potential half-step multiplies by exactly 1 and the inverse
and forward transforms between two steps compose to the identity, so the
Strang step is the kinetic phase exp(-i T dt) alone, applied in k-space.
Such an interval of S steps costs one forward transform, S kinetic products
and one inverse transform: two transforms instead of 2S. Its values differ
from stepping through real space only by the roundoff of the transforms it
leaves out.

A split-Fourier step allocates only the array it returns: the forward
transform, the kinetic phase, the inverse transform and the second
potential half-step all write into that one buffer. Each elementwise
product names its operand order, phase first, because complex
multiplication with fused multiply-adds is not bitwise commutative. An
expression such as ``phase * np.fft.fftn(x)`` leaves that order to numpy,
which evaluates it as ``fftn(x) *= phase`` once the temporary reaches its
elision size, so the bits of a step would depend on the grid size.

A two-component field in a uniform magnetic field B (the magnetic moment
absorbed into B) evolves by H = H0 (x) 1 + B.sigma. B.sigma acts on the
spin index alone and does not depend on x, so the two terms commute, and
exp(-i H dt/hbar) is exactly the rotation R(dt) = exp(-i dt B.sigma/hbar)
times the scalar evolution of each component. ``PauliStepper`` wraps the
prepared split-Fourier step S(dt) in closed-form half rotations,
R(dt/2) S(dt) R(dt/2): one full rotation on one side would be as exact, and
the halves keep the step symmetric in time like the Strang step inside it."""

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import potentials as potentials_mod
from .fields import (ScalarWaveFunction, _require_finite, divergence, norm,
                     probability_current, read_wavefunction,
                     write_wavefunction)
from .grids import Grid, PhysicalConstants
from .kernels import factor_tridiagonal, thomas_solve

SPLIT_FOURIER = "split-fourier"
CRANK_NICOLSON = "crank-nicolson"

SOLVE_TOL = 1e-12  # relative residual allowed on each tridiagonal solve
TIME_RTOL = 1e-9  # relative tolerance of every comparison of two times


def time_tol(t):
    """How far an instant may lie from t and still count as t:
    TIME_RTOL max(1, |t|). Step counts, flow spans and a stored record's
    times all compare instants within it."""
    return TIME_RTOL * max(1.0, abs(t))


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

    ``free`` records whether the evaluated potential is zero on every grid
    point, a property of the data whatever the potential's type. Then a
    step is exactly exp(-i T dt), and ``advance`` stays in k-space between
    the steps of one call. A phase that is not finite (V or dt T beyond the
    float range) raises a ValueError here rather than turning the state
    into NaN.

    ``advance`` allocates one state-sized array per step (one per call when
    free) and runs every later pass in place on it. Each product is written
    ``np.multiply(phase, out, out=out)``, the phase array first: the order
    fixes the rounding of each complex product, and it is the same on every
    grid size."""

    def __init__(self, grid, potential, constants, dt):
        v = potential.evaluate(grid, constants)
        self.free = not np.any(v)
        phase = np.zeros(grid.shape)
        for axis, ax in enumerate(grid.axes):
            k = 2.0 * np.pi * np.fft.fftfreq(ax.count, d=ax.spacing)
            shape = [1] * grid.dimension
            shape[axis] = ax.count
            phase = phase + (constants.hbar * k.reshape(shape) ** 2
                             / (2.0 * constants.masses[axis]))
        # a phase beyond the float range raises below rather than warns here
        with np.errstate(over="ignore", invalid="ignore"):
            self.exp_v_half = np.exp(-0.5j * dt * v / constants.hbar)
            self.exp_kinetic = np.exp(-1j * dt * phase)
        for name, factor in (("potential", self.exp_v_half),
                             ("kinetic", self.exp_kinetic)):
            _require_finite(factor, f"the {name} phase of a {dt:g} step")

    def advance(self, arr, steps=1):
        """The state ``steps`` steps after ``arr``, in a new array.

        Free: one forward transform, ``steps`` kinetic products and one
        inverse transform. Otherwise: ``steps`` Strang steps, two transforms
        each."""
        if self.free:
            out = np.fft.fftn(arr)
            for _ in range(steps):
                np.multiply(self.exp_kinetic, out, out=out)
            return np.fft.ifftn(out, out=out)
        for _ in range(steps):
            arr = self._strang_step(arr)
        return arr

    def _strang_step(self, arr):
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
    A^(-1) B with A = 1 + i tau H/2hbar and B = 1 - i tau H/2hbar, solved
    line by line.

    A never changes, so it is LU-factored once here and every step only
    back-substitutes. Since B = 2 - A, the step needs no product with B:
    A^(-1) B l = 2 A^(-1) l - l. ``apply`` solves A y = l, checks the
    solve against the unfactored A (max |A y - l| at most SOLVE_TOL times
    max |l|) and returns 2 y - l. The kinetic coupling of A is one scalar,
    ``off``, the same for all neighbours."""

    def __init__(self, grid, axis, v_share, constants, tau):
        ax = grid.axes[axis]
        self.axis = axis
        lam = tau / (2.0 * constants.hbar)
        hop = -constants.hbar**2 / (2.0 * constants.masses[axis] * ax.spacing**2)
        diag_h = -2.0 * hop + np.moveaxis(v_share, axis, -1).reshape(-1, ax.count)
        # a non-finite potential raises below rather than warns here
        with np.errstate(over="ignore", invalid="ignore"):
            self.a_d = 1.0 + 1j * lam * diag_h
        _require_finite(self.a_d, f"the potential diagonal of a {tau:g} step")
        self.off = 1j * lam * hop
        off = np.broadcast_to(self.off, self.a_d.shape)
        self.lu = factor_tridiagonal(off, self.a_d, off)

    def apply(self, arr):
        moved = np.moveaxis(arr, self.axis, -1)
        shape = moved.shape
        lines = moved.reshape(-1, shape[-1])
        sol = thomas_solve(self.lu, lines)
        res = _tridiagonal_times(self.a_d, self.off, sol)
        scale = np.max(np.abs(lines))
        residual = np.max(np.abs(res - lines))
        if scale > 0 and not residual <= SOLVE_TOL * scale:  # NaN fails too
            raise RuntimeError("tridiagonal solve residual above tolerance")
        # sol is the solver's own array, never the state: 2 y - l in place
        np.multiply(sol, 2.0, out=sol)
        np.subtract(sol, lines, out=sol)
        return np.moveaxis(sol.reshape(shape), -1, self.axis)


class _CrankNicolsonStepper:
    """1-d: plain Cayley step. 2-d: Strang-composed alternating directions
    C_x(dt/2) C_y(dt) C_x(dt/2), every factor exactly unitary.

    The first of these a process prepares binds LAPACK: its factorization
    loads scipy's ``_flapack`` extension file, not the ``scipy.linalg``
    package, in about 5 ms and 2.4 MB against 0.2 s and 25 MB for the
    package import, and split-Fourier runs never pay it (see ``kernels``).
    A potential that is not finite on the grid raises a ValueError here."""

    def __init__(self, grid, potential, constants, dt):
        v = potential.evaluate(grid, constants)
        if grid.dimension == 1:
            self.factors = (_CayleyAxis(grid, 0, v, constants, dt),)
        else:
            half = 0.5 * v
            cx = _CayleyAxis(grid, 0, half, constants, 0.5 * dt)
            cy = _CayleyAxis(grid, 1, half, constants, dt)
            self.factors = (cx, cy, cx)

    def advance(self, arr, steps=1):
        """The state ``steps`` steps after ``arr``.

        Each step is its own call, so the state it starts from stays alive
        until the next one is built. Freeing it after the first factor
        instead changed how the allocator reuses the 128^2 sweep buffers:
        most processes then page-faulted about 9000 times per 50-step 2-d
        evolution, against about 1000 otherwise."""
        for _ in range(steps):
            arr = self._step(arr)
        return arr

    def _step(self, arr):
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


class PauliStepper:
    """R(dt/2) S(dt) R(dt/2) on a two-component field: S is the split-Fourier
    step of ``potential`` on each component, R the rotation in the uniform
    field B = ``b_field``, its coefficients computed once; B = 0 skips it."""

    def __init__(self, grid, potential, constants, dt, b_field):
        self.scalar = prepare_stepper(grid, potential, constants, dt,
                                      SPLIT_FOURIER)
        bx, by, bz = (float(c) for c in b_field)
        bmag = math.hypot(bx, by, bz)
        self.rotation = None  # ((a, b), (c, d)) of R(dt/2)
        if bmag > 0.0:
            theta = 0.5 * dt * bmag / constants.hbar
            if not math.isfinite(theta):
                raise ValueError(f"the rotation angle of a {dt:g} step in a "
                                 f"field of magnitude {bmag:g} is not finite")
            c, s = np.cos(theta), np.sin(theta)
            nx, ny, nz = bx / bmag, by / bmag, bz / bmag
            self.rotation = ((c - 1j * s * nz, -1j * s * (nx - 1j * ny)),
                             (-1j * s * (nx + 1j * ny), c + 1j * s * nz))

    def _rotate(self, up, down):
        if self.rotation is None:
            return up, down
        (a, b), (c, d) = self.rotation
        return a * up + b * down, c * up + d * down

    def advance(self, up, down):
        """The components one step after (up, down), in new arrays."""
        up, down = self._rotate(up, down)
        return self._rotate(self.scalar.advance(up), self.scalar.advance(down))


@dataclass(frozen=True)
class EvolutionRecord:
    """Equally spaced snapshots of one evolution, kept for the guidance flow.
    Its one clock is the integrator step ``step_dt`` and the ``stride`` of
    steps between snapshots: snapshot i is the field at t = i dt, where
    dt = step_dt * stride is the snapshot spacing."""

    grid: Grid
    constants: PhysicalConstants
    potential: object
    method: str
    step_dt: float      # integrator step
    stride: int         # integrator steps per snapshot
    snapshots: list

    def __post_init__(self):
        _check_method(self.grid, self.method)
        if not (_is_number(self.step_dt) and self.step_dt > 0):
            raise ValueError(f"step_dt: must be positive and finite, found "
                             f"{self.step_dt!r}")
        if (not isinstance(self.stride, (int, np.integer))
                or isinstance(self.stride, bool) or self.stride < 1):
            raise ValueError(f"stride: must be a positive integer, found "
                             f"{self.stride!r}")
        if not self.snapshots:
            raise ValueError("a record needs at least one snapshot")
        for s in self.snapshots:
            if s.grid != self.grid:
                raise ValueError("snapshot grid mismatch")
            if abs(norm(s) - 1.0) > 1e-8:
                raise ValueError("snapshot not normalized within 1e-8")

    @property
    def dt(self):
        return self.step_dt * self.stride

    @property
    def times(self):
        """The snapshot times: step_dt times each snapshot's step index, in
        that order, since (step_dt * stride) * i rounds differently."""
        return self.step_dt * (self.stride * np.arange(len(self.snapshots)))

    @property
    def t_final(self):
        return float(self.times[-1])

    def check_constants(self, constants):
        """Raise ValueError unless ``constants`` are the ones the record was
        evolved with: ``integrate_flow``, which still takes constants, reads
        velocities off the record's fields with them."""
        if constants != self.constants:
            raise ValueError(f"constants {constants.describe()} differ from "
                             f"the record's {self.constants.describe()}")


def _is_number(value):
    """A finite real number; a string that reads as one is not, and
    neither is a bool, although Python counts it as an int."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


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
            and abs(round(ratio) * dt - t_final) <= time_tol(t_final)):
        raise ValueError("t_final must be an integer number of dt steps")
    n_steps = int(round(ratio))
    if n_steps % snapshot_stride != 0:
        raise ValueError("snapshot_stride must divide the step count")
    return n_steps


def evolve(psi0, potential, constants, t_final, dt, method, snapshot_stride=1):
    """Repeated stepping from t=0, storing every stride-th snapshot
    (t=0 and t_final included). Each snapshot interval is one ``advance``
    call of ``snapshot_stride`` steps; with a potential that vanishes on the
    grid, that call makes two transforms whatever the stride."""
    n_steps = step_count(t_final, dt, snapshot_stride)
    if abs(norm(psi0) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    stepper = prepare_stepper(psi0.grid, potential, constants, dt, method)
    arr = psi0.amplitudes
    snaps = [psi0]
    for _ in range(n_steps // snapshot_stride):
        arr = stepper.advance(arr, snapshot_stride)
        snaps.append(ScalarWaveFunction(psi0.grid, arr))
    return EvolutionRecord(psi0.grid, constants, potential, method, dt,
                           snapshot_stride, snaps)


def continuity_residual(record):
    """max |d rho / dt + div J| over interior snapshot times, with centered
    time differences and the module's derivative stencils in space."""
    if len(record.snapshots) < 3:
        raise ValueError("continuity residual needs at least 3 snapshots")
    worst = 0.0
    rhos = [np.abs(s.amplitudes) ** 2 for s in record.snapshots]
    for j in range(1, len(record.snapshots) - 1):
        drho = (rhos[j + 1] - rhos[j - 1]) / (2.0 * record.dt)
        div = divergence(probability_current(record.snapshots[j],
                                             record.constants))
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
    times = _parse_field(manifest, "times",
                         lambda v: np.asarray(v, dtype=np.float64))
    if times.ndim != 1:
        raise ValueError(f"times: expected a 1-d array, found shape "
                         f"{times.shape}")
    bad = [t for t in manifest["times"] if not _is_number(t)]
    if bad:
        raise ValueError(f"times: expected finite numbers, found {bad[0]!r}")
    snaps = []
    for name in _parse_field(manifest, "snapshots", list):
        psi, snap_constants = read_wavefunction(os.path.join(directory, name))
        if snap_constants != constants:
            raise ValueError(f"{name}: constants {snap_constants.describe()} "
                             f"differ from the manifest's "
                             f"{constants.describe()}")
        snaps.append(psi)
    record = EvolutionRecord(grid, constants, potential, manifest["method"],
                             manifest["step_dt"], manifest["stride"], snaps)
    # the stored clock catches a corrupt step_dt or stride
    dt = manifest["dt"]
    if not _is_number(dt):
        raise ValueError(f"dt: expected a finite number, found {dt!r}")
    if abs(dt - record.dt) > TIME_RTOL * record.dt:
        raise ValueError(f"dt: snapshot spacing {dt!r} is not step_dt "
                         f"{record.step_dt!r} times stride {record.stride}")
    if len(times) != len(snaps) or np.any(
            np.abs(times - record.times) > time_tol(record.t_final)):
        raise ValueError(f"times: a record starts at t = 0 and has one time "
                         f"per snapshot, dt = {record.dt!r} apart")
    return record
