"""The guidance law: velocity fields derived from wave functions (scalar and
spinor), node handling, and trajectory integration dQ/dt = v(Q, t) by fixed-step
RK4 on time-interpolated evolution records.

Integration is time-major. Every member of a batch moves independently under
the same field, so all of them advance together, one RK4 step at a time, and
no member's arithmetic depends on which others share its batch. One
``RecordSampler`` window serves the whole batch: it derives each snapshot's
psi and grad psi once, and each RK4 stage interpolates them in one stacked
call. The sampler owns the snapshot clock (snapshot i is at t0 + i dt), so
the flow needs only a record's start, spacing and snapshots. The flow runs
on one thread: on two cores, splitting each stage's members over two
threads ran slower than one thread.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpinorWaveFunction, density, gradient, gradient_array
from .kernels import interp_cubic_1d, interp_cubic_2d

COMPLETED = "Completed"
HIT_NODE = "HitNode"
LEFT_GRID = "LeftGrid"

_STATUS_NAMES = {0: COMPLETED, 1: HIT_NODE, 2: LEFT_GRID}

HALT = "halt"
CAP_SPEED = "cap-speed"

DEFAULT_NODE_FRACTION = 1e-12  # of the peak density


class OutOfBoundsError(Exception):
    pass


class HitNodeError(Exception):
    pass


@dataclass(frozen=True)
class Configuration:
    coordinates: tuple
    time: float = 0.0

    def __post_init__(self):
        coords = tuple(float(c) for c in np.atleast_1d(self.coordinates))
        if not all(np.isfinite(coords)):
            raise ValueError("configuration coordinates must be finite")
        object.__setattr__(self, "coordinates", coords)


@dataclass(frozen=True)
class NodePolicy:
    """What to do when the density under a trajectory drops below threshold.

    A None threshold resolves to DEFAULT_NODE_FRACTION times the peak density
    of the field being sampled. Halting detects node approaches (the default,
    used for reporting rates); capping the speed is a diagnostic mode only.
    """

    density_threshold: float = None
    action: str = HALT
    v_max: float = None

    def __post_init__(self):
        if self.action not in (HALT, CAP_SPEED):
            raise ValueError(f"unknown node action {self.action!r}")
        if self.action == CAP_SPEED and not self.v_max:
            raise ValueError("cap-speed policy needs v_max")
        if self.density_threshold is not None and self.density_threshold <= 0:
            raise ValueError("density threshold must be positive")

    def resolve(self, peak_density):
        if self.density_threshold is not None:
            return self.density_threshold
        return DEFAULT_NODE_FRACTION * peak_density


def _point(grid, q):
    """Configuration or coordinates q as a (1, d) array of a point on grid."""
    coords = q.coordinates if isinstance(q, Configuration) else np.atleast_1d(q)
    pts = np.asarray(coords, dtype=np.float64).reshape(1, -1)
    if not grid.contains(pts)[0]:
        raise OutOfBoundsError(f"configuration {pts[0].tolist()} off the grid")
    return pts


def _interp_any(grid, values, pts):
    """Batch cubic interpolation of one gridded complex array, or of several
    stacked on a leading axis; pts is (B, d)."""
    if grid.dimension == 1:
        ax = grid.axes[0]
        return interp_cubic_1d(values, ax.lower, ax.spacing, ax.periodic,
                               np.ascontiguousarray(pts[:, 0]))
    ax0, ax1 = grid.axes
    return interp_cubic_2d(values, ax0.lower, ax0.spacing, ax0.periodic,
                           ax1.lower, ax1.spacing, ax1.periodic,
                           np.ascontiguousarray(pts[:, 0]),
                           np.ascontiguousarray(pts[:, 1]))


def interpolate(psi, q):
    """Off-grid evaluation of the field by separable cubic interpolation.
    Exact at grid points."""
    return complex(_interp_any(psi.grid, psi.amplitudes,
                               _point(psi.grid, q))[0])


class RecordSampler:
    """psi and grad psi of a run of snapshots, linearly interpolated in time.

    Snapshot i is the field at time t0 + i dt; t0 and dt matter only when
    there is more than one snapshot. A sliding window of shape
    (slots * (1 + d),) + grid.shape holds the fields of at most two
    snapshots, one per slot: snapshot i sits in slot i % 2 as the 1 + d
    leading rows (psi, d_1 psi, ..., d_d psi), so each slot is one
    contiguous block and the bracketing pair is the whole window. A single
    snapshot gets a one-slot window. Within one flow the query times never
    decrease, so each snapshot's gradients are computed once; an earlier
    time is still answered correctly, at the cost of recomputing.
    """

    def __init__(self, grid, snapshots, t0=0.0, dt=None):
        self.grid = grid
        self.snapshots = snapshots
        self.t0 = t0
        self.dt = dt
        self.peak_density = float(np.max(density(snapshots[0])))
        self._width = 1 + grid.dimension
        self._held = [None] * min(2, len(snapshots))  # snapshot in each slot
        self._window = np.empty((len(self._held) * self._width,) + grid.shape,
                                dtype=np.complex128)

    def _rows(self, idx):
        """Window rows holding snapshot idx, which is loaded if absent."""
        slot = idx % len(self._held)
        rows = slice(slot * self._width, (slot + 1) * self._width)
        if self._held[slot] != idx:
            snap = self.snapshots[idx]
            fields = self._window[rows]
            fields[0] = snap.amplitudes
            for k in range(self.grid.dimension):
                fields[1 + k] = gradient(snap, k)
            self._held[slot] = idx
        return rows

    def bracket(self, t):
        """Indices (i, i + 1) of the snapshots around t and the blend weight
        of the later one; (0, 0, 0.0) for a single snapshot."""
        if len(self.snapshots) == 1:
            return 0, 0, 0.0
        s = (t - self.t0) / self.dt
        i = min(max(math.floor(s), 0), len(self.snapshots) - 2)
        theta = float(min(max(s - i, 0.0), 1.0))
        return i, i + 1, theta

    def sample(self, pts, t):
        """psi (B,) and grad psi (d, B) at the points pts (B, d), time t."""
        i0, i1, theta = self.bracket(t)
        r0 = self._rows(i0)
        if i1 == i0 or theta == 0.0:
            f = _interp_any(self.grid, self._window[r0], pts)
        else:
            r1 = self._rows(i1)
            pair = _interp_any(self.grid, self._window, pts)
            f = (1.0 - theta) * pair[r0] + theta * pair[r1]
        return f[0], f[1:]


def _velocity_batch(sampler, pts, t, constants, threshold, action, v_max):
    """Velocity (B, d) plus node mask from interpolated psi and grad psi."""
    val, grads = sampler.sample(pts, t)
    dens = np.abs(val) ** 2
    node = dens < threshold
    safe = np.where(node, 1.0, val)
    scale = constants.hbar / np.asarray(constants.masses)
    v = (scale[:, None] * np.imag(grads / safe)).T
    if action == CAP_SPEED:
        speed = np.sqrt(np.sum(v * v, axis=1))
        over = speed > v_max
        if np.any(over):
            v[over] *= (v_max / speed[over])[:, None]
        node[:] = False
    else:
        v[node] = 0.0
    return v, node


def velocity(psi, q, constants, policy=None):
    """Guidance velocity at one configuration; raises HitNodeError under a
    halting policy when |psi(q)|^2 falls below the node threshold."""
    pts = _point(psi.grid, q)
    constants.check_dimension(psi.grid)
    policy = policy or NodePolicy()
    sampler = RecordSampler(psi.grid, [psi])
    threshold = policy.resolve(sampler.peak_density)
    v, node = _velocity_batch(sampler, pts, None, constants, threshold,
                              policy.action, policy.v_max)
    if node[0]:
        raise HitNodeError(f"density below {threshold:g} at {pts[0].tolist()}")
    return [float(c) for c in v[0]]


# --- spinor fields -------------------------------------------------------------


def spinor_velocity(psi, q, constants, policy=None):
    """Velocity from the spinor inner product:
    (hbar/m) Im(up* d up + down* d down) / (|up|^2 + |down|^2)."""
    pts = _point(psi.grid, q)
    policy = policy or NodePolicy()
    fields = np.stack([psi.up, psi.down, gradient_array(psi.grid, psi.up, 0),
                       gradient_array(psi.grid, psi.down, 0)])
    up, down, dup, ddown = _interp_any(psi.grid, fields, pts)[:, 0]
    den = abs(up) ** 2 + abs(down) ** 2
    peak = float(np.max(np.abs(psi.up) ** 2 + np.abs(psi.down) ** 2))
    threshold = policy.resolve(peak)
    if den < threshold:
        if policy.action == HALT:
            raise HitNodeError(f"spinor density below {threshold:g}")
        return [0.0]
    num = (np.conj(up) * dup + np.conj(down) * ddown).imag
    v = constants.hbar / constants.masses[0] * num / den
    if policy.action == CAP_SPEED and abs(v) > policy.v_max:
        v = np.sign(v) * policy.v_max
    return [float(v)]


def step_spinor_pauli(psi, b_field, potential, constants, dt, mu=1.0):
    """One Strang step of the two-component evolution with a uniform magnetic
    coupling: local factor = potential phase times the exact 2x2 rotation
    exp(-i mu dt B.sigma / hbar), kinetic factor per component via FFT.
    Requires a periodic 1-d grid."""
    ax = psi.grid.axes[0]
    if not ax.periodic:
        raise ValueError("spinor stepping uses the periodic Fourier kinetic term")
    v = potential.evaluate(psi.grid, constants)
    bx, by, bz = (float(c) for c in b_field)
    bmag = np.sqrt(bx * bx + by * by + bz * bz)

    def local_half(up, down):
        phase = np.exp(-0.5j * dt * v / constants.hbar)
        up, down = phase * up, phase * down
        if bmag == 0.0:
            return up, down
        theta = 0.5 * mu * dt * bmag / constants.hbar
        c, s = np.cos(theta), np.sin(theta)
        nx, ny, nz = bx / bmag, by / bmag, bz / bmag
        u2 = (c - 1j * s * nz) * up + (-1j * s * (nx - 1j * ny)) * down
        d2 = (-1j * s * (nx + 1j * ny)) * up + (c + 1j * s * nz) * down
        return u2, d2

    k = 2.0 * np.pi * np.fft.fftfreq(ax.count, d=ax.spacing)
    kin = np.exp(-1j * dt * constants.hbar * k**2 / (2.0 * constants.masses[0]))
    up, down = local_half(psi.up, psi.down)
    up = np.fft.ifft(kin * np.fft.fft(up))
    down = np.fft.ifft(kin * np.fft.fft(down))
    up, down = local_half(up, down)
    return SpinorWaveFunction(psi.grid, up, down)


# --- trajectory integration ----------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # (T, d)
    status: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", p)

    @property
    def final(self):
        return self.points[-1]

    def to_csv(self, path):
        d = self.points.shape[1]
        header = "t,q1" if d == 1 else "t,q1,q2"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.points):
                fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")
            fh.write(f"status,{self.status}\n")


class FlowResult:
    """Batched integration output: endpoints, status codes, optional paths."""

    def __init__(self, times, points, statuses, stop_index, paths=None):
        self.times = times
        self.points = points          # (B, d) final (frozen) positions
        self.statuses = statuses      # (B,) int codes
        self.stop_index = stop_index  # (B,) step index where each froze
        self.paths = paths            # (T, B, d) when recorded

    def status_names(self):
        return [_STATUS_NAMES[int(s)] for s in self.statuses]

    def trajectory(self, b):
        """Member b's stored path up to the step where it stopped."""
        if self.paths is None:
            raise ValueError("flow result has no stored paths")
        stop = int(self.stop_index[b])
        return Trajectory(self.times[: stop + 1], self.paths[: stop + 1, b, :],
                          _STATUS_NAMES[int(self.statuses[b])])

    def count(self, name):
        code = {v: k for k, v in _STATUS_NAMES.items()}[name]
        return int(np.sum(self.statuses == code))


def ode_step_count(span, dt_ode, snapshot_dt):
    """Number of RK4 steps of dt_ode over a record span. dt_ode must divide
    the span and may not be below the snapshot spacing snapshot_dt."""
    if dt_ode <= 0:
        raise ValueError("dt_ode must be positive")
    if snapshot_dt > dt_ode + 1e-12:
        raise ValueError("snapshot spacing exceeds dt_ode; densify snapshots")
    ratio = span / dt_ode
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n <= 0 or abs(n * dt_ode - span) > 1e-9 * max(1.0, span):
        raise ValueError("dt_ode must evenly divide the record span")
    return n


def integrate_flow(points, record, constants, policy=None, dt_ode=None,
                   store_path=False):
    """Integrate a batch of configurations (B, d) through the record's
    velocity field by classical RK4 with step dt_ode (default: the snapshot
    spacing).

    All members advance together, one step at a time, over one sampler
    window. A member that meets a node or leaves the grid during a step
    stops at the start of that step; one that lands outside the grid stops
    there. Stopped members keep their last position in the stored paths.

    The domain of a periodic axis is one period, [lower, upper]: a member
    that crosses the period boundary stops as LeftGrid rather than wrapping
    around, so its windings never enter crossing statistics.
    """
    constants.check_dimension(record.grid)
    policy = policy or NodePolicy()
    dt_ode = dt_ode if dt_ode is not None else record.dt
    n = ode_step_count(record.t_final - record.t_initial, dt_ode, record.dt)
    times = record.t_initial + dt_ode * np.arange(n + 1)
    sampler = RecordSampler(record.grid, record.snapshots, record.t_initial,
                            record.dt)
    threshold = policy.resolve(sampler.peak_density)
    q = np.array(points, dtype=np.float64, ndmin=2)
    b, d = q.shape
    statuses = np.zeros(b, dtype=np.int8)
    stop = np.full(b, len(times) - 1, dtype=np.int64)
    active = np.ones(b, dtype=bool)
    paths = np.empty((len(times), b, d)) if store_path else None
    if store_path:
        paths[0] = q

    def eval_v(pts, t):
        v, node = _velocity_batch(sampler, pts, t, constants, threshold,
                                  policy.action, policy.v_max)
        return v, node, ~sampler.grid.contains(pts)

    for j in range(len(times) - 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            if store_path:
                paths[j + 1] = q
            continue
        t0, t1 = times[j], times[j + 1]
        h = t1 - t0
        qa = q[idx]
        k1, n1, o1 = eval_v(qa, t0)
        k2, n2, o2 = eval_v(qa + 0.5 * h * k1, t0 + 0.5 * h)
        k3, n3, o3 = eval_v(qa + 0.5 * h * k2, t0 + 0.5 * h)
        k4, n4, o4 = eval_v(qa + h * k3, t1)
        node = n1 | n2 | n3 | n4
        oob = (o1 | o2 | o3 | o4) & ~node
        dead = node | oob
        statuses[idx[node]] = 1
        statuses[idx[oob]] = 2
        stop[idx[dead]] = j
        live = idx[~dead]
        qn = qa[~dead] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)[~dead]
        # landing outside the domain is a grid exit as well
        landed_in = sampler.grid.contains(qn)
        q[live] = qn
        statuses[live[~landed_in]] = 2
        stop[live[~landed_in]] = j + 1
        active[idx[dead]] = False
        active[live[~landed_in]] = False
        if store_path:
            paths[j + 1] = q
    return FlowResult(times, q, statuses, stop, paths)


def integrate_trajectory(q0, record, constants, policy=None, dt_ode=None):
    """Classical RK4 on the time-dependent guidance field, with the wave
    function linearly interpolated between snapshots. Returns the path and a
    status explaining any early stop (node hit or grid exit): the one-member
    case of ``integrate_flow``."""
    return integrate_flow(_point(record.grid, q0), record, constants, policy=policy,
                          dt_ode=dt_ode, store_path=True).trajectory(0)
