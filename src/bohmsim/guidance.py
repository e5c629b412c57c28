"""The guidance law: velocity fields derived from wave functions (scalar and
spinor), node detection, and trajectory integration dQ/dt = v(Q, t) by
fixed-step RK4 on time-interpolated evolution records.

Bohmian trajectories almost surely never reach a node of psi, so meeting one
only signals discretisation error. The rule is fixed: a configuration whose
density lies below NODE_FRACTION times the peak density of the first field
sampled is at a node. ``velocity`` and ``spinor_velocity`` then raise
HitNodeError, and ``integrate_flow`` stops the member with status HitNode.

Integration is time-major. Every member of a batch moves independently under
the same field, so all of them advance together, one RK4 step at a time, and
no member's arithmetic depends on which others share its batch. One
``RecordSampler`` window serves the whole batch: it derives each snapshot's
psi and grad psi once, and each RK4 stage interpolates them in one stacked
call. The sampler owns the snapshot clock (snapshot i is at t0 + i dt), so
the flow needs only a record's start, spacing and snapshots. Each snapshot
gradient is written straight into its window row by ``gradient_array``. The
flow runs on one thread: on two cores, splitting each stage's members over
two threads ran slower than one thread.
"""

import math
from dataclasses import dataclass

import numpy as np

# gradient stays importable here beside gradient_array, which alone fills
# the window: the benchmark's per-layer trace wraps both names here
from .fields import (SpinorWaveFunction, density, gradient,  # noqa: F401
                     gradient_array)
from .kernels import interp_cubic_1d, interp_cubic_2d

COMPLETED = "Completed"
HIT_NODE = "HitNode"
LEFT_GRID = "LeftGrid"

# A FlowResult status code is the index of its name here.
_STATUS_NAMES = (COMPLETED, HIT_NODE, LEFT_GRID)
COMPLETED_CODE, HIT_NODE_CODE, LEFT_GRID_CODE = range(len(_STATUS_NAMES))

NODE_FRACTION = 1e-12  # of the peak density


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


def _node_threshold(dens):
    """The density below which a configuration is at a node: NODE_FRACTION
    times the peak of the gridded density dens."""
    return NODE_FRACTION * float(np.max(dens))


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
        self.node_threshold = _node_threshold(density(snapshots[0]))
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
                gradient_array(self.grid, snap.amplitudes, k, out=fields[1 + k])
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


def _velocity_batch(sampler, pts, t, constants):
    """Velocity (B, d) plus node mask from interpolated psi and grad psi;
    members at a node get velocity 0."""
    val, grads = sampler.sample(pts, t)
    dens = np.abs(val) ** 2
    node = dens < sampler.node_threshold
    safe = np.where(node, 1.0, val)
    scale = constants.hbar / np.asarray(constants.masses)
    v = (scale[:, None] * np.imag(grads / safe)).T
    v[node] = 0.0
    return v, node


def velocity(psi, q, constants):
    """Guidance velocity at one configuration; raises HitNodeError when
    |psi(q)|^2 falls below the node threshold."""
    pts = _point(psi.grid, q)
    constants.check_dimension(psi.grid)
    sampler = RecordSampler(psi.grid, [psi])
    v, node = _velocity_batch(sampler, pts, None, constants)
    if node[0]:
        raise HitNodeError(f"density below {sampler.node_threshold:g} at "
                           f"{pts[0].tolist()}")
    return [float(c) for c in v[0]]


# --- spinor fields -------------------------------------------------------------


def spinor_velocity(psi, q, constants):
    """Velocity from the spinor inner product:
    (hbar/m) Im(up* d up + down* d down) / (|up|^2 + |down|^2); raises
    HitNodeError when the spinor density at q falls below the node
    threshold."""
    pts = _point(psi.grid, q)
    fields = np.stack([psi.up, psi.down, gradient_array(psi.grid, psi.up, 0),
                       gradient_array(psi.grid, psi.down, 0)])
    up, down, dup, ddown = _interp_any(psi.grid, fields, pts)[:, 0]
    den = abs(up) ** 2 + abs(down) ** 2
    threshold = _node_threshold(np.abs(psi.up) ** 2 + np.abs(psi.down) ** 2)
    if den < threshold:
        raise HitNodeError(f"spinor density below {threshold:g}")
    num = (np.conj(up) * dup + np.conj(down) * ddown).imag
    v = constants.hbar / constants.masses[0] * num / den
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
        return [_STATUS_NAMES[s] for s in self.statuses]

    def trajectory(self, b):
        """Member b's stored path up to the step where it stopped."""
        if self.paths is None:
            raise ValueError("flow result has no stored paths")
        stop = int(self.stop_index[b])
        return Trajectory(self.times[: stop + 1], self.paths[: stop + 1, b, :],
                          _STATUS_NAMES[self.statuses[b]])

    def count(self, name):
        return int(np.sum(self.statuses == _STATUS_NAMES.index(name)))


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


def integrate_flow(points, record, constants, dt_ode=None, store_path=False):
    """Integrate a batch of configurations (B, d) through the record's
    velocity field by classical RK4 with step dt_ode (default: the snapshot
    spacing).

    All members advance together, one step at a time, over one sampler
    window. A member that meets a node (density below NODE_FRACTION times
    the peak density of the first snapshot) or leaves the grid during a step
    stops at the start of that step; one that lands outside the grid stops
    there. Stopped members keep their last position in the stored paths.

    The domain of a periodic axis is one period, [lower, upper]: a member
    that crosses the period boundary stops as LeftGrid rather than wrapping
    around, so its windings never enter crossing statistics.
    """
    constants.check_dimension(record.grid)
    dt_ode = dt_ode if dt_ode is not None else record.dt
    n = ode_step_count(record.t_final - record.t_initial, dt_ode, record.dt)
    times = record.t_initial + dt_ode * np.arange(n + 1)
    sampler = RecordSampler(record.grid, record.snapshots, record.t_initial,
                            record.dt)
    q = np.array(points, dtype=np.float64, ndmin=2)
    b, d = q.shape
    statuses = np.full(b, COMPLETED_CODE, dtype=np.int8)
    stop = np.full(b, len(times) - 1, dtype=np.int64)
    active = np.ones(b, dtype=bool)
    paths = np.empty((len(times), b, d)) if store_path else None
    if store_path:
        paths[0] = q

    def eval_v(pts, t):
        v, node = _velocity_batch(sampler, pts, t, constants)
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
        statuses[idx[node]] = HIT_NODE_CODE
        statuses[idx[oob]] = LEFT_GRID_CODE
        stop[idx[dead]] = j
        live = idx[~dead]
        qn = qa[~dead] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)[~dead]
        # landing outside the domain is a grid exit as well
        landed_in = sampler.grid.contains(qn)
        q[live] = qn
        statuses[live[~landed_in]] = LEFT_GRID_CODE
        stop[live[~landed_in]] = j + 1
        active[idx[dead]] = False
        active[live[~landed_in]] = False
        if store_path:
            paths[j + 1] = q
    return FlowResult(times, q, statuses, stop, paths)


def integrate_trajectory(q0, record, constants, dt_ode=None):
    """Classical RK4 on the time-dependent guidance field, with the wave
    function linearly interpolated between snapshots. Returns the path and a
    status explaining any early stop (node hit or grid exit): the one-member
    case of ``integrate_flow``."""
    return integrate_flow(_point(record.grid, q0), record, constants,
                          dt_ode=dt_ode, store_path=True).trajectory(0)
