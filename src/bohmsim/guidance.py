"""The guidance law: velocity fields derived from wave functions (scalar and
spinor), node detection, and trajectory integration dQ/dt = v(Q, t) by
fixed-step RK4 on time-interpolated evolution records. Wave functions,
spinors included, are evolved in ``propagate``.

``integrate_flow`` returns one ``FlowResult`` for every batch, a single
trajectory or a |psi|^2 ensemble: end points, status codes and optional
paths. ``FlowResult.completed`` hands out the end points of the members
that completed and raises ``EmptyFlowError`` when none did.

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
gradient is written straight into its window row by ``gradient_array``.

The time blend runs on the grid, before interpolation: at a time between
two snapshots the sampler writes (1 - theta) psi_i + theta psi_(i+1), and
the same for grad psi, into one buffer of 1 + d fields and interpolates
that, so each stage gathers 1 + d fields rather than 2 (1 + d). The buffer
is kept for the next query at the same time, so RK4 stages 2 and 3, which
both sample t0 + h/2, share one blend. The blend is made for every batch,
however small: a size rule that blended at the points for small batches
would make a member's bits depend on how many members share its batch. The
flow runs on one thread: on two cores, splitting each stage's members over
two threads ran slower than one thread.

The flow compacts only on a step where a member stops. Typical
trajectories never reach a node, so on most steps every member that starts
a step finishes it. The flow keeps the positions of the moving members in
one compact array and adds each RK4 update to it in place; only on a step
where a member met a node, left the grid or landed outside does it write
statuses and final positions and drop that member from the array.
``_velocity_batch`` likewise guards the division by psi only when a member
is at a node. Each member's arithmetic is elementwise, so whether its
update was gathered before or after the sum, and whether another member
stopped beside it, changes none of its bits.
"""

import math
from dataclasses import dataclass

import numpy as np

# gradient stays importable here beside gradient_array, which alone fills
# the window: the benchmark's per-layer trace wraps both names here
from .fields import density, gradient, gradient_array  # noqa: F401
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


class EmptyFlowError(ValueError):
    """Every member of a flow stopped before its end, so there is no
    transported ensemble; the counts say how they stopped."""

    def __init__(self, n_input, hit_node, left_grid):
        super().__init__(f"no member completed the flow: of {n_input}, "
                         f"{hit_node} hit a node, {left_grid} left the grid")
        self.n_input = n_input
        self.hit_node = hit_node
        self.left_grid = left_grid


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
    contiguous block. A single snapshot gets a one-slot window. Within one
    flow the query times never decrease, so each snapshot's gradients are
    computed once; an earlier time is still answered correctly, at the cost
    of recomputing.

    At a time strictly between snapshots i and i + 1, with blend weight
    theta, the 1 + d fields (1 - theta) slot_i + theta slot_(i+1) are
    written into a blend buffer on the grid, and only they are
    interpolated. The buffer remembers its (i, theta), so queries at the
    same time reuse it.
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
        if len(snapshots) > 1:
            self._blend = np.empty((self._width,) + grid.shape,
                                   dtype=np.complex128)
            self._scratch = np.empty(grid.shape, dtype=np.complex128)
        self._blend_key = None  # (i, theta) of the fields in the buffer

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

    def _blend_rows(self, i, theta):
        """(1 - theta) times snapshot i's fields plus theta times snapshot
        i + 1's, written into the blend buffer. Each product and sum has an
        explicit output, so its operand order, and with it every bit, is the
        same on every grid size."""
        early = self._window[self._rows(i)]
        late = self._window[self._rows(i + 1)]
        out, scratch = self._blend, self._scratch
        np.multiply(early, 1.0 - theta, out=out)
        for k in range(self._width):
            np.multiply(late[k], theta, out=scratch)
            np.add(out[k], scratch, out=out[k])
        self._blend_key = (i, theta)

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
        if i1 == i0 or theta == 0.0:
            fields = self._window[self._rows(i0)]
        else:
            if self._blend_key != (i0, theta):
                self._blend_rows(i0, theta)
            fields = self._blend
        f = _interp_any(self.grid, fields, pts)
        return f[0], f[1:]


def _velocity_batch(sampler, pts, t, constants):
    """Velocity (B, d) plus node mask from interpolated psi and grad psi;
    members at a node get velocity 0."""
    val, grads = sampler.sample(pts, t)
    dens = np.abs(val) ** 2
    node = dens < sampler.node_threshold
    at_node = node.any()
    # dividing by 1 at a node only keeps the quotient finite; every other
    # member divides by its own psi either way
    safe = np.where(node, 1.0, val) if at_node else val
    scale = constants.hbar / np.asarray(constants.masses)
    v = (scale[:, None] * np.imag(grads / safe)).T
    if at_node:
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
    constants.check_dimension(psi.grid)
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

    def to_csv(self, path):
        d = self.points.shape[1]
        header = "t,q1" if d == 1 else "t,q1,q2"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.points):
                fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")
            fh.write(f"status,{self.status}\n")


class FlowResult:
    """Batched integration output: endpoints, status codes, optional paths.
    The one result of every flow, single trajectories and ensembles alike."""

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

    def completed(self):
        """(k, d) end points of the k members that completed, in input
        order; raises EmptyFlowError when none did."""
        ok = self.statuses == COMPLETED_CODE
        if not ok.any():
            raise EmptyFlowError(len(self.statuses), self.count(HIT_NODE),
                                 self.count(LEFT_GRID))
        return self.points[ok]


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

    Members are gathered, masked and written back only on a step where one
    of them stops; on every other step the RK4 update is added in place to
    the compact array of moving positions. The update is the same
    elementwise sum either way, so no member's bits depend on whether, or
    when, another member stopped.
    """
    constants.check_dimension(record.grid)
    record.check_constants(constants)
    dt_ode = dt_ode if dt_ode is not None else record.dt
    n = ode_step_count(record.t_final - record.t_initial, dt_ode, record.dt)
    times = record.t_initial + dt_ode * np.arange(n + 1)
    sampler = RecordSampler(record.grid, record.snapshots, record.t_initial,
                            record.dt)
    q = np.array(points, dtype=np.float64, ndmin=2)
    b, d = q.shape
    statuses = np.full(b, COMPLETED_CODE, dtype=np.int8)
    stop = np.full(b, len(times) - 1, dtype=np.int64)
    paths = np.empty((len(times), b, d)) if store_path else None
    if store_path:
        paths[0] = q

    def eval_v(pts, t):
        v, node = _velocity_batch(sampler, pts, t, constants)
        return v, node, ~sampler.grid.contains(pts)

    # q holds each stopped member's final position; the members still
    # moving, in order, are ``moving`` and their positions ``qa``
    moving = np.arange(b)
    qa = q.copy()
    for j in range(len(times) - 1):
        if moving.size:
            t0, t1 = times[j], times[j + 1]
            h = t1 - t0
            k1, n1, o1 = eval_v(qa, t0)
            k2, n2, o2 = eval_v(qa + 0.5 * h * k1, t0 + 0.5 * h)
            k3, n3, o3 = eval_v(qa + 0.5 * h * k2, t0 + 0.5 * h)
            k4, n4, o4 = eval_v(qa + h * k3, t1)
            dq = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            node = n1 | n2 | n3 | n4
            dead = node | o1 | o2 | o3 | o4
            if dead.any():
                statuses[moving[node]] = HIT_NODE_CODE
                statuses[moving[dead & ~node]] = LEFT_GRID_CODE
                stop[moving[dead]] = j
                q[moving[dead]] = qa[dead]
                keep = ~dead
                moving, qa, dq = moving[keep], qa[keep], dq[keep]
            np.add(qa, dq, out=qa)
            # landing outside the domain is a grid exit as well
            landed_in = sampler.grid.contains(qa)
            if not landed_in.all():
                out = ~landed_in
                statuses[moving[out]] = LEFT_GRID_CODE
                stop[moving[out]] = j + 1
                q[moving[out]] = qa[out]
                moving, qa = moving[landed_in], qa[landed_in]
        if store_path:
            if moving.size == b:
                paths[j + 1] = qa
            else:
                paths[j + 1] = q
                paths[j + 1, moving] = qa
    q[moving] = qa
    return FlowResult(times, q, statuses, stop, paths)


def integrate_trajectory(q0, record, constants, dt_ode=None):
    """Classical RK4 on the time-dependent guidance field, with the wave
    function linearly interpolated between snapshots. Returns the path and a
    status explaining any early stop (node hit or grid exit): the one-member
    case of ``integrate_flow``."""
    return integrate_flow(_point(record.grid, q0), record, constants,
                          dt_ode=dt_ode, store_path=True).trajectory(0)
