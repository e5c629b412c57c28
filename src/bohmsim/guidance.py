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
sampled is at a node. ``spinor_velocity`` then raises HitNodeError, and
``integrate_flow`` stops the member with status HitNode.

Integration is time-major. Every member of a batch moves independently under
the same field, so all of them advance together, one RK4 step at a time, and
no member's arithmetic depends on which others share its batch. One
``RecordSampler`` window serves the whole batch: it derives each snapshot's
psi and grad psi once, and each RK4 stage interpolates them in one stacked
call. The sampler owns the snapshot clock (snapshot i is at i dt), so the
flow needs only a record's spacing and snapshots. Each snapshot gradient is
written straight into its window row by ``gradient_array``.

The time blend runs on the grid, before interpolation: at a time between
two snapshots the sampler writes (1 - theta) psi_i + theta psi_(i+1), and
the same for grad psi, over snapshot i's 1 + d fields in the window and
interpolates those, so each stage gathers 1 + d fields rather than
2 (1 + d). A forward flow never reads snapshot i again after its midpoint,
so the window of two snapshots is the sampler's only grid storage besides
one scratch field. The blend stays in the window for the next query at the
same time, so RK4 stages 2 and 3, which both sample t0 + h/2, share one
blend. A stage time within TIME_RTOL of a snapshot reads that snapshot as
it is, so stages 1 and 4 at snapshot times blend nothing. The blend is made
for every batch, however small: a size rule that blended at the points for
small batches would make a member's bits depend on how many members share
its batch. The flow runs on one thread: on two cores, splitting each
stage's members over two threads ran slower than one thread.

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
from .propagate import TIME_RTOL, time_tol

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


def _node_threshold(dens):
    """The density below which a configuration is at a node: NODE_FRACTION
    times the peak of the gridded density dens."""
    return NODE_FRACTION * float(np.max(dens))


def _point(grid, q):
    """Coordinates q as a (1, d) array of a point on grid."""
    pts = np.asarray(q, dtype=np.float64).reshape(1, -1)
    if not grid.contains(pts)[0]:
        raise OutOfBoundsError(f"configuration {pts[0].tolist()} off the grid")
    return pts


def _outside(grid, pts):
    """Mask of the points pts (B, d) that lie outside the grid's closed
    domain, NaN among them, or False when none does. Each axis's min and
    max decide that none does; the mask is built only when they do not.
    Column by column: a reduction over axis 0 of (B, 2) is ten times
    slower."""
    if all(ax.lower <= pts[:, k].min(initial=np.inf)
           and pts[:, k].max(initial=-np.inf) <= ax.upper
           for k, ax in enumerate(grid.axes)):
        return False
    return ~grid.contains(pts)


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


class RecordSampler:
    """psi and grad psi of a run of snapshots, linearly interpolated in time.

    Snapshot i is the field at time i dt: a record starts at t = 0, and a
    flow's record holds at least two snapshots. A sliding window of shape
    (2 (1 + d),) + grid.shape has two slots of 1 + d contiguous leading
    rows (psi, d_1 psi, ..., d_d psi). Slot i % 2 holds snapshot i, or
    the time blend that starts at snapshot i.

    At a time strictly between snapshots i and i + 1, with blend weight
    theta, (1 - theta) slot_i + theta slot_(i+1) is written over slot i,
    which then holds that blend and no snapshot, and only its 1 + d fields
    are interpolated. A forward flow never reads snapshot i after a
    midpoint: its next times are the same blend, which the slot answers
    again, snapshot i + 1 or later. So within one flow, whose query times
    never decrease, each snapshot's gradients are computed once, unless two
    distinct times fall strictly inside one interval. An earlier time is
    still answered correctly, at the cost of recomputing.
    """

    def __init__(self, grid, snapshots, dt):
        self.grid = grid
        self.snapshots = snapshots
        self.dt = dt
        self.node_threshold = _node_threshold(density(snapshots[0]))
        self._width = 1 + grid.dimension
        # (i, theta) of the fields in each slot; theta 0 is snapshot i
        self._held = [None, None]
        self._window = np.empty((2 * self._width,) + grid.shape,
                                dtype=np.complex128)
        self._scratch = np.empty(grid.shape, dtype=np.complex128)

    def _slot(self, i):
        """Window rows of the slot that holds snapshot i or a blend from it."""
        slot = i % 2
        return slice(slot * self._width, (slot + 1) * self._width)

    def _rows(self, idx):
        """Window rows holding snapshot idx, which is loaded if absent."""
        rows = self._slot(idx)
        if self._held[idx % 2] != (idx, 0.0):
            snap = self.snapshots[idx]
            fields = self._window[rows]
            fields[0] = snap.amplitudes
            for k in range(self.grid.dimension):
                gradient_array(self.grid, snap.amplitudes, k, out=fields[1 + k])
            self._held[idx % 2] = (idx, 0.0)
        return rows

    def _blend_rows(self, i, theta):
        """(1 - theta) times snapshot i's fields plus theta times snapshot
        i + 1's, written over snapshot i's rows. Each product and sum has an
        explicit output, so its operand order, and with it every bit, is the
        same on every grid size."""
        late = self._window[self._rows(i + 1)]
        out, scratch = self._window[self._rows(i)], self._scratch
        np.multiply(out, 1.0 - theta, out=out)
        for k in range(self._width):
            np.multiply(late[k], theta, out=scratch)
            np.add(out[k], scratch, out=out[k])
        self._held[i % 2] = (i, theta)

    def bracket(self, t):
        """Index i of the earlier of the snapshots i, i + 1 around t, and
        the blend weight theta in [0, 1) of the later one. s = t / dt
        within TIME_RTOL of an integer k is snapshot k's time, (k, 0.0), so
        a stage time that meets a snapshot up to roundoff reads it as it
        is. From the last snapshot's time on, i is its index and theta 0."""
        s = t / self.dt
        k = round(s)
        if abs(s - k) <= time_tol(s):
            s = k
        last = len(self.snapshots) - 1
        if s >= last:
            return last, 0.0
        i = max(math.floor(s), 0)
        return i, float(max(s - i, 0.0))

    def sample(self, pts, t):
        """psi (B,) and grad psi (d, B) at the points pts (B, d), time t."""
        i, theta = self.bracket(t)
        if theta == 0.0:
            rows = self._rows(i)
        else:
            if self._held[i % 2] != (i, theta):
                self._blend_rows(i, theta)
            rows = self._slot(i)
        f = _interp_any(self.grid, self._window[rows], pts)
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


class FlowResult:
    """Batched integration output: endpoints, status codes, optional paths.
    The one result of every flow, single trajectories and ensembles alike."""

    def __init__(self, times, points, statuses, stop_index, paths=None):
        self.times = times
        self.points = points          # (B, d) final (frozen) positions
        self.statuses = statuses      # (B,) int codes
        self.stop_index = stop_index  # (B,) step index where each froze
        self.paths = paths            # (T, B, d) when recorded

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
    the span and may not be below the snapshot spacing snapshot_dt, both to
    a relative TIME_RTOL."""
    if dt_ode <= 0:
        raise ValueError("dt_ode must be positive")
    if snapshot_dt > dt_ode * (1.0 + TIME_RTOL):
        raise ValueError("snapshot spacing exceeds dt_ode; densify snapshots")
    ratio = span / dt_ode
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n <= 0 or abs(n * dt_ode - span) > time_tol(span):
        raise ValueError("dt_ode must evenly divide the record span")
    return n


def integrate_flow(points, record, constants, dt_ode=None, store_path=False):
    """Integrate a batch of configurations (B, d) through the record's
    velocity field by classical RK4 with step dt_ode (default: the snapshot
    spacing).

    All members advance together, one step at a time, over one sampler
    window. A member that starts outside the grid's closed domain, a NaN
    coordinate included, stops there as LeftGrid with stop index 0 before
    the first step, and no stage reads it. A member that meets a node
    (density below NODE_FRACTION times the peak density of the first
    snapshot) or leaves the grid during a step stops at the start of that
    step; one that lands outside the grid stops there. Stopped members keep
    their last position in the stored paths.

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
    if len(record.snapshots) < 2:
        raise ValueError("a flow needs a record of at least two snapshots")
    dt_ode = dt_ode if dt_ode is not None else record.dt
    n = ode_step_count(record.t_final, dt_ode, record.dt)
    times = dt_ode * np.arange(n + 1)
    sampler = RecordSampler(record.grid, record.snapshots, record.dt)
    q = np.array(points, dtype=np.float64, ndmin=2)
    b, d = q.shape
    statuses = np.full(b, COMPLETED_CODE, dtype=np.int8)
    stop = np.full(b, len(times) - 1, dtype=np.int64)
    paths = np.empty((len(times), b, d)) if store_path else None
    if store_path:
        paths[0] = q

    def eval_v(pts, t):
        v, node = _velocity_batch(sampler, pts, t, constants)
        return v, node, _outside(record.grid, pts)

    # q holds each stopped member's final position; the members still
    # moving, in order, are ``moving`` and their positions ``qa``
    # _outside answers False when every start is inside
    out = np.zeros(b, dtype=bool) | _outside(record.grid, q)
    statuses[out] = LEFT_GRID_CODE
    stop[out] = 0
    moving = np.flatnonzero(~out)
    qa = q[moving]
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
            out = _outside(record.grid, qa)
            if out is not False:
                statuses[moving[out]] = LEFT_GRID_CODE
                stop[moving[out]] = j + 1
                q[moving[out]] = qa[out]
                keep = ~out
                moving, qa = moving[keep], qa[keep]
        if store_path:
            if moving.size == b:
                paths[j + 1] = qa
            else:
                paths[j + 1] = q
                paths[j + 1, moving] = qa
    q[moving] = qa
    return FlowResult(times, q, statuses, stop, paths)


def integrate_trajectory(q0, record, dt_ode=None):
    """Classical RK4 on the time-dependent guidance field, with the wave
    function linearly interpolated between snapshots. Returns the path and a
    status explaining any early stop (node hit or grid exit): the one-member
    case of ``integrate_flow``."""
    return integrate_flow(_point(record.grid, q0), record, record.constants,
                          dt_ode=dt_ode, store_path=True).trajectory(0)
