"""Crossing statistics through static hyperplane surfaces {x = c} x [t0, t1]:
the time-integrated current gives the expected (total and signed) number of
trajectory crossings, checked against direct counts over ensembles."""

from dataclasses import dataclass

import numpy as np

from .fields import probability_current
from .kernels import interp_cubic_1d
from .propagate import time_tol


@dataclass(frozen=True)
class CrossingSurface:
    """The hyperplane {first coordinate = location} between t0 and t1,
    with its normal along +x."""

    location: float
    t0: float
    t1: float

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("surface needs t0 < t1")

    def check_grid(self, grid):
        """Raise ValueError unless the location lies on the first axis."""
        if not grid.axes[0].contains(self.location):
            raise ValueError("surface location outside the grid")


def _current_at_surface(record, surface):
    """Normal current at the surface for every snapshot time in [t0, t1]:
    cubic interpolation at x=c, integrated over the transverse axis in 2-d."""
    grid = record.grid
    ax = grid.axes[0]
    surface.check_grid(grid)
    if not record.spans(surface.t0, surface.t1):
        raise ValueError("surface time window outside the record span")
    at = np.array([surface.location])
    times, vals = [], []
    for t, snap, inside in zip(record.times, record.snapshots,
                               _in_window(record.times, surface)):
        if not inside:
            continue
        j = probability_current(snap, record.constants).components[0]
        line = interp_cubic_1d(j.T, ax.lower, ax.spacing, ax.periodic,
                               at)[..., 0].real
        if grid.dimension == 2:
            line = float(np.sum(grid.axes[1].quadrature_weights() * line))
        times.append(t)
        vals.append(float(line))
    return np.asarray(times), np.asarray(vals)


def expected_crossings(record, surface):
    """(total, signed) = (integral of |j.n|, integral of j.n) over the
    surface, by trapezoid in time over the record snapshots."""
    times, vals = _current_at_surface(record, surface)
    if len(times) < 2:
        raise ValueError("surface window contains fewer than two snapshots")
    total = float(np.trapezoid(np.abs(vals), times))
    signed = float(np.trapezoid(vals, times))
    return total, signed


def per_member_counts(flow, surface):
    """Per-member (total, signed) crossing counts of a FlowResult as a
    (B, 2) float array; raises ValueError when the flow stored no paths.

    Only samples inside the surface's time window and up to each member's
    stop index count. Tie-break: one crossing per sign change of
    x - location between consecutive nonzero samples, so a touch of the
    surface without a sign change counts zero. The signed count adds +1
    for a crossing along +x and -1 for one against it. Members are counted
    together, one time row at a time. On a periodic axis a member stops as
    LeftGrid at the period boundary (see ``integrate_flow``), so windings
    are not counted.
    """
    if flow.paths is None:
        raise ValueError("flow result has no stored paths")
    xs = flow.paths[:, :, 0]
    rows = np.arange(len(flow.times))[:, None]
    valid = _in_window(flow.times, surface)[:, None] & (
        rows <= flow.stop_index[None, :])
    total = np.zeros(xs.shape[1])
    signed = np.zeros(xs.shape[1])
    last = np.zeros(xs.shape[1])  # sign of the latest nonzero sample, or 0
    for x, ok in zip(xs, valid):
        sign = np.where(ok, np.sign(x - surface.location), 0.0)
        flip = sign * last < 0
        total += flip
        signed += np.where(flip, sign, 0.0)
        last = np.where(sign != 0.0, sign, last)
    return np.stack([total, signed], axis=1)


def _in_window(times, surface):
    return ((times >= surface.t0 - time_tol(surface.t0))
            & (times <= surface.t1 + time_tol(surface.t1)))
