"""Crossing statistics through a static hyperplane {x = c}, with its normal
along +x, over the whole span of a record: the time-integrated current
gives the expected (total and signed) number of trajectory crossings,
checked against direct counts over ensembles."""

import numpy as np

from .fields import probability_current
from .kernels import interp_cubic_1d


def check_location(grid, location):
    """Raise ValueError unless the surface {x = location} meets the grid,
    that is, unless location lies on the first axis."""
    if not grid.axes[0].contains(location):
        raise ValueError("surface location outside the grid")


def _current_at_surface(record, location):
    """(times, values) of the normal current at x = location at every
    snapshot time: cubic interpolation, integrated over the transverse axis
    in 2-d."""
    grid = record.grid
    ax = grid.axes[0]
    check_location(grid, location)
    at = np.array([location])
    vals = []
    for snap in record.snapshots:
        j = probability_current(snap, record.constants).components[0]
        line = interp_cubic_1d(j.T, ax.lower, ax.spacing, ax.periodic,
                               at)[..., 0].real
        if grid.dimension == 2:
            line = float(np.sum(grid.axes[1].quadrature_weights() * line))
        vals.append(float(line))
    return record.times, np.asarray(vals)


def expected_crossings(record, location):
    """(total, signed) = (integral of |j.n|, integral of j.n) over the
    surface {x = location}, by trapezoid in time over the record
    snapshots."""
    times, vals = _current_at_surface(record, location)
    if len(times) < 2:
        raise ValueError("a flux integral needs a record of at least two "
                         "snapshots")
    total = float(np.trapezoid(np.abs(vals), times))
    signed = float(np.trapezoid(vals, times))
    return total, signed


def per_member_counts(flow, location):
    """Per-member (total, signed) crossing counts of {x = location} by a
    FlowResult, as a (B, 2) float array; raises ValueError when the flow
    stored no paths.

    Every sample up to each member's stop index counts. Tie-break: one
    crossing per sign change of x - location between consecutive nonzero
    samples, so a touch of the surface without a sign change counts zero.
    The signed count adds +1 for a crossing along +x and -1 for one against
    it. Members are counted together, one time row at a time. On a periodic
    axis a member stops as LeftGrid at the period boundary (see
    ``integrate_flow``), so windings are not counted.
    """
    if flow.paths is None:
        raise ValueError("flow result has no stored paths")
    xs = flow.paths[:, :, 0]
    rows = np.arange(len(flow.times))[:, None]
    valid = rows <= flow.stop_index[None, :]
    total = np.zeros(xs.shape[1])
    signed = np.zeros(xs.shape[1])
    last = np.zeros(xs.shape[1])  # sign of the latest nonzero sample, or 0
    for x, ok in zip(xs, valid):
        sign = np.where(ok, np.sign(x - location), 0.0)
        flip = sign * last < 0
        total += flip
        signed += np.where(flip, sign, 0.0)
        last = np.where(sign != 0.0, sign, last)
    return np.stack([total, signed], axis=1)
