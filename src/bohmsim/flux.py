"""Crossing statistics through a static point surface {x = c} of a 1-d
grid, with its normal along +x, over the whole span of a record: the
time-integrated current gives the expected (total and signed) number of
trajectory crossings, checked against direct counts over ensembles. A
``CrossingCounter`` makes the counts as the flow runs, from the rows that
``integrate_flow`` hands its ``on_step`` hook, so no path is stored;
``per_member_counts`` replays stored paths through the same counter. They
are one-dimensional, as the ``flux`` scenario that checks them:
``check_location`` rejects a grid of any other dimension."""

import numpy as np

from .fields import probability_current
from .kernels import interp_cubic_1d


def check_location(grid, location):
    """Raise ValueError unless grid is 1-d and the surface {x = location}
    meets it, that is, unless location lies on its axis."""
    if grid.dimension != 1:
        raise ValueError("the crossing statistics are 1-d; got a "
                         f"{grid.dimension}-d grid")
    if not grid.axes[0].contains(location):
        raise ValueError("surface location outside the grid")


def expected_crossings(record, location):
    """(total, signed, current) over the surface {x = location} of a 1-d
    record: the normal current j(location, t) at every snapshot time, by
    cubic interpolation, and its integrals of |j| and j over the record's
    span, by trapezoid in time over the snapshots."""
    ax = record.grid.axes[0]
    check_location(record.grid, location)
    if len(record.snapshots) < 2:
        raise ValueError("a flux integral needs a record of at least two "
                         "snapshots")
    at = np.array([location])
    vals = []
    for snap in record.snapshots:
        j = probability_current(snap, record.constants).components[0]
        vals.append(float(interp_cubic_1d(j, ax.lower, ax.spacing,
                                          ax.periodic, at)[0].real))
    current = np.asarray(vals)
    total = float(np.trapezoid(np.abs(current), record.times))
    signed = float(np.trapezoid(current, record.times))
    return total, signed, current


class CrossingCounter:
    """Per-member (total, signed) crossing counts of the surface
    {x = location} by a flow of ``members`` members, made online: an
    ``integrate_flow`` hook that reads each row of the flow once and
    stores no path.

    Every row up to each member's stop index counts, which is the rows the
    flow hands its hook. Tie-break: one crossing per sign change of
    x - location between consecutive nonzero samples, so a touch of the
    surface without a sign change counts zero. The signed count adds +1 for
    a crossing along +x and -1 for one against it. On a periodic axis a
    member stops as LeftGrid at the period boundary (see
    ``integrate_flow``), so windings are not counted.
    """

    def __init__(self, members, location):
        self.location = location
        self.total = np.zeros(members)
        self.signed = np.zeros(members)
        self.last = np.zeros(members)  # sign of the latest nonzero sample, or 0

    def __call__(self, j, members, positions):
        sign = np.sign(positions[:, 0] - self.location)
        last = self.last[members]
        flip = sign * last < 0
        self.total[members] += flip
        self.signed[members] += np.where(flip, sign, 0.0)
        self.last[members] = np.where(sign != 0.0, sign, last)

    def counts(self):
        """The counts so far as a (members, 2) float array."""
        return np.stack([self.total, self.signed], axis=1)


def per_member_counts(flow, location):
    """Per-member (total, signed) crossing counts of {x = location} by a
    FlowResult, as a (B, 2) float array: its stored paths replayed through
    ``CrossingCounter``, row by row, each to its stop index. Raises
    ValueError when the flow stored no paths."""
    if flow.paths is None:
        raise ValueError("flow result has no stored paths")
    counter = CrossingCounter(flow.paths.shape[1], location)
    for j, row in enumerate(flow.paths):
        members = np.flatnonzero(flow.stop_index >= j)
        counter(j, members, row[members])
    return counter.counts()
