"""Crossing statistics through a static point surface {x = c} of a 1-d
grid, with its normal along +x, over the whole span of an evolution: the
time-integrated current gives the expected (total and signed) number of
trajectory crossings, checked against direct counts over ensembles.

Both sides are made in the one streamed pass of the evolution, and both
read the same psi and grad psi. A ``SurfaceCurrent`` reads j(c, t) off
each snapshot as it arrives and keeps one number per snapshot. In a pass
that runs its observers as (flow, surface), it takes psi and grad psi at
its four stencil nodes from the flow's sampler window
(``guidance.Flow.fields``), so the pass derives each snapshot once; where
the window cannot give them, and in ``expected_crossings``, which replays
a stored record through it, the surface derives grad psi itself. A
``CrossingCounter`` makes the counts as the flow runs, from the rows that
a ``guidance.Flow`` hands its ``on_step`` hook, so no path is stored;
``per_member_counts`` replays stored paths through the same counter.
They are one-dimensional, as the ``flux`` scenario that checks them:
``check_location`` rejects a grid of any other dimension."""

import numpy as np

from .fields import gradient_array
from .kernels import cubic_stencil


def check_location(grid, location):
    """Raise ValueError unless grid is 1-d and the surface {x = location}
    meets it, that is, unless location lies on its axis."""
    if grid.dimension != 1:
        raise ValueError("the crossing statistics are 1-d; got a "
                         f"{grid.dimension}-d grid")
    if not grid.axes[0].contains(location):
        raise ValueError("surface location outside the grid")


class SurfaceCurrent:
    """The normal current j(location, t) over the surface {x = location} at
    every snapshot of a 1-d evolution, by cubic interpolation: an observer
    of ``source``, the ``Evolution`` or ``EvolutionRecord`` that runs it.

    The surface stays put, so its four stencil nodes and weights are found
    once. At each node j = (hbar/m) Im(conj(psi) d psi), the expression of
    ``fields.probability_current``, which is elementwise, so the nodes alone
    have the bits of the current over the whole grid. psi and d psi come
    from ``flow.fields`` when a ``guidance.Flow`` of the same source is
    given and its window holds them, so a pass that runs (flow, surface)
    derives no gradient twice; otherwise the surface derives d psi itself.
    Each value is w_0 j_0 + w_1 j_1 + w_2 j_2 + w_3 j_3, added left to
    right: the real part of ``interp_cubic_1d``'s sum over the real field,
    term for term, since each complex product has imaginary factors 0."""

    def __init__(self, source, location, flow=None):
        check_location(source.grid, location)
        if source.count < 2:
            raise ValueError("a flux integral needs a record of at least two "
                             "snapshots")
        self.source, self.flow = source, flow
        constants = source.constants
        self.scale = constants.hbar / constants.masses[0]
        ax = source.grid.axes[0]
        idx, w = cubic_stencil(ax.count, ax.lower, ax.spacing, ax.periodic,
                               np.array([location]))
        self.nodes, self.weights = idx[:, 0], w[:, 0].tolist()
        self.values = []

    def __call__(self, i, psi):
        rows = None if self.flow is None else self.flow.fields(i, psi)
        if rows is None:
            amplitudes = psi.amplitudes
            rows = (amplitudes, gradient_array(psi.grid, amplitudes, 0))
        nodes = self.nodes
        j = self.scale * np.imag(np.conj(rows[0][nodes]) * rows[1][nodes])
        w0, w1, w2, w3 = self.weights
        j0, j1, j2, j3 = j.tolist()
        self.values.append(w0 * j0 + w1 * j1 + w2 * j2 + w3 * j3)

    def result(self):
        """(total, signed, current): the integrals of |j| and j over the
        span, by trapezoid in time over the snapshots, and j itself."""
        current = np.asarray(self.values)
        times = self.source.times
        return (float(np.trapezoid(np.abs(current), times)),
                float(np.trapezoid(current, times)), current)


def expected_crossings(record, location):
    """``SurfaceCurrent.result()`` over a stored record, replayed."""
    surface = SurfaceCurrent(record, location)
    record.run(surface)
    return surface.result()


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
        if members.size == self.last.size:  # every member, in order
            flip = sign * self.last < 0
            self.total += flip
            self.signed += np.where(flip, sign, 0.0)
            self.last = np.where(sign != 0.0, sign, self.last)
            return
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
