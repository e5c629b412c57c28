"""Crossing statistics through static hyperplane surfaces {x = c} x [t0, t1]:
the time-integrated current gives the expected (total and signed) number of
trajectory crossings, checked against direct counts over ensembles."""

from dataclasses import dataclass

import numpy as np

from .fields import probability_current
from .kernels import cubic_stencil


@dataclass(frozen=True)
class CrossingSurface:
    """The hyperplane {first coordinate = location} between t0 and t1,
    oriented along +x (orientation -1 flips the normal)."""

    location: float
    t0: float
    t1: float
    orientation: int = 1

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("surface needs t0 < t1")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class CrossingReport:
    expected_total: float
    expected_signed: float
    empirical_total: float
    empirical_signed: float
    n_members: int

    def __post_init__(self):
        if abs(self.empirical_signed) > self.empirical_total + 1e-12:
            raise ValueError("signed count cannot exceed the total")

    def to_dict(self):
        return {
            "expected_total": self.expected_total,
            "expected_signed": self.expected_signed,
            "empirical_total": self.empirical_total,
            "empirical_signed": self.empirical_signed,
            "n_members": self.n_members,
        }


def _current_at_surface(record, constants, surface):
    """Normal current at the surface for every snapshot time in [t0, t1]:
    cubic interpolation at x=c, integrated over the transverse axis in 2-d."""
    grid = record.grid
    ax = grid.axes[0]
    if not (ax.lower <= surface.location <= ax.upper):
        raise ValueError("surface location outside the grid")
    if not record.spans(surface.t0, surface.t1):
        raise ValueError("surface time window outside the record span")
    idx, w = cubic_stencil(ax.count, ax.lower, ax.spacing, ax.periodic,
                           np.array([surface.location]))
    w = w[:, 0]
    times, vals = [], []
    for t, snap in zip(record.times, record.snapshots):
        if t < surface.t0 - 1e-12 or t > surface.t1 + 1e-12:
            continue
        j = probability_current(snap, constants).components[0]
        line = sum(w[b] * j[idx[b, 0]] for b in range(4))
        if grid.dimension == 2:
            line = float(np.sum(grid.axes[1].quadrature_weights() * line))
        times.append(t)
        vals.append(float(line) * surface.orientation)
    return np.asarray(times), np.asarray(vals)


def expected_crossings(record, constants, surface):
    """(total, signed) = (integral of |j.n|, integral of j.n) over the
    surface, by trapezoid in time over the record snapshots."""
    times, vals = _current_at_surface(record, constants, surface)
    if len(times) < 2:
        raise ValueError("surface window contains fewer than two snapshots")
    total = float(np.trapezoid(np.abs(vals), times))
    signed = float(np.trapezoid(vals, times))
    return total, signed


def _count_one(times, xs, surface):
    """Sign-change counting with the documented tie-break: one crossing per
    sign change across a step, zero for a touch without sign change."""
    sel = (times >= surface.t0 - 1e-12) & (times <= surface.t1 + 1e-12)
    d = xs[sel] - surface.location
    nz = d[d != 0.0]
    if nz.size < 2:
        return 0, 0
    s = np.sign(nz)
    flips = s[1:] * s[:-1] < 0
    total = int(np.sum(flips))
    signed = int(np.sum(s[1:][flips])) * surface.orientation
    return total, signed


def count_crossings(trajectories, surface):
    """Ensemble means of (total, signed) crossing counts.

    Accepts a list of Trajectory objects or a FlowResult with stored paths.
    """
    totals, signeds = [], []
    if hasattr(trajectories, "paths"):
        flow = trajectories
        if flow.paths is None:
            raise ValueError("flow result has no stored paths")
        for b in range(flow.paths.shape[1]):
            stop = int(flow.stop_index[b])
            tot, sgn = _count_one(flow.times[: stop + 1],
                                  flow.paths[: stop + 1, b, 0], surface)
            totals.append(tot)
            signeds.append(sgn)
    else:
        for traj in trajectories:
            tot, sgn = _count_one(traj.times, traj.points[:, 0], surface)
            totals.append(tot)
            signeds.append(sgn)
    return float(np.mean(totals)), float(np.mean(signeds))


def crossing_report(record, constants, surface, flow):
    total, signed = expected_crossings(record, constants, surface)
    emp_total, emp_signed = count_crossings(flow, surface)
    n = flow.paths.shape[1] if hasattr(flow, "paths") else len(flow)
    return CrossingReport(total, signed, emp_total, emp_signed, n)


def per_member_counts(flow, surface):
    """Per-trajectory (total, signed) counts, for standard-error estimates."""
    out = []
    for b in range(flow.paths.shape[1]):
        stop = int(flow.stop_index[b])
        out.append(_count_one(flow.times[: stop + 1],
                              flow.paths[: stop + 1, b, 0], surface))
    return np.asarray(out, dtype=np.float64)
