"""Crossing surfaces: flux integrals vs direct trajectory counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmsim.equilibrium import sample_density
from bohmsim.fields import ScalarWaveFunction, density, probability_current
from bohmsim.flux import expected_crossings, per_member_counts
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import FlowResult, integrate_flow
from bohmsim.kernels import cubic_stencil
from bohmsim.potentials import Free, Harmonic
from bohmsim.propagate import (CRANK_NICOLSON, SPLIT_FOURIER, EvolutionRecord,
                               evolve)

C1 = PhysicalConstants.natural(1)


def moving_gaussian_record(center, k, half, n, t_final, width=1.0):
    g = Grid.regular(-half, half, n, dimension=1)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-((x - center) ** 2) / (4 * width**2) + 1j * k * x),
        normalize=True)
    rec = evolve(psi, Free(), C1, t_final, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=5)
    return psi, rec


def _hand_summed_current(record, constants, location):
    """The surface current summed by hand over the four stencil nodes, as
    it was before the interpolation kernel took it over."""
    ax = record.grid.axes[0]
    idx, w = cubic_stencil(ax.count, ax.lower, ax.spacing, ax.periodic,
                           np.array([location]))
    w = w[:, 0]
    vals = []
    for snap in record.snapshots:
        j = probability_current(snap, constants).components[0]
        vals.append(float(sum(w[b] * j[idx[b, 0]] for b in range(4))))
    return np.asarray(vals)


@pytest.mark.parametrize("boundary,method", [("periodic", SPLIT_FOURIER),
                                             ("boxed", CRANK_NICOLSON)])
def test_surface_current_matches_four_term_sum(boundary, method):
    g = Grid.regular(-6.0, 6.0, 48, boundary=boundary, dimension=1)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-(x + 1.0) ** 2 + 2j * x), normalize=True)
    rec = evolve(psi, Free(), C1, 0.1, 1e-2, method)
    ax = g.axes[0]
    # off the nodes, on a node and on both edges
    for location in (0.37, -1.0, ax.lower, ax.upper):
        *_, vals = expected_crossings(rec, location)
        ref_vals = _hand_summed_current(rec, C1, location)
        assert len(vals) == 11
        assert vals.tobytes() == ref_vals.tobytes()


def test_expected_stationary_zero():
    g = Grid.regular(-10.0, 10.0, 256, dimension=1)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    # real stationary state: the current vanishes identically
    rec = EvolutionRecord(g, C1, Harmonic((1.0,)), SPLIT_FOURIER, 0.05, 1,
                          [psi] * 5)
    total, signed, _ = expected_crossings(rec, 0.5)
    assert abs(total) < 1e-13 and abs(signed) < 1e-13


def _completed_flow(times, xs):
    """A 1-d FlowResult whose members, the columns of xs (T, B), all ran to
    the last time."""
    xs = np.asarray(xs, dtype=np.float64)
    members = xs.shape[1]
    return FlowResult(times, xs[-1, :, None], np.zeros(members, np.int8),
                      np.full(members, len(times) - 1), xs[:, :, None])


def test_count_simple_trajectories():
    t = np.linspace(0, 1, 11)
    left, through = -1.0 - t, np.linspace(-1, 1, 11)
    counts = per_member_counts(_completed_flow(t, np.stack([left, through], 1)),
                               0.0)
    assert counts.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert counts.mean(axis=0).tolist() == [0.5, 0.5]


def test_count_grazing_tie_break():
    """A touch of the surface without sign change counts zero; a sign change
    across a touching sample counts once."""
    t = np.linspace(0, 1, 5)
    touch = [-1.0, -0.5, 0.0, -0.5, -1.0]
    crossing = [-1.0, -0.5, 0.0, 0.5, 1.0]
    flow = _completed_flow(t, np.stack([touch, crossing], 1))
    assert per_member_counts(flow, 0.0).tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_counts_need_stored_paths():
    flow = FlowResult(np.linspace(0, 1, 3), np.zeros((2, 1)),
                      np.zeros(2, np.int8), np.full(2, 2))
    with pytest.raises(ValueError, match="no stored paths"):
        per_member_counts(flow, 0.0)


def _count_one(xs, location):
    """Loop reference for one member: one crossing per sign change between
    consecutive nonzero samples."""
    d = xs - location
    nz = d[d != 0.0]
    if nz.size < 2:
        return 0, 0
    s = np.sign(nz)
    flips = s[1:] * s[:-1] < 0
    return int(np.sum(flips)), int(np.sum(s[1:][flips]))


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40),
       members=st.integers(1, 12), zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
       location=st.sampled_from([0.0, 0.25, -3.0]))
def test_counts_match_loop_reference(seed, steps, members, zero_frac,
                                     location):
    """Random paths with exact touches of the surface and early stops count
    exactly as the per-member loop."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, steps)
    d = rng.normal(size=(steps, members))
    d[rng.random(d.shape) < zero_frac] = 0.0
    xs = location + d
    stop = rng.integers(0, steps, members)
    flow = FlowResult(times, xs[-1, :, None], np.zeros(members, np.int8),
                      stop, xs[:, :, None])
    expected = np.asarray([_count_one(xs[: s + 1, b], location)
                           for b, s in enumerate(stop)], dtype=np.float64)
    assert per_member_counts(flow, location).tobytes() == expected.tobytes()


def test_traversal_against_mass_bookkeeping():
    """Oracle: for a packet that crosses once, the signed count equals the
    probability mass transported across the surface."""
    psi, rec = moving_gaussian_record(-3.0, 4.0, 16.0, 1024, 2.0)
    total, signed, _ = expected_crossings(rec, 0.0)
    g = rec.grid
    w = g.quadrature_weights()
    right = g.coordinates(0) > 0.0
    mass_moved = (np.sum((w * density(rec.snapshots[-1]))[right])
                  - np.sum((w * density(rec.snapshots[0]))[right]))
    assert abs(signed - mass_moved) < 2e-3
    assert abs(total - signed) < 1e-6  # rightward current only

    ens = sample_density(psi, 2000, seed=41)
    flow = integrate_flow(ens.members, rec, C1, dt_ode=5e-3, store_path=True)
    counts = per_member_counts(flow, 0.0)
    emp_total, emp_signed = counts.mean(axis=0)
    se = counts.std(axis=0, ddof=1) / np.sqrt(len(counts))
    assert abs(emp_total - total) < 4 * max(se[0], 1e-3)
    assert abs(emp_signed - signed) < 4 * max(se[1], 1e-3)


def test_superposition_linearity_oracle():
    """Oracle: with packets disjoint at the surface, the flux integrals of the
    superposition are the weighted sums of the single-packet runs."""
    g = Grid.regular(-16.0, 26.0, 2048, dimension=1)
    w = g.quadrature_weights()

    def packet(center, k):
        vals = np.exp(-((g.coordinates(0) - center) ** 2) / 4
                      + 1j * k * g.coordinates(0))
        return vals / np.sqrt(np.sum(w * np.abs(vals) ** 2))

    a = packet(-7.5, 5.0)
    b = packet(17.5, -5.0)
    combo = ScalarWaveFunction(g, (a + b) / np.sqrt(2.0))
    assert abs(np.sum(w * np.abs(combo.amplitudes) ** 2) - 1.0) < 1e-9

    def flux_of(amps):
        psi = ScalarWaveFunction(g, amps)
        rec = evolve(psi, Free(), C1, 5.0, 1e-3, SPLIT_FOURIER,
                     snapshot_stride=5)
        return expected_crossings(rec, 0.0)[:2]

    ta, sa = flux_of(a)
    tb, sb = flux_of(b)
    tc, sc = flux_of(combo.amplitudes)
    assert abs(tc - 0.5 * (ta + tb)) < 5e-3
    assert abs(sc - 0.5 * (sa + sb)) < 5e-3
    assert abs(sc) < 0.02 and abs(tc - 1.0) < 0.05


def test_surface_location_validated():
    _, rec = moving_gaussian_record(-3.0, 4.0, 16.0, 512, 1.0)
    with pytest.raises(ValueError, match="surface location outside the grid"):
        expected_crossings(rec, 99.0)


def test_expected_crossings_2d_surface():
    """The crossing statistics are 1-d: a 2-d record raises a ValueError
    naming its dimension, through the one location check."""
    g = Grid.regular(-6.0, 6.0, 32, dimension=2)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: np.exp(-(x * x + y * y) / 2), normalize=True)
    rec = EvolutionRecord(g, PhysicalConstants.natural(2),
                          Harmonic((1.0, 1.0)), SPLIT_FOURIER, 0.05, 1,
                          [psi] * 3)
    with pytest.raises(ValueError, match="2-d grid"):
        expected_crossings(rec, 0.3)


def test_periodic_exit_stops_and_counts_no_windings():
    # A packet moving right on the periodic grid [-8, 8): its members reach
    # the period boundary, stop there as LeftGrid and do not wrap to the
    # left end, so each crosses the surface at x = 4 at most once.
    psi, rec = moving_gaussian_record(3.0, 6.0, 8.0, 256, 1.5, width=0.5)
    ens = sample_density(psi, 200, 5)
    flow = integrate_flow(ens.members, rec, C1, dt_ode=5e-3, store_path=True)
    left = flow.statuses == 2
    assert left.sum() > 100 and np.all(flow.statuses[~left] == 0)
    assert np.all(np.diff(flow.paths[:, :, 0], axis=0) >= 0.0)
    assert np.all(flow.points[left, 0] > 8.0 - 0.1)
    counts = per_member_counts(flow, 4.0)
    started_left = ens.members[:, 0] < 4.0
    assert np.array_equal(counts[:, 0], np.where(started_left, 1.0, 0.0))
    assert np.array_equal(counts[:, 1], counts[:, 0])
