"""One streamed pass of an evolution against its stored record: the flow,
the surface current and the crossing counts that observe an ``Evolution``
as it steps have the bits of those made over ``evolve``'s record, and the
pass holds a fixed number of snapshots whatever its length."""

import tracemalloc

import numpy as np
import pytest

from bohmsim import analytic
from bohmsim.equilibrium import sample_density
from bohmsim.fields import ScalarWaveFunction
from bohmsim.flux import CrossingCounter, SurfaceCurrent, expected_crossings
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import Flow, integrate_flow
from bohmsim.potentials import CoupledOscillator, Free, Harmonic
from bohmsim.propagate import (CRANK_NICOLSON, SPLIT_FOURIER, Evolution,
                               evolve)

SPACING = 5e-3  # dt 1e-3 times stride 5


def _packet_1d(boundary, count=256, half=6.0):
    """A packet moving along +x: on a periodic grid it reaches the upper
    edge, and on a boxed one it stays clear of the edges, where the
    trapezoid norm of a Crank-Nicolson state would drift."""
    g = Grid.regular(-half, half, count, boundary=boundary, dimension=1)
    center, width = (2.5, 2.0) if boundary == "periodic" else (-1.0, 1.0)
    return ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-(x - center) ** 2 / width**2 + 6j * x),
        normalize=True)


def _starts_1d(psi, n=300):
    """Sampled members and three starts of our own, two near the upper
    edge: they leave a periodic grid and meet the node threshold of a
    boxed one."""
    upper = psi.grid.axes[0].upper
    edge = np.array([[upper - 0.01], [upper - 0.002], [-1.0]])
    return np.concatenate([sample_density(psi, n, 7).members, edge])


def _streamed(psi, potential, constants, t_final, method, starts, dt_ode,
              surface=None, store_path=False):
    evolution = Evolution(psi, potential, constants, t_final, 1e-3, method,
                          snapshot_stride=5)
    counter = (CrossingCounter(len(starts), surface)
               if surface is not None else None)
    flow = Flow(starts, evolution, constants, dt_ode=dt_ode,
                store_path=store_path, on_step=counter)
    observers = [flow]
    if surface is not None:
        observers.insert(0, SurfaceCurrent(evolution, surface))
    evolution.run(*observers)
    crossings = observers[0].result() if surface is not None else None
    return flow.result(), crossings, counter, evolution


def _stored(psi, potential, constants, t_final, method, starts, dt_ode,
            surface=None, store_path=False):
    record = evolve(psi, potential, constants, t_final, 1e-3, method,
                    snapshot_stride=5)
    counter = (CrossingCounter(len(starts), surface)
               if surface is not None else None)
    flow = integrate_flow(starts, record, constants, dt_ode=dt_ode,
                          store_path=store_path, on_step=counter)
    crossings = (expected_crossings(record, surface)
                 if surface is not None else None)
    return flow, crossings, counter, record


def _assert_same_flow(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.points.tobytes() == b.points.tobytes()
    assert a.statuses.tobytes() == b.statuses.tobytes()
    assert a.stop_index.tobytes() == b.stop_index.tobytes()
    assert (a.paths is None) == (b.paths is None)
    if a.paths is not None:
        assert a.paths.tobytes() == b.paths.tobytes()


@pytest.mark.parametrize("dt_ode", [SPACING, 2 * SPACING])
@pytest.mark.parametrize("boundary,method", [
    ("periodic", SPLIT_FOURIER), ("boxed", CRANK_NICOLSON)])
def test_streamed_1d_pass_equals_stored_record(boundary, method, dt_ode):
    """A 1-d pass with a surface current and online crossing counts, on a
    periodic and a boxed grid, with members that complete and members that
    stop."""
    psi = _packet_1d(boundary)
    c = PhysicalConstants.natural(1)
    potential = Free() if boundary == "periodic" else Harmonic((1.0,))
    starts = _starts_1d(psi)
    args = (psi, potential, c, 0.3, method, starts, dt_ode)
    flow, (total, signed, current), counter, ev = _streamed(
        *args, surface=0.5, store_path=boundary == "boxed")
    ref, (ref_total, ref_signed, ref_current), ref_counter, rec = _stored(
        *args, surface=0.5, store_path=boundary == "boxed")
    _assert_same_flow(flow, ref)
    assert 0 < np.count_nonzero(flow.statuses) < len(starts)
    assert (total, signed) == (ref_total, ref_signed)
    assert current.tobytes() == ref_current.tobytes()
    assert counter.counts().tobytes() == ref_counter.counts().tobytes()
    assert counter.counts()[:, 0].sum() > 0
    assert ev.times.tobytes() == rec.times.tobytes()
    assert ev.last.amplitudes.tobytes() == rec.last.amplitudes.tobytes()


@pytest.mark.parametrize("dt_ode", [SPACING, 2 * SPACING])
def test_streamed_2d_pass_equals_stored_record(dt_ode):
    """A 2-d coupled-oscillator pass that stores its paths."""
    g = Grid.regular(-8.0, 8.0, 48, dimension=2)
    c = PhysicalConstants.natural(2)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    starts = np.concatenate([sample_density(psi, 40, 3).members,
                             [[7.99, 0.0], [0.3, -0.2]]])
    args = (psi, CoupledOscillator(analytic.COUPLING), c, 0.2,
            SPLIT_FOURIER, starts, dt_ode)
    flow, *_ = _streamed(*args, store_path=True)
    ref, *_ = _stored(*args, store_path=True)
    _assert_same_flow(flow, ref)
    assert flow.paths.shape == (int(round(0.2 / dt_ode)) + 1, 42, 2)


def test_flow_holds_only_bracketed_snapshots():
    """With dt_ode four snapshot spacings, the stage times of step j,
    4j, 4j + 2 and 4j + 4 in spacings, meet snapshots and bracket no
    other, so the flow keeps no odd snapshot and at most three at once."""
    psi = _packet_1d("periodic", count=64)
    c = PhysicalConstants.natural(1)
    ev = Evolution(psi, Free(), c, 0.06, 1e-3, SPLIT_FOURIER,
                   snapshot_stride=5)
    flow = Flow([[0.0]], ev, c, dt_ode=4 * SPACING)
    held = []

    def watch(i, _):
        held.append(sorted(flow.sampler.snapshots))

    ev.run(flow, watch)
    assert max(len(h) for h in held) == 2  # a step runs on its third
    assert not any(i % 2 for h in held for i in h)
    assert held[-1] == []
    flow.result()


def test_flow_result_needs_the_last_snapshot():
    psi = _packet_1d("periodic", count=64)
    c = PhysicalConstants.natural(1)
    rec = evolve(psi, Free(), c, 0.02, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=5)
    flow = Flow([[0.0]], rec, c)
    for i, snap in enumerate(rec.snapshots[:-1]):
        flow(i, snap)
    with pytest.raises(ValueError, match="has not reached its last snapshot"):
        flow.result()


def test_streamed_snapshot_checked_as_a_stored_one(monkeypatch):
    """A stepper that breaks the norm stops the pass at the first snapshot
    it makes, with the record's message, before an observer sees it."""
    psi = _packet_1d("periodic", count=64)
    ev = Evolution(psi, Free(), PhysicalConstants.natural(1), 0.02, 1e-3,
                   SPLIT_FOURIER, snapshot_stride=5)
    monkeypatch.setattr(ev.stepper, "advance", lambda arr, steps: 2 * arr)
    seen = []
    with pytest.raises(ValueError, match="snapshot not normalized within"):
        ev.run(lambda i, _: seen.append(i))
    assert seen == [0]
    assert ev.last is None


def _flux_pass_peak(t_final):
    """Traced peak of one streamed flux pass on a 4096-point grid."""
    psi = _packet_1d("periodic", count=4096, half=12.0)
    c = PhysicalConstants.natural(1)
    starts = sample_density(psi, 200, 5).members
    for trace in (False, True):  # the first pass warms caches
        if trace:
            tracemalloc.start()
        try:
            _streamed(psi, Free(), c, t_final, SPLIT_FOURIER, starts,
                      SPACING, surface=3.0)
            if trace:
                return tracemalloc.get_traced_memory()[1]
        finally:
            if trace:
                tracemalloc.stop()


def test_streamed_pass_memory_does_not_grow_with_its_length():
    """Four times the span, and four times the snapshots, raise the traced
    peak of a streamed flux pass by at most two grid fields."""
    field = 16 * 4096
    short, long = _flux_pass_peak(0.05), _flux_pass_peak(0.2)
    assert long <= short + 2 * field
    assert short > 8 * field  # the pass's own fields, not noise
