"""Velocity fields, node handling, spinor operations, and RK4 trajectory
integration against closed forms."""

import warnings
from collections import Counter

import numpy as np
import pytest

from bohmsim import analytic, guidance
from bohmsim.fields import (ScalarWaveFunction, SpinorWaveFunction, density,
                            gradient, norm)
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import (EmptyFlowError, HitNodeError, OutOfBoundsError,
                              RecordSampler, integrate_flow,
                              integrate_trajectory, spinor_velocity)
from bohmsim.kernels import interp_cubic_1d
from bohmsim.potentials import Free, Harmonic
from bohmsim.propagate import (CRANK_NICOLSON, SPLIT_FOURIER, EvolutionRecord,
                               PauliStepper, evolve, prepare_stepper)

C1 = PhysicalConstants.natural(1)
C2 = PhysicalConstants.natural(2)


def grid1d(n=512, half=10.0):
    return Grid.regular(-half, half, n, dimension=1)


def interpolate(psi, x):
    """psi at the point x of its 1-d grid."""
    ax = psi.grid.axes[0]
    return complex(interp_cubic_1d(psi.amplitudes, ax.lower, ax.spacing,
                                   ax.periodic, np.array([x]))[0])


def velocity_at(psi, q, constants):
    """The guidance velocity of the field psi at the point q, and whether q
    is at a node: a sampler over the record [psi, psi] read at t = 0."""
    sampler = RecordSampler(psi.grid, [psi, psi], 1.0)
    v, node = guidance._velocity_batch(sampler, np.array([q], dtype=float),
                                       0.0, constants)
    return v[0].tolist(), bool(node[0])


def status_names(flow):
    return [guidance._STATUS_NAMES[s] for s in flow.statuses]


@pytest.fixture(scope="module")
def oscillator_record():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    psi0 = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    from bohmsim.potentials import CoupledOscillator
    return evolve(psi0, CoupledOscillator(analytic.COUPLING), C2, 2.0, 1e-3,
                  SPLIT_FOURIER, snapshot_stride=10)


# --- interpolate --------------------------------------------------------------------


def test_interpolate_exact_on_grid():
    g = grid1d(64)
    rng = np.random.default_rng(0)
    psi = ScalarWaveFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64))
    x = g.coordinates(0)
    for i in (0, 17, 63):
        assert interpolate(psi, x[i]) == psi.amplitudes[i]


def test_interpolate_smooth_wave():
    g = grid1d(2048, np.pi * 8)
    k = 2 * np.pi * 10 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(g, lambda x: np.exp(1j * k * x))
    for xq in (0.137, -3.21, 5.5):
        assert abs(interpolate(psi, xq) - np.exp(1j * k * xq)) < 1e-6


def test_interpolate_out_of_bounds():
    """A start off the grid is rejected before any flow."""
    g = Grid.regular(-5.0, 5.0, 64, boundary="boxed", dimension=1)
    psi = ScalarWaveFunction(g, np.ones(g.shape, dtype=complex)).normalize()
    rec = EvolutionRecord(g, C1, Free(), CRANK_NICOLSON, 0.1, 1, [psi, psi])
    for q in ((5.5,), (-6.0,)):
        with pytest.raises(OutOfBoundsError):
            integrate_trajectory(q, rec)


# --- velocity -----------------------------------------------------------------------


def test_velocity_plane_wave():
    g = grid1d()
    k = 2 * np.pi * 12 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(g, lambda x: np.exp(1j * k * x))
    for xq in (-4.0, 0.3, 6.1):
        assert abs(velocity_at(psi, (xq,), C1)[0][0] - k) < 1e-6


def test_velocity_real_field_zero():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(g, lambda x: np.exp(-x * x / 2))
    assert abs(velocity_at(psi, (0.4,), C1)[0][0]) < 1e-9


def test_velocity_closed_form_field(oscillator_record):
    """Velocity on a gridded snapshot of the closed form matches the
    finite-difference slope of the closed-form trajectories."""
    rec = oscillator_record
    t = 1.0
    snap = rec.snapshots[int(round(t / rec.dt))]
    h = 1e-4
    for (x0, y0) in [(0.3, -0.2), (0.9, 0.6), (-1.1, 0.2)]:
        xt, yt = analytic.coupled_oscillator_trajectory(x0, y0, t)
        v, _ = velocity_at(snap, (xt, yt), C2)
        xp, yp = analytic.coupled_oscillator_trajectory(x0, y0, t + h)
        xm, ym = analytic.coupled_oscillator_trajectory(x0, y0, t - h)
        # 1e-4 budget: off-grid cubic interpolation on the 128^2 grid
        assert abs(v[0] - (xp - xm) / (2 * h)) < 1e-4
        assert abs(v[1] - (yp - ym) / (2 * h)) < 1e-4


def _first_excited():
    """The first excited oscillator state, whose node is at the origin."""
    return ScalarWaveFunction.from_callable(
        grid1d(), lambda x: x * np.exp(-x * x / 2), normalize=True)


def _spinor_velocity_at_node(spinor, q, constants):
    """spinor_velocity, with HitNodeError read as the node flag."""
    try:
        return spinor_velocity(spinor, q, constants), False
    except HitNodeError:
        return None, True


def test_velocity_node_threshold(monkeypatch):
    """The scalar velocity flags a node, and spinor_velocity raises
    HitNodeError, exactly when the density at q lies below NODE_FRACTION
    times the field's peak density, with NODE_FRACTION read at call time."""
    psi = _first_excited()
    spinor = SpinorWaveFunction(psi.grid, psi.amplitudes,
                                np.zeros(psi.grid.shape, dtype=complex))
    for guide, field in ((velocity_at, psi),
                         (_spinor_velocity_at_node, spinor)):
        assert guide(field, (1e-9,), C1)[1]
        q = (0.3,)
        ratio = abs(interpolate(psi, q[0])) ** 2 / np.max(density(psi))
        monkeypatch.setattr(guidance, "NODE_FRACTION", ratio * (1 + 1e-9))
        assert guide(field, q, C1)[1]
        monkeypatch.setattr(guidance, "NODE_FRACTION", ratio * (1 - 1e-9))
        v, node = guide(field, q, C1)
        assert not node and abs(v[0]) < 1e-9
        monkeypatch.undo()


def test_velocity_scalar_multiple_invariance():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 4 + 0.6j * x))
    scaled = ScalarWaveFunction(g, (2.0 - 3.0j) * psi.amplitudes)
    for xq in (-1.0, 0.5, 2.2):
        v1 = velocity_at(psi, (xq,), C1)[0][0]
        v2 = velocity_at(scaled, (xq,), C1)[0][0]
        assert abs(v1 - v2) < 1e-12


def test_velocity_galilean_boost():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(g, lambda x: np.exp(-x * x / 2))
    u = 2 * np.pi * 8 / g.axes[0].length  # boost on the wavenumber lattice
    boosted = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(1j * u * x) * np.exp(-x * x / 2))
    for xq in g.coordinates(0)[[150, 256, 301]]:
        v0 = velocity_at(psi, (xq,), C1)[0][0]
        v1 = velocity_at(boosted, (xq,), C1)[0][0]
        assert abs(v1 - (v0 + u)) < 1e-8


# --- spinor operations ---------------------------------------------------------------


def test_spinor_velocity_cases():
    g = grid1d()
    x = g.coordinates(0)
    k = 2 * np.pi * 10 / g.axes[0].length
    env = np.exp(-x * x / 8)
    # both components real
    s = SpinorWaveFunction(g, 0.7 * env, 0.3 * env)
    assert abs(spinor_velocity(s, (0.2,), C1)[0]) < 1e-9
    # single travelling component reduces to the scalar case
    s = SpinorWaveFunction(g, np.exp(1j * k * x), np.zeros_like(x, dtype=complex))
    assert abs(spinor_velocity(s, (0.5,), C1)[0] - k) < 1e-6
    # counter-travelling components of equal weight cancel
    s = SpinorWaveFunction(g, np.exp(1j * k * x) / np.sqrt(2),
                           np.exp(-1j * k * x) / np.sqrt(2))
    assert abs(spinor_velocity(s, (0.5,), C1)[0]) < 1e-9


def test_spinor_velocity_checks_the_mass_count():
    """Two masses on a 1-d grid are rejected, as the flow rejects them."""
    g = grid1d()
    x = g.coordinates(0)
    k = 2 * np.pi * 10 / g.axes[0].length
    s = SpinorWaveFunction(g, np.exp(1j * k * x), np.zeros_like(x, dtype=complex))
    with pytest.raises(ValueError, match="2 masses for a 1-d grid"):
        spinor_velocity(s, (0.5,), C2)
    psi = ScalarWaveFunction(g, s.up).normalize()
    rec = EvolutionRecord(g, C1, Free(), SPLIT_FOURIER, 0.1, 1, [psi, psi])
    with pytest.raises(ValueError, match="2 masses for a 1-d grid"):
        integrate_flow(np.array([[0.5]]), rec, C2)


def test_spinor_pauli_zero_field_decouples():
    g = grid1d(256, 8.0)
    x = g.coordinates(0)
    packet = np.exp(-x * x / 4) / np.sqrt(np.sum(
        g.quadrature_weights() * np.exp(-x * x / 2)))
    s_up, s_down = 0.6 * packet, 0.8j * packet
    up, down = s_up, s_down
    pauli = PauliStepper(g, Harmonic((1.0,)), C1, 1e-3, (0, 0, 0))
    scalar = prepare_stepper(g, Harmonic((1.0,)), C1, 1e-3, SPLIT_FOURIER)
    for _ in range(50):
        s_up, s_down = pauli.advance(s_up, s_down)
        up, down = scalar.advance(up), scalar.advance(down)
    assert np.max(np.abs(s_up - up)) < 1e-12
    assert np.max(np.abs(s_down - down)) < 1e-12


def test_spinor_pauli_longitudinal_phases():
    g = grid1d(256, 8.0)
    x = g.coordinates(0)
    packet = np.exp(-x * x / 4).astype(complex)
    s0 = SpinorWaveFunction(g, packet / np.sqrt(2), packet / np.sqrt(2)).normalize()
    bz, dt = 0.7, 1e-3
    e_up, e_down = PauliStepper(g, Free(), C1, dt, (0, 0, bz)).advance(
        s0.up, s0.down)
    free = PauliStepper(g, Free(), C1, dt, (0, 0, 0))
    free_up, _ = free.advance(s0.up, np.zeros_like(packet))
    np.testing.assert_allclose(e_up, np.exp(-1j * bz * dt) * free_up,
                               atol=1e-12)
    # the rotation leaves the total density exactly as the free step made it
    f_up, f_down = free.advance(s0.up, s0.down)
    assert np.max(np.abs((np.abs(e_up) ** 2 + np.abs(e_down) ** 2)
                         - (np.abs(f_up) ** 2 + np.abs(f_down) ** 2))) < 1e-14


def test_spinor_pauli_rabi_period():
    """Oracle: the exact two-level rotation exp(-i B.sigma t)."""
    g = grid1d(256, 8.0)
    x = g.coordinates(0)
    packet = np.exp(-x * x / 4).astype(complex)
    s = SpinorWaveFunction(g, packet, np.zeros_like(packet)).normalize()
    up, down = s.up, s.down
    w = g.quadrature_weights()
    bx = 1.0
    period = 2 * np.pi / (2 * bx)
    n = 500
    dt = period / n
    pauli = PauliStepper(g, Free(), C1, dt, (bx, 0, 0))
    worst = 0.0
    for j in range(n):
        up, down = pauli.advance(up, down)
        t = (j + 1) * dt
        p_up = float(np.sum(w * np.abs(up) ** 2))
        worst = max(worst, abs(p_up - np.cos(bx * t) ** 2))
    assert worst < 1e-4


def test_spinor_pauli_kinetic_product_puts_the_phase_first():
    """On 16384 points numpy's temporary elision would evaluate
    ``kin * fft(up)`` as ``fft(up) *= kin``, and complex products are not
    bitwise commutative; the step pins the phase-first bits on every size,
    with and without a potential."""
    g = grid1d(16384, 8.0)
    rng = np.random.default_rng(3)
    up, down = (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
                for _ in range(2))
    dt = 1e-3
    for potential in (Free(), Harmonic((1.0,))):
        pauli = PauliStepper(g, potential, C1, dt, (0.3, -0.4, 0.5))
        got = pauli.advance(up, down)
        (a, b), (c, d) = pauli.rotation
        phase = np.exp(-0.5j * dt * potential.evaluate(g, C1) / C1.hbar)
        k = 2.0 * np.pi * np.fft.fftfreq(g.axes[0].count, d=g.axes[0].spacing)
        kin = np.exp(-1j * dt * C1.hbar * k**2 / (2.0 * C1.masses[0]))
        rotated = (np.multiply(a, up) + np.multiply(b, down),
                   np.multiply(c, up) + np.multiply(d, down))
        stepped = []
        for comp in rotated:
            spectrum = np.fft.fft(np.multiply(phase, comp))
            stepped.append(np.multiply(
                phase, np.fft.ifft(np.multiply(kin, spectrum))))
        want = (np.multiply(a, stepped[0]) + np.multiply(b, stepped[1]),
                np.multiply(c, stepped[0]) + np.multiply(d, stepped[1]))
        for got_comp, want_comp in zip(got, want):
            assert got_comp.tobytes() == want_comp.tobytes()


def test_spinor_pauli_requires_periodic():
    g = Grid.regular(-8.0, 8.0, 257, boundary="boxed", dimension=1)
    with pytest.raises(ValueError, match="periodic"):
        PauliStepper(g, Free(), C1, 1e-3, (0, 0, 0))


# --- trajectories --------------------------------------------------------------------


def test_trajectory_stationary_state():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    # a stationary state evolves by a global phase only, which the guidance
    # field ignores: the record snapshots are the state itself
    rec = EvolutionRecord(g, C1, Harmonic((1.0,)), SPLIT_FOURIER, 0.1, 1,
                          [psi] * 11)
    traj = integrate_trajectory((0.7,), rec, dt_ode=0.1)
    assert traj.status == "Completed"
    assert np.max(np.abs(traj.points - 0.7)) < 1e-9


def test_trajectory_numerically_evolved_stationary_state():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    rec = evolve(psi, Harmonic((1.0,)), C1, 1.0, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=10)
    traj = integrate_trajectory((0.7,), rec, dt_ode=1e-2)
    assert traj.status == "Completed"
    # drift bounded by the integrated phase-gradient error of the propagator
    assert np.max(np.abs(traj.points - 0.7)) < 1e-6


def test_trajectory_plane_wave_drift():
    g = grid1d(1024, 20.0)
    k = 2 * np.pi * 40 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 36 + 1j * k * x), normalize=True)
    rec = evolve(psi, Free(), C1, 0.5, 1e-3, SPLIT_FOURIER, snapshot_stride=5)
    traj = integrate_trajectory((0.0,), rec, dt_ode=5e-3)
    assert abs(traj.points[-1, 0] - k * 0.5) < 0.02 * max(1.0, k * 0.5)


def test_trajectory_closed_form(oscillator_record):
    rec = oscillator_record
    traj = integrate_trajectory((0.3, -0.2), rec, dt_ode=1e-2)
    assert traj.status == "Completed"
    xe, ye = analytic.coupled_oscillator_trajectory(0.3, -0.2, traj.times)
    assert np.max(np.abs(traj.points[:, 0] - xe)) < 1e-3
    assert np.max(np.abs(traj.points[:, 1] - ye)) < 1e-3


def test_trajectory_left_grid():
    g = grid1d(256, 4.0)
    k = 2 * np.pi * 80 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2 + 1j * k * x), normalize=True)
    rec = evolve(psi, Free(), C1, 0.05, 1e-4, SPLIT_FOURIER,
                 snapshot_stride=10)
    traj = integrate_trajectory((3.0,), rec, dt_ode=1e-3)
    assert traj.status == "LeftGrid"
    assert traj.times[-1] < 0.05


def test_trajectory_hit_node_status():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: x * np.exp(-x * x / 2), normalize=True)
    rec = evolve(psi, Harmonic((1.0,)), C1, 0.5, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=10)
    flow = integrate_flow(np.array([[1e-7]]), rec, C1, dt_ode=1e-2)
    assert status_names(flow)[0] == "HitNode"


def test_flow_node_rule():
    """A start whose density lies below NODE_FRACTION times the peak density
    of the first snapshot stops as HitNode at step 0; one above completes."""
    psi = _first_excited()
    # a stationary state: the snapshots are the state itself
    rec = EvolutionRecord(psi.grid, C1, Harmonic((1.0,)), SPLIT_FOURIER, 0.1,
                          1, [psi] * 11)
    starts = np.array([[1e-7], [1e-5]])
    threshold = guidance.NODE_FRACTION * np.max(density(psi))
    below, above = (abs(interpolate(psi, q[0])) ** 2 for q in starts)
    assert below < threshold < above
    flow = integrate_flow(starts, rec, C1, dt_ode=0.1)
    assert status_names(flow) == ["HitNode", "Completed"]
    assert flow.stop_index.tolist() == [0, 10]
    assert flow.points[0, 0] == starts[0, 0]


def test_flow_completed_members():
    """completed() hands out the end points of the members that completed,
    in input order; when none did it raises EmptyFlowError with the counts
    of how they stopped."""
    psi = _first_excited()
    rec = EvolutionRecord(psi.grid, C1, Harmonic((1.0,)), SPLIT_FOURIER, 0.1,
                          1, [psi] * 11)
    flow = integrate_flow(np.array([[0.5], [1e-7], [-0.5]]), rec, C1,
                          dt_ode=0.1)
    assert status_names(flow) == ["Completed", "HitNode", "Completed"]
    np.testing.assert_array_equal(flow.completed(), flow.points[[0, 2]])
    with pytest.raises(EmptyFlowError) as info:
        integrate_flow(np.array([[1e-7], [-1e-7]]), rec, C1,
                       dt_ode=0.1).completed()
    assert (info.value.n_input, info.value.hit_node,
            info.value.left_grid) == (2, 2, 0)


def test_flow_needs_two_snapshots():
    """A record of t_final 0 holds one snapshot and no span to flow over;
    the error names the record, not dt_ode."""
    psi = ScalarWaveFunction(grid1d(64), np.ones(64, dtype=complex)).normalize()
    rec = evolve(psi, Free(), C1, 0.0, 0.01, SPLIT_FOURIER)
    with pytest.raises(ValueError, match="^a flow needs a record of at least "
                       "two snapshots$"):
        integrate_flow(np.array([[0.5]]), rec, C1)


def test_no_crossing_in_one_dimension():
    g = grid1d(1024, 12.0)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2) * (1.0 + 0.4 * np.exp(2j * x)),
        normalize=True)
    rec = evolve(psi, Free(), C1, 1.0, 1e-3, SPLIT_FOURIER, snapshot_stride=2)
    starts = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    flow = integrate_flow(starts, rec, C1, dt_ode=2e-3, store_path=True)
    assert all(s == "Completed" for s in status_names(flow))
    for j in range(flow.paths.shape[0]):
        order = flow.paths[j, :, 0]
        assert np.all(np.diff(order) > 0)


def _mixed_record():
    """A fast packet on a short grid: from MIXED_STARTS, members complete,
    leave the grid, or meet the node threshold in the far tail."""
    g = grid1d(256, 4.0)
    k = 2 * np.pi * 80 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2 + 1j * k * x), normalize=True)
    return evolve(psi, Free(), C1, 0.05, 1e-4, SPLIT_FOURIER,
                  snapshot_stride=10)


MIXED_STARTS = np.array([[-0.5], [3.0], [-3.9], [0.2], [-3.95], [2.5],
                         [3.05], [3.12057], [3.37133]])
# Member 7 lands just outside at the end of a step at dt_ode 1e-3, and
# member 8 at 2e-3; with the other step each leaves during the stages.
MIXED_STOPS = {1e-3: [50, 15, 0, 50, 0, 23, 15, 14, 10],
               2e-3: [25, 7, 0, 25, 0, 11, 7, 6, 5]}
MIXED_LANDED = {1e-3: 7, 2e-3: 8}


@pytest.fixture
def mixed_record(monkeypatch):
    """The mixed record, with the node threshold raised to density 1e-6 so
    that the far-tail starts meet it."""
    rec = _mixed_record()
    monkeypatch.setattr(guidance, "NODE_FRACTION",
                        1e-6 / np.max(density(rec.snapshots[0])))
    return rec


@pytest.mark.parametrize("dt_ode", [1e-3, 2e-3])
def test_batched_flow_equals_each_member_alone(mixed_record, dt_ode):
    rec = mixed_record
    batch = integrate_flow(MIXED_STARTS, rec, C1, dt_ode=dt_ode,
                           store_path=True)
    assert status_names(batch) == ["Completed", "LeftGrid", "HitNode",
                                    "Completed", "HitNode", "LeftGrid",
                                    "LeftGrid", "LeftGrid", "LeftGrid"]
    # Two members stop together at step 0, two more at one later step, and
    # the steps between stop nobody. A member that meets a node or leaves
    # during the stages of step j stops at j, at the step's start, inside;
    # one that lands outside at the end of step j stops at j + 1, outside.
    assert batch.stop_index.tolist() == MIXED_STOPS[dt_ode]
    landed = MIXED_LANDED[dt_ode]
    inside = rec.grid.contains(batch.points)
    assert inside.tolist() == [b != landed for b in range(len(MIXED_STARTS))]
    assert rec.grid.contains(batch.paths[batch.stop_index[landed] - 1,
                                         landed])
    # every member rests from its stop index on, at its final point
    for b, stop in enumerate(batch.stop_index):
        assert np.all(batch.paths[stop:, b] == batch.points[b])
    for b, q0 in enumerate(MIXED_STARTS):
        alone = integrate_flow(q0[None, :], rec, C1, dt_ode=dt_ode,
                               store_path=True)
        assert alone.points[0].tobytes() == batch.points[b].tobytes()
        assert alone.statuses[0] == batch.statuses[b]
        assert alone.stop_index[0] == batch.stop_index[b]
        assert (alone.paths[:, 0].tobytes()
                == np.ascontiguousarray(batch.paths[:, b]).tobytes())


def test_nan_member_leaves_the_grid(mixed_record):
    """The flow's range test, one min and max per axis, lets no NaN pass:
    a NaN member stops as LeftGrid at step 0, and the others keep the bits
    they get alone."""
    starts = np.array([[-0.5], [np.nan], [0.2]])
    flow = integrate_flow(starts, mixed_record, C1, dt_ode=1e-3)
    assert status_names(flow) == ["Completed", "LeftGrid", "Completed"]
    assert flow.stop_index[1] == 0
    alone = integrate_flow(starts[[0, 2]], mixed_record, C1, dt_ode=1e-3)
    assert alone.points.tobytes() == flow.points[[0, 2]].tobytes()


def test_off_grid_starts_stop_before_any_stage(oscillator_record):
    """In a 2-d flow, a NaN start and an off-grid start stop as LeftGrid at
    step 0 and no stage reads them, so numpy warns of no NaN; they rest at
    their starts, and the others keep the bits they get alone."""
    starts = np.array([[0.2, 0.2], [np.nan, 0.1], [9.0, 0.0], [-0.4, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = integrate_flow(starts, oscillator_record, C2, dt_ode=0.1,
                              store_path=True)
    assert status_names(flow) == ["Completed", "LeftGrid", "LeftGrid",
                                  "Completed"]
    assert flow.stop_index[[1, 2]].tolist() == [0, 0]
    assert np.all(flow.paths[:, 2] == starts[2])
    alone = integrate_flow(starts[[0, 3]], oscillator_record, C2, dt_ode=0.1)
    assert alone.points.tobytes() == flow.points[[0, 3]].tobytes()


@pytest.mark.parametrize("t", [0.0, 5e-4])
def test_node_member_leaves_the_others_bits(mixed_record, t):
    """A member at a node gets velocity exactly 0; the others get the bits
    they get in the same batch without it."""
    rec = mixed_record
    sampler = RecordSampler(rec.grid, rec.snapshots, rec.dt)
    with_node = np.array([[-0.5], [-3.9], [0.2], [2.5]])
    v, node = guidance._velocity_batch(sampler, with_node, t, C1)
    assert node.tolist() == [False, True, False, False]
    assert v[1].tolist() == [0.0]
    v_free, node_free = guidance._velocity_batch(sampler, with_node[~node],
                                                 t, C1)
    assert not node_free.any()
    assert v[~node].tobytes() == v_free.tobytes()


@pytest.mark.parametrize("dt_ode", [1e-3, 2e-3])
def test_flow_derives_each_snapshot_gradient_once(monkeypatch, mixed_record,
                                                  dt_ode):
    """dt_ode equal to and coarser than the snapshot spacing (1e-3)."""
    calls = Counter()
    by_field = guidance.gradient
    by_array = guidance.gradient_array

    def gradient(psi, axis):
        calls[id(psi.amplitudes), axis] += 1
        return by_field(psi, axis)

    def gradient_array(grid, amplitudes, axis, out=None):
        calls[id(amplitudes), axis] += 1
        return by_array(grid, amplitudes, axis, out=out)

    monkeypatch.setattr(guidance, "gradient", gradient)
    monkeypatch.setattr(guidance, "gradient_array", gradient_array)
    rec = mixed_record
    # 3000 members, so a flow that split them into blocks would recompute
    flow = integrate_flow(np.tile(MIXED_STARTS, (500, 1)), rec, C1,
                          dt_ode=dt_ode)
    assert flow.count("Completed") > 0  # so every snapshot is reached
    assert max(calls.values()) == 1
    assert set(calls) == {(id(s.amplitudes), 0) for s in rec.snapshots}


def _fresh_fields(snap):
    """psi and grad psi of one snapshot, derived afresh, stacked."""
    return np.stack([snap.amplitudes] + [gradient(snap, k)
                                         for k in range(snap.grid.dimension)])


@pytest.mark.parametrize("boundary", ["periodic", "boxed"])
def test_window_answers_equal_blends_of_fresh_fields(boundary):
    """A 2-d sampler over three snapshots, queried at a snapshot, a
    midpoint, a second theta in the same interval, the next snapshot and
    then an earlier time: each answer is the interpolated
    (1 - theta) a + theta b of freshly derived fields a and b, bit for bit,
    although a blend overwrites snapshot i's rows of the window."""
    sampler, pts = _sampler_case(boundary, (32, 48), count=3)
    dt = sampler.dt
    for t, at in [(dt, (1, 0.0)), (1.5 * dt, (1, 0.5)),
                  (1.75 * dt, (1, 0.75)), (2 * dt, (2, 0.0)),
                  (0.5 * dt, (0, 0.5))]:
        i, theta = sampler.bracket(t)
        assert i == at[0] and abs(theta - at[1]) < 1e-12
        fields = _fresh_fields(sampler.snapshots[i])
        if theta:
            later = _fresh_fields(sampler.snapshots[i + 1])
            fields = (1.0 - theta) * fields + theta * later
        want = guidance._interp_any(sampler.grid, fields, pts)
        val, grads = sampler.sample(pts, t)
        assert val.tobytes() == want[0].tobytes()
        assert grads.tobytes() == want[1:].tobytes()


def test_bracket_snaps_snapshot_times_that_round_off():
    """k dt in floating point is snapshot k's time, weight exactly 0, even
    where (k dt) / dt is not k, as for dt = 0.1 and k = 3; from the last
    snapshot's time on, the sampler reads that snapshot."""
    sampler, _ = _sampler_case("periodic", (64,), count=11)
    assert 3 * 0.1 / 0.1 != 3
    assert [sampler.bracket(k * 0.1) for k in range(11)] == [
        (k, 0.0) for k in range(11)]
    assert sampler.bracket(1.2) == (10, 0.0)


def test_flow_reads_the_last_snapshot_at_its_last_stage(monkeypatch):
    """The last RK4 stage of a flow falls on the last snapshot's time, up
    to roundoff, and reads that snapshot as it is: no blend, and the final
    slot holds snapshot n - 1."""
    psi = ScalarWaveFunction.from_callable(
        grid1d(256, 8.0), lambda x: np.exp(-x * x / 2 + 1j * x),
        normalize=True)
    rec = evolve(psi, Free(), C1, 0.3, 0.1, SPLIT_FOURIER)
    queries = []
    sample = RecordSampler.sample

    def recording_sample(self, pts, t):
        queries.append((self, t, self.bracket(t)))
        return sample(self, pts, t)

    monkeypatch.setattr(RecordSampler, "sample", recording_sample)
    integrate_flow(np.array([[0.5]]), rec, C1, dt_ode=0.1)
    sampler, t, last = queries[-1]
    n = len(rec.snapshots)
    assert t / rec.dt != n - 1  # roundoff at the end
    assert last == (n - 1, 0.0)
    assert sampler._held[(n - 1) % 2] == (n - 1, 0.0)


@pytest.mark.parametrize("boundary,shape", [
    ("periodic", (256,)), ("periodic", (32, 48)),
    ("boxed", (257,)), ("boxed", (33, 47))], ids=str)
def test_window_gradients_equal_gradient(boundary, shape):
    """The derivatives written in place into the window rows are the bits
    of gradient(), in both slots and after a slot is reused."""
    axes = tuple(Grid.regular(-4.0, 4.0, n, boundary=boundary,
                              dimension=1).axes[0] for n in shape)
    g = Grid(axes=axes)
    rng = np.random.default_rng(len(shape))
    snaps = [ScalarWaveFunction(g, rng.normal(size=shape)
                                + 1j * rng.normal(size=shape))
             for _ in range(3)]
    sampler = RecordSampler(g, snaps, 0.1)
    for idx in (0, 1, 2, 1):
        rows = sampler._window[sampler._rows(idx)]
        assert rows[0].tobytes() == snaps[idx].amplitudes.tobytes()
        for k in range(len(shape)):
            assert rows[1 + k].tobytes() == gradient(snaps[idx], k).tobytes()


def _sampler_case(boundary, shape, count=2):
    """A sampler over count random snapshots 0.1 apart on a grid of this
    boundary and shape, and 50 random points inside it."""
    axes = tuple(Grid.regular(-4.0, 4.0, n, boundary=boundary,
                              dimension=1).axes[0] for n in shape)
    g = Grid(axes=axes)
    rng = np.random.default_rng(7 * len(shape))
    snaps = [ScalarWaveFunction(g, rng.normal(size=shape)
                                + 1j * rng.normal(size=shape))
             for _ in range(count)]
    pts = np.stack([rng.uniform(ax.lower, ax.upper - 0.5 * ax.spacing, 50)
                    for ax in axes], axis=1)
    return RecordSampler(g, snaps, 0.1), pts


@pytest.mark.parametrize("boundary,shape", [
    ("periodic", (256,)), ("periodic", (32, 48)),
    ("boxed", (257,)), ("boxed", (33, 47))], ids=str)
def test_sample_blends_on_the_grid(boundary, shape):
    """Between snapshots the sampler interpolates the time blend of the
    fields; interpolation is linear, so that equals blending the two
    interpolated snapshots at the points, up to roundoff."""
    sampler, pts = _sampler_case(boundary, shape)
    theta = 0.5
    val, grads = sampler.sample(pts, theta * sampler.dt)
    pair = [guidance._interp_any(sampler.grid, sampler._window[
        sampler._rows(i)], pts) for i in (0, 1)]
    want = (1.0 - theta) * pair[0] + theta * pair[1]
    scale = max(np.max(np.abs(sampler._window[sampler._rows(i)]))
                for i in (0, 1))
    got = np.concatenate([val[None], grads])
    assert got.shape == (1 + len(shape), len(pts))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    # at a snapshot time no blend is made: the snapshot's fields themselves
    val0, _ = sampler.sample(pts, 0.0)
    assert val0.tobytes() == pair[0][0].tobytes()


def test_flow_blends_once_per_step_and_interpolates_one_plus_d_fields(
        monkeypatch):
    """With dt_ode equal to the snapshot spacing, RK4 stages 1 and 4 fall on
    snapshots and stages 2 and 3 share one midpoint blend; the last stage 4
    reads the last snapshot."""
    g = grid1d(256, 8.0)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 4 + 1.5j * x), normalize=True)
    rec = evolve(psi, Harmonic((1.0,)), C1, 2.0, 0.0625, SPLIT_FOURIER)
    blends, widths = [], []
    blend_rows = RecordSampler._blend_rows
    interp = guidance.interp_cubic_1d

    def counting_blend(self, i, theta):
        blends.append((i, theta))
        blend_rows(self, i, theta)

    def counting_interp(values, *args):
        widths.append(values.shape[0])
        return interp(values, *args)

    monkeypatch.setattr(RecordSampler, "_blend_rows", counting_blend)
    monkeypatch.setattr(guidance, "interp_cubic_1d", counting_interp)
    starts = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
    flow = integrate_flow(starts, rec, C1, dt_ode=0.0625)
    steps = len(rec.snapshots) - 1
    assert flow.count("Completed") == len(starts)
    assert blends == [(j, 0.5) for j in range(steps)]
    assert widths == [2] * (4 * steps)


def test_rk4_order_on_exact_field():
    """Halving the step cuts the endpoint error ~16x when RK4 runs on the
    closed-form velocity field itself (no interpolation floor)."""
    q0 = np.array([0.9, -0.5])
    exact = analytic.coupled_oscillator_trajectory(q0[0], q0[1], 2.0)

    def rk4_endpoint(dt):
        q = q0.copy()
        t = 0.0
        f = lambda q, t: np.array(
            analytic.coupled_oscillator_velocity(q[0], q[1], t))
        for _ in range(int(round(2.0 / dt))):
            k1 = f(q, t)
            k2 = f(q + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = f(q + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = f(q + dt * k3, t + dt)
            q = q + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        return q

    errs = [np.max(np.abs(rk4_endpoint(dt) - np.array(exact)))
            for dt in (0.2, 0.1)]
    assert 10 < errs[0] / errs[1] < 24


def test_flow_second_order_in_snapshot_spacing():
    """The flow blends snapshots linearly in time, so its endpoint error is
    second order in the snapshot spacing: halving it cuts the error ~4x.
    A free Gaussian makes the test clean: the split-Fourier step is exact
    for it, and its trajectories have the closed form
    x(t) = c + k t + (x0 - c) sqrt(1 + (t / 2 w^2)^2)."""
    c, w, k, t_final = -2.0, 1.0, 2.0, 1.0
    g = grid1d(1024, 20.0)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-(x - c) ** 2 / (4 * w * w) + 1j * k * x),
        normalize=True)
    starts = c + np.array([-1.5, -0.7, 0.0, 0.4, 1.2])
    exact = c + k * t_final + (starts - c) * np.sqrt(
        1.0 + (t_final / (2.0 * w * w)) ** 2)
    errs = []
    for spacing in (0.04, 0.02, 0.01):
        rec = evolve(psi, Free(), C1, t_final, spacing, SPLIT_FOURIER)
        flow = integrate_flow(starts[:, None], rec, C1, dt_ode=spacing)
        assert flow.count("Completed") == len(starts)
        errs.append(np.max(np.abs(flow.points[:, 0] - exact)))
    assert 3.6 < errs[0] / errs[1] < 4.4
    assert 3.6 < errs[1] / errs[2] < 4.4


def test_dt_ode_coarser_than_snapshots_rejected():
    g = grid1d()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    rec = evolve(psi, Free(), C1, 0.1, 1e-3, SPLIT_FOURIER, snapshot_stride=10)
    with pytest.raises(ValueError):
        integrate_trajectory((0.0,), rec, dt_ode=5e-3)


def test_integrate_rejects_outside_start(oscillator_record):
    with pytest.raises(OutOfBoundsError):
        integrate_trajectory((9.0, 0.0), oscillator_record, dt_ode=1e-2)
