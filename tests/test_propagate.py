"""The two unitary schemes: phases, unitarity, convergence order, time
reversal, the continuity diagnostic, and record persistence."""

import dataclasses
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, lapack

from bohmsim import analytic, propagate
from bohmsim.fields import (ScalarWaveFunction, density, norm,
                            read_wavefunction, write_wavefunction)
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.kernels import interp_cubic_1d
from bohmsim.potentials import (CoupledOscillator, Free, Harmonic, Sampled,
                                SoftCoulomb)
from bohmsim.propagate import (CRANK_NICOLSON, SPLIT_FOURIER, EvolutionRecord,
                               continuity_residual, evolve, load_record,
                               prepare_stepper, save_record)

C1 = PhysicalConstants.natural(1)


def periodic_grid(n=512, half=10.0):
    return Grid.regular(-half, half, n, dimension=1)


def boxed_grid(n=513, half=10.0):
    return Grid.regular(-half, half, n, boundary="boxed", dimension=1)


def gaussian(grid, width=1.0, center=0.0, k=0.0):
    return ScalarWaveFunction.from_callable(
        grid, lambda x: np.exp(-((x - center) ** 2) / (4 * width**2) + 1j * k * x),
        normalize=True)


# --- single steps ------------------------------------------------------------------


def test_step_free_plane_wave_phase():
    g = periodic_grid()
    k = 2 * np.pi * 9 / g.axes[0].length
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(1j * k * x) / np.sqrt(g.axes[0].length))
    dt = 1e-3
    out = prepare_stepper(g, Free(), C1, dt, SPLIT_FOURIER).advance(
        psi.amplitudes)
    np.testing.assert_allclose(np.abs(out), np.abs(psi.amplitudes),
                               atol=1e-10)
    expect = psi.amplitudes * np.exp(-1j * k * k * dt / 2)
    assert np.max(np.abs(out - expect)) < 1e-10


@pytest.mark.parametrize("method,factory", [(SPLIT_FOURIER, periodic_grid),
                                            (CRANK_NICOLSON, boxed_grid)])
def test_step_harmonic_ground_state(method, factory):
    g = factory()
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    dt = 1e-3
    out = prepare_stepper(g, Harmonic((1.0,)), C1, dt, method).advance(
        psi.amplitudes)
    assert np.max(np.abs(np.abs(out) - np.abs(psi.amplitudes))) < 1e-6
    mid = g.axes[0].count // 2
    phase = out[mid] / psi.amplitudes[mid]
    assert abs(phase - np.exp(-0.5j * dt)) < 1e-6


def test_step_norm_preserved_per_step():
    for method, factory in [(SPLIT_FOURIER, periodic_grid),
                            (CRANK_NICOLSON, boxed_grid)]:
        psi = gaussian(factory(), k=1.5)
        stepper = prepare_stepper(psi.grid, Harmonic((1.0,)), C1, 1e-3, method)
        out = ScalarWaveFunction(psi.grid, stepper.advance(psi.amplitudes))
        assert abs(norm(out) - norm(psi)) < 1e-12


def test_method_boundary_mismatch():
    with pytest.raises(ValueError):
        prepare_stepper(periodic_grid(), Free(), C1, 1e-3, CRANK_NICOLSON)
    with pytest.raises(ValueError):
        prepare_stepper(boxed_grid(), Free(), C1, 1e-3, SPLIT_FOURIER)
    with pytest.raises(ValueError):
        prepare_stepper(periodic_grid(), Free(), C1, 1e-3, "leapfrog")
    with pytest.raises(ValueError):
        prepare_stepper(periodic_grid(), Free(), C1, -1e-3, SPLIT_FOURIER)


def test_split_fourier_phases_must_be_finite():
    """A phase beyond the float range is rejected when the stepper is built,
    before any state turns into NaN."""
    g = periodic_grid(256)
    with pytest.raises(ValueError, match="kinetic phase of a 1e\\+306 step"):
        prepare_stepper(g, Free(), C1, 1e306, SPLIT_FOURIER)
    v = np.zeros(256)
    v[3] = np.inf
    with pytest.raises(ValueError, match="potential phase of a 0.001 step"):
        prepare_stepper(g, Sampled(v), C1, 1e-3, SPLIT_FOURIER)
    with pytest.raises(ValueError, match="rotation angle"):
        propagate.PauliStepper(g, Free(), C1, 1e300, (1e10, 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("shape,step", [((65,), "0.001"),
                                        ((17, 17), "0.0005")],
                         ids=["1d", "2d"])
def test_crank_nicolson_potential_must_be_finite(bad, shape, step):
    """A potential that is not finite on a boxed grid is rejected when the
    stepper is built, naming the step of the first Cayley factor (dt/2 in
    2-d), with no numpy warning on the way."""
    g = Grid.regular(-4.0, 4.0, shape[0], boundary="boxed",
                     dimension=len(shape))
    v = np.zeros(shape)
    v.flat[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"potential diagonal of a {step} step"):
            prepare_stepper(g, Sampled(v), PhysicalConstants.natural(
                len(shape)), 1e-3, CRANK_NICOLSON)


def test_crank_nicolson_spacing_beyond_the_float_range_raises_value_error():
    """The spacing of this boxed axis squares beyond the float range."""
    g = Grid.regular(-1.0, 1e160, 64, boundary="boxed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="kinetic coupling along axis 0"):
            prepare_stepper(g, Free(), C1, 0.01, CRANK_NICOLSON)


def test_step_coupled_oscillator_against_closed_form():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    c2 = PhysicalConstants.natural(2)
    psi0 = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    rec = evolve(psi0, CoupledOscillator(analytic.COUPLING), c2, 1.0, 1e-3,
                 SPLIT_FOURIER, snapshot_stride=1000)
    xx, yy = g.meshgrid()
    exact = analytic.coupled_oscillator_wavefunction(xx, yy, 1.0)
    assert np.max(np.abs(rec.snapshots[-1].amplitudes - exact)) < 1e-3


# --- one buffer per split-Fourier step ---------------------------------------------
#
# numpy turns ``a * temporary`` into ``temporary *= a`` once the temporary
# reaches 256 KB, which swaps the operands of each complex product. The shapes
# sit on both sides of that size: 32 KB, 147 KB and 786 KB of state.

SF_SHAPES = [(2048,), (96, 96), (128, 384)]


def _split_fourier_case(shape):
    """A harmonic split-Fourier stepper on a periodic grid of the given shape,
    and a random state on it."""
    axes = tuple(Grid.regular(-8.0, 8.0, n, dimension=1).axes[0] for n in shape)
    grid = Grid(axes=axes)
    constants = PhysicalConstants.natural(len(shape))
    stepper = prepare_stepper(grid, Harmonic((1.0,) * len(shape)), constants,
                              1e-3, SPLIT_FOURIER)
    rng = np.random.default_rng(len(shape))
    return stepper, rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", SF_SHAPES, ids=str)
def test_split_fourier_step_has_a_fixed_operand_order(shape):
    """20 chained steps equal the step written out with explicit calls, the
    kinetic phase first in its product, on every grid size."""
    stepper, arr = _split_fourier_case(shape)
    got = ref = arr
    for _ in range(20):
        got = stepper.advance(got)
        ref = np.multiply(stepper.exp_v_half, ref)
        ref = np.fft.fftn(ref)
        ref = np.multiply(stepper.exp_kinetic, ref)
        ref = np.fft.ifftn(ref)
        ref = np.multiply(stepper.exp_v_half, ref)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", SF_SHAPES, ids=str)
def test_split_fourier_step_allocates_one_state(shape):
    stepper, arr = _split_fourier_case(shape)
    stepper.advance(arr)  # any one-time setup of the transforms
    tracemalloc.start()
    try:
        stepper.advance(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * arr.nbytes


# --- free evolution in k-space -----------------------------------------------------


def _count_transforms(monkeypatch):
    """A list that gains one entry per forward or inverse n-d transform."""
    calls = []
    for name in ("fftn", "ifftn"):
        transform = getattr(np.fft, name)

        def counted(*args, _transform=transform, _name=name, **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("potential", [Free(), Sampled(np.zeros(256))],
                         ids=["free", "sampled-zeros"])
def test_free_evolve_makes_two_transforms_per_snapshot(monkeypatch, potential):
    """A potential that vanishes on the grid, whatever its type, keeps each
    snapshot interval in k-space: 4 intervals of 25 steps, 8 transforms."""
    psi = gaussian(periodic_grid(256), k=1.0)
    calls = _count_transforms(monkeypatch)
    rec = evolve(psi, potential, C1, 0.1, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=25)
    assert len(rec.snapshots) == 5
    assert calls == ["fftn", "ifftn"] * 4


def test_strang_evolve_makes_two_transforms_per_step(monkeypatch):
    psi = gaussian(periodic_grid(256), k=1.0)
    calls = _count_transforms(monkeypatch)
    evolve(psi, Harmonic((1.0,)), C1, 0.1, 1e-3, SPLIT_FOURIER,
           snapshot_stride=25)
    assert calls == ["fftn", "ifftn"] * 100


def test_free_evolve_matches_the_closed_form_gaussian():
    """The flux traversal grid and packet (2048 points on [-12, 20), center
    -3, unit width, momentum 4), every snapshot to t = 1.5 against the free
    Gaussian. The wrap of the t = 0 tails is about 1e-9 of the peak."""
    g = Grid.regular(-12.0, 20.0, 2048, dimension=1)
    x0, width, k = -3.0, 1.0, 4.0

    def exact(x, t):
        a = 1.0 + 0.5j * t / width**2
        return ((2.0 * np.pi * width**2) ** -0.25 / np.sqrt(a)
                * np.exp(-(x - x0 - k * t) ** 2 / (4.0 * width**2 * a)
                         + 1j * k * x - 0.5j * k * k * t))

    psi = ScalarWaveFunction.from_callable(g, lambda x: exact(x, 0.0),
                                           normalize=True)
    rec = evolve(psi, Free(), C1, 1.5, 1e-3, SPLIT_FOURIER, snapshot_stride=5)
    x = g.coordinates(0)
    gaps = [np.max(np.abs(s.amplitudes - exact(x, t)))
            for s, t in zip(rec.snapshots, rec.times)]
    assert len(gaps) == 301 and max(gaps) < 1e-9


@pytest.mark.parametrize("method", [SPLIT_FOURIER, CRANK_NICOLSON])
def test_evolve_equals_single_steps(method):
    """Advancing a whole snapshot interval in one call keeps the bits of
    advancing one step at a time, when the potential does not vanish: a 1-d
    harmonic split-Fourier run and a 2-d Crank-Nicolson run."""
    if method == SPLIT_FOURIER:
        psi, pot, c = gaussian(periodic_grid(256), k=1.0), Harmonic((1.0,)), C1
    else:
        psi, pot, c = _cn_case(2, 33)
    rec = evolve(psi, pot, c, 0.06, 1e-3, method, snapshot_stride=20)
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, method)
    arr = psi.amplitudes
    for j in range(60):
        arr = stepper.advance(arr)
        if (j + 1) % 20 == 0:
            assert rec.snapshots[(j + 1) // 20].amplitudes.tobytes() \
                == arr.tobytes()


# --- the Pauli step ----------------------------------------------------------------

_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


@pytest.mark.parametrize("b_field,dt", [
    ((0.0, 0.0, 0.0), 1e-3), ((1.0, 0.0, 0.0), 1e-3),
    ((0.3, -0.4, 0.5), 0.2), ((0.0, 0.0, -2.0), 0.7),
    ((1e200, -2e200, 0.5e200), 2e-200)],
    ids=["zero", "transverse", "oblique", "longitudinal", "1e200"])
def test_pauli_half_rotation_matches_expm(b_field, dt):
    """The stepper's half rotation is exp(-i (dt/2) B.sigma / hbar), with
    |B| = 1e200 taken without overflow, and none at B = 0."""
    c = PhysicalConstants(hbar=0.7, masses=(1.0,))
    pauli = propagate.PauliStepper(periodic_grid(64), Free(), c, dt, b_field)
    b_sigma = sum(b * s for b, s in zip(b_field, _SIGMA))
    want = expm(-1j * (0.5 * dt) * b_sigma / c.hbar)
    got = np.eye(2) if pauli.rotation is None else np.array(pauli.rotation)
    assert (pauli.rotation is None) == (not any(b_field))
    assert np.max(np.abs(got - want)) < 1e-13


class _CountingPotential:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, grid, constants):
        self.calls += 1
        return self.inner.evaluate(grid, constants)


def _logged(log, name, fn):
    """fn, appending name to log on every call."""
    def logged(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)
    return logged


@pytest.mark.parametrize("steps", [1, 40])
def test_pauli_stepper_builds_its_phases_once(monkeypatch, steps):
    """The potential is evaluated and every phase and rotation coefficient
    computed when the stepper is built, never in a step."""
    g = periodic_grid(256)
    potential = _CountingPotential(Harmonic((1.0,)))
    pauli = propagate.PauliStepper(g, potential, C1, 1e-3, (0.3, 0.0, 0.4))
    up = gaussian(g, k=1.0).amplitudes
    down = np.zeros_like(up)
    built = []
    for module, name in ((np, "exp"), (np, "cos"), (np, "sin"),
                         (np.fft, "fftfreq")):
        monkeypatch.setattr(module, name,
                            _logged(built, name, getattr(module, name)))
    for _ in range(steps):
        up, down = pauli.advance(up, down)
    assert potential.calls == 1 and built == []
    assert abs(np.sum(g.quadrature_weights()
                      * (np.abs(up) ** 2 + np.abs(down) ** 2)) - 1.0) < 1e-12


# --- evolve ------------------------------------------------------------------------


def test_evolve_zero_time():
    psi = gaussian(periodic_grid())
    rec = evolve(psi, Free(), C1, 0.0, 1e-3, SPLIT_FOURIER)
    assert len(rec.snapshots) == 1 and rec.times[0] == 0.0


def test_evolve_free_gaussian_spreads_vs_reference():
    """Oracle: a reference run at dt/10 on the same grid."""
    g = periodic_grid(1024, 12.0)
    psi = gaussian(g)
    rec = evolve(psi, Free(), C1, 2.0, 1e-2, SPLIT_FOURIER, snapshot_stride=10)
    ref = evolve(psi, Free(), C1, 2.0, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=2000)
    x = g.coordinates(0)
    w = g.quadrature_weights()

    def variance(snap):
        rho = density(snap)
        return float(np.sum(w * rho * x**2) - np.sum(w * rho * x) ** 2)

    # unit-width packet: position variance doubles by t = 2
    assert variance(rec.snapshots[-1]) > 1.8 * variance(rec.snapshots[0])
    assert abs(norm(rec.snapshots[-1]) - 1.0) < 1e-9
    gap = np.max(np.abs(rec.snapshots[-1].amplitudes
                        - ref.snapshots[-1].amplitudes))
    assert gap < 1e-8  # split kinetic-only evolution is exact; both agree


def test_evolve_coherent_state_period():
    """Oracle: periodicity of the harmonic coherent packet, checked against
    a reference run at dt/2."""
    g = periodic_grid(1024, 10.0)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-((x - 1.0) ** 2) / 2), normalize=True)
    period = 2 * np.pi
    dt = period / 6300
    rec = evolve(psi, Harmonic((1.0,)), C1, period, dt, SPLIT_FOURIER,
                 snapshot_stride=6300)
    w = g.quadrature_weights()
    l1 = np.sum(w * np.abs(density(rec.snapshots[-1]) - density(psi)))
    assert l1 < 1e-4
    ref = evolve(psi, Harmonic((1.0,)), C1, period, dt / 2, SPLIT_FOURIER,
                 snapshot_stride=12600)
    l1_ref = np.sum(w * np.abs(density(ref.snapshots[-1]) - density(psi)))
    assert l1_ref < l1 + 1e-12


def test_evolve_rejects_misaligned_final_time():
    psi = gaussian(periodic_grid())
    with pytest.raises(ValueError):
        evolve(psi, Free(), C1, 0.00153, 1e-3, SPLIT_FOURIER)
    with pytest.raises(ValueError):
        evolve(psi, Free(), C1, 0.01, 1e-3, SPLIT_FOURIER, snapshot_stride=3)


def test_record_invariants():
    psi = gaussian(periodic_grid())
    with pytest.raises(ValueError):
        EvolutionRecord(psi.grid, C1, Free(), SPLIT_FOURIER, 0.1, 1,
                        [ScalarWaveFunction(psi.grid, 2 * psi.amplitudes)])


@pytest.mark.parametrize("dt,stride", [(2e-3, 25), (1e-2, 10)])
def test_record_clock_has_the_bits_of_the_steps(dt, stride):
    """times are k dt at every stride-th step k, bit for bit; the product
    (dt stride) k differs from it at both configs."""
    n = 500
    rec = evolve(gaussian(periodic_grid(64)), Free(), C1, n * dt, dt,
                 SPLIT_FOURIER, snapshot_stride=stride)
    steps = np.array([k * dt for k in range(0, n + 1, stride)])
    assert rec.times.tobytes() == steps.tobytes()
    assert rec.dt == dt * stride and rec.t_final == steps[-1]


def test_clock_t_final_builds_no_times():
    """t_final is times[-1], bit for bit, read without building the times:
    an evolution of 10^6 snapshots would build 8 MB of them."""
    evolution = propagate.Evolution(gaussian(periodic_grid(64)), Free(), C1,
                                    3.0, 3e-6, SPLIT_FOURIER)
    tracemalloc.start()
    try:
        t_final = evolution.t_final
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**4
    assert t_final == evolution.times[-1]


# --- the factored Crank-Nicolson solve ---------------------------------------


def _zgtsv_solve(dl, d, du, rhs):
    """The per-call solve that factoring once replaced: one zgtsv
    elimination over all lines of a sweep, stacked with zeroed couplings."""
    lines, n = rhs.shape
    sub = np.array(dl, dtype=np.complex128)
    sub[:, 0] = 0.0
    sup = np.array(du, dtype=np.complex128)
    sup[:, -1] = 0.0
    x, info = lapack.zgtsv(sub.ravel()[1:],
                           np.array(d, dtype=np.complex128).ravel(),
                           sup.ravel()[:-1], rhs.reshape(-1, 1))[3:]
    assert info == 0
    return x.reshape(lines, n)


def _cn_case(dimension, count):
    g = Grid.regular(-8.0, 8.0, count, boundary="boxed", dimension=dimension)
    psi = ScalarWaveFunction.from_callable(
        g, lambda *q: np.exp(sum(-(x - 0.5) ** 2 / 2 + 1j * x for x in q)),
        normalize=True)
    constants = PhysicalConstants.natural(dimension)
    return psi, Harmonic((1.0,) * dimension), constants


@pytest.mark.parametrize("dimension,count", [(1, 1025), (2, 64)])
def test_factored_cayley_steps_match_per_call_zgtsv(monkeypatch, dimension,
                                                    count):
    psi, pot, c = _cn_case(dimension, count)

    def run():
        return evolve(psi, pot, c, 0.2, 1e-3, CRANK_NICOLSON,
                      snapshot_stride=200).snapshots[-1].amplitudes

    factored = run()
    monkeypatch.setattr(propagate, "factor_tridiagonal",
                        lambda dl, d, du: (dl, d, du))
    monkeypatch.setattr(propagate, "thomas_solve",
                        lambda matrix, rhs, out=None: _zgtsv_solve(*matrix, rhs))
    assert factored.tobytes() == run().tobytes()


def test_cayley_residual_guard_catches_corrupt_factors():
    psi, pot, c = _cn_case(1, 257)
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, CRANK_NICOLSON)
    stepper.advance(psi.amplitudes)
    stepper.factors[0].lu[1][:] *= 1.0 + 1e-6  # the diagonal of U
    with pytest.raises(RuntimeError, match="residual"):
        stepper.advance(psi.amplitudes)


def test_cayley_residual_guard_catches_a_nan_solution():
    """A NaN residual fails the guard, although it compares false with
    any tolerance."""
    psi, pot, c = _cn_case(1, 257)
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, CRANK_NICOLSON)
    stepper.factors[0].lu[1][5] = np.nan  # one diagonal entry of U
    with pytest.raises(RuntimeError, match="residual"):
        stepper.advance(psi.amplitudes)


@pytest.mark.parametrize("factor", [0, 1], ids=["x", "y"])
def test_cayley_residual_guard_catches_corrupt_2d_factors(factor):
    """The x factor is shared by both half sweeps of an ADI step."""
    psi, pot, c = _cn_case(2, 33)
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, CRANK_NICOLSON)
    stepper.advance(psi.amplitudes)
    stepper.factors[factor].lu[1][:] *= 1.0 + 1e-6  # the diagonal of U
    with pytest.raises(RuntimeError, match="residual"):
        stepper.advance(psi.amplitudes)


def _cn_rect_case():
    """A 40 x 24 boxed grid, so the x and y sweeps have different shapes."""
    g = Grid((Grid.regular(-4.0, 4.0, 40, boundary="boxed").axes[0],
              Grid.regular(-3.0, 3.0, 24, boundary="boxed").axes[0]))
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: np.exp(-(x - 0.3) ** 2 - y**2 + 1j * (x + 0.5 * y)),
        normalize=True)
    return psi, Harmonic((1.0, 1.5)), PhysicalConstants.natural(2)


@pytest.mark.parametrize("case", [lambda: _cn_case(1, 129), _cn_rect_case],
                         ids=["1d", "2d-40x24"])
def test_crank_nicolson_advance_returns_a_fresh_array(case):
    """Each result is a new C-contiguous array that no later call writes
    to, and the state it started from is left as it was."""
    psi, pot, c = case()
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, CRANK_NICOLSON)
    first = stepper.advance(psi.amplitudes)
    kept = first.tobytes()
    later = [stepper.advance(first, 2), stepper.advance(first)]
    later.append(stepper.advance(later[-1], 3))
    for arr in [first] + later:
        assert arr.flags.c_contiguous and arr.flags.owndata
        assert arr.shape == psi.grid.shape
    assert first.tobytes() == kept
    for a, b in zip([first] + later, later):
        assert not np.shares_memory(a, b)
    assert not np.shares_memory(first, psi.amplitudes)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_cayley_axis_same_bytes_for_c_and_f_ordered_states(axis):
    psi, pot, c = _cn_rect_case()
    v = pot.evaluate(psi.grid, c)
    factor = propagate._CayleyAxis(psi.grid, axis, v, c, 1e-3)
    state = np.ascontiguousarray(psi.amplitudes)
    got_c = factor.apply(state)
    got_f = factor.apply(np.asfortranarray(state))
    assert got_c.tobytes() == got_f.tobytes()


def test_adi_steps_allocate_no_sweep_sized_temporary():
    """After one warm-up step sizes the stepper's workspace, ten 2-d ADI
    steps on 64^2 allocate only the state they return: every sweep
    temporary (a 64 KB line buffer, solution, residual, product or |.|)
    lives in the workspace."""
    psi, pot, c = _cn_case(2, 64)
    stepper = prepare_stepper(psi.grid, pot, c, 1e-3, CRANK_NICOLSON)
    arr = stepper.advance(psi.amplitudes)
    tracemalloc.start()
    try:
        stepper.advance(arr, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * arr.nbytes


def _dense_hamiltonian_line(v_line, spacing, mass):
    """The boxed second-difference Hamiltonian on one line, as a matrix."""
    n = v_line.size
    hop = -1.0 / (2.0 * mass * spacing**2)
    return (np.diag(-2.0 * hop + v_line) + hop * np.eye(n, k=1)
            + hop * np.eye(n, k=-1))


@pytest.mark.parametrize("shape,axis",
                         [((17,), 0), ((9, 11), 0), ((9, 11), 1)])
def test_cayley_axis_matches_dense_solve(shape, axis):
    """apply(l) = A^-1 B l on every line along the axis, with A and B built
    densely from H, to 1e-13; the input state is left as it was."""
    g = Grid.regular(-2.0, 2.0, shape[0], boundary="boxed",
                     dimension=len(shape))
    if len(shape) == 2:
        g = Grid((g.axes[0], Grid.regular(-1.5, 1.5, shape[1],
                                          boundary="boxed").axes[0]))
    c = PhysicalConstants(hbar=1.0, masses=(1.0, 2.0)[:len(shape)])
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 3.0, shape)
    state = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    before = state.copy()
    tau = 0.05
    got = propagate._CayleyAxis(g, axis, v, c, tau).apply(state)
    assert state.tobytes() == before.tobytes()
    lam = tau / 2.0
    ax = g.axes[axis]
    lines = np.moveaxis(state, axis, -1).reshape(-1, ax.count)
    pots = np.moveaxis(v, axis, -1).reshape(-1, ax.count)
    want = np.empty_like(lines)
    eye = np.eye(ax.count)
    for r, (line, pot) in enumerate(zip(lines, pots)):
        h = _dense_hamiltonian_line(pot, ax.spacing, c.masses[axis])
        want[r] = np.linalg.solve(eye + 1j * lam * h,
                                  (eye - 1j * lam * h) @ line)
    got_lines = np.moveaxis(got, axis, -1).reshape(-1, ax.count)
    assert np.max(np.abs(got_lines - want)) < 1e-13


@pytest.mark.parametrize("steps", [1, 7, 40])
@pytest.mark.parametrize("dimension,factorizations", [(1, 1), (2, 2)])
def test_each_cayley_axis_factored_once(monkeypatch, steps, dimension,
                                        factorizations):
    calls = []
    factor = propagate.factor_tridiagonal
    monkeypatch.setattr(propagate, "factor_tridiagonal",
                        lambda *args: calls.append(args) or factor(*args))
    psi, pot, c = _cn_case(dimension, 33)
    evolve(psi, pot, c, steps * 1e-2, 1e-2, CRANK_NICOLSON,
           snapshot_stride=steps)
    assert len(calls) == factorizations


# --- unitarity, reversal, convergence ----------------------------------------------


@pytest.mark.parametrize("method,factory", [(SPLIT_FOURIER, periodic_grid),
                                            (CRANK_NICOLSON, boxed_grid)])
def test_norm_drift_over_many_steps(method, factory):
    psi = gaussian(factory(256), k=1.0)
    rec = evolve(psi, Harmonic((1.0,)), C1, 1.0, 1e-3, method,
                 snapshot_stride=1000)
    assert abs(norm(rec.snapshots[-1]) - 1.0) < 1e-10


@pytest.mark.parametrize("method,factory", [(SPLIT_FOURIER, periodic_grid),
                                            (CRANK_NICOLSON, boxed_grid)])
def test_time_reversal(method, factory):
    g = factory()
    psi = gaussian(g, k=0.8)
    t, dt = 0.5, 1e-3

    def run(p):
        return evolve(p, Harmonic((1.0,)), C1, t, dt, method,
                      snapshot_stride=500).snapshots[-1]

    fwd = run(psi)
    ref = evolve(psi, Harmonic((1.0,)), C1, t, dt / 10, method,
                 snapshot_stride=5000).snapshots[-1]
    one_way = max(np.max(np.abs(fwd.amplitudes - ref.amplitudes)), 1e-14)
    back = run(ScalarWaveFunction(g, np.conj(fwd.amplitudes)))
    roundtrip = np.max(np.abs(np.conj(back.amplitudes) - psi.amplitudes))
    assert roundtrip < 10 * one_way


def test_second_order_richardson_crank_nicolson():
    g = boxed_grid(1025, 12.0)
    psi = gaussian(g, k=1.0)
    outs = []
    for dt in (4e-3, 2e-3, 1e-3):
        rec = evolve(psi, Free(), C1, 0.4, dt, CRANK_NICOLSON,
                     snapshot_stride=int(round(0.4 / dt)))
        outs.append(rec.snapshots[-1].amplitudes)
    e1 = np.max(np.abs(outs[0] - outs[1]))
    e2 = np.max(np.abs(outs[1] - outs[2]))
    assert 3.4 < e1 / e2 < 4.6


def test_second_order_richardson_split_fourier():
    g = periodic_grid(512)
    psi = gaussian(g, center=1.0)
    outs = []
    for dt in (4e-3, 2e-3, 1e-3):
        rec = evolve(psi, Harmonic((1.0,)), C1, 0.4, dt, SPLIT_FOURIER,
                     snapshot_stride=int(round(0.4 / dt)))
        outs.append(rec.snapshots[-1].amplitudes)
    e1 = np.max(np.abs(outs[0] - outs[1]))
    e2 = np.max(np.abs(outs[1] - outs[2]))
    assert 3.4 < e1 / e2 < 4.6


def test_methods_cross_check():
    """The two schemes act as each other's oracle on a smooth packet."""
    gp = periodic_grid(512)
    gb = boxed_grid(513)
    f = lambda x: np.exp(-((x - 1.0) ** 2) / 2)
    a = ScalarWaveFunction.from_callable(gp, f, normalize=True)
    b = ScalarWaveFunction.from_callable(gb, f, normalize=True)
    ra = evolve(a, Harmonic((1.0,)), C1, 1.0, 1e-3, SPLIT_FOURIER,
                snapshot_stride=1000)
    rb = evolve(b, Harmonic((1.0,)), C1, 1.0, 1e-3, CRANK_NICOLSON,
                snapshot_stride=1000)
    pts = gp.coordinates(0)[::8]
    ax = gb.axes[0]
    vals = interp_cubic_1d(rb.snapshots[-1].amplitudes, ax.lower, ax.spacing,
                           ax.periodic, pts)
    ref = ra.snapshots[-1].amplitudes[::8]
    assert np.max(np.abs(vals - ref)) < 1e-3


def test_crank_nicolson_soft_coulomb_stable():
    g = boxed_grid(513, 12.0)
    psi = gaussian(g, width=0.8)
    rec = evolve(psi, SoftCoulomb(0.5), C1, 0.5, 1e-3, CRANK_NICOLSON,
                 snapshot_stride=500)
    assert abs(norm(rec.snapshots[-1]) - 1.0) < 1e-10


# --- continuity diagnostic ----------------------------------------------------------


def test_continuity_stationary_state():
    g = boxed_grid(513)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    rec = evolve(psi, Harmonic((1.0,)), C1, 0.02, 1e-3, CRANK_NICOLSON)
    assert continuity_residual(rec) < 1e-6


def test_continuity_second_order_in_dt():
    g = periodic_grid(1024, 12.0)
    psi = gaussian(g)
    res = []
    for dt in (2e-3, 1e-3):
        rec = evolve(psi, Free(), C1, 0.2, dt, SPLIT_FOURIER)
        res.append(continuity_residual(rec))
    assert 3.4 < res[0] / res[1] < 4.6


def test_continuity_needs_three_snapshots():
    psi = gaussian(periodic_grid())
    rec = evolve(psi, Free(), C1, 0.0, 1e-3, SPLIT_FOURIER)
    with pytest.raises(ValueError):
        continuity_residual(rec)


def test_record_rejects_other_constants():
    """The flow reads the record's fields with the constants they were
    evolved with; any other constants are an error that names both. (The
    surface current and the continuity residual take no constants: they
    read the record's.)"""
    from bohmsim.guidance import integrate_flow
    rec = evolve(gaussian(periodic_grid(128), k=0.5), Free(), C1, 0.1, 1e-2,
                 SPLIT_FOURIER)
    integrate_flow([[0.3]], rec, C1)
    with pytest.raises(ValueError, match=r"constants .*7\.0.* differ "
                       r"from the record's .*1\.0"):
        integrate_flow([[0.3]], rec, PhysicalConstants(masses=(7.0,)))


# --- persistence --------------------------------------------------------------------


def test_record_save_load_roundtrip(tmp_path):
    g = periodic_grid(128)
    psi = gaussian(g, k=0.5)
    rec = evolve(psi, Harmonic((1.0,)), C1, 0.02, 1e-3, SPLIT_FOURIER,
                 snapshot_stride=5)
    save_record(rec, str(tmp_path / "run"))
    back = load_record(str(tmp_path / "run"))
    assert back.method == rec.method and back.stride == rec.stride
    np.testing.assert_array_equal(back.times, rec.times)
    for s1, s2 in zip(back.snapshots, rec.snapshots):
        np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    assert back.potential.describe() == rec.potential.describe()


def test_manifest_with_stored_clock_loads_to_the_same_record(tmp_path):
    """A manifest whose dt and times were written from the evolution loop
    (dt = step_dt x stride, times k step_dt) loads to the record it was
    saved from."""
    step_dt, stride, n = 2e-3, 25, 100
    rec = evolve(gaussian(periodic_grid(64), k=0.5), Free(), C1, n * step_dt,
                 step_dt, SPLIT_FOURIER, snapshot_stride=stride)
    directory = str(tmp_path / "run")
    save_record(rec, directory)
    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["dt"] = step_dt * stride
    manifest["times"] = [k * step_dt for k in range(0, n + 1, stride)]
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    back = load_record(directory)
    for f in dataclasses.fields(EvolutionRecord):
        mine, theirs = getattr(back, f.name), getattr(rec, f.name)
        if f.name == "potential":
            assert mine.describe() == theirs.describe()
        elif f.name == "snapshots":
            assert [s.amplitudes.tobytes() for s in mine] == [
                s.amplitudes.tobytes() for s in theirs]
        else:
            assert mine == theirs
    assert back.times.tobytes() == rec.times.tobytes() and back.dt == rec.dt


def _set(key, value):
    def mutate(manifest, directory):
        manifest[key] = value
    return mutate


def _drop(key):
    def mutate(manifest, directory):
        del manifest[key]
    return mutate


def _drop_nested(key, inner):
    def mutate(manifest, directory):
        del manifest[key][inner]
    return mutate


def _rewrite_snapshot_hbar(manifest, directory):
    path = os.path.join(directory, manifest["snapshots"][1])
    psi, _ = read_wavefunction(path)
    write_wavefunction(psi, PhysicalConstants(hbar=2.0, masses=(1.0,)), path)


@pytest.mark.parametrize("mutate,field,stride", [
    (_drop("step_dt"), "step_dt", 2),
    (_drop("times"), "times", 2),
    (_set("method", "bogus"), "method", 2),
    (_set("method", CRANK_NICOLSON), "crank-nicolson", 2),
    (_set("step_dt", -0.01), "step_dt", 2),
    (_set("stride", 3), "stride", 2),
    (_set("stride", 0), "stride", 2),
    (_set("dt", 0.03), "^dt: snapshot spacing", 2),
    (_rewrite_snapshot_hbar, "constants", 2),
    (_drop_nested("grid", "axes"), "field 'grid'", 2),
    (_drop_nested("constants", "hbar"), "field 'constants'", 2),
    (_set("step_dt", "0.01"), "^step_dt: must be positive and finite", 2),
    # a record's clock starts at 0, so no manifest can shift it
    (_set("times", [1.0, 1.02, 1.04]), "^times: a record starts at t = 0", 2),
    (_set("times", [[0.0], [0.5], [7.0]]), r"^times: expected a 1-d array",
     2),
    (_set("times", ["a", "b", "c"]), "field 'times'", 2),
    # numeric strings fail as step_dt "0.01" does
    (_set("times", ["0.0", "0.02", "0.04"]),
     "^times: expected finite numbers, found '0.0'", 2),
    (_set("snapshots", 3), "field 'snapshots'", 2),
    # JSON true is a bool, which Python counts as the int 1: at stride 1
    # "stride": true would read as a consistent clock
    (_set("stride", True), "^stride: must be a positive integer", 1),
    (_set("step_dt", True), "^step_dt: must be positive and finite", 1),
    (_set("dt", True), "^dt: expected a finite number, found True", 1),
], ids=["no-step_dt", "no-times", "method-bogus", "method-boxed-only",
        "step_dt-negative", "stride-3", "stride-0", "dt-0.03", "snapshot-hbar",
        "grid-no-axes", "constants-no-hbar", "step_dt-string", "times-shifted",
        "times-nested", "times-strings", "times-numeric-strings",
        "snapshots-count", "stride-true", "step_dt-true", "dt-true"])
def test_corrupt_manifest_raises_naming_field(tmp_path, mutate, field, stride):
    """A saved record (dt = step_dt 0.01 x stride, 2 or 1) with one field
    made inconsistent."""
    directory = str(tmp_path / "run")
    rec = evolve(gaussian(periodic_grid(64)), Free(), C1, 0.04, 0.01,
                 SPLIT_FOURIER, snapshot_stride=stride)
    save_record(rec, directory)
    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    mutate(manifest, directory)
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match=field):
        load_record(directory)
