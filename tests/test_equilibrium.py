"""Equilibrium sampling, equivariance distances, conditional/effective wave
functions, and a reduced pointer-measurement run."""

import math

import numpy as np
import pytest
from scipy import special

from bohmsim import analytic
from bohmsim.equilibrium import (Ensemble, MacroPartition, ZeroSliceError,
                                 aligned_l2_error, collapse_experiment,
                                 conditional_wavefunction,
                                 effective_decomposition,
                                 equivariance_distance,
                                 multi_time_equivariance, sample_density)
from bohmsim.fields import ScalarWaveFunction, gradient_array, norm
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.guidance import (HIT_NODE, LEFT_GRID, OutOfBoundsError,
                              integrate_flow)
from bohmsim.kernels import cubic_stencil
from bohmsim.potentials import CoupledOscillator, Free, Harmonic
from bohmsim.propagate import SPLIT_FOURIER, evolve

C1 = PhysicalConstants.natural(1)
C2 = PhysicalConstants.natural(2)


def grid1d(n=512, half=12.0):
    return Grid.regular(-half, half, n, dimension=1)


def unit_gaussian(grid):
    return ScalarWaveFunction.from_callable(
        grid, lambda x: np.exp(-x * x / 2), normalize=True)


@pytest.fixture(scope="module")
def analytic_field_t1():
    g = Grid.regular(-8.0, 8.0, 256, dimension=2)
    x, y = g.meshgrid()
    return ScalarWaveFunction(g, analytic.coupled_oscillator_wavefunction(x, y, 1.0))


# --- sampling -----------------------------------------------------------------------


def test_sample_concentrated_density():
    g = grid1d(64, 4.0)
    amps = np.zeros(64, dtype=complex)
    amps[20] = 1.0
    psi = ScalarWaveFunction(g, amps).normalize()
    ens = sample_density(psi, 200, seed=1)
    x20 = g.coordinates(0)[20]
    h = g.axes[0].spacing
    assert np.all(np.abs(ens.members[:, 0] - x20) <= 0.5 * h + 1e-12)


def test_sample_gaussian_moments_vs_independent_mc():
    g = grid1d(1024)
    psi = unit_gaussian(g)
    n = 10**4
    ens = sample_density(psi, n, seed=5)
    mean = float(np.mean(ens.members[:, 0]))
    var = float(np.var(ens.members[:, 0]))
    assert abs(mean) < 4 * math.sqrt(0.5) / math.sqrt(n)  # 4 sigma / sqrt(n)
    assert abs(var - 0.5) < 0.05
    # independent draw from the same discrete cell measure
    rng = np.random.default_rng(77)
    from bohmsim.fields import density
    p = density(psi) * g.cell_volume()
    p = p / p.sum()
    cells = rng.choice(len(p), size=n, p=p)
    xs = g.coordinates(0)[cells] + (rng.random(n) - 0.5) * g.axes[0].spacing
    assert abs(np.mean(xs) - mean) < 0.03
    assert abs(np.var(xs) - var) < 0.03


def test_sample_deterministic_and_validated():
    g = grid1d()
    psi = unit_gaussian(g)
    a = sample_density(psi, 100, seed=9)
    b = sample_density(psi, 100, seed=9)
    np.testing.assert_array_equal(a.members, b.members)
    with pytest.raises(ValueError):
        sample_density(psi.with_amplitudes(2 * psi.amplitudes), 10, seed=0)
    with pytest.raises(ValueError):
        sample_density(psi, 0, seed=0)


def test_ensemble_requires_members():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((0, 1)))


# --- ensemble transport --------------------------------------------------------------


def test_evolve_ensemble_stationary():
    from bohmsim.propagate import EvolutionRecord
    g = grid1d()
    psi = unit_gaussian(g)
    # stationary state: snapshots equal up to the global phase guidance drops
    rec = EvolutionRecord(g, C1, Harmonic((1.0,)), SPLIT_FOURIER, 0.05, 0.05,
                          1, 0.05 * np.arange(11), [psi] * 11)
    ens = sample_density(psi, 300, seed=3)
    res = integrate_flow(ens.members, rec, C1, dt_ode=5e-2)
    assert res.count(HIT_NODE) == 0 and res.count(LEFT_GRID) == 0
    np.testing.assert_allclose(res.completed(), ens.members, atol=1e-9)


def test_evolve_ensemble_diagonal_scaling():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    psi0 = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    rec = evolve(psi0, CoupledOscillator(analytic.COUPLING), C2, 1.0, 1e-3,
                 SPLIT_FOURIER, snapshot_stride=10)
    diag = np.array([[0.2, 0.2], [0.5, 0.5], [-0.4, -0.4]])
    res = integrate_flow(diag, rec, C2, dt_ode=1e-2)
    factor = math.sqrt(2.0)
    np.testing.assert_allclose(res.completed(), diag * factor, atol=1e-4)


def test_evolve_ensemble_free_spreading_no_nodes():
    g = grid1d(1024)
    psi = unit_gaussian(g)
    rec = evolve(psi, Free(), C1, 1.0, 1e-3, SPLIT_FOURIER, snapshot_stride=2)
    ens = sample_density(psi, 2000, seed=21)
    res = integrate_flow(ens.members, rec, C1, dt_ode=2e-3)
    assert res.count(HIT_NODE) == 0
    assert res.completed().shape == (2000, 1)


# --- equivariance distances ------------------------------------------------------------


def test_distance_iid_sample_small():
    g = grid1d(1024)
    psi = unit_gaussian(g)
    ens = sample_density(psi, 10**4, seed=13)
    rep = equivariance_distance(ens, psi, bins=50)
    assert rep.l1 < 0.05
    assert rep.ks < 0.03


def test_distance_shifted_gaussian_large():
    """Oracle: the exact L1 gap between N(0, 1/2) and N(1, 1/2) densities is
    2 (2 Phi(1/2; sd) - 1) evaluated for sd^2 = 1/2, about 0.7605."""
    g = grid1d(1024)
    psi = unit_gaussian(g)
    shifted = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-((x - 1.0) ** 2) / 2), normalize=True)
    ens = sample_density(shifted, 10**4, seed=17)
    rep = equivariance_distance(ens, psi, bins=50)
    sd = math.sqrt(0.5)
    exact_gap = 2.0 * (2.0 * 0.5 * (1 + special.erf(0.5 / (sd * math.sqrt(2)))) - 1.0)
    assert exact_gap > 0.7
    assert rep.l1 > 0.3
    assert abs(rep.l1 - exact_gap) < 0.1


def test_distance_single_member():
    g = grid1d(256)
    psi = unit_gaussian(g)
    ens = Ensemble(np.array([[0.05]]))
    rep = equivariance_distance(ens, psi, bins=20)
    from bohmsim.equilibrium import _bin_masses
    _, masses = _bin_masses(psi, 20)
    target = 2.0 * (1.0 - masses.max())
    assert abs(rep.l1 - target) < 0.02


def test_distance_2d():
    g = Grid.regular(-6.0, 6.0, 128, dimension=2)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: np.exp(-(x * x + y * y) / 2), normalize=True)
    ens = sample_density(psi, 4000, seed=23)
    rep = equivariance_distance(ens, psi, bins=20)
    assert rep.ks is None
    assert rep.l1 < 0.35  # 400 cells at n=4000: multinomial scale ~ 0.25


def test_multi_time_union():
    g = grid1d(512)
    psi = unit_gaussian(g)
    out = multi_time_equivariance(psi, Free(), C1, times=[0.25, 0.5], dt=1e-3,
                                  method=SPLIT_FOURIER, n_each=2000, seed=31,
                                  bins=30, stride=5, dt_ode=5e-3)
    assert out["mean_l1"] < 0.1


# --- conditional wave function ----------------------------------------------------------


def test_conditional_product_state_recovers_factor():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    xs = g.coordinates(0)
    sys_amp = np.exp(-((xs - 0.5) ** 2) / 2) * np.exp(0.4j * xs)
    env_amp = np.exp(-((xs + 1.0) ** 2) / 4)
    psi = ScalarWaveFunction(g, np.outer(sys_amp, env_amp)).normalize()
    cond = conditional_wavefunction(psi, 0.8)
    ref = ScalarWaveFunction(Grid(axes=(g.axes[0],)), sys_amp)
    assert aligned_l2_error(cond, ref) < 1e-8


def test_conditional_matches_oracle(analytic_field_t1):
    x0, y0, t = 0.3, -0.2, 1.0
    _, yt = analytic.coupled_oscillator_trajectory(x0, y0, t)
    cond = conditional_wavefunction(analytic_field_t1, yt)
    xs = analytic_field_t1.grid.coordinates(0)
    oracle_amp = analytic.conditional_oracle(x0, y0, t, xs)
    oracle = ScalarWaveFunction(cond.grid, oracle_amp)
    assert aligned_l2_error(cond, oracle) < 1e-3


def _hand_summed_slice(psi2d, y_value):
    """Psi(x, Y) summed by hand over the four stencil columns, as it was
    before the interpolation kernel took it over."""
    ax = psi2d.grid.axes[1]
    idx, w = cubic_stencil(ax.count, ax.lower, ax.spacing, ax.periodic,
                           np.array([y_value]))
    return sum(w[b, 0] * psi2d.amplitudes[:, idx[b, 0]] for b in range(4))


@pytest.mark.parametrize("boundary", ["periodic", "boxed"])
def test_conditional_slice_matches_four_term_sum(boundary):
    g = Grid.regular(-4.0, 4.0, 40, boundary=boundary, dimension=2)
    rng = np.random.default_rng(5)
    psi = ScalarWaveFunction(g, rng.normal(size=g.shape)
                             + 1j * rng.normal(size=g.shape))
    ax = g.axes[1]
    for y in (*rng.uniform(ax.lower, ax.upper, 20), ax.lower, ax.upper,
              ax.lower + 7 * ax.spacing):
        ref = ScalarWaveFunction(Grid(axes=(g.axes[0],)),
                                 _hand_summed_slice(psi, y)).normalize()
        cond = conditional_wavefunction(psi, y)
        assert cond.amplitudes.tobytes() == ref.amplitudes.tobytes()


def test_conditional_bounds_and_zero_slice():
    g = Grid.regular(-8.0, 8.0, 64, dimension=2)
    xs = g.coordinates(0)
    env = xs * np.exp(-xs * xs / 2)  # node at y = 0
    psi = ScalarWaveFunction(g, np.outer(np.exp(-xs * xs / 2), env)).normalize()
    with pytest.raises(OutOfBoundsError):
        conditional_wavefunction(psi, 9.0)
    with pytest.raises(ZeroSliceError):
        conditional_wavefunction(psi, 0.0)


# --- effective decomposition ------------------------------------------------------------


def _packet(xs, center, width=0.5):
    return np.exp(-((xs - center) ** 2) / (4 * width * width))


def test_effective_product_state():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    xs = g.coordinates(0)
    psi = ScalarWaveFunction(
        g, np.outer(_packet(xs, 0.0, 1.0), _packet(xs, -4.0))).normalize()
    part = MacroPartition(axis=1, cells=((-8.0, 0.0, "lo"), (0.0, 8.0, "hi")))
    dec = effective_decomposition(psi, part, -4.0)
    assert dec is not None
    assert dec.cell_label == "lo"
    assert dec.overlap < 1e-8
    assert norm(dec.remainder) < 1e-6
    ref = ScalarWaveFunction(Grid(axes=(g.axes[0],)), _packet(xs, 0.0, 1.0))
    assert aligned_l2_error(dec.system, ref) < 1e-6


def test_effective_two_branches():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    xs = g.coordinates(0)
    psi1 = _packet(xs, 1.5)
    psi2 = _packet(xs, -1.5)
    phi1 = _packet(xs, -4.0)
    phi2 = _packet(xs, 4.0)
    amps = 0.8 * np.outer(psi1, phi1) + 0.6 * np.outer(psi2, phi2)
    psi = ScalarWaveFunction(g, amps).normalize()
    part = MacroPartition(axis=1, cells=((-8.0, 0.0, "L"), (0.0, 8.0, "R")))
    dec = effective_decomposition(psi, part, -4.2)
    ref = ScalarWaveFunction(Grid(axes=(g.axes[0],)), psi1)
    assert aligned_l2_error(dec.system, ref) < 1e-6
    assert dec.overlap < 1e-8
    # the remainder is the other branch
    assert abs(norm(dec.remainder) - 0.6) < 1e-6
    with pytest.raises(ValueError):
        effective_decomposition(psi, MacroPartition(
            axis=1, cells=((-8.0, -1.0, "L"),)), 0.5)


def test_effective_entangled_returns_none(analytic_field_t1):
    part = MacroPartition(axis=1, cells=((-8.0, 0.0, "L"), (0.0, 8.0, "R")))
    assert effective_decomposition(analytic_field_t1, part, 0.7) is None


def test_effective_agrees_with_conditional():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    xs = g.coordinates(0)
    amps = (0.8 * np.outer(_packet(xs, 1.5), _packet(xs, -4.0))
            + 0.6 * np.outer(_packet(xs, -1.5), _packet(xs, 4.0)))
    psi = ScalarWaveFunction(g, amps).normalize()
    part = MacroPartition(axis=1, cells=((-8.0, 0.0, "L"), (0.0, 8.0, "R")))
    y = -3.6
    dec = effective_decomposition(psi, part, y)
    cond = conditional_wavefunction(psi, y)
    assert aligned_l2_error(dec.system, cond) < 1e-4


def test_partition_validation():
    with pytest.raises(ValueError):
        MacroPartition(axis=1, cells=((0.0, 2.0, "a"), (1.0, 3.0, "b")))
    with pytest.raises(ValueError):
        MacroPartition(axis=1, cells=((0.0, 1.0, "a"), (1.0, 2.0, "a")))
    with pytest.raises(ValueError):
        MacroPartition(axis=1, cells=((2.0, 1.0, "a"),))


def test_conditional_family_not_schrodinger(analytic_field_t1):
    """No fixed self-adjoint quadratic Hamiltonian generates the conditional
    slice's time dependence: the best-fit residual stays above 1e-2."""
    g = analytic_field_t1.grid
    xs = g.coordinates(0)
    w = g.axes[0].quadrature_weights()
    sw = np.sqrt(w)
    line = Grid(axes=(g.axes[0],))

    def conditional(t, x0=1.0, y0=0.0):
        _, yt = analytic.coupled_oscillator_trajectory(x0, y0, t)
        vals = analytic.coupled_oscillator_wavefunction(xs, yt, t)
        return vals / np.sqrt(np.sum(w * np.abs(vals) ** 2))

    d = 1e-4
    psi_c = conditional(1.0)
    lhs = 1j * (conditional(1.0 + d) - conditional(1.0 - d)) / (2 * d)
    psi_xx = gradient_array(line, gradient_array(line, psi_c, 0), 0)
    cols = [-psi_xx, xs**2 * psi_c, xs * psi_c, psi_c]
    design = np.stack([c * sw for c in cols], axis=1)
    target = lhs * sw
    a_real = np.concatenate([design.real, design.imag])
    b_real = np.concatenate([target.real, target.imag])
    coef, *_ = np.linalg.lstsq(a_real, b_real, rcond=None)
    residual = float(np.linalg.norm(a_real @ coef - b_real))
    assert residual > 1e-2


# --- pointer measurement (reduced size; the acceptance suite runs it in full) ------------

# the collapse scenario's defaults, apart from the ensemble size
RUN = {"coupling": 40.0, "t_meas": 1.0, "dt": 1e-3, "snapshot_stride": 10,
       "dt_ode": 1e-2}


def test_collapse_degenerate_weight():
    rep = collapse_experiment(1.0, 0.0, n_members=200, seed=2, **RUN)
    assert rep["frequencies"]["1"] == 1.0
    assert rep["counts"]["2"] == 0
    assert rep["effective_state_errors"]["1"] < 1e-3
    assert rep["passed"]


def test_collapse_rejects_bad_weights():
    with pytest.raises(ValueError):
        collapse_experiment(1.0, 0.5, n_members=10, seed=0, **RUN)


def test_collapse_classification_time_reported():
    rep = collapse_experiment(math.sqrt(0.5), math.sqrt(0.5), n_members=200,
                              seed=3, **RUN)
    assert rep["classification_time"] is not None
    assert 0.0 < rep["classification_time"] <= 1.0
    leaks = [leak for _, leak in rep["leakage_series"]]
    assert leaks[0] > 0.4  # pointer starts undisplaced
    assert leaks[-1] < 1e-6
