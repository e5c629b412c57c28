"""Grids, wave-function fields, derivative stencils, currents, potentials,
and the binary/CSV serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmsim import analytic
from bohmsim.fields import (CurrentField, ScalarWaveFunction,
                            SpinorWaveFunction, density, divergence, gradient,
                            norm, probability_current, read_wavefunction,
                            roundtrip_bytes, wavefunction_to_csv,
                            write_wavefunction)
from bohmsim.grids import Axis, Grid, PhysicalConstants
from bohmsim.guidance import velocity
from bohmsim.potentials import (CoupledOscillator, Free, Harmonic, Sampled,
                                SoftCoulomb, from_description)


@pytest.fixture
def grid1d():
    return Grid.regular(-12.0, 12.0, 512, dimension=1)


@pytest.fixture
def constants():
    return PhysicalConstants.natural(1)


def lattice_k(grid, mode):
    return 2.0 * np.pi * mode / grid.axes[0].length


# --- grid basics -----------------------------------------------------------------


def test_grid_invariants():
    with pytest.raises(ValueError):
        Axis(0.0, 4, 0.1)  # too few points
    with pytest.raises(ValueError):
        Axis(0.0, 16, -0.1)
    with pytest.raises(ValueError):
        Axis(0.0, 16, 0.1, boundary="weird")
    with pytest.raises(ValueError):
        Grid(axes=())


def test_quadrature_weights(grid1d):
    assert np.allclose(grid1d.quadrature_weights(), grid1d.axes[0].spacing)
    boxed = Grid.regular(0.0, 1.0, 11, boundary="boxed", dimension=1)
    w = boxed.quadrature_weights()
    assert w[0] == pytest.approx(0.05) and w[5] == pytest.approx(0.1)
    assert np.isclose(w.sum(), 1.0)


def test_grid_description_roundtrip():
    g = Grid(axes=(Axis(-1.0, 32, 0.0625, "boxed"), Axis(0.0, 16, 0.5)))
    assert Grid.from_description(g.describe()) == g


# --- norm ------------------------------------------------------------------------


def test_norm_unit_gaussian(grid1d):
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: np.pi**-0.25 * np.exp(-x * x / 2))
    assert abs(norm(psi) - 1.0) < 1e-6


def test_norm_product_gaussian_2d():
    g = Grid.regular(-8.0, 8.0, 128, dimension=2)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    assert abs(norm(psi) - 1.0) < 1e-6


def test_norm_zero_field(grid1d):
    psi = ScalarWaveFunction(grid1d, np.zeros(grid1d.shape, dtype=complex))
    assert norm(psi) == 0.0


def test_normalized_flag_validated(grid1d):
    amps = np.exp(-grid1d.coordinates(0) ** 2)
    with pytest.raises(ValueError):
        ScalarWaveFunction(grid1d, amps, normalized=True)
    assert ScalarWaveFunction(grid1d, amps).normalize().normalized


def test_amplitudes_read_only(grid1d):
    psi = ScalarWaveFunction(grid1d, np.ones(grid1d.shape, dtype=complex))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_nan_rejected(grid1d):
    amps = np.ones(grid1d.shape, dtype=complex)
    amps[3] = np.nan
    with pytest.raises(ValueError):
        ScalarWaveFunction(grid1d, amps)


# --- density ---------------------------------------------------------------------


def test_density_plane_wave(grid1d):
    length = grid1d.axes[0].length
    k = lattice_k(grid1d, 7)
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: np.exp(1j * k * x) / np.sqrt(length))
    np.testing.assert_allclose(density(psi), 1.0 / length, rtol=1e-12)


def test_density_disjoint_bumps(grid1d):
    x = grid1d.coordinates(0)
    bump1 = np.where(np.abs(x + 6) < 1, np.cos(np.pi * (x + 6) / 2) ** 2, 0.0)
    bump2 = np.where(np.abs(x - 6) < 1, np.cos(np.pi * (x - 6) / 2) ** 2, 0.0)
    combined = ScalarWaveFunction(grid1d, (bump1 + bump2).astype(complex))
    np.testing.assert_allclose(density(combined), bump1**2 + bump2**2,
                               atol=1e-15)


def test_density_nonnegative_and_integrates(grid1d):
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: (x + 1j) * np.exp(-x * x / 3))
    rho = density(psi)
    assert np.all(rho >= 0)
    total = np.sum(grid1d.quadrature_weights() * rho)
    assert abs(total - norm(psi) ** 2) < 1e-12


# --- gradient --------------------------------------------------------------------


def test_gradient_plane_wave_exact(grid1d):
    k = lattice_k(grid1d, 19)
    psi = ScalarWaveFunction.from_callable(grid1d, lambda x: np.exp(1j * k * x))
    g = gradient(psi, 0)
    assert np.max(np.abs(g - 1j * k * psi.amplitudes)) < 1e-8


def test_gradient_constant(grid1d):
    psi = ScalarWaveFunction(grid1d, np.full(grid1d.shape, 2.0 - 1.0j))
    assert np.max(np.abs(gradient(psi, 0))) < 1e-12


def test_gradient_boxed_fourth_order():
    errs = []
    for count in (201, 401):
        g = Grid.regular(-8.0, 8.0, count, boundary="boxed", dimension=1)
        psi = ScalarWaveFunction.from_callable(g, lambda x: np.exp(-x * x / 2))
        x = g.coordinates(0)
        exact = -x * psi.amplitudes
        errs.append(np.max(np.abs(gradient(psi, 0) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 1e-6
    assert 3.5 < order < 4.6


def test_gradient_linearity(grid1d):
    rng = np.random.default_rng(0)
    f1 = rng.normal(size=grid1d.shape) + 1j * rng.normal(size=grid1d.shape)
    f2 = rng.normal(size=grid1d.shape) + 1j * rng.normal(size=grid1d.shape)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    combo = gradient(ScalarWaveFunction(grid1d, a * f1 + b * f2), 0)
    parts = (a * gradient(ScalarWaveFunction(grid1d, f1), 0)
             + b * gradient(ScalarWaveFunction(grid1d, f2), 0))
    scale = np.max(np.abs(parts))
    assert np.max(np.abs(combo - parts)) < 1e-12 * scale


def test_gradient_axis_out_of_range(grid1d):
    psi = ScalarWaveFunction(grid1d, np.ones(grid1d.shape, dtype=complex))
    with pytest.raises(ValueError):
        gradient(psi, 1)


# --- probability current ----------------------------------------------------------


def test_current_real_field_vanishes(grid1d, constants):
    psi = ScalarWaveFunction.from_callable(grid1d, lambda x: np.exp(-x * x / 2))
    j = probability_current(psi, constants)
    assert np.max(np.abs(j.components[0])) < 1e-14


def test_current_plane_wave(grid1d, constants):
    length = grid1d.axes[0].length
    k = lattice_k(grid1d, 11)
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: np.exp(1j * k * x) / np.sqrt(length))
    j = probability_current(psi, constants)
    np.testing.assert_allclose(j.components[0], k / length, rtol=1e-9)


def test_current_initial_product_state_zero():
    g = Grid.regular(-8.0, 8.0, 64, dimension=2)
    c = PhysicalConstants.natural(2)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x, y: analytic.coupled_oscillator_wavefunction(x, y, 0.0))
    j = probability_current(psi, c)
    assert all(np.max(np.abs(comp)) < 1e-13 for comp in j.components)


def test_current_equals_density_times_velocity(grid1d, constants):
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: np.exp(-x * x / 4 + 0.7j * x), normalize=True)
    j = probability_current(psi, constants)
    rho = density(psi)
    x = grid1d.coordinates(0)
    threshold = 1e-9 * rho.max()
    for i in range(40, 470, 33):
        if rho[i] > 1e3 * threshold:
            v = velocity(psi, (x[i],), constants)[0]
            assert abs(j.components[0][i] / rho[i] - v) < 1e-10


def test_current_field_shape_validation(grid1d):
    with pytest.raises(ValueError):
        CurrentField(grid1d, (np.zeros(7),))


# --- potentials -------------------------------------------------------------------


def test_potentials_evaluate():
    g2 = Grid.regular(-4.0, 4.0, 32, dimension=2)
    c2 = PhysicalConstants.natural(2)
    x, y = g2.meshgrid()
    np.testing.assert_allclose(Free().evaluate(g2, c2), 0.0)
    np.testing.assert_allclose(Harmonic((1.0, 2.0)).evaluate(g2, c2),
                               0.5 * x**2 + 2.0 * y**2)
    np.testing.assert_allclose(CoupledOscillator(0.5).evaluate(g2, c2),
                               0.25 * (x - y) ** 2)
    soft = SoftCoulomb(0.3).evaluate(g2, c2)
    assert np.all(soft < 0) and np.isfinite(soft).all()


def test_potential_validation():
    g1 = Grid.regular(-4.0, 4.0, 32, dimension=1)
    c1 = PhysicalConstants.natural(1)
    with pytest.raises(ValueError):
        CoupledOscillator(-1.0)
    with pytest.raises(ValueError):
        CoupledOscillator(1.0).evaluate(g1, c1)
    with pytest.raises(ValueError):
        SoftCoulomb(0.0)
    with pytest.raises(ValueError):
        Sampled(np.zeros(5)).evaluate(g1, c1)
    with pytest.raises(ValueError):
        from_description({"kind": "nope"})


# --- spinor fields ----------------------------------------------------------------


def test_spinor_joint_norm():
    g = Grid.regular(-8.0, 8.0, 64, dimension=1)
    x = g.coordinates(0)
    packet = np.exp(-x * x / 2)
    s = SpinorWaveFunction(g, 0.6 * packet, 0.8j * packet).normalize()
    assert abs(s.joint_norm() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        SpinorWaveFunction(g, packet, packet[:-1])


def test_spinor_requires_1d():
    g2 = Grid.regular(-1.0, 1.0, 8, dimension=2)
    with pytest.raises(ValueError):
        SpinorWaveFunction(g2, np.zeros(g2.shape), np.zeros(g2.shape))


# --- divergence -------------------------------------------------------------------


def test_divergence_2d():
    g = Grid.regular(-np.pi * 4, np.pi * 4, 64, dimension=2)
    x, y = g.meshgrid()
    cur = CurrentField(g, (np.sin(x), np.cos(y)))
    div = divergence(cur)
    np.testing.assert_allclose(div, np.cos(x) - np.sin(y), atol=1e-10)


# --- serialization ----------------------------------------------------------------


def test_binary_roundtrip(grid1d, constants):
    psi = ScalarWaveFunction.from_callable(
        grid1d, lambda x: np.exp(-x * x / 2 + 0.3j * x), normalize=True)
    buf = io.BytesIO()
    write_wavefunction(psi, constants, buf)
    buf.seek(0)
    back, cback = read_wavefunction(buf)
    assert back.grid == psi.grid
    assert back.normalized
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    assert cback == constants


def test_binary_roundtrip_2d_boxed(tmp_path):
    g = Grid(axes=(Axis(-2.0, 16, 0.25, "boxed"), Axis(0.0, 12, 0.5)))
    c = PhysicalConstants(hbar=2.0, masses=(1.0, 3.0))
    rng = np.random.default_rng(1)
    psi = ScalarWaveFunction(g, rng.normal(size=g.shape)
                             + 1j * rng.normal(size=g.shape))
    path = tmp_path / "field.bwf"
    write_wavefunction(psi, c, str(path))
    back, cback = read_wavefunction(str(path))
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    assert back.grid == g and cback == c


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        read_wavefunction(io.BytesIO(b"nope" + b"\x00" * 64))


@st.composite
def _containers(draw):
    """A random field with its constants and container bytes."""
    dim = draw(st.integers(1, 2))
    axes = tuple(Axis(draw(st.floats(-10.0, 10.0)), draw(st.integers(8, 12)),
                      draw(st.floats(0.01, 1.0)),
                      draw(st.sampled_from(["periodic", "boxed"])))
                 for _ in range(dim))
    grid = Grid(axes=axes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = ScalarWaveFunction(grid, rng.normal(size=grid.shape)
                             + 1j * rng.normal(size=grid.shape))
    if draw(st.booleans()):
        psi = psi.normalize()
    constants = PhysicalConstants(
        hbar=draw(st.floats(0.01, 10.0)),
        masses=tuple(draw(st.floats(0.01, 10.0)) for _ in range(dim)))
    return psi, constants, roundtrip_bytes(psi, constants)


@settings(deadline=None, max_examples=25)
@given(_containers())
def test_binary_roundtrip_and_truncation(container):
    psi, constants, data = container
    back, cback = read_wavefunction(io.BytesIO(data))
    assert back.grid == psi.grid and cback == constants
    assert back.normalized == psi.normalized
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    for cut in range(len(data)):
        with pytest.raises(ValueError) as err:
            read_wavefunction(io.BytesIO(data[:cut]))
        if cut >= 4:  # past the magic: the message names the short field
            assert "truncated wave-function container" in str(err.value)


@settings(deadline=None, max_examples=25)
@given(_containers(), st.integers(2, 255))
def test_binary_unknown_boundary_flag(container, flag):
    psi, _, data = container
    for i in range(psi.grid.dimension):
        bad = bytearray(data)
        bad[5 + 25 * i + 24] = flag  # magic, dimension, then 25 bytes per axis
        with pytest.raises(ValueError, match=f"axis {i} boundary flag"):
            read_wavefunction(io.BytesIO(bytes(bad)))


def test_csv_export(tmp_path, grid1d):
    psi = ScalarWaveFunction.from_callable(grid1d, lambda x: np.exp(-x * x))
    path = tmp_path / "field.csv"
    wavefunction_to_csv(psi, str(path))
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (512, 3)
    np.testing.assert_allclose(rows[:, 0], grid1d.coordinates(0))
    np.testing.assert_allclose(rows[:, 1], psi.amplitudes.real)
