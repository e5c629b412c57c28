"""Contracts of the hot kernels: cubic interpolation and the tridiagonal solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmsim.kernels import (cubic_stencil, interp_cubic_1d, interp_cubic_2d,
                             thomas_solve)

SEEDS = st.integers(0, 2**32 - 1)


def _random_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _upper(lo, h, n, periodic):
    return lo + (n if periodic else n - 1) * h


def _dominant_system(rng, lines, n):
    dl = _random_field(rng, (lines, n)) * 0.2
    du = _random_field(rng, (lines, n)) * 0.2
    d = _random_field(rng, (lines, n)) + 3.0
    return dl, d, du, _random_field(rng, (lines, n))


@pytest.mark.parametrize("periodic", [True, False])
def test_interp_exact_at_grid_points(periodic):
    rng = np.random.default_rng(7)
    n, lo, h = 40, 0.5, 0.25
    vals = _random_field(rng, n)
    pts = lo + h * np.arange(n, dtype=np.float64)
    out = interp_cubic_1d(vals, lo, h, periodic, pts)
    np.testing.assert_array_equal(out, vals)


def test_interp_smooth_wave_midpoints():
    n, lo = 2048, -np.pi * 8
    h = (np.pi * 16) / n
    k = 2.0  # well below the lattice Nyquist pi/h ~ 40
    x = lo + h * np.arange(n)
    vals = np.exp(1j * k * x)
    mid = x[:-1] + 0.5 * h
    out = interp_cubic_1d(vals, lo, h, True, mid)
    assert np.max(np.abs(out - np.exp(1j * k * mid))) < 1e-6


@pytest.mark.parametrize("periodic", [True, False])
def test_stencil_weights_partition_of_unity(periodic):
    n, lo, h = 16, -1.0, 0.125
    xq = np.linspace(lo, _upper(lo, h, n, periodic), 301)
    idx, w = cubic_stencil(n, lo, h, periodic, xq)
    assert idx.shape == w.shape == (4, xq.size)
    assert idx.min() >= 0 and idx.max() < n
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("per", [(True, True), (False, False), (True, False)])
def test_interp_2d_exact_at_grid_points(per):
    rng = np.random.default_rng(5)
    n0, n1 = 12, 16
    vals = _random_field(rng, (n0, n1))
    lo0, h0, lo1, h1 = -1.0, 0.125, 0.5, 0.25  # nodes exact in binary
    i, j = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    out = interp_cubic_2d(vals, lo0, h0, per[0], lo1, h1, per[1],
                          lo0 + h0 * i.ravel(), lo1 + h1 * j.ravel())
    np.testing.assert_array_equal(out, vals.ravel())


def test_interp_2d_reproduces_bicubic_on_boxed_axes():
    rng = np.random.default_rng(9)
    coef = _random_field(rng, (4, 4))
    n0, n1, lo0, h0, lo1, h1 = 10, 14, -1.0, 0.2, 0.5, 0.1

    def poly(x, y):
        return sum(coef[p, q] * x**p * y**q
                   for p in range(4) for q in range(4))

    x = lo0 + h0 * np.arange(n0)
    y = lo1 + h1 * np.arange(n1)
    vals = poly(x[:, None], y[None, :])
    xq = rng.uniform(lo0, _upper(lo0, h0, n0, False), 500)
    yq = rng.uniform(lo1, _upper(lo1, h1, n1, False), 500)
    out = interp_cubic_2d(vals, lo0, h0, False, lo1, h1, False, xq, yq)
    np.testing.assert_allclose(out, poly(xq, yq), rtol=0,
                               atol=1e-11 * np.max(np.abs(vals)))


def _assert_matches_dense(dl, d, du, rhs):
    x = thomas_solve(dl, d, du, rhs)
    assert x.shape == rhs.shape
    for r in range(rhs.shape[0]):
        full = np.diag(d[r]) + np.diag(dl[r, 1:], -1) + np.diag(du[r, :-1], 1)
        np.testing.assert_allclose(x[r], np.linalg.solve(full, rhs[r]),
                                   rtol=0, atol=1e-10)


def test_thomas_matches_dense_solve():
    _assert_matches_dense(*_dominant_system(np.random.default_rng(11), 6, 37))


@settings(deadline=None)
@given(lines=st.integers(1, 8), n=st.integers(1, 40), seed=SEEDS)
def test_thomas_matches_dense_solve_any_shape(lines, n, seed):
    _assert_matches_dense(
        *_dominant_system(np.random.default_rng(seed), lines, n))


@settings(deadline=None)
@given(lines=st.integers(1, 6), n=st.integers(2, 30), seed=SEEDS,
       junk=st.complex_numbers(allow_nan=True, allow_infinity=True))
def test_thomas_ignores_outer_couplings(lines, n, seed, junk):
    dl, d, du, rhs = _dominant_system(np.random.default_rng(seed), lines, n)
    x = thomas_solve(dl, d, du, rhs)
    dl[:, 0] = junk
    du[:, -1] = junk
    np.testing.assert_array_equal(thomas_solve(dl, d, du, rhs), x)


@settings(deadline=None)
@given(n0=st.integers(8, 24), n1=st.integers(8, 24), seed=SEEDS,
       wraps=st.integers(-3, 3))
def test_periodic_interp_wraps(n0, n1, seed, wraps):
    rng = np.random.default_rng(seed)
    lo0, h0, lo1, h1 = -1.5, 0.2, 0.25, 0.1
    per0, per1 = n0 * h0, n1 * h1
    xq = rng.uniform(lo0, lo0 + per0, 50)
    yq = rng.uniform(lo1, lo1 + per1, 50)
    line = _random_field(rng, n0)
    tol = 1e-9 * np.max(np.abs(line))
    np.testing.assert_allclose(
        interp_cubic_1d(line, lo0, h0, True, xq + wraps * per0),
        interp_cubic_1d(line, lo0, h0, True, xq), rtol=0, atol=tol)
    plane = _random_field(rng, (n0, n1))
    tol = 1e-9 * np.max(np.abs(plane))
    np.testing.assert_allclose(
        interp_cubic_2d(plane, lo0, h0, True, lo1, h1, True,
                        xq + wraps * per0, yq - wraps * per1),
        interp_cubic_2d(plane, lo0, h0, True, lo1, h1, True, xq, yq),
        rtol=0, atol=tol)
