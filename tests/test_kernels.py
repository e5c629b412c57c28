"""Contracts of the hot kernels: cubic interpolation and the tridiagonal solve."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohmsim.grids import Grid
from bohmsim.kernels import (cubic_stencil, factor_tridiagonal,
                             interp_cubic_1d, interp_cubic_2d, thomas_solve)

SEEDS = st.integers(0, 2**32 - 1)


def _random_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _upper(lo, h, n, periodic):
    return lo + (n if periodic else n - 1) * h


def _smooth_field(periodic, x, y=0.0):
    """A smooth complex field, 2 pi-periodic in both arguments or not."""
    if periodic:
        return np.exp(np.sin(x) + 0.5j * np.cos(2 * y) + 0.3j * np.sin(x + y))
    return np.exp(0.4 * x - 0.2 * (y - 1) ** 2 + 0.3j * x * y + 0.5j * x)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("periodic", [True, False])
def test_interp_fourth_order_in_h(dimension, periodic):
    """Halving the grid spacing cuts the RMS interpolation error ~16x, with
    a third of the queries in each edge cell of the coarsest grid."""
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, (2, 3000))
    u[:, :1000] /= 32
    u[:, 1000:2000] = 1.0 - u[:, 1000:2000] / 32
    xq, yq = 2 * np.pi * u
    exact = _smooth_field(periodic, xq, yq if dimension == 2 else 0.0)
    errs = []
    for n in (32, 64, 128):
        boundary = "periodic" if periodic else "boxed"
        g = Grid.regular(0.0, 2 * np.pi, n if periodic else n + 1,
                         boundary=boundary, dimension=dimension)
        a = g.axes
        if dimension == 1:
            values = _smooth_field(periodic, a[0].points())
            out = interp_cubic_1d(values, a[0].lower, a[0].spacing, periodic,
                                  xq)
        else:
            values = _smooth_field(periodic, *g.meshgrid())
            out = interp_cubic_2d(values, a[0].lower, a[0].spacing, periodic,
                                  a[1].lower, a[1].spacing, periodic, xq, yq)
        errs.append(np.sqrt(np.mean(np.abs(out - exact) ** 2)))
    assert 12 < errs[0] / errs[1] < 24
    assert 12 < errs[1] / errs[2] < 24


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
    x = thomas_solve(factor_tridiagonal(dl, d, du), rhs)
    assert x.shape == rhs.shape
    for r in range(rhs.shape[0]):
        full = np.diag(d[r]) + np.diag(dl[r, 1:], -1) + np.diag(du[r, :-1], 1)
        np.testing.assert_allclose(x[r], np.linalg.solve(full, rhs[r]),
                                   rtol=0, atol=1e-10)


def test_thomas_matches_dense_solve():
    _assert_matches_dense(*_dominant_system(np.random.default_rng(11), 6, 37))


@settings(deadline=None)
@given(lines=st.integers(1, 8), n=st.integers(1, 40), seed=SEEDS)
@example(lines=1, n=1, seed=0)  # the LAPACK wrappers reject a 1 x 1 system
def test_thomas_matches_dense_solve_any_shape(lines, n, seed):
    _assert_matches_dense(
        *_dominant_system(np.random.default_rng(seed), lines, n))


@settings(deadline=None)
@given(lines=st.integers(1, 6), n=st.integers(2, 30), seed=SEEDS,
       junk=st.complex_numbers(allow_nan=True, allow_infinity=True))
def test_thomas_ignores_outer_couplings(lines, n, seed, junk):
    dl, d, du, rhs = _dominant_system(np.random.default_rng(seed), lines, n)
    x = thomas_solve(factor_tridiagonal(dl, d, du), rhs)
    dl[:, 0] = junk
    du[:, -1] = junk
    np.testing.assert_array_equal(
        thomas_solve(factor_tridiagonal(dl, d, du), rhs), x)


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


@settings(deadline=None)
@given(n0=st.integers(8, 24), n1=st.integers(8, 24), k=st.integers(1, 6),
       m=st.integers(1, 200), per=st.tuples(st.booleans(), st.booleans()),
       seed=SEEDS)
def test_stacked_fields_match_single_calls_bit_for_bit(n0, n1, k, m, per,
                                                       seed):
    """K fields stacked on a leading axis interpolate exactly as K separate
    calls, including at nodes and on zero-valued fields."""
    rng = np.random.default_rng(seed)
    lo0, h0, lo1, h1 = -1.5, 0.125, 0.25, 0.25
    xq = rng.uniform(lo0, _upper(lo0, h0, n0, per[0]), m)
    yq = rng.uniform(lo1, _upper(lo1, h1, n1, per[1]), m)
    xq[::3] = lo0 + h0 * rng.integers(0, n0, xq[::3].size)
    line = _random_field(rng, (k, n0))
    plane = _random_field(rng, (k, n0, n1))
    line[0] = 0.0
    plane[rng.random(plane.shape) < 0.2] = 0.0
    out1 = interp_cubic_1d(line, lo0, h0, per[0], xq)
    out2 = interp_cubic_2d(plane, lo0, h0, per[0], lo1, h1, per[1], xq, yq)
    assert out1.shape == out2.shape == (k, m)
    for j in range(k):
        single1 = interp_cubic_1d(line[j], lo0, h0, per[0], xq)
        single2 = interp_cubic_2d(plane[j], lo0, h0, per[0],
                                  lo1, h1, per[1], xq, yq)
        assert out1[j].tobytes() == single1.tobytes()
        assert out2[j].tobytes() == single2.tobytes()


# --- loop reference: the earlier formulation of the interpolation kernels


def _reference_stencil(n, lo, h, periodic, xq):
    s = (np.asarray(xq, dtype=np.float64) - lo) / h
    if periodic:
        s = np.mod(s, n)
        i1 = np.minimum(np.floor(s).astype(np.int64), n - 1)
        start = i1 - 1
        idx = np.stack([np.mod(start + k, n) for k in range(4)])
    else:
        i1 = np.clip(np.floor(s).astype(np.int64), 0, n - 2)
        start = np.clip(i1 - 1, 0, n - 4)
        idx = np.stack([start + k for k in range(4)])
    u = s - start
    w = np.stack([-(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0,
                  u * (u - 2.0) * (u - 3.0) / 2.0,
                  -u * (u - 1.0) * (u - 3.0) / 2.0,
                  u * (u - 1.0) * (u - 2.0) / 6.0])
    return idx, w


def _reference_1d(values, lo, h, periodic, xq):
    """Fancy-index gather and an einsum over the stencil."""
    values = np.asarray(values, dtype=np.complex128)
    idx, w = _reference_stencil(values.shape[-1], lo, h, periodic, xq)
    return np.einsum("km,...km->...m", w, values[..., idx])


def _reference_2d(values, lo0, h0, per0, lo1, h1, per1, xq, yq):
    """Sixteen fancy-index gathers summed row by row."""
    values = np.asarray(values, dtype=np.complex128)
    idx0, w0 = _reference_stencil(values.shape[-2], lo0, h0, per0, xq)
    idx1, w1 = _reference_stencil(values.shape[-1], lo1, h1, per1, yq)
    out = np.zeros(values.shape[:-2] + np.shape(xq), dtype=np.complex128)
    for a in range(4):
        row = np.zeros_like(out)
        for b in range(4):
            row += w1[b] * values[..., idx0[a], idx1[b]]
        out += w0[a] * row
    return out


def _queries(rng, lo, h, n, periodic, m):
    """m points over the axis: uniform, a third moved onto nodes, and on
    boxed axes both edges; periodic axes also get points a period off."""
    upper = _upper(lo, h, n, periodic)
    q = rng.uniform(lo, upper, m)
    q[::3] = lo + h * rng.integers(0, n, q[::3].size)
    if periodic:
        q[1::4] += (upper - lo) * rng.integers(-2, 3, q[1::4].size)
    else:
        q[0], q[-1] = lo, upper
    return q


def _fields(rng, shape, k, strided):
    """Random fields of the given grid shape, k stacked on a leading axis
    (None: one unstacked field). Strided fields take every other node of a
    grid twice as long on its last axis, so the gather source is not
    contiguous."""
    stack = () if k is None else (k,)
    full = _random_field(rng, stack + shape[:-1] + (2 * shape[-1],))
    fields = full[..., 1::2]
    return fields if strided else np.ascontiguousarray(fields)


GRID = dict(lo0=-1.5, h0=0.125, lo1=0.25, h1=0.25)  # nodes exact in binary


@settings(deadline=None, max_examples=60)
@given(n=st.integers(4, 40), m=st.integers(1, 3000), periodic=st.booleans(),
       k=st.sampled_from([None, 1, 2, 4, 6]), strided=st.booleans(),
       seed=SEEDS)
def test_interp_1d_matches_loop_reference(n, m, periodic, k, strided, seed):
    rng = np.random.default_rng(seed)
    values = _fields(rng, (n,), k, strided)
    lo, h = GRID["lo0"], GRID["h0"]
    xq = _queries(rng, lo, h, n, periodic, m)
    idx, w = cubic_stencil(n, lo, h, periodic, xq)
    ref_idx, ref_w = _reference_stencil(n, lo, h, periodic, xq)
    np.testing.assert_array_equal(idx, ref_idx)
    assert w.tobytes() == ref_w.tobytes()
    out = interp_cubic_1d(values, lo, h, periodic, xq)
    ref = _reference_1d(values, lo, h, periodic, xq)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@settings(deadline=None, max_examples=60)
@given(n0=st.integers(4, 24), n1=st.integers(4, 24), m=st.integers(1, 3000),
       per=st.tuples(st.booleans(), st.booleans()),
       k=st.sampled_from([None, 1, 3, 6]), strided=st.booleans(), seed=SEEDS)
def test_interp_2d_matches_loop_reference(n0, n1, m, per, k, strided, seed):
    rng = np.random.default_rng(seed)
    values = _fields(rng, (n0, n1), k, strided)
    g = GRID
    xq = _queries(rng, g["lo0"], g["h0"], n0, per[0], m)
    yq = _queries(rng, g["lo1"], g["h1"], n1, per[1], m)
    args = (g["lo0"], g["h0"], per[0], g["lo1"], g["h1"], per[1], xq, yq)
    out = interp_cubic_2d(values, *args)
    ref = _reference_2d(values, *args)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


def _periodic_batch(rng, n, kind):
    """Query offsets s = (x - lo) / h, exact in binary, of one kind of
    periodic batch:

    - "interior": every stencil inside the grid, so neither wrap runs;
    - "edges": inside [0, n), with stencils across node 0 and node n - 1,
      so only the integer wrap runs;
    - "period-off": the edges batch with one point a period or two away;
    - "at-upper": the edges batch plus points exactly at the upper end;
    - "empty": no points.
    """
    if kind == "empty":
        return np.empty(0)
    frac = rng.integers(0, 8, 40) / 8.0
    s = rng.integers(1, n - 2, 40) + frac
    if kind == "interior":
        return s
    s[:2] = frac[:2]             # start -1: the stencil wraps to node n - 1
    s[2:4] = n - 1 + frac[2:4]   # start n - 2: it wraps to nodes 0 and 1
    if kind == "period-off":
        s[rng.integers(0, s.size)] += n * rng.choice([-2, -1, 1, 2])
    elif kind == "at-upper":
        s[-3:] = n
    return s


@settings(deadline=None)
@given(n=st.integers(4, 40), k=st.integers(1, 4), seed=SEEDS,
       kind=st.sampled_from(["interior", "edges", "period-off", "at-upper",
                             "empty"]))
def test_conditional_periodic_wrap_matches_reference(n, k, seed, kind):
    """Skipping either periodic wrap where it would be the identity leaves
    the stencil's indices and weights bit-identical to the reference, which
    always wraps."""
    rng = np.random.default_rng(seed)
    lo, h = GRID["lo0"], GRID["h0"]
    s = _periodic_batch(rng, n, kind)
    xq = lo + h * s
    assert np.array_equal((xq - lo) / h, s)  # the offsets are exact
    inside = bool(np.all((s >= 0) & (s < n)))
    starts = np.floor(s) - 1
    assert inside == (kind in ("interior", "edges", "empty"))
    if kind in ("interior", "edges"):
        in_grid = np.all((starts >= 0) & (starts <= n - 4))
        assert in_grid == (kind == "interior")
    idx, w = cubic_stencil(n, lo, h, True, xq)
    ref_idx, ref_w = _reference_stencil(n, lo, h, True, xq)
    assert idx.shape == w.shape == (4, s.size)
    np.testing.assert_array_equal(idx, ref_idx)
    assert w.tobytes() == ref_w.tobytes()
    values = _random_field(rng, (k, n))
    out = interp_cubic_1d(values, lo, h, True, xq)
    assert out.shape == (k, s.size)
    assert np.array_equal(out, _reference_1d(values, lo, h, True, xq))
    plane = _random_field(rng, (k, n, n))
    out2 = interp_cubic_2d(plane, lo, h, True, lo, h, True, xq, xq[::-1])
    assert out2.shape == (k, s.size)
    assert np.array_equal(out2, _reference_2d(plane, lo, h, True, lo, h, True,
                                              xq, xq[::-1]))
