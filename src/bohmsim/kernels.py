"""The hot kernels: batched cubic Lagrange interpolation of complex fields in
one and two dimensions, and a batched complex tridiagonal solve.

There is one implementation. Interpolation is plain numpy on a four-point
stencil (``cubic_stencil``), and every off-grid evaluation goes through it:
the guidance flow, the surface current and the conditional wave function.
The tridiagonal systems are LU-factored once
(LAPACK ``zgttrf``) and each solve is one ``zgttrs`` call.

LAPACK is bound on the first factorization, not when this module loads:
importing ``scipy.linalg`` takes about 0.3 s of a 0.5 s start-up and 20-30
MB of resident memory, because scipy's array-API layer loads ``numpy.f2py``,
``numpy.testing`` and ``charset_normalizer`` with it. Only the
Crank-Nicolson propagator calls the two routines, so split-Fourier runs,
every CLI scenario among them, never load it.

Stacked fields lead the array: K fields on one grid are (K, n) or
(K, n0, n1), and the result is (K, m). The gathers are
``np.take(..., axis=-1)``, which leave the m points of each stencil node
contiguous, so every term of the weighted sum runs over rows of m points.
With the fields on a trailing axis each term broadcast an (m, 1) weight over
(m, K): m inner loops of only K = 2 to 6. For four fields on a 2048-point
periodic axis and 4096 points, the take costs about 90 us (``values[:, idx]``
315 us), the sum 120 us against 190-240 us in the trailing layout, and the
whole call 250-400 us against 470-660 us. In 2-d one take gathers the four
nodes of one stencil row, at flat indices ``idx0[a] * n1 + idx1``, and the
row is summed before the next is gathered, so a call holds a quarter of
the 16-node gather and of its index. For three fields on a 128 x 128 grid
at 12000 points, a call's traced peak is 6.1 MB against 15.5 MB for one
take of all 16 nodes, in 3.1-3.5 ms against 3.3-4.2 ms; at 20 points it
costs 94-99 us against 84-88 us (best of 5 x 20 calls, six rounds over two
runs). One 16-node take was 0.6-0.7 ms against 2.7 ms for 16 fancy-index
gathers on a 128 x 384 grid with six fields and 4000 points. ``np.take``
copies a source that is not C-contiguous in full before gathering: one
point from every other row of six such fields costs 0.22 ms, and 3 us
from contiguous rows. So the 2-d kernel makes its source contiguous once,
and the guidance window keeps each snapshot's fields in contiguous leading
rows.

A periodic stencil wraps only where a point needs it (``cubic_stencil``).
For 4096 points on 2048 nodes it costs 75-90 us when no stencil crosses the
period boundary, 165 us when some does and 255 us when a point also lies
outside the period, against 230 us when both wraps always ran. The weighted
sums are written out term by term in a fixed order, which is twice as fast
as ``einsum`` and gives the same bits. (2-core Xeon VM, numpy 2.4, medians
of 15 repeats over two runs.)
"""

import numpy as np

BACKEND = "python"  # kernel label recorded in every scenario report

_OFFSETS = np.arange(4)[:, None]
_SHIFTS = np.array([[1.0], [2.0], [3.0]])
# Lagrange denominators; the signs of weights 0 and 2 ride on them, which is
# exact, since negation commutes with rounded products and quotients.
_DENOMINATORS = np.array([[-6.0], [2.0], [-2.0], [6.0]])
_MIN_ROWS = 3  # the smallest system the LAPACK tridiagonal wrappers accept


def cubic_stencil(n, lo, h, periodic, xq):
    """Four-point cubic Lagrange stencil on the axis of nodes lo + k h,
    k = 0..n-1, at the query points xq (shape (m,)).

    Returns node indices idx and weights w, both of shape (4, m), so that
    the interpolant at xq[j] is sum_k w[k, j] * f[idx[k, j]]. Periodic axes
    wrap the indices; on boxed axes the stencil shifts to stay inside the
    grid, and the caller guarantees in-range xq. The weights are exactly
    0 and 1 when xq is a node, so on-grid queries reproduce stored values
    bit for bit.

    A periodic wrap runs only when some value needs it: the float one when
    some s = (xq - lo) / h lies outside [0, n), the integer one when some
    stencil start lies outside [0, n - 4]. Skipped, each wrap would have
    been the identity, so indices and weights do not depend on it.
    """
    s = (np.asarray(xq, dtype=np.float64) - lo) / h
    # Truncation is floor here: s >= 0 after the periodic wrap, and on boxed
    # axes every s below 1 clips to the first stencil either way.
    if periodic:
        smin, smax = _span(s)
        if not (smin >= 0 and smax < n):
            s = np.mod(s, n)
            smin, smax = _span(s)
        start = np.minimum(s.astype(np.int64), n - 1) - 1
        idx = start + _OFFSETS
        # For s in [0, n), start = floor(s) - 1 lies in [0, n - 4] exactly
        # when s lies in [1, n - 2).
        if not (smin >= 1 and smax < n - 2):
            np.mod(idx, n, out=idx)
    else:
        start = np.clip(s.astype(np.int64) - 1, 0, n - 4)
        idx = start + _OFFSETS
    u = s - start
    a, b, c = u - _SHIFTS  # u - 1, u - 2, u - 3
    w = np.empty((4,) + u.shape)
    np.multiply(a, b, out=w[0])
    np.multiply(u, b, out=w[1])
    np.multiply(u, a, out=w[3])
    w[:2] *= c
    np.multiply(w[3], c, out=w[2])
    w[3] *= b
    w /= _DENOMINATORS
    return idx, w


def _span(a):
    """(min, max) of a; NaN if a holds one, (inf, -inf) if a is empty, so
    that an empty a lies in every interval."""
    return (a.min(), a.max()) if a.size else (np.inf, -np.inf)


def _weighted_sum(w, rows):
    """w[0] rows[0] + w[1] rows[1] + w[2] rows[2] + w[3] rows[3], added left
    to right. w is (4, m), one weight per point, and rows yields four arrays
    of shape (..., m), each read only when its term is added."""
    rows = iter(rows)
    out = w[0] * next(rows)
    for k, row in enumerate(rows, 1):
        out += w[k] * row
    return out


def _stencil_rows(gathered):
    """The four rows (..., m) of a gather of shape (..., 4, m); each is a
    view whose m points are contiguous."""
    return [gathered[..., k, :] for k in range(4)]


def interp_cubic_1d(values, lo, h, periodic, xq):
    """Evaluate a gridded complex field at arbitrary points by cubic
    Lagrange interpolation. Caller guarantees in-range xq on boxed axes.

    ``values`` is one field of shape (n,), giving a result of shape (m,), or
    K fields on the same grid stacked as (K, n), giving (K, m). The stacked
    fields share one stencil, and each row equals the single-field call
    bit for bit.
    """
    values = np.asarray(values, dtype=np.complex128)
    idx, w = cubic_stencil(values.shape[-1], lo, h, periodic, xq)
    return _weighted_sum(w, _stencil_rows(np.take(values, idx, axis=-1)))


def interp_cubic_2d(values, lo0, h0, per0, lo1, h1, per1, xq, yq):
    """Separable bicubic interpolation of a 2-d complex field at point
    pairs (xq[j], yq[j]).

    ``values`` has shape (n0, n1), or (K, n0, n1) for K stacked fields on
    the same grid, with results of shape (m,) or (K, m) as in
    ``interp_cubic_1d``. Each stencil row along axis 1 is gathered and
    summed in turn, then added into the sum of the four rows along axis 0.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    n0, n1 = values.shape[-2:]
    idx0, w0 = cubic_stencil(n0, lo0, h0, per0, xq)
    idx1, w1 = cubic_stencil(n1, lo1, h1, per1, yq)
    flat = values.reshape(values.shape[:-2] + (n0 * n1,))
    # row a's four nodes sit at flat indices idx0[a] * n1 + idx1, (4, m)
    rows = (_weighted_sum(w1, _stencil_rows(
        np.take(flat, idx0[a] * n1 + idx1, axis=-1))) for a in range(4))
    return _weighted_sum(w0, rows)


def factor_tridiagonal(dl, d, du):
    """LU-factor a batch of complex tridiagonal systems, one per row, for
    repeated solves by ``thomas_solve``.

    All arguments have shape (lines, n). Row r holds the system with
    sub-diagonal dl[r, 1:], diagonal d[r] and super-diagonal du[r, :-1];
    dl[:, 0] and du[:, -1] are ignored. The lines are stacked into one
    block-diagonal system, with the couplings between neighbouring lines
    set to zero, and factored by a single LAPACK ``zgttrf`` call (Gaussian
    elimination with partial pivoting). Returns the factors as a tuple.
    """
    from scipy.linalg import lapack  # 0.3 s, 20-30 MB to import; see above

    sub = np.array(dl, dtype=np.complex128)
    sub[:, 0] = 0.0
    sup = np.array(du, dtype=np.complex128)
    sup[:, -1] = 0.0
    # A system smaller than the wrappers accept gets decoupled unit rows
    # appended, which leave its solution as it is.
    pad = np.zeros(max(0, _MIN_ROWS - sub.size))
    diag = np.asarray(d, dtype=np.complex128).ravel()
    *factors, info = lapack.zgttrf(np.concatenate([sub.ravel()[1:], pad]),
                                   np.concatenate([diag, pad + 1.0]),
                                   np.concatenate([sup.ravel()[:-1], pad]),
                                   overwrite_dl=1, overwrite_d=1,
                                   overwrite_du=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal system (zero pivot at row {info})")
    return tuple(factors)


def thomas_solve(factors, rhs):
    """Solve the factored systems of ``factor_tridiagonal`` for the
    right-hand sides rhs, of shape (lines, n), by one LAPACK ``zgttrs``
    call. Returns the solutions, shape (lines, n).
    """
    from scipy.linalg import lapack  # bound by factor_tridiagonal already

    rhs = np.asarray(rhs, dtype=np.complex128)
    lines, n = rhs.shape
    b = rhs.reshape(-1, 1)
    if b.shape[0] < _MIN_ROWS:  # the unit rows factor_tridiagonal appended
        b = np.concatenate([b, np.zeros((_MIN_ROWS - b.shape[0], 1))])
    x, info = lapack.zgttrs(*factors, b)
    if info != 0:
        raise ValueError(f"zgttrs rejected argument {-info}")
    return x[:lines * n].reshape(lines, n)
