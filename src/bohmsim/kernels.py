"""The hot kernels: batched cubic Lagrange interpolation of complex fields in
one and two dimensions, and a batched complex tridiagonal solve.

There is one implementation. Interpolation is plain numpy on a shared
four-point stencil (``cubic_stencil``), which the flux and conditional
wave-function code use as well. The tridiagonal solve is one LAPACK call.
"""

import numpy as np
from scipy.linalg import lapack

BACKEND = "python"  # kernel label recorded in every scenario report


def cubic_stencil(n, lo, h, periodic, xq):
    """Four-point cubic Lagrange stencil on the axis of nodes lo + k h,
    k = 0..n-1, at the query points xq (shape (m,)).

    Returns node indices idx and weights w, both of shape (4, m), so that
    the interpolant at xq[j] is sum_k w[k, j] * f[idx[k, j]]. Periodic axes
    wrap the indices; on boxed axes the stencil shifts to stay inside the
    grid, and the caller guarantees in-range xq. The weights are exactly
    0 and 1 when xq is a node, so on-grid queries reproduce stored values
    bit for bit.
    """
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


def interp_cubic_1d(values, lo, h, periodic, xq):
    """Evaluate a gridded complex field at arbitrary points by cubic
    Lagrange interpolation. Caller guarantees in-range xq on boxed axes."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    idx, w = cubic_stencil(values.shape[0], lo, h, periodic, xq)
    return np.einsum("km,km->m", w, values[idx])


def interp_cubic_2d(values, lo0, h0, per0, lo1, h1, per1, xq, yq):
    """Separable bicubic interpolation of a 2-d complex field at point
    pairs (xq[j], yq[j])."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    idx0, w0 = cubic_stencil(values.shape[0], lo0, h0, per0, xq)
    idx1, w1 = cubic_stencil(values.shape[1], lo1, h1, per1, yq)
    out = np.zeros(np.shape(xq), dtype=np.complex128)
    for a in range(4):
        row = np.zeros_like(out)
        for b in range(4):
            row += w1[b] * values[idx0[a], idx1[b]]
        out += w0[a] * row
    return out


def thomas_solve(dl, d, du, rhs):
    """Solve a batch of complex tridiagonal systems, one per row.

    All arguments have shape (lines, n). Row r holds the system with
    sub-diagonal dl[r, 1:], diagonal d[r] and super-diagonal du[r, :-1];
    dl[:, 0] and du[:, -1] are ignored. The lines are stacked into one
    block-diagonal system, with the couplings between neighbouring lines
    set to zero, and solved by a single LAPACK ``zgtsv`` call (Gaussian
    elimination with partial pivoting). The name survives from the Thomas
    algorithm this call replaced, because the benchmark trace wraps
    ``bohmsim.propagate.thomas_solve``.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    lines, n = rhs.shape
    if rhs.size == 1:  # the LAPACK wrapper rejects a 1 x 1 system
        return rhs / np.asarray(d, dtype=np.complex128)
    sub = np.array(dl, dtype=np.complex128)
    sub[:, 0] = 0.0
    sup = np.array(du, dtype=np.complex128)
    sup[:, -1] = 0.0
    diag = np.array(d, dtype=np.complex128).ravel()
    x, info = lapack.zgtsv(sub.ravel()[1:], diag, sup.ravel()[:-1],
                           rhs.reshape(-1, 1), overwrite_dl=1,
                           overwrite_d=1, overwrite_du=1)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal system (zero pivot at row {info})")
    return x.reshape(lines, n)
