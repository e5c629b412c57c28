"""The hot kernels: batched cubic Lagrange interpolation of complex fields in
one and two dimensions, and a batched complex tridiagonal solve.

There is one implementation. Interpolation is plain numpy on a four-point
stencil (``cubic_stencil``), and every off-grid evaluation goes through it:
the guidance flow, the surface current and the conditional wave function.
The tridiagonal systems are LU-factored once
(LAPACK ``zgttrf``) and each solve is one ``zgttrs`` call.

The two routines come from scipy's compiled LAPACK wrapper module,
``scipy.linalg._flapack``, which ``_lapack`` loads straight from its
extension file on the first factorization; ``scipy.linalg.lapack.zgttrf``
is that module's own function, so the calls and their bits are the same.
``import scipy.linalg`` would run the package's init as well, which loads
scipy's array-API layer and with it ``numpy.f2py``, ``numpy.testing`` and
``charset_normalizer``: after ``import bohmsim.scenarios`` it takes 190-215
ms and 25 MB of resident memory, the extension file alone 4-6 ms and 2.4
MB (fresh processes, 2-core Xeon VM, scipy 1.17). Only the Crank-Nicolson
propagator calls the two routines, so split-Fourier runs, every CLI
scenario among them, never load even the extension.

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

Every array of an interpolation call, the result included, lives in a
``Workspace``: the stencil's scratch (s, then u, the starts, u - 1, u - 2,
u - 3), which every axis reuses, each axis's four indices and weights, the
2-d row's flat indices, the gather, and the weighted sums, which write
each product over its gathered row. Each array is written by a ufunc with
``out=``, with the operands in the order of the plain expression it
replaces, so no bit changes. A call on a fresh workspace allocates them;
a flow hands every call the same workspace, which its first stage sizes,
since its batch only shrinks. The arrays returned are views into it,
valid only until the next call on the same workspace. Allocated afresh,
every stage array of 10^4 members (a stencil's indices or weights,
320 KB; the (2, 4, m) gather, 1.28 MB) lay above glibc's default mmap
threshold of 128 KiB, so each stage mapped fresh pages and faulted them
in: the ``equivariance`` scenario made 2.59 M minor faults, and makes
16 k with the workspace. Blocks of 2048 members would not avoid it: a
(2, 4, 2048) complex gather is 256 KiB, still above the threshold. numpy
still allocates buffers of up to 8192 values for some operations: to cast
the real weights to complex in each product, 128 KiB at 10^4 points, and
for operands it cannot iterate in one run, such as the stencil offsets
broadcast along the rows of a (4, m) output. They are freed at once and
come back from the heap; holding the weights as complex numbers instead,
or splitting those operations row by row, cost time and changed no fault
count.

A periodic stencil wraps only where a point needs it (``cubic_stencil``).
For 4096 points on 2048 nodes it costs 75-90 us when no stencil crosses the
period boundary, 165 us when some does and 255 us when a point also lies
outside the period, against 230 us when both wraps always ran. The weighted
sums are written out term by term in a fixed order, which is twice as fast
as ``einsum`` and gives the same bits. (2-core Xeon VM, numpy 2.4, medians
of 15 repeats over two runs.)
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

BACKEND = "python"  # kernel label recorded in every scenario report

_OFFSETS = np.arange(4)[:, None]
_SHIFTS = np.array([[1.0], [2.0], [3.0]])
# Lagrange denominators; the signs of weights 0 and 2 ride on them, which is
# exact, since negation commutes with rounded products and quotients.
_DENOMINATORS = np.array([[-6.0], [2.0], [-2.0], [6.0]])
_MIN_ROWS = 3  # the smallest system the LAPACK tridiagonal wrappers accept
_FLAPACK = "scipy.linalg._flapack"


class Workspace:
    """Buffers that repeated calls reuse instead of allocating afresh.

    ``arrays(layout, *dims)`` hands out the C-contiguous arrays that
    ``layout(*dims)`` lists as (shape, dtype) pairs, each a leading view
    of a flat buffer of its own. They are carved again only when dims
    change, and a buffer is replaced only when its array needs more than
    it holds, so a flow, whose batch only shrinks, sizes them on its first
    call. Every array handed out is a view: it is valid only until the
    next call that asks the same workspace for the same layout.
    """

    def __init__(self):
        self._held = {}  # layout -> (dims, arrays, buffers)

    def arrays(self, layout, *dims):
        held = self._held.get(layout)
        if held is not None and held[0] == dims:
            return held[1]
        specs = [(shape, math.prod(shape), dtype)
                 for shape, dtype in layout(*dims)]
        buffers = held[2] if held is not None else [None] * len(specs)
        buffers = [buf if buf is not None and buf.size >= size
                   else np.empty(size, dtype)
                   for buf, (_, size, dtype) in zip(buffers, specs)]
        arrays = [buf[:size].reshape(shape)
                  for buf, (shape, size, _) in zip(buffers, specs)]
        self._held[layout] = (dims, arrays, buffers)
        return arrays


def _scratch_layout(m):
    """The scratch of a stencil of m points, which every axis reuses: s
    (then u), the stencil starts and u - 1, u - 2, u - 3."""
    return [((m,), np.float64), ((m,), np.int64), ((3, m), np.float64)]


def _stencil_layout(m):
    """One axis's stencil of m points: its (4, m) indices and weights."""
    return [((4, m), np.int64), ((4, m), np.float64)]


def cubic_stencil(n, lo, h, periodic, xq, out=None):
    """Four-point cubic Lagrange stencil on the axis of nodes lo + k h,
    k = 0..n-1, at the query points xq (shape (m,)).

    Returns node indices idx and weights w, both of shape (4, m), so that
    the interpolant at xq[j] is sum_k w[k, j] * f[idx[k, j]]. Periodic axes
    wrap the indices; on boxed axes the stencil shifts to stay inside the
    grid, and the caller guarantees in-range xq. The weights are exactly
    0 and 1 when xq is a node, so on-grid queries reproduce stored values
    bit for bit. ``out``, when given, holds the arrays of
    ``_scratch_layout(m)`` and ``_stencil_layout(m)``, which receive every
    intermediate; idx and w are the last two.

    A periodic wrap runs only when some value needs it: the float one when
    some s = (xq - lo) / h lies outside [0, n), the integer one when some
    stencil start lies outside [0, n - 4]. Skipped, each wrap would have
    been the identity, so indices and weights do not depend on it.
    """
    xq = np.asarray(xq, dtype=np.float64)
    if out is None:
        out = [np.empty(shape, dtype) for shape, dtype
               in _scratch_layout(xq.size) + _stencil_layout(xq.size)]
    s, start, abc, idx, w = out
    np.subtract(xq, lo, out=s)
    np.divide(s, h, out=s)
    # Truncation is floor here: s >= 0 after the periodic wrap, and on boxed
    # axes every s below 1 clips to the first stencil either way.
    if periodic:
        smin, smax = _span(s)
        if not (smin >= 0 and smax < n):
            np.mod(s, n, out=s)
            smin, smax = _span(s)
        np.copyto(start, s, casting="unsafe")
        np.minimum(start, n - 1, out=start)
        np.subtract(start, 1, out=start)
        np.add(start, _OFFSETS, out=idx)
        # For s in [0, n), start = floor(s) - 1 lies in [0, n - 4] exactly
        # when s lies in [1, n - 2).
        if not (smin >= 1 and smax < n - 2):
            np.mod(idx, n, out=idx)
    else:
        np.copyto(start, s, casting="unsafe")
        np.subtract(start, 1, out=start)
        np.clip(start, 0, n - 4, out=start)
        np.add(start, _OFFSETS, out=idx)
    u = np.subtract(s, start, out=s)
    a, b, c = np.subtract(u, _SHIFTS, out=abc)  # u - 1, u - 2, u - 3
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


def _weighted_sum(w, rows, out):
    """w[0] rows[0] + w[1] rows[1] + w[2] rows[2] + w[3] rows[3], added left
    to right into out. w is (4, m), one weight per point, and rows
    yields four scratch arrays of shape (..., m), each read only when its
    term is added; the product of each later term is written over its
    row."""
    rows = iter(rows)
    np.multiply(w[0], next(rows), out=out)
    for k, row in enumerate(rows, 1):
        np.add(out, np.multiply(w[k], row, out=row), out=out)
    return out


def _stencil_rows(gathered):
    """The four rows (..., m) of a gather of shape (..., 4, m); each is a
    view whose m points are contiguous."""
    return [gathered[..., k, :] for k in range(4)]


def _layout_1d(lead, m):
    """The stencil, the (lead..., 4, m) gather and the weighted sum
    (lead..., m)."""
    return (_scratch_layout(m) + _stencil_layout(m)
            + [(lead + (4, m), np.complex128), (lead + (m,), np.complex128)])


def _layout_2d(lead, m):
    """Both axes' stencils, one stencil row's flat indices (4, m) and its
    (lead..., 4, m) gather, and the row sum and the result of the two
    weighted sums, each (lead..., m)."""
    return (_scratch_layout(m) + _stencil_layout(m) * 2
            + [((4, m), np.int64), (lead + (4, m), np.complex128)]
            + [(lead + (m,), np.complex128)] * 2)


def interp_cubic_1d(values, lo, h, periodic, xq, ws=None):
    """Evaluate a gridded complex field at arbitrary points by cubic
    Lagrange interpolation. Caller guarantees in-range xq on boxed axes.

    ``values`` is one field of shape (n,), giving a result of shape (m,), or
    K fields on the same grid stacked as (K, n), giving (K, m). The stacked
    fields share one stencil, and each row equals the single-field call
    bit for bit. Every array of the call, the result among them, lives in
    the Workspace ``ws`` (a fresh one when None), so the result is a view
    that the next call on ``ws`` overwrites.
    """
    values = np.asarray(values, dtype=np.complex128)
    xq = np.asarray(xq, dtype=np.float64)
    ws = Workspace() if ws is None else ws
    *stencil, gathered, out = ws.arrays(_layout_1d, values.shape[:-1],
                                        xq.size)
    idx, _ = cubic_stencil(values.shape[-1], lo, h, periodic, xq, stencil)
    np.take(values, idx, axis=-1, out=gathered, mode="clip")
    return _weighted_sum(stencil[-1], _stencil_rows(gathered), out)


def interp_cubic_2d(values, lo0, h0, per0, lo1, h1, per1, xq, yq, ws=None):
    """Separable bicubic interpolation of a 2-d complex field at point
    pairs (xq[j], yq[j]).

    ``values`` has shape (n0, n1), or (K, n0, n1) for K stacked fields on
    the same grid, with results of shape (m,) or (K, m) as in
    ``interp_cubic_1d``, and held in the Workspace ``ws`` as there. Each
    stencil row along axis 1 is gathered and summed in turn, then added
    into the sum of the four rows along axis 0.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    xq = np.asarray(xq, dtype=np.float64)
    lead, (n0, n1) = values.shape[:-2], values.shape[-2:]
    ws = Workspace() if ws is None else ws
    arrays = ws.arrays(_layout_2d, lead, xq.size)
    scratch, (idx0, w0, idx1, w1) = arrays[:3], arrays[3:7]
    flat_idx, gathered, row, out = arrays[7:]
    cubic_stencil(n0, lo0, h0, per0, xq, scratch + [idx0, w0])
    cubic_stencil(n1, lo1, h1, per1, yq, scratch + [idx1, w1])
    flat = values.reshape(lead + (n0 * n1,))
    np.multiply(idx0, n1, out=idx0)  # the flat index of each row's start

    def rows():
        # row a's four nodes sit at flat indices idx0[a] * n1 + idx1
        for a in range(4):
            np.add(idx0[a], idx1, out=flat_idx)
            np.take(flat, flat_idx, axis=-1, out=gathered, mode="clip")
            yield _weighted_sum(w1, _stencil_rows(gathered), row)

    return _weighted_sum(w0, rows(), out)


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrapper module, ``scipy.linalg._flapack``,
    loaded from its extension file without running ``scipy.linalg``'s
    package init (see above).

    An entry in ``sys.modules`` is used as it is: it is the module a plain
    import returns. Otherwise the file is loaded and the entry its loader
    adds is removed again, since it has no parent package: left in place,
    a later ``import scipy.linalg`` would take it and lack ``_flapack`` as
    an attribute. Neither ``find_spec`` of the top-level package nor the
    finder imports scipy.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    where = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "linalg")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_FLAPACK)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where}",
                          name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(_FLAPACK, None)
    return module


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
    sub = np.array(dl, dtype=np.complex128)
    sub[:, 0] = 0.0
    sup = np.array(du, dtype=np.complex128)
    sup[:, -1] = 0.0
    # A system smaller than the wrappers accept gets decoupled unit rows
    # appended, which leave its solution as it is.
    pad = np.zeros(max(0, _MIN_ROWS - sub.size))
    diag = np.asarray(d, dtype=np.complex128).ravel()
    *factors, info = _lapack().zgttrf(
        np.concatenate([sub.ravel()[1:], pad]),
        np.concatenate([diag, pad + 1.0]),
        np.concatenate([sup.ravel()[:-1], pad]),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"singular tridiagonal system (zero pivot at row {info})")
    return tuple(factors)


def thomas_solve(factors, rhs):
    """Solve the factored systems of ``factor_tridiagonal`` for the
    right-hand sides rhs, of shape (lines, n), by one LAPACK ``zgttrs``
    call. Returns the solutions, shape (lines, n).
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    lines, n = rhs.shape
    b = rhs.reshape(-1, 1)
    if b.shape[0] < _MIN_ROWS:  # the unit rows factor_tridiagonal appended
        b = np.concatenate([b, np.zeros((_MIN_ROWS - b.shape[0], 1))])
    x, info = _lapack().zgttrs(*factors, b)
    if info != 0:
        raise ValueError(f"zgttrs rejected argument {-info}")
    return x[:lines * n].reshape(lines, n)
