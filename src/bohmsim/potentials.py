"""Potential energy terms: tagged variants evaluated on a grid."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Free:
    def evaluate(self, grid, constants):
        return np.zeros(grid.shape)

    def describe(self):
        return {"kind": "free"}


@dataclass(frozen=True)
class Harmonic:
    """V = sum_k m_k omega_k^2 q_k^2 / 2."""

    omegas: tuple

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))

    def evaluate(self, grid, constants):
        if len(self.omegas) != grid.dimension:
            raise ValueError("one angular frequency per axis required")
        coords = grid.meshgrid()
        v = np.zeros(grid.shape)
        for q, w, m in zip(coords, self.omegas, constants.masses):
            v += 0.5 * m * w * w * q * q
        return v

    def describe(self):
        return {"kind": "harmonic", "omegas": list(self.omegas)}


@dataclass(frozen=True)
class CoupledOscillator:
    """Quadratic pair attraction V = kappa (x - y)^2 / 2 on a 2-d grid."""

    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("coupling must be positive")

    def evaluate(self, grid, constants):
        if grid.dimension != 2:
            raise ValueError("coupled oscillator requires a 2-d grid")
        x, y = grid.meshgrid()
        return 0.5 * self.kappa * (x - y) ** 2

    def describe(self):
        return {"kind": "coupled-oscillator", "kappa": self.kappa}


@dataclass(frozen=True)
class SoftCoulomb:
    """V = -1 / sqrt(|q|^2 + eps^2); the softening keeps V grid-representable."""

    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("softening must be positive")

    def evaluate(self, grid, constants):
        coords = grid.meshgrid()
        r2 = sum(q * q for q in coords)
        return -1.0 / np.sqrt(r2 + self.eps**2)

    def describe(self):
        return {"kind": "soft-coulomb", "eps": self.eps}


@dataclass(frozen=True)
class Sampled:
    """Arbitrary potential given by its values on the grid points."""

    values: np.ndarray

    def evaluate(self, grid, constants):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != grid.shape:
            raise ValueError("sampled potential shape mismatch")
        return vals

    def describe(self):
        return {"kind": "sampled"}


KINDS = {"free": Free, "harmonic": Harmonic,
         "coupled-oscillator": CoupledOscillator, "soft-coulomb": SoftCoulomb}


def from_description(spec):
    """The potential a ``describe()`` dict names. The keys besides ``kind``
    are the fields of the kind's class in KINDS."""
    cls = KINDS.get(spec["kind"])
    if cls is None:
        raise ValueError(f"unknown potential kind {spec['kind']!r}")
    return cls(**{k: v for k, v in spec.items() if k != "kind"})
