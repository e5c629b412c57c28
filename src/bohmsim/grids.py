"""Discretized configuration space (1 or 2 degrees of freedom) and the
physical constants entering the Hamiltonian and the guidance law."""

import math
from dataclasses import dataclass, field

import numpy as np

PERIODIC = "periodic"
BOXED = "boxed"


@dataclass(frozen=True)
class Axis:
    lower: float
    count: int
    spacing: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.count < 8:
            raise ValueError("axis needs at least 8 points")
        if not (math.isfinite(self.lower) and math.isfinite(self.spacing)):
            raise ValueError("axis lower and spacing must be finite")
        if self.spacing <= 0:
            raise ValueError("axis spacing must be positive")
        if self.boundary not in (PERIODIC, BOXED):
            raise ValueError(f"unknown boundary flag {self.boundary!r}")

    @property
    def periodic(self):
        return self.boundary == PERIODIC

    @property
    def length(self):
        """Extent of the axis domain (period for periodic axes)."""
        n = self.count if self.periodic else self.count - 1
        return n * self.spacing

    @property
    def upper(self):
        return self.lower + self.length

    def points(self):
        return self.lower + self.spacing * np.arange(self.count)

    def contains(self, x):
        """Elementwise: x in the closed interval [lower, upper]; NaN is not."""
        return (x >= self.lower) & (x <= self.upper)

    def quadrature_weights(self):
        """Rectangle weights on periodic axes, trapezoid on boxed ones."""
        w = np.full(self.count, self.spacing)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid over 1 or 2 degrees of freedom."""

    axes: tuple = field(default=())

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) not in (1, 2):
            raise ValueError("only 1- and 2-dimensional grids are supported")

    @classmethod
    def regular(cls, lower, upper, count, boundary=PERIODIC, dimension=1):
        """Uniform grid on [lower, upper) (periodic) or [lower, upper] (boxed),
        the same axis repeated along every dimension."""
        n = count if boundary == PERIODIC else count - 1
        # a count too small to divide by fails Axis' own count check
        spacing = (upper - lower) / max(n, 1)
        ax = Axis(lower, count, spacing, boundary)
        return cls(axes=(ax,) * dimension)

    @property
    def dimension(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(ax.count for ax in self.axes)

    def coordinates(self, axis):
        return self.axes[axis].points()

    def meshgrid(self):
        return np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")

    def quadrature_weights(self):
        """Weight array over the full grid (outer product of axis weights)."""
        w = self.axes[0].quadrature_weights()
        if self.dimension == 1:
            return w
        return np.multiply.outer(w, self.axes[1].quadrature_weights())

    def cell_volume(self):
        return float(np.prod([ax.spacing for ax in self.axes]))

    def contains(self, points):
        """Whether each point, shape (..., dimension) or a scalar in 1-d,
        lies in the closed domain; a wrong coordinate count raises ValueError."""
        points = np.atleast_1d(points)
        if points.shape[-1] != self.dimension:
            raise ValueError(f"points with {points.shape[-1]} coordinates "
                             f"on a {self.dimension}-d grid")
        inside = self.axes[0].contains(points[..., 0])
        for k in range(1, self.dimension):
            inside &= self.axes[k].contains(points[..., k])
        return inside

    def describe(self):
        return {
            "dimension": self.dimension,
            "axes": [
                {
                    "lower": ax.lower,
                    "count": ax.count,
                    "spacing": ax.spacing,
                    "boundary": ax.boundary,
                }
                for ax in self.axes
            ],
        }

    @classmethod
    def from_description(cls, spec):
        return cls(
            axes=tuple(
                Axis(a["lower"], int(a["count"]), a["spacing"], a["boundary"])
                for a in spec["axes"]
            )
        )


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and one mass per degree of freedom."""

    hbar: float = 1.0
    masses: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if not all(map(math.isfinite, (self.hbar, *self.masses))):
            raise ValueError("hbar and masses must be finite")
        if self.hbar <= 0 or any(m <= 0 for m in self.masses):
            raise ValueError("hbar and masses must be positive")

    @classmethod
    def natural(cls, dimension=1, hbar=1.0, mass=1.0):
        return cls(hbar=hbar, masses=(mass,) * dimension)

    def check_dimension(self, grid):
        if len(self.masses) != grid.dimension:
            raise ValueError(
                f"{len(self.masses)} masses for a {grid.dimension}-d grid"
            )

    def describe(self):
        return {"hbar": self.hbar, "masses": list(self.masses)}

    @classmethod
    def from_description(cls, spec):
        return cls(hbar=spec["hbar"], masses=tuple(spec["masses"]))
