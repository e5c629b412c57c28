"""bohmsim: a desk-scale laboratory for pilot-wave quantum dynamics.

Wave functions evolve by two independent unitary schemes, configurations
follow the guidance velocity field, and the statistical machinery around
them (equilibrium sampling, crossing statistics, conditional and effective
wave functions, experiment models and their operator measures) is verified
against closed forms and independent oracles.
"""

from .analytic import (ab_coefficients, coupled_oscillator_trajectory,
                       coupled_oscillator_wavefunction)
from .fields import (CurrentField, ScalarWaveFunction, SpinorWaveFunction,
                     density, gradient, norm, probability_current)
from .grids import Axis, Grid, PhysicalConstants
from .guidance import Trajectory, integrate_trajectory, spinor_velocity
from .kernels import BACKEND as kernel_backend
from .propagate import CRANK_NICOLSON, SPLIT_FOURIER, EvolutionRecord, evolve

__version__ = "0.1.0"

__all__ = [
    "Axis", "Grid", "PhysicalConstants",
    "ScalarWaveFunction", "SpinorWaveFunction", "CurrentField",
    "norm", "density", "gradient", "probability_current",
    "SPLIT_FOURIER", "CRANK_NICOLSON", "EvolutionRecord",
    "evolve", "Trajectory", "spinor_velocity", "integrate_trajectory",
    "ab_coefficients", "coupled_oscillator_wavefunction",
    "coupled_oscillator_trajectory",
    "kernel_backend",
    "__version__",
]
