"""Survival probability of a decaying state in a well-barrier
potential with an inverse-square tail.

The package computes the continuum energy density of the decaying
state, the exact survival probability by high-accuracy oscillatory
quadrature, its long-time asymptotic models from threshold expansion
coefficients, and effective-exponent fits, exposing everything through
a small CLI.  The long-time algebraic decay exponent equals
2 beta + 3 for repulsive inverse-square tails, while attractive tails
produce parameter-dependent effective exponents — the toolkit's
central numerical statements.
"""

from .analysis import (FitResult, SweepRow, beta_sweep, fit_exponential,
                       fit_power_law, resonance_width)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     ResourceLimitError, TailsurvError, ToleranceError)
from .model import InitialState, WBPotential, regular_boundary_sq
from .spectral import SpectralDensity, ThresholdCoeffs, arc_density_magnitude
from .specfun import (BesselOrder, riccati_combos, riccati_large_x_combos,
                      riccati_pair_with_derivatives)
from .survival import (AsymptoticModel, SurvivalSeries, asymptote_one_term,
                       asymptote_series, spectral_mass, survival_exact,
                       survival_laplace_axis)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticModel",
    "BesselOrder",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "FitResult",
    "InitialState",
    "ResourceLimitError",
    "SpectralDensity",
    "SurvivalSeries",
    "SweepRow",
    "TailsurvError",
    "ThresholdCoeffs",
    "ToleranceError",
    "WBPotential",
    "arc_density_magnitude",
    "asymptote_one_term",
    "asymptote_series",
    "beta_sweep",
    "fit_exponential",
    "fit_power_law",
    "regular_boundary_sq",
    "resonance_width",
    "riccati_combos",
    "riccati_large_x_combos",
    "riccati_pair_with_derivatives",
    "spectral_mass",
    "survival_exact",
    "survival_laplace_axis",
]
