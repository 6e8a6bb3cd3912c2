"""Numerical toolkit for sum-conditioned walks with stretched-exponential steps."""

from .density import (
    ExpExponent,
    ExponentModel,
    PerturbedDensity,
    Perturbation,
    PowerExponent,
    TabulatedExponent,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from .errors import StretchwalkError

__version__ = "0.1.0"

__all__ = [
    "ExpExponent",
    "ExponentModel",
    "PerturbedDensity",
    "Perturbation",
    "PowerExponent",
    "StretchwalkError",
    "TabulatedExponent",
    "WeibullExponent",
    "parse_model",
    "pure_density",
    "sin_perturbed_density",
    "__version__",
]
