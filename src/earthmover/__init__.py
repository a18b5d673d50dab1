"""Exact discrete Wasserstein-1 (earth mover) distances.

Two computation paths behind one entry point: a closed-form CDF integral for
one-dimensional samples and a built-in transportation simplex for anything
multi-dimensional. Plans, dual certificates, and a file-based CLI included.
"""

from .api import DistanceResult, wasserstein_distance
from .distributions import DiscreteDistribution, Finiteness
from .errors import (
    DimensionMismatchError,
    DualityGapError,
    EarthMoverError,
    IterationLimitError,
    MassMismatchError,
    NegativeWeightError,
    ShapeError,
    SolverError,
    ValidationError,
    WeightLengthError,
    WeightSumError,
)
from .transport_lp import TransportPlan, TransportProblem, TransportSolution

__version__ = "0.1.0"

__all__ = [
    "wasserstein_distance",
    "DistanceResult",
    "DiscreteDistribution",
    "Finiteness",
    "TransportPlan",
    "TransportProblem",
    "TransportSolution",
    "EarthMoverError",
    "ValidationError",
    "ShapeError",
    "DimensionMismatchError",
    "WeightLengthError",
    "NegativeWeightError",
    "WeightSumError",
    "MassMismatchError",
    "SolverError",
    "DualityGapError",
    "IterationLimitError",
    "__version__",
]
